"""Joint-kernel brute force: matrices, nullspace, module comparison."""

import json
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from singjack import combinatorics as comb
from singjack import multipoly as mp
from singjack import oracle, singular
from singjack.combinatorics import ParameterViolation


def test_monomial_basis_order():
    assert oracle.monomial_basis(2, 1) == [(1, 0), (0, 1)]
    assert oracle.monomial_basis(3, 2) == [
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    assert oracle.monomial_basis(2, -1) == []


def test_dunkl_matrix_small():
    half = Fraction(-1, 2)
    assert oracle.dunkl_matrix(2, 1, 1, half) == [[Fraction(1, 2),
                                                   Fraction(1, 2)]]
    assert oracle.dunkl_matrix(2, 1, 2, half) == [[Fraction(1, 2),
                                                   Fraction(1, 2)]]
    # degree 2 -> degree 1, rows x1, x2; columns x1^2, x1x2, x2^2
    got = oracle.dunkl_matrix(2, 2, 1, half)
    assert got == [[Fraction(3, 2), 0, Fraction(1, 2)],
                   [Fraction(-1, 2), 1, Fraction(1, 2)]]


def test_joint_kernel_rank_one():
    rep = oracle.joint_kernel(2, 1, Fraction(-1, 2))
    assert rep.dimension == 1
    assert rep.free_columns == [1]
    assert rep.basis == [[Fraction(-1), Fraction(1)]]
    assert rep.monomials == [(1, 0), (0, 1)]


def test_joint_kernel_trivial_at_generic_value():
    rep = oracle.joint_kernel(2, 1, Fraction(1, 3))
    assert rep.dimension == 0
    assert rep.basis == []


def test_joint_kernel_rejects_nonpositive_degree():
    with pytest.raises(ParameterViolation):
        oracle.joint_kernel(2, 0, Fraction(-1, 2))


def test_report_json_round_trip():
    rep = oracle.joint_kernel(3, 1, Fraction(-1, 3))
    obj = rep.to_json(include_timestamp=False)
    assert "timestamp" not in obj
    back = oracle.KernelReport.from_json(obj)
    assert back.N == rep.N and back.degree == rep.degree
    assert back.kappa0 == rep.kappa0
    assert back.monomials == rep.monomials
    assert back.basis == rep.basis
    assert back.free_columns == rep.free_columns
    assert "timestamp" in rep.to_json()


def test_compare_with_matching_module():
    mod = singular.build_module(1, 3, 3)
    rep = oracle.joint_kernel(3, 1, mod.kappa0)
    cmpres = oracle.compare_with_module(rep, mod)
    assert cmpres["per_element"] == [True, True]
    assert cmpres["contains_module"] and cmpres["equal_to_module"]
    assert not cmpres["dimension_mismatch"]
    assert cmpres["kernel_dimension"] == 2 == cmpres["module_dimension"]
    assert rep.comparison is cmpres
    assert rep.to_json(include_timestamp=False)["comparison"] == cmpres


def test_compare_with_wrong_degree_records_not_raises():
    mod = singular.build_module(1, 3, 3)
    rep = oracle.joint_kernel(3, 2, mod.kappa0)
    cmpres = oracle.compare_with_module(rep, mod)
    assert cmpres["per_element"] == [False, False]
    assert not cmpres["contains_module"]
    assert not cmpres["equal_to_module"]


# ---------------------------------------------------------------------------
# cross-check the fraction-free elimination against a plain Fraction RREF

def _rref_nullspace(mat, ncols):
    a = [[Fraction(v) for v in row] for row in mat]
    pivots = []
    r = 0
    for c in range(ncols):
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        inv = 1 / a[r][c]
        a[r] = [v * inv for v in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [v - f * w for v, w in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    out = []
    for f in range(ncols):
        if f in pivots:
            continue
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for row, c in zip(a, pivots):
            x[c] = -row[f]
        out.append(x)
    return out


def _bareiss_nullspace(mat, ncols):
    ech, pivots = oracle._bareiss_echelon(mat)
    out = []
    for f in range(ncols):
        if f in pivots:
            continue
        x = [Fraction(0)] * ncols
        x[f] = Fraction(1)
        for r in range(len(pivots) - 1, -1, -1):
            c = pivots[r]
            s = sum(Fraction(ech[r][j]) * x[j] for j in range(c + 1, ncols))
            x[c] = -s / ech[r][c]
        out.append(x)
    return out


def _in_span(vecs, v):
    if not vecs:
        return not any(v)
    rows = [list(u) for u in vecs]
    red = [Fraction(x) for x in v]
    piv = []
    a = [row[:] for row in rows]
    r = 0
    for c in range(len(v)):
        p = next((i for i in range(r, len(a)) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        piv.append(c)
        r += 1
    for row, c in zip(a, piv):
        if red[c]:
            f = red[c]
            red = [x - f * y for x, y in zip(red, row)]
    return not any(red)


def test_bareiss_against_plain_rref_on_random_matrices():
    rng = random.Random(42)
    for _ in range(25):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        mat = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        fast = _bareiss_nullspace(mat, cols)
        slow = _rref_nullspace(mat, cols)
        assert len(fast) == len(slow)
        for v in fast:
            assert _in_span(slow, v)
        for v in slow:
            assert _in_span(fast, v)
        for v in fast:
            for row in mat:
                assert sum(Fraction(a) * b for a, b in zip(row, v)) == 0


# ---------------------------------------------------------------------------
# the candidate certificate: exact annihilation, exact candidate rank, and
# the one-sided mod-p rank bound, with Bareiss as the fallback

def _module_kernel(m, n, N):
    mod = singular.build_module(m, n, N)
    degree = comb.comp_weight(mod.label.lam)
    return mod, degree, [el.zeta for el in mod.elements]


def _spy_bareiss(monkeypatch):
    calls = []
    real = oracle._bareiss_echelon

    def spy(mat):
        calls.append(len(mat))
        return real(mat)

    monkeypatch.setattr(oracle, "_bareiss_echelon", spy)
    return calls


def _stand_in(mod, zetas):
    return SimpleNamespace(label=mod.label, kappa0=mod.kappa0,
                           elements=[SimpleNamespace(zeta=z) for z in zetas])


def _json(rep):
    return json.dumps(rep.to_json(include_timestamp=False))


def test_back_solve_keeps_fractions_245():
    mod, degree, _ = _module_kernel(2, 4, 5)
    rep = oracle.joint_kernel(5, degree, Fraction(-1, 2))
    assert rep.dimension == 6
    assert all(type(v) is Fraction for vec in rep.basis for v in vec)
    cmpres = oracle.compare_with_module(rep, mod)
    assert cmpres["contains_module"] and cmpres["equal_to_module"]


@pytest.mark.parametrize("mnN", [(1, 3, 3), (1, 2, 3), (1, 3, 5),
                                 (2, 4, 5), (3, 4, 4), (4, 3, 4)])
def test_certified_report_is_the_bareiss_report(mnN, monkeypatch):
    mod, degree, zetas = _module_kernel(*mnN)
    N = mnN[2]
    brute = oracle.joint_kernel(N, degree, mod.kappa0)
    calls = _spy_bareiss(monkeypatch)
    cert = oracle.joint_kernel(N, degree, mod.kappa0, zetas)
    assert calls == []
    assert _json(cert) == _json(brute)
    oracle.compare_with_module(brute, mod)
    oracle.compare_with_module(cert, mod)
    assert _json(cert) == _json(brute)
    assert cert.comparison["equal_to_module"]


def test_certified_report_ignores_the_candidates_basis(monkeypatch):
    mod, degree, zetas = _module_kernel(2, 4, 5)
    want = _json(oracle.joint_kernel(5, degree, mod.kappa0))
    calls = _spy_bareiss(monkeypatch)
    rng = random.Random(7)
    for _ in range(3):
        scaled = [mp.poly_scale(z, Fraction(rng.choice([-3, -1, 2, 5]),
                                            rng.randint(1, 4)))
                  for z in zetas]
        # unit upper-triangular recombination, then a shuffle
        mixed = []
        for i, z in enumerate(scaled):
            for w in scaled[i + 1:]:
                z = mp.poly_add(z, mp.poly_scale(w, rng.randint(-2, 2)))
            mixed.append(z)
        rng.shuffle(mixed)
        got = oracle.joint_kernel(5, degree, mod.kappa0, mixed + mixed[:2])
        assert _json(got) == want
    assert calls == []


def test_candidates_short_of_the_kernel_fall_back(monkeypatch):
    mod, degree, zetas = _module_kernel(1, 3, 5)
    want = _json(oracle.joint_kernel(5, degree, mod.kappa0))
    calls = _spy_bareiss(monkeypatch)
    got = oracle.joint_kernel(5, degree, mod.kappa0, zetas[:-1])
    assert len(calls) == 1
    assert _json(got) == want
    assert got.dimension == len(zetas)
    # a candidate outside the monomial basis of the degree
    stray = mp.monomial(5, (1, 0, 0, 0, 0), Fraction(1), field=mod.kappa0)
    got = oracle.joint_kernel(5, degree, mod.kappa0, zetas + [stray])
    assert len(calls) == 2
    assert _json(got) == want


def test_edited_candidate_falls_back_and_is_rejected(monkeypatch):
    mod, degree, zetas = _module_kernel(1, 3, 5)
    terms = dict(zetas[0].terms)
    e = next(iter(terms))
    terms[e] += 1
    edited = [mp.MultiPoly(5, terms, field=mod.kappa0)] + zetas[1:]
    calls = _spy_bareiss(monkeypatch)
    rep = oracle.joint_kernel(5, degree, mod.kappa0, edited)
    assert len(calls) == 1
    assert rep.dimension == len(zetas)
    cmpres = oracle.compare_with_module(rep, _stand_in(mod, edited))
    assert cmpres["per_element"] == [False] + [True] * (len(zetas) - 1)
    assert not cmpres["contains_module"]
    assert not cmpres["equal_to_module"]


def test_rank_mod_p():
    p = oracle.MODULUS
    assert oracle._rank_mod_p([[p]]) == 0
    assert oracle._rank_mod_p([[p, 0], [0, 2 * p]]) == 0
    assert oracle._rank_mod_p([[1, 2], [2, 4]]) == 1
    assert oracle._rank_mod_p([[1, 2], [2, 4 + p]]) == 1
    assert oracle._rank_mod_p([[0, 1, 3], [1, 0, 0], [0, 2, 5]]) == 3
    assert oracle._rank_mod_p([[0, 1, 3], [1, 0, 0], [0, 2, 5]],
                              stop=2) == 2


def test_loose_rank_bound_does_not_certify(monkeypatch):
    mod, degree, zetas = _module_kernel(1, 3, 5)
    want = _json(oracle.joint_kernel(5, degree, mod.kappa0))
    real = oracle._rank_mod_p
    monkeypatch.setattr(oracle, "_rank_mod_p",
                        lambda rows, stop=None: real(rows, stop) - 1)
    calls = _spy_bareiss(monkeypatch)
    got = oracle.joint_kernel(5, degree, mod.kappa0, zetas)
    assert len(calls) == 1
    assert _json(got) == want
