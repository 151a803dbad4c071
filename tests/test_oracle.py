"""Joint-kernel brute force: matrices, nullspace, module comparison."""

import itertools
import json
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from singjack import combinatorics as comb
from singjack import multipoly as mp
from singjack import cli, oracle, singular
from singjack.combinatorics import ParameterViolation

import reference as ref


def test_monomial_basis_order():
    assert oracle.monomial_basis(2, 1) == [(1, 0), (0, 1)]
    assert oracle.monomial_basis(3, 2) == [
        (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
    assert oracle.monomial_basis(2, -1) == []


def test_dunkl_matrix_small():
    # kappa0 = -1/2, so the rows are those of 2 D_i: the entries are twice
    # those of D_i, one row per (i, lower monomial)
    half = Fraction(-1, 2)
    cols, rows = oracle.dunkl_matrix(2, 1, half)
    assert cols == [(1, 0), (0, 1)]
    assert rows == [{0: 1, 1: 1}, {0: 1, 1: 1}]
    # degree 2 -> degree 1, D_1 rows x1, x2; columns x1^2, x1x2, x2^2
    cols, rows = oracle.dunkl_matrix(2, 2, half)
    assert cols == oracle.monomial_basis(2, 2)
    assert rows[:2] == [{0: 3, 2: 1}, {0: -1, 1: 2, 2: 1}]


def test_joint_kernel_rank_one():
    rep = oracle.joint_kernel(2, 1, Fraction(-1, 2))
    assert rep.dimension == 1
    assert rep.free_columns == [1]
    assert rep.rows == {1: {0: Fraction(-1), 1: Fraction(1)}}
    assert rep.to_json()["kernel_basis"] == [["-1", "1"]]
    assert rep.monomials == [(1, 0), (0, 1)]


def test_joint_kernel_trivial_at_generic_value():
    rep = oracle.joint_kernel(2, 1, Fraction(1, 3))
    assert rep.dimension == 0
    assert rep.rows == {}


def test_joint_kernel_rejects_nonpositive_degree():
    with pytest.raises(ParameterViolation):
        oracle.joint_kernel(2, 0, Fraction(-1, 2))


def test_report_json_round_trip():
    rep = oracle.joint_kernel(3, 1, Fraction(-1, 3))
    obj = rep.to_json(include_timestamp=False)
    assert "timestamp" not in obj
    # read back with Fraction
    assert (obj["N"], obj["degree"]) == (rep.N, rep.degree)
    assert Fraction(obj["kappa0"]) == rep.kappa0
    assert [tuple(e) for e in obj["monomials"]] == rep.monomials
    assert obj["free_columns"] == rep.free_columns
    # the zeros of kernel_basis are the entries rows leaves out
    assert {f: {j: Fraction(x) for j, x in enumerate(vec) if Fraction(x)}
            for f, vec in zip(obj["free_columns"], obj["kernel_basis"])
            } == rep.rows == {1: {0: -1, 1: 1}, 2: {0: -1, 2: 1}}
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
# cross-check the sparse elimination against a plain dense Fraction RREF

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


def _sparse_nullspace(mat, ncols):
    kernel = oracle._nullspace(
        [{j: v for j, v in enumerate(row) if v} for row in mat], ncols)
    assert list(kernel) == sorted(kernel)
    assert all(type(v) is Fraction for x in kernel.values()
               for v in x.values())
    return [[x.get(j, 0) for j in range(ncols)] for x in kernel.values()]


def test_bareiss_against_plain_rref_on_random_matrices():
    rng = random.Random(42)
    mats = [[[0] * 3] * 2, [[0] * 5], [[1, 2], [3, 4]],
            [[2, 0, 0], [0, 0, 3], [1, -1, 0]]]
    for _ in range(80):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        mat = [[rng.choice([0, 0, rng.randint(-4, 4)]) for _ in range(cols)]
               for _ in range(rows)]
        if rng.random() < 0.3:
            mat.insert(rng.randint(0, rows), [0] * cols)
        mats.append(mat)
    for k in range(1, 9):
        # full rank: unit upper triangular, rows then shuffled
        mat = [[int(i == j) or (j > i) * rng.randint(-3, 3)
                for j in range(k)] for i in range(k)]
        rng.shuffle(mat)
        mats.append(mat)
    for mat in mats:
        cols = len(mat[0])
        fast = _sparse_nullspace(mat, cols)
        assert fast == _rref_nullspace(mat, cols)
        for v in fast:
            for row in mat:
                assert sum(a * b for a, b in zip(row, v)) == 0
    assert _sparse_nullspace([[0] * 3] * 2, 3) == [
        [1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert _sparse_nullspace(mats[-1], 8) == []


# ---------------------------------------------------------------------------
# the candidate certificate: exact annihilation and S_N-stability of the
# candidates' span, with the elimination as the fallback

def _module_kernel(m, n, N):
    mod = singular.build_module(m, n, N)
    degree = comb.comp_weight(mod.label.lam)
    return mod, degree, [el.zeta for el in mod.elements]


def _spy_bareiss(monkeypatch):
    calls = []
    real = oracle._nullspace

    def spy(rows, ncols):
        calls.append(len(rows))
        return real(rows, ncols)

    monkeypatch.setattr(oracle, "_nullspace", spy)
    return calls


def _stand_in(mod, zetas):
    return SimpleNamespace(label=mod.label, kappa0=mod.kappa0,
                           elements=[SimpleNamespace(zeta=z) for z in zetas])


def _json(rep):
    return json.dumps(rep.to_json(include_timestamp=False))


def _loosen_bound(monkeypatch):
    # the spectral bound one above its value, so the spectral vectors must
    # decide
    real = oracle._spectral_bound
    monkeypatch.setattr(oracle, "_spectral_bound",
                        lambda *args: real(*args) + 1)


def test_back_solve_keeps_fractions_245():
    mod, degree, _ = _module_kernel(2, 4, 5)
    rep = oracle.joint_kernel(5, degree, Fraction(-1, 2))
    assert rep.dimension == 6
    assert all(type(v) is Fraction for row in rep.rows.values()
               for v in row.values())
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


@pytest.mark.parametrize("mnN", [(3, 2, 3), (3, 4, 4)])
def test_no_candidates_fall_back(mnN, monkeypatch):
    # the kernel's isotype is (1,1,1) at (3,2,3) and (3,1) at (3,4,4); its
    # spectral vector is decided 1, so the empty span falls short
    mod, degree, _ = _module_kernel(*mnN)
    N = mnN[2]
    want = _json(oracle.joint_kernel(N, degree, mod.kappa0))
    calls = _spy_bareiss(monkeypatch)
    got = oracle.joint_kernel(N, degree, mod.kappa0, [])
    assert len(calls) == 1
    assert _json(got) == want
    assert got.dimension == len(mod.elements)
    if mnN == (3, 2, 3):
        assert (degree, mod.kappa0, got.dimension) == (9, Fraction(-3, 2), 1)


def test_wrong_candidate_of_the_right_isotype_falls_back(monkeypatch):
    # Vandermonde times (x1 + x2 + x3)^6 is antisymmetric, so S_3-stable
    # and of the kernel's isotype (1,1,1) at (3,2,3), but not singular
    kappa0 = Fraction(-3, 2)
    x1, x2, x3 = (ref.x_var(3, i, field=kappa0) for i in (1, 2, 3))
    f = (x1 - x2) * (x1 - x3) * (x2 - x3)
    for _ in range(6):
        f = f * (x1 + x2 + x3)
    for k in (1, 2):
        assert mp.apply_perm(comb.transposition(3, k, k + 1), f) == -f
    want = _json(oracle.joint_kernel(3, 9, kappa0))
    calls = _spy_bareiss(monkeypatch)
    got = oracle.joint_kernel(3, 9, kappa0, [f])
    assert len(calls) == 1
    assert _json(got) == want
    assert got.dimension == 1


def _young_projection(f, mu, sign):
    """sum over s in S_mu of s.f, times the sign of s for sign -1"""
    N = f.n
    blocks = []
    for part in mu:
        start = sum(len(b) for b in blocks)
        blocks.append(range(start, start + part))
    out = mp.mp_zero(N, field=f.field)
    for images in itertools.product(*map(itertools.permutations, blocks)):
        w = [0] * N
        for block, image in zip(blocks, images):
            for a, b in zip(block, image):
                w[a] = b + 1
        inversions = sum(1 for a in range(N) for b in range(a + 1, N)
                         if w[a] > w[b])
        s = (-1) ** inversions if sign < 0 else 1
        out = mp.poly_add(out, mp.poly_scale(mp.apply_perm(tuple(w), f), s))
    return out


def test_unstable_candidates_fall_back(monkeypatch):
    # the module symmetrized over S_(3,2) and antisymmetrized over
    # S_(3,1,1): killed by every D_i, but a proper subspace of the kernel
    # that S_5 does not preserve
    mod, degree, zetas = _module_kernel(1, 3, 5)
    want = _json(oracle.joint_kernel(5, degree, mod.kappa0))
    cands = [_young_projection(z, mu, sign)
             for mu, sign in [((3, 2), 1), ((3, 1, 1), -1)] for z in zetas]
    span = oracle._candidate_span(cands, 5, mod.kappa0,
                                  oracle.monomial_basis(5, degree))
    assert 0 < len(span) < len(zetas)
    calls = _spy_bareiss(monkeypatch)
    got = oracle.joint_kernel(5, degree, mod.kappa0, cands)
    assert len(calls) == 1
    assert _json(got) == want


def test_a_span_killed_by_d1_alone_is_not_certified(monkeypatch):
    # the module less one element, plus a vector that D_1 kills and some
    # other D_i does not: the kernel's dimension, killed by D_1, but not
    # S_N-stable.  The span falls back to the elimination; without the
    # stability check, D_1 alone would certify it as the kernel
    mod, degree, zetas = _module_kernel(1, 3, 5)
    kappa0, cols = mod.kappa0, oracle.monomial_basis(5, degree)
    block = {}
    for c, e in enumerate(cols):
        for b, v in oracle._dunkl_terms(5, 0, {e: 1}, kappa0).items():
            block.setdefault(b, {})[c] = v
    stray = next(
        f for x in oracle._nullspace(list(block.values()), len(cols)).values()
        for f in [{cols[j]: v for j, v in x.items()}]
        if not oracle._annihilated(f, 5, kappa0))
    assert oracle._annihilated(stray, 5, kappa0, 1)
    cands = zetas[:-1] + [mp.MultiPoly(5, stray, field=kappa0)]
    want = _json(oracle.joint_kernel(5, degree, kappa0))
    calls = _spy_bareiss(monkeypatch)
    got = oracle.joint_kernel(5, degree, kappa0, cands)
    assert len(calls) == 1
    assert _json(got) == want
    monkeypatch.setattr(oracle, "_stable", lambda *args: True)
    assert oracle._certified_span(cands, 5, kappa0, cols)[0] == (
        "spectral bound")


def _drop_last_row(monkeypatch):
    # an echelon form that lost its last pivot row: that pivot column turns
    # free and the vector read off there is not in the kernel
    real = oracle._echelon

    def short(vectors):
        span = real(vectors)
        span.popitem()
        return span

    monkeypatch.setattr(oracle, "_echelon", short)


def test_lost_echelon_row_raises(monkeypatch):
    _drop_last_row(monkeypatch)
    with pytest.raises(oracle.KernelInvariantError):
        oracle.joint_kernel(3, 3, Fraction(-1, 3))


def test_lost_echelon_row_exits_4_from_verify(capsys, monkeypatch):
    monkeypatch.setattr(oracle, "_certified_span", lambda *args: None)
    _drop_last_row(monkeypatch)
    code = cli.main(["verify", "--oracle", "--m", "1", "--n", "3",
                     "--N", "3"])
    out = capsys.readouterr()
    assert code == cli.EXIT_CERT == 4
    assert out.out == "" and "not annihilated" in out.err


# ---------------------------------------------------------------------------
# the spectral bound: a count of compositions by Cherednik spectrum, never
# below the kernel's dimension, and tight on the modules

def test_content_vectors_and_rank_vector_match_combinatorics():
    for N in range(1, 7):
        for nu in comb.partitions_of(N):
            want = sorted(tuple(t.eta(k) for k in range(1, N + 1))
                          for t in ref.syt_enumerate(nu))
            assert sorted(oracle._content_vectors(nu)) == want
    for alpha in itertools.product(range(3), repeat=4):
        assert oracle._rank_vector(alpha) == comb.rank_vector(alpha)


def _slices(N):
    """The kappa0 = -m/n with 2 <= n <= N, m < 3n not a multiple of n, and
    the degrees up to 8 (6 for N = 4)."""
    kappas = sorted({Fraction(-m, n) for n in range(2, N + 1)
                     for m in range(1, 3 * n) if m % n})
    return [(k, d) for k in kappas for d in range(1, 9 if N < 4 else 7)]


def _decided_dimension(N, degree, kappa0):
    return sum(f * k for f, k in oracle._decided(N, degree, kappa0).values())


@pytest.mark.parametrize("N", [2, 3, 4])
def test_spectral_bound_is_never_below_the_bareiss_kernel(N):
    loose = []
    for kappa0, degree in _slices(N):
        bound = oracle._spectral_bound(N, degree, kappa0)
        dim = oracle.joint_kernel(N, degree, kappa0).dimension
        assert bound >= dim, (kappa0, degree)
        assert _decided_dimension(N, degree, kappa0) == dim, (kappa0, degree)
        if bound != dim:
            loose.append((kappa0, degree, bound, dim))
    # the one loose slice: the single spectral vector of (2,2) is killed
    # by D_3 and D_4 but not by D_1, so it is decided 0
    assert loose == ([(Fraction(-1, 2), 3, 2, 0)] if N == 4 else [])


def _bound_and_dimension(m, n, N):
    label = comb.resolve_label(m, n, N)
    degree = comb.comp_weight(label.lam)
    return (oracle._spectral_bound(N, degree, label.kappa0),
            len(ref.syt_enumerate(label.tau)))


def test_spectral_bound_meets_the_module_on_every_small_triple():
    triples = [(m, n, N) for N in range(2, 6) for n in range(2, N + 1)
               for m in range(1, 2 * n) if m % n]
    assert len(triples) == 40
    for mnN in triples:
        bound, dim = _bound_and_dimension(*mnN)
        assert bound == dim, mnN


@pytest.mark.parametrize("mnN, bound, dim", [
    ((2, 4, 6), 15, 10), ((6, 4, 6), 15, 10), ((1, 2, 6), 1, 1),
    ((3, 4, 6), 5, 5), ((1, 2, 7), 1, 1), ((2, 4, 7), 15, 15),
    ((2, 6, 7), 14, 14)])
def test_spectral_bound_on_larger_modules(mnN, bound, dim):
    # (2,4,6) and (6,4,6) count the shape (2,2,2), which K does not hold
    assert _bound_and_dimension(*mnN) == (bound, dim)
    if mnN == (2, 4, 6):
        # one composition each: (2,2,2)'s vector is not killed by D_1, the
        # module's (3,1,1,1) is, though xi_4 of (4,3,2,0,0,0) is 0
        assert oracle._decided(6, 9, Fraction(-1, 2)) == {
            (3, 1, 1, 1): (10, 1), (2, 2, 2): (5, 0)}


def test_loose_slice_goes_through_the_slices_to_the_bareiss_report(
        monkeypatch):
    kappa0 = Fraction(-1, 2)
    assert oracle._spectral_bound(4, 3, kappa0) == 2
    brute = oracle.joint_kernel(4, 3, kappa0)
    got = oracle.joint_kernel(4, 3, kappa0, [])
    assert (brute.dimension, brute.method) == (0, "elimination")
    assert got.method == "spectral vector"
    assert _json(got) == _json(brute)
    # the vector of (2,2) passes the check with its own spectrum, and fails
    # it with any one eigenvalue off
    (_, _, [alpha]), = oracle._shapes(4, 3, kappa0)
    v = oracle._solve(alpha, kappa0)
    xi = oracle._spectrum(alpha, kappa0)
    assert oracle._joint_eigen_ok(v, 4, kappa0, xi)
    assert not oracle._joint_eigen_ok({}, 4, kappa0, xi)
    for k in range(4):
        off = xi[:k] + [xi[k] + 1] + xi[k + 1:]
        assert not oracle._joint_eigen_ok(v, 4, kappa0, off)
    # a corrupted vector is refused, and the elimination decides
    bad = dict(v)
    bad[alpha] += 1
    monkeypatch.setattr(oracle, "_solve", lambda *args: bad)
    assert oracle._decided(4, 3, kappa0) is None
    calls = _spy_bareiss(monkeypatch)
    got = oracle.joint_kernel(4, 3, kappa0, [])
    assert (len(calls), got.method) == (1, "elimination")
    assert _json(got) == _json(brute)
    # a shape matched by three compositions keeps its count: at N = 6,
    # degree 6, the bound 15 is 5 tableaux of (3,3) times 3
    monkeypatch.undo()
    assert oracle._decided(6, 6, kappa0) == {(4, 1, 1): (10, 0),
                                             (3, 3): (5, 3)}


def test_report_names_the_method(monkeypatch, capsys):
    mod, degree, zetas = _module_kernel(1, 3, 5)
    reports = [oracle.joint_kernel(5, degree, mod.kappa0, zetas)]
    with monkeypatch.context() as patch:
        _loosen_bound(patch)
        reports.append(oracle.joint_kernel(5, degree, mod.kappa0, zetas))
    reports.append(oracle.joint_kernel(5, degree, mod.kappa0))
    assert [r.method for r in reports] == ["spectral bound",
                                           "spectral vector", "elimination"]
    assert len({_json(r) for r in reports}) == 1
    assert "method" not in reports[0].to_json()
    assert cli.main(["verify", "--oracle", "--m", "1", "--n", "3",
                     "--N", "5"]) == 0
    assert "kernel dimension 5 by spectral bound," in capsys.readouterr().err
