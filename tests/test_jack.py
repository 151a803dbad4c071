"""Eigenvector construction, basis changes, and step/differentiation laws."""

import json
import tracemalloc
from fractions import Fraction
from collections import Counter
from functools import lru_cache
from itertools import chain
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singjack import combinatorics as comb
from singjack import exactarith
from singjack import jack
from singjack import multipoly as mp
from singjack.combinatorics import ZeroComposition
from singjack.exactarith import (
    KAPPA,
    KP_ONE,
    KR_ONE,
    KR_ZERO,
    KappaPoly,
    KappaRatio,
    PoleError,
    _int_form,
    kappa_linear,
    poly_gcd,
    root_multiplicity,
)
from singjack.operators import (OperatorContext, cherednik,
                                cherednik_k_terms, dunkl)

import reference as ref


def _over(jp, poly, facs):
    """A JackPoly with the alpha, N and basis of jp and the value of the
    Q(kappa) MultiPoly poly, over d0 times the product of facs, primitive
    linear factors (a, b) for a*kappa + b: each coefficient times that
    product by exact KappaPoly division, and d0 the lcm of the
    denominators left."""
    top = KP_ONE
    for f in facs:
        top = top * kappa_linear(*f)
    ints = {e: _int_form((c.num * top).exact_div(c.den))
            for e, c in poly.terms.items()}
    d0 = lcm(*(d for _, d in ints.values()))
    return jack.JackPoly(jp.alpha, jp.n, jp.basis, {
        e: [x * (d0 // d) for x in num] for e, (num, d) in ints.items()},
        (d0, tuple(sorted(Counter(facs).items()))))


def _facs(jp):
    """The linear factors of jp's den, each as often as it divides."""
    return [f for f, m in jp.den[1] for _ in range(m)]


def test_zeta_x_smallest_cases():
    z = jack.zeta_x((1, 0), 2)
    x1, x2 = ref.x_var(2, 1), ref.x_var(2, 2)
    assert z.poly == x1 + mp.poly_scale(x2, KAPPA / (KAPPA + 1))
    assert jack.zeta_x((0, 1), 2).poly == x2
    z3 = jack.zeta_x((0, 1, 0), 3)
    assert z3.poly == ref.x_var(3, 2) + mp.poly_scale(
        ref.x_var(3, 3), KAPPA / (2 * KAPPA + 1))


def test_zeta_x_monic_and_triangular():
    for alpha in ((2, 0, 1), (1, 1, 1), (0, 2, 1), (3, 0, 0)):
        z = jack.zeta_x(alpha, 3)
        assert mp.coeff(z.poly, alpha) == KR_ONE
        for e in z.poly.support():
            if e != alpha:
                assert comb.triangle_greater(alpha, e)


def test_zeta_x_eigen_equations():
    # re-check the defining property with independently applied operators
    ctx = OperatorContext(3)
    for alpha in ((2, 1, 0), (0, 1, 2)):
        z = jack.zeta_x(alpha, 3)
        for i in (1, 2, 3):
            xi = kappa_linear(*comb.spectral_vector(z.alpha)[i - 1])
            assert cherednik(ctx, i, z.poly) == mp.poly_scale(z.poly, xi)


def test_zeta_coefficients_stable_in_ambient_size():
    small = jack.zeta_x((2, 1), 3)
    big = jack.zeta_x((2, 1), 4)
    for e, c in small.poly.terms.items():
        assert big.poly.terms.get(e + (0,)) == c


def test_partition_denominators_divide_the_hook():
    # for partitions every pole of an x-monic coefficient sits among the
    # roots of h(lambda, kappa+1); rearrangements can pick up extra poles
    for n, d in ((2, 3), (3, 3), (3, 4)):
        for lam in comb.partitions_of(d, max_len=n):
            z = jack.zeta_x(lam, n)
            hook = comb.hook_product(lam, kappa_linear(1, 1))
            for fac, mult in z.denominator_factors:
                assert fac.degree == 1
                a, b = fac.coeffs[1], fac.coeffs[0]
                assert root_multiplicity(hook, Fraction(-b) / a) >= 1
    z = jack.zeta_x((2, 0, 1), 3)
    assert [(str(f), m) for f, m in z.denominator_factors] == [("k + 1", 2)]
    # a non-partition rearrangement with a pole outside the hook roots
    z2 = jack.zeta_x((0, 3, 0), 3)
    assert [str(f) for f, _ in z2.denominator_factors] == ["k + 3/2", "k + 2"]


def test_denominator_factors_characterize_poles():
    z = jack.zeta_x((0, 3, 0), 3)
    with pytest.raises(PoleError):
        ref.specialize(z.poly, Fraction(-3, 2))
    with pytest.raises(PoleError):
        ref.specialize(z.poly, -2)
    for v in (Fraction(-1, 2), -1, -3):
        assert ref.specialize(z.poly, v).field == Fraction(v)


def test_ambient_too_small():
    with pytest.raises(jack.AmbientTooSmall):
        jack.zeta_x((1, 1, 1), 2)
    with pytest.raises(jack.AmbientTooSmall):
        jack.zeta_p((1, 0, 2), 2)


def test_p_basis_small_values():
    x1, x2 = ref.x_var(2, 1), ref.x_var(2, 2)
    assert ref.p_basis((1, 0), 2) == mp.poly_scale(
        x1, kappa_linear(1, 1)) + mp.poly_scale(x2, KAPPA)
    # x1 x2 coefficient of p_(1,1): (k+1)^2 from the aligned picks, k^2 crossed
    p11 = ref.p_basis((1, 1), 2)
    assert mp.coeff(p11, (1, 1)) == KR_ZERO + (
        kappa_linear(1, 1) * kappa_linear(1, 1) + KAPPA * KAPPA)
    assert mp.coeff(p11, (2, 0)) == KAPPA * kappa_linear(1, 1)


def test_p_expand_inverts_p_basis():
    for n, d in ((2, 2), (3, 2), (3, 3)):
        for gamma in comb.compositions_of(d, n):
            got = ref.p_expand(ref.p_basis(gamma, n), n)
            assert got == {gamma: KR_ONE}


def test_p_expand_needs_homogeneous():
    f = ref.x_var(2, 1) + ref.mp_const(2, 1)
    with pytest.raises(jack.SolveFailure):
        ref.p_expand(f, 2)


def test_zeta_p_monic_and_conversion_factor():
    assert jack.p_to_x_factor((1, 0)) == KR_ZERO + kappa_linear(1, 1)
    assert jack.p_to_x_factor((0, 1)) == KappaRatio(
        kappa_linear(2, 1), kappa_linear(1, 1))
    for alpha in ((1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 1)):
        n = 2
        zx = jack.zeta_x(alpha, n)
        zp = jack.zeta_p(alpha, n)
        fac = jack.p_to_x_factor(alpha)
        assert zp.poly == mp.poly_scale(zx.poly, fac)
        expansion = ref.p_expand(zp.poly, n)
        assert expansion[comb.pad(alpha, n)] == KR_ONE
        # the p-coefficient of zeta_x is the reciprocal of the factor
        assert ref.p_expand(zx.poly, n)[comb.pad(alpha, n)] == fac.reciprocal()


def test_z2sz_step_matches_direct():
    for alpha, i in (((2, 1, 0), 1), ((2, 1, 0), 2), ((3, 1, 0), 1),
                     ((2, 2, 1), 2)):
        for basis in ("x", "p"):
            build = jack.zeta_x if basis == "x" else jack.zeta_p
            z = build(alpha, 3)
            stepped = jack.z2sz_step(z, i)
            target = comb.perm_on_comp(comb.transposition(3, i, i + 1), z.alpha)
            assert stepped.alpha == comb.pad(target, 3)
            assert stepped.poly == build(target, 3).poly


def test_z2sz_step_needs_decrease():
    z = jack.zeta_x((1, 2, 0), 3)
    with pytest.raises(jack.NotDecreasingAt):
        jack.z2sz_step(z, 1)
    with pytest.raises(jack.NotDecreasingAt):
        jack.z2sz_step(jack.zeta_x((1, 1, 0), 3), 1)
    with pytest.raises(jack.NotDecreasingAt):
        jack.z2sz_step(z, 3)


# ------------------------------------------- the intertwiner certificate

# (alpha, N, i) with alpha_i > alpha_{i+1}; the last is the first step of
# the module (2,5,6), and (3,1,0) at i = 2 has delta = 1
_STEPS = [((2, 0, 1), 3, 1), ((3, 1, 0), 3, 2), ((1, 3, 2, 0), 4, 2),
          ((2, 2, 0, 0, 0, 0), 6, 2)]


def _with_numerator(jp, e, num):
    nums = dict(jp.nums)
    nums[e] = num
    return jack.JackPoly(jp.alpha, jp.n, jp.basis, nums, jp.den)


@pytest.mark.parametrize("alpha, n, i", _STEPS)
def test_the_intertwiner_check_kills_each_mutation(monkeypatch, alpha, n, i):
    zeta = jack.zeta_x(alpha, n)
    child = jack.z2sz_step(zeta, i)
    assert child.coeffs == jack.zeta_x(child.alpha, n).coeffs
    # the step with delta +- 1, or with L -> -L, which flips the sign of
    # a = kappa/L: L is read off the spectral vector, so editing it edits
    # the step alone.  (3,1,0) at i = 2 with delta - 1 has P = 0, which
    # the division refuses by ZeroDivisionError
    spectral_vector = comb.spectral_vector

    def edited(edit):
        return lambda beta: edit(list(spectral_vector(beta)))

    def shift(db):
        def edit(spec):
            a, b = spec[i - 1]
            spec[i - 1] = a, b + db
            return spec
        return edit

    def flip(spec):
        spec[i - 1], spec[i] = spec[i], spec[i - 1]
        return spec

    for edit in (shift(1), shift(-1), flip):
        monkeypatch.setattr(comb, "spectral_vector", edited(edit))
        with pytest.raises(ArithmeticError):
            jack.z2sz_step(zeta, i)
    monkeypatch.undo()
    # one parent numerator that s_i moves off by kappa^k: the parent's
    # shape check passes it, and unless P = 1 (as for (3,1,0) at i = 2)
    # L s_i N - kappa N is then not divisible by P: the remainder refuses
    # it, or for a constant P, whose X-value is even, the digit test
    e = next(e for e in mp.support_order(zeta.nums)
             if e[i - 1] != e[i] and e != zeta.alpha)
    off = _with_numerator(zeta, e, zeta.nums[e] + [1])
    off.assert_shape()
    if jack._intertwiner(alpha, i, i + 1)[1] != (0, 1):
        with pytest.raises(jack.SolveFailure):
            jack.z2sz_step(off, i)
    # the parent doubled steps exactly to a child with leading coefficient
    # 2, which the lead check refuses
    with pytest.raises(jack.SolveFailure, match="not 1"):
        jack.z2sz_step(_scaled(zeta, 2), i)


def _scaled(jp, k):
    """jp with every numerator times k over the same den."""
    return jack.JackPoly(jp.alpha, jp.n, jp.basis, {
        e: [k * x for x in num] for e, num in jp.nums.items()}, jp.den)


def test_the_shape_check_refuses_a_support_or_lead_edit():
    # the shape check that the basis-p steps run: an exponent above alpha
    # or of another degree, and a lead off the basis's normalization
    for z in (jack.zeta_x((2, 0, 1), 3), jack.zeta_p((2, 0, 1), 3)):
        z.assert_shape()
        for e in ((3, 0, 0), (0, 0, 1)):
            with pytest.raises(jack.SolveFailure, match="not below"):
                _with_numerator(z, e, [1]).assert_shape()
        with pytest.raises(jack.SolveFailure, match="at its own x"):
            _scaled(z, 2).assert_shape()
    jack.clear_caches()


def test_only_the_adjacent_x_step_skips_the_eigen_check(monkeypatch):
    # movert_step, movelt_step and every step in basis p check their shape
    # and eigen-equations; the route, zeta_p and the adjacent x step check
    # neither
    checked = []

    def counted(name):
        real = getattr(jack.JackPoly, name)
        return lambda jp: checked.append((name, jp.alpha)) or real(jp)

    for name in ("assert_shape", "_assert_eigen"):
        monkeypatch.setattr(jack.JackPoly, name, counted(name))
    zx, zp = jack.zeta_x((2, 1, 0), 3), jack.zeta_p((2, 1, 1), 3)
    zl = jack.zeta_p((2, 2, 1), 3)
    jack.z2sz_step(zx, 1)
    assert checked == []
    jack.z2sz_step(zp, 1)
    jack.movert_step(zp, 1, 2)
    jack.movelt_step(zl, 2, 1)
    assert checked == [(name, alpha)
                       for alpha in ((1, 2, 1), (1, 1, 2), (2, 1, 2))
                       for name in ("assert_shape", "_assert_eigen")]
    jack.clear_caches()


def test_swap_replay_reaches_every_rearrangement():
    # bubble each rearrangement up to the partition, then replay the swaps
    lam = (2, 1, 0)
    for alpha in comb.rearrangements(lam, 3):
        cur = list(alpha)
        swaps = []
        changed = True
        while changed:
            changed = False
            for i in range(2):
                if cur[i] < cur[i + 1]:
                    cur[i], cur[i + 1] = cur[i + 1], cur[i]
                    swaps.append(i + 1)
                    changed = True
        assert tuple(cur) == lam
        z = jack.zeta_p(lam, 3)
        for i in reversed(swaps):
            z = jack.z2sz_step(z, i)
        assert z.alpha == comb.pad(alpha, 3)
        assert z.poly == jack.zeta_p(alpha, 3).poly


def test_movert_step():
    # (a, b, b) -> (b, b, a) in one jump over the equal block
    z = jack.zeta_p((2, 1, 1), 3)
    moved = jack.movert_step(z, 1, 2)
    assert moved.alpha == (1, 1, 2)
    assert moved.poly == jack.zeta_p((1, 1, 2), 3).poly
    one = jack.movert_step(jack.zeta_p((2, 1, 0), 3), 1, 1)
    assert one.poly == jack.zeta_p((1, 2, 0), 3).poly


def test_movelt_step():
    # (b, b, a) -> (a, b, b) moving the small entry left
    z = jack.zeta_p((2, 2, 1), 3)
    moved = jack.movelt_step(z, 1, 2)
    assert moved.alpha == (1, 2, 2)
    assert moved.poly == jack.zeta_p((1, 2, 2), 3).poly


def test_move_step_preconditions():
    with pytest.raises(jack.PreconditionViolation):
        jack.movert_step(jack.zeta_x((2, 1, 1), 3), 1, 2)
    with pytest.raises(jack.PreconditionViolation):
        jack.movert_step(jack.zeta_p((2, 1, 0), 3), 1, 2)
    with pytest.raises(jack.PreconditionViolation):
        jack.movelt_step(jack.zeta_p((2, 1, 1), 3), 1, 2)
    with pytest.raises(jack.PreconditionViolation):
        jack.movert_step(jack.zeta_p((1, 2, 0), 3), 1, 1)


def test_dm_formula_scalar_and_rotation():
    scalar, rotated = jack.dm_formula(jack.zeta_p((1, 0), 2))
    assert scalar == KR_ZERO + kappa_linear(2, 1)
    assert rotated.alpha == (0, 0)
    assert rotated.poly == ref.mp_const(2, 1)
    scalar2, rotated2 = jack.dm_formula(jack.zeta_p((2, 1), 3))
    assert scalar2 == KR_ZERO + kappa_linear(2, 1)
    assert rotated2.alpha == comb.pad(comb.tilde((2, 1, 0)), 3)
    with pytest.raises(ZeroComposition):
        jack.dm_formula(jack.zeta_p((0, 0), 2))
    with pytest.raises(jack.PreconditionViolation):
        jack.dm_formula(jack.zeta_x((1, 0), 2))


def _difp_oracle(beta, n):
    # closed form for the p-expansion of D_m p_beta, m = length of beta
    beta = comb.pad(beta, n)
    m = comb.comp_length(beta)
    bm = beta[m - 1]
    out = {}
    tgt = list(beta)
    tgt[m - 1] -= 1
    out[tuple(tgt)] = KR_ZERO + kappa_linear(n + 1 - comb.rank(beta, m), bm)
    for j in range(1, n + 1):
        if j == m:
            continue
        bj = beta[j - 1]
        for t in range(max(0, bj - bm), bj):
            g = list(beta)
            g[m - 1] += t
            g[j - 1] -= t + 1
            g = tuple(g)
            out[g] = out.get(g, KR_ZERO) + KAPPA
        for t in range(max(1, bm - bj), bm):
            g = list(beta)
            g[m - 1] -= t + 1
            g[j - 1] += t
            g = tuple(g)
            out[g] = out.get(g, KR_ZERO) - KAPPA
    return {g: c for g, c in out.items() if c}


def test_dunkl_on_p_basis_closed_form():
    for n, d in ((2, 3), (3, 3)):
        ctx = OperatorContext(n)
        for beta in comb.compositions_of(d, n):
            m = comb.comp_length(beta)
            if m == 0:
                continue
            direct = ref.p_expand(dunkl(ctx, m, ref.p_basis(beta, n)), n)
            assert direct == _difp_oracle(beta, n)


def test_bigdiff_verify_two_blocks():
    report = jack.bigdiff_verify((2, 1), 3)
    assert report["ok"]
    assert report["points_of_decrease"] == [1, 2]
    assert report["final_coefficients"] == ["3*k + 2", "2*k + 1"]
    assert all(st["ok"] for st in report["recursion"])


def test_bigdiff_verify_single_block():
    report = jack.bigdiff_verify((1, 1), 3)
    assert report["ok"]
    assert report["points_of_decrease"] == [2]


def test_ks_coefficient_small():
    assert jack.ks_coefficient_check((1,), 2)
    assert jack.ks_coefficient_check((2,), 3)
    with pytest.raises(jack.AmbientTooSmall):
        jack.ks_coefficient_check((2, 1), 4)
    with pytest.raises(comb.ShapeViolation):
        jack.ks_coefficient_check((1, 2), 5)


def test_json_from_the_factored_form_matches_the_q_kappa_route():
    # to_json writes from coeffs; the reference writes the KappaRatios of
    # .poly
    keys = [(alpha, n) for n in range(1, 5) for d in range(6)
            for alpha in comb.compositions_of(d, n)]
    assert len(keys) == 209
    for alpha, n in keys:
        for jp in (jack.zeta_x(alpha, n), jack.zeta_p(alpha, n)):
            want = jp.poly.to_json()
            want.update(alpha=list(jp.alpha), basis=jp.basis,
                        denominator_factors=jack.factors_json(
                            jp.denominator_factors))
            assert json.dumps(jp.to_json()) == json.dumps(want)
    jack.clear_caches()


# ------------------------------------------------ the integer eigen check

def _generic_eigen_ok(jp):
    # reference: the generic Q(kappa) operators applied to the whole poly
    ctx = OperatorContext(jp.n)
    spec = comb.spectral_vector(jp.alpha)
    return all(
        cherednik(ctx, i, jp.poly)
        == mp.poly_scale(jp.poly, kappa_linear(*spec[i - 1]))
        for i in range(1, jp.n + 1))


def _integer_layers(f):
    # F = L*D*f split by kappa-degree as [F_0, F_1, ...], F_k in Z[x]
    dens = {c.den for c in f.terms.values()}
    big_d = KP_ONE
    for den in dens:
        big_d = big_d * den.exact_div(poly_gcd(big_d, den))
    cofactor = {}
    for den in dens:
        cofactor[den] = _int_form(big_d.exact_div(den))
    scaled = {}
    big_l = 1
    for e, c in f.terms.items():
        nums, dn = _int_form(c.num)
        qs, dq = cofactor[c.den]
        prod = [0] * (len(nums) + len(qs) - 1)
        for s, x in enumerate(nums):
            if x:
                for t, y in enumerate(qs):
                    prod[s + t] += x * y
        den = dn * dq
        g = gcd(den, *prod)
        den //= g
        big_l = lcm(big_l, den)
        scaled[e] = ([x // g for x in prod], den)
    layers = [{} for _ in range(
        max((len(p) for p, _ in scaled.values()), default=0))]
    for e, (prod, den) in scaled.items():
        m = big_l // den
        for k, x in enumerate(prod):
            if x:
                layers[k][e] = x * m
    return layers


def _layered_eigen_ok(jp):
    """Reference: the eigen check one kappa-layer at a time, K_i applied
    afresh to each layer: (U_i^0 - b_i) F_k + (K_i - a_i) F_{k-1} = 0 for
    every i and k = 0 .. deg F + 1."""
    n = jp.n
    layers = _integer_layers(jp.poly)
    spec = comb.spectral_vector(jp.alpha)
    for i in range(1, n + 1):
        a, b = spec[i - 1]
        prev = {}
        for cur in layers + [{}]:
            out = {}
            if prev:
                cherednik_k_terms(n, i, prev, out)
                for e, c in prev.items():
                    out[e] = out.get(e, 0) - a * c
            for e, c in cur.items():
                out[e] = out.get(e, 0) + (e[i - 1] + 1 - b) * c
            if any(out.values()):
                return False
            prev = cur
    return True


def _one_pass_eigen_ok(jp):
    try:
        jp._assert_eigen()
    except jack.SolveFailure:
        return False
    return True


def test_eigen_check_accepts_every_small_zeta():
    for n in range(1, 5):
        for d in range(5):
            for alpha in comb.compositions_of(d, n):
                for jp in (jack.zeta_x(alpha, n), jack.zeta_p(alpha, n)):
                    jp._assert_eigen()
                    assert _layered_eigen_ok(jp)
                    assert _generic_eigen_ok(jp)


def _tampered(jp, e, c):
    # over den and k + 7, which hold every tampered denominator
    terms = dict(jp.poly.terms)
    terms[e] = c
    return _over(jp, mp.MultiPoly(jp.n, terms), _facs(jp) + [(1, 7)])


def _tampers(jp):
    """One poly per edit: each coefficient with its numerator edited (low
    and high in kappa), its denominator edited, 1/10**6 added; and one
    extra monomial."""
    d = comb.comp_weight(jp.alpha)
    for e, c in jp.poly.terms.items():
        yield _tampered(jp, e, KappaRatio(c.num + 1, c.den))
        # past the top kappa-degree: at x^alpha only the last layer
        # equation (K_i - a_i) F_top = 0 sees it
        yield _tampered(jp, e, KappaRatio(
            c.num + KappaPoly((0,) * 9 + (1,)), c.den))
        yield _tampered(jp, e, KappaRatio(c.num, c.den * kappa_linear(1, 7)))
        yield _tampered(jp, e, c + Fraction(1, 10**6))
    extra = next(e for e in chain(comb.compositions_of(d, jp.n),
                                  comb.compositions_of(d + 1, jp.n))
                 if e not in jp.poly.terms)
    yield _tampered(jp, extra, KR_ONE)


def test_eigen_check_rejects_tampered_zeta():
    # zeta_p of (2,0) has no kappa-denominators at all
    for alpha, n in (((2, 0), 2), ((2, 0, 1), 3), ((2, 1, 0), 3),
                     ((1, 0, 2, 1), 4)):
        for jp in (jack.zeta_x(alpha, n), jack.zeta_p(alpha, n)):
            count = 0
            for bad in _tampers(jp):
                assert not _generic_eigen_ok(bad)
                with pytest.raises(jack.SolveFailure):
                    bad._assert_eigen()
                count += 1
            assert count == 4 * len(jp.poly.terms) + 1


def _kappa_end_edits(jp):
    """One poly per edit: each coefficient with the top, then the constant
    kappa-coefficient of its numerator edited; and one extra monomial."""
    for e, c in jp.poly.terms.items():
        top = c.num.coeffs[-1]
        yield _tampered(jp, e, KappaRatio(
            c.num + KappaPoly((0,) * c.num.degree + (top,)), c.den))
        yield _tampered(jp, e, KappaRatio(
            c.num + (c.num.coeffs[0] or 1), c.den))
    d = comb.comp_weight(jp.alpha)
    extra = next(e for e in chain(comb.compositions_of(d, jp.n),
                                  comb.compositions_of(d + 1, jp.n))
                 if e not in jp.poly.terms)
    yield _tampered(jp, extra, KR_ONE)


def test_eigen_check_agrees_with_the_layered_reference_on_edits():
    for alpha, n in (((2, 0), 2), ((2, 0, 1), 3), ((2, 1, 0), 3),
                     ((0, 3, 0), 3), ((1, 0, 2, 1), 4), ((3, 2, 1, 0), 4)):
        for jp in (jack.zeta_x(alpha, n), jack.zeta_p(alpha, n)):
            assert _one_pass_eigen_ok(jp) and _layered_eigen_ok(jp)
            count = 0
            for bad in _kappa_end_edits(jp):
                assert not _one_pass_eigen_ok(bad)
                assert not _layered_eigen_ok(bad)
                count += 1
            assert count == 2 * len(jp.poly.terms) + 1


def test_eigen_check_asserts_the_last_operator():
    # zeta_alpha + zeta_beta, with beta of another degree sharing the first
    # N-1 eigenvalues of alpha, is an eigenvector of U_1..U_{N-1} but not
    # of U_N: on homogeneous polys U_N is implied by the others, so a
    # check that skipped it would pass this sum
    for alpha, n in (((2, 0), 2), ((2, 0, 1), 3), ((2, 0, 0, 1), 4)):
        spec = comb.spectral_vector(alpha)
        beta = next(b for d in range(sum(alpha) + 1, sum(alpha) + 3)
                    for b in comb.compositions_of(d, n)
                    if comb.spectral_vector(b)[:-1] == spec[:-1])
        za, zb = jack.zeta_x(alpha, n), jack.zeta_x(beta, n)
        bad = _over(za, za.poly + zb.poly, _facs(za) + _facs(zb))
        ctx = OperatorContext(n)
        for i in range(1, n):
            xi = kappa_linear(*spec[i - 1])
            assert cherednik(ctx, i, bad.poly) == mp.poly_scale(bad.poly, xi)
        assert not _generic_eigen_ok(bad)
        assert not _layered_eigen_ok(bad)
        with pytest.raises(jack.SolveFailure):
            bad._assert_eigen()


# ------------------------------------------ the Kronecker-packed eigen check

def _list_residual_max(jp):
    """The largest |coefficient| of the eigen residual over every i, with
    the residual expanded as one Z[kappa] list per monomial."""
    n = jp.n
    big_f = jp.nums
    spec = comb.spectral_vector(jp.alpha)
    worst = 0
    for i in range(1, n + 1):
        a, b = spec[i - 1]
        out = {e: exactarith._times(num, -a, e[i - 1] + 1 - b)
               for e, num in big_f.items()}
        for e, num in big_f.items():
            k_terms = {}
            cherednik_k_terms(n, i, {e: 1}, k_terms)
            for e2, k in k_terms.items():
                acc = out.setdefault(e2, [])
                acc.extend([0] * (len(num) + 1 - len(acc)))
                for j, x in enumerate(num, 1):
                    acc[j] += k * x
        worst = max([worst] + [abs(x) for v in out.values() for x in v])
    return worst


def _below_the_shift(jp):
    bits = jack._shift_bits(jp.nums, jp.alpha)
    return _list_residual_max(jp) < 2 ** bits


@lru_cache(maxsize=None)
def _edit_bases():
    return [build(alpha, n)
            for alpha, n in (((2, 0), 2), ((2, 0, 1), 3), ((0, 3, 0), 3),
                             ((1, 0, 2, 1), 4), ((3, 2, 1, 0), 4))
            for build in (jack.zeta_x, jack.zeta_p)]


_BIG = st.one_of(st.integers(-50, 50), st.integers(2**200, 2**210),
                 st.integers(-2**210, -2**200))


@st.composite
def _edited(draw):
    """A small zeta scaled by an integer, then one coefficient moved by an
    integer at its bottom, top or next kappa-degree (or an extra monomial
    added): the edit is 0, large, negative or at least 2**200."""
    jp = draw(st.sampled_from(_edit_bases()))
    terms = {e: c * draw(st.sampled_from([1, -3, 2**200 + 1]))
             for e, c in jp.poly.terms.items()}
    d = comb.comp_weight(jp.alpha)
    extra = next(e for e in chain(comb.compositions_of(d, jp.n),
                                  comb.compositions_of(d + 1, jp.n))
                 if e not in terms)
    e = draw(st.sampled_from(sorted(terms) + [extra]))
    c = terms.get(e, KR_ZERO)
    j = draw(st.sampled_from([0, max(c.num.degree, 0), c.num.degree + 1]))
    terms[e] = c + KappaRatio(KappaPoly((0,) * j + (draw(_BIG),)), c.den)
    return _over(jp, mp.MultiPoly(jp.n, terms), _facs(jp))


@settings(max_examples=150, deadline=None)
@given(_edited())
def test_packed_eigen_check_matches_the_layered_reference(jp):
    assert _one_pass_eigen_ok(jp) == _layered_eigen_ok(jp)
    assert _below_the_shift(jp)


def test_residual_stays_below_the_shift():
    # every coefficient of the list residual is below 2**B: on the edits
    # at both kappa ends, with an edit of 2**200 or of -3**130, and on the
    # elements of the staircase (1,2,5)
    for jp in _edit_bases():
        for bad in _kappa_end_edits(jp):
            assert _below_the_shift(bad)
        for v in (2**200, -3**130):
            for e, c in jp.poly.terms.items():
                terms = dict(jp.poly.terms)
                terms[e] = c + KappaRatio(KappaPoly((v,)), c.den)
                assert _below_the_shift(
                    _over(jp, mp.MultiPoly(jp.n, terms), _facs(jp)))
    for sigma in comb.rlp_enumerate(comb.resolve_label(1, 2, 5).lam):
        assert _below_the_shift(jack.zeta_x(sigma, 5))


def test_specialize_matches_the_q_kappa_specialization():
    kappas = [Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(-2, 3),
              Fraction(3, 5), Fraction(-3), Fraction(-1)]
    poles = 0
    for alpha, n in _small_compositions():
        for jp in (jack.zeta_x(alpha, n), jack.zeta_p(alpha, n)):
            for k0 in kappas:
                try:
                    want = ref.specialize(jp.poly, k0)
                except PoleError:
                    poles += 1
                    with pytest.raises(PoleError):
                        jp.specialize(k0)
                    continue
                assert jp.specialize(k0) == want
    assert poles


def test_clear_caches_empties_every_memo():
    memos = {name: val for name, val in vars(jack).items()
             if name.endswith("_CACHE")}
    assert set(memos) == {"_ZETA_CACHE"}
    jack.zeta_x((2, 0, 1), 3)
    jack.zeta_p((1, 1, 0), 3)
    assert all(memos.values())
    jack.clear_caches()
    assert not any(memos.values())



def test_cancel_common_holds_one_copy_of_the_numerators():
    # five factor powers divide every numerator of zeta_(9,6,3,0); they
    # are divided out in place, so the traced peak inside the call stays
    # near what the result keeps, where a new dict per round held up to
    # three copies (2.5 times)
    zeta = jack.zeta_x((9, 6, 3, 0), 4)
    jack.clear_caches()
    nums = {e: list(num) for e, num in zeta.nums.items()}
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        got = jack.cancel_common(zeta, [])
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - before <= 1.3 * (kept - before)
    removed = Counter(dict(zeta.den[1]))
    removed.subtract(dict(got.den[1]))
    assert sum(removed.values()) == 5
    assert zeta.nums == nums  # the input is untouched
    assert {e: jack._times_all(num, list(removed.elements()))
            for e, num in got.nums.items()} == nums


@pytest.mark.parametrize("powers, cancelled", [((1, 3), 1), ((0, 2, 3), 0),
                                               ((2, 0, 2), 0),
                                               ((3, 2, 2), 2)])
def test_cancel_common_multiplies_back_what_a_later_entry_refuses(powers,
                                                                   cancelled):
    # the last numerator goes first; an earlier one that admits a lower
    # power of k + 2 makes the entries already divided take the rest back
    f = (1, 2)
    cofactors = [[3, 1], [5], [-1, 0, 7]]
    nums = {(d, 2 - d): jack._times_all(cofactors[d], [f] * m)
            for d, m in enumerate(powers)}
    zeta = jack.JackPoly((len(powers) - 1, 0), 2, "x", dict(nums),
                         (1, ((f, 3),)))
    got = jack.cancel_common(zeta, [])
    assert got.den == (1, ((f, 3 - cancelled),))
    assert got.nums == {e: jack._times_all(cofactors[e[0]],
                                           [f] * (m - cancelled))
                        for e, m in zip(nums, powers)}
    assert zeta.nums == nums


# ------------------------------------ the fraction-free solve vs Q(kappa)

@lru_cache(maxsize=None)
def _u_monomial(n, i, exp):
    return cherednik(OperatorContext(n), i, mp.monomial(n, exp)).terms


def _reference_zeta_x(alpha, n):
    """The triangular solve in generic Q(kappa) arithmetic, with the
    denominators factored by a rational-root search."""
    alpha = comb.pad(alpha, n)
    spec_a = comb.spectral_vector(alpha)
    coeffs = {alpha: KR_ONE}
    for beta in ref.down_set(alpha)[1:]:
        spec_b = comb.spectral_vector(beta)
        piv = next(i for i in range(n) if spec_a[i] != spec_b[i])
        (sa, ta), (sb, tb) = spec_a[piv], spec_b[piv]
        items = [c * _u_monomial(n, piv + 1, g)[beta]
                 for g, c in coeffs.items()
                 if beta in _u_monomial(n, piv + 1, g)]
        val = sum(items, KR_ZERO) / kappa_linear(sa - sb, ta - tb)
        if val:
            coeffs[beta] = val
    poly = mp.MultiPoly(n, coeffs)
    return poly, _reference_profile(poly)


def _rational_roots(kp):
    # the candidates p/q of the rational-root theorem
    d = lcm(*(c.denominator for c in kp.coeffs))
    a0, an = int(kp.coeffs[0] * d), int(kp.coeffs[-1] * d)
    if a0 == 0:
        return [Fraction(0)]
    return [Fraction(s * p, q) for p in range(1, abs(a0) + 1) if a0 % p == 0
            for q in range(1, abs(an) + 1) if an % q == 0 for s in (1, -1)]


def _reference_profile(poly):
    best = {}
    for den in {c.den for c in poly.terms.values()}:
        while den.degree >= 1:
            root = next((r for r in _rational_roots(den)
                         if den.eval_at(r) == 0), None)
            fac = den if root is None else kappa_linear(1, -root)
            mult = 1 if root is None else root_multiplicity(den, root)
            for _ in range(mult):
                den = den.exact_div(fac)
            if mult > best.get(fac, 0):
                best[fac] = mult
    return sorted(best.items(), key=lambda t: (t[0].degree, t[0].coeffs))


def _small_compositions():
    for n in range(1, 5):
        for d in range(5):
            for alpha in comb.compositions_of(d, n):
                yield alpha, n
    # (0,4,2,0) has a factor whose multiplicity is largest in an earlier
    # coefficient than the last one holding it
    yield from (((0, 3, 0), 3), ((2, 0, 1), 3), ((3, 2, 1, 0), 4),
                ((0, 4, 2, 0), 4))


def _gcd_e_factor(alpha, sign):
    # e_factor as a product of KappaRatios, each reduced by a gcd
    rv = comb.rank_vector(alpha)
    out = KR_ONE
    for i in range(len(alpha)):
        for j in range(i + 1, len(alpha)):
            if alpha[i] < alpha[j]:
                den = kappa_linear(rv[i] - rv[j], alpha[j] - alpha[i])
                out = out * KappaRatio(den + kappa_linear(sign, 0), den)
    return out


def _gcd_p_to_x_factor(alpha):
    lam = comb.sort_desc(alpha)
    return (_gcd_e_factor(alpha, 1) * _gcd_e_factor(alpha, -1)
            * KappaRatio(comb.hook_product(lam, kappa_linear(1, 1)),
                         comb.hook_product(lam, 1)))


def test_p_factors_match_the_gcd_products_without_a_gcd(monkeypatch):
    alphas = [alpha for n in range(1, 5) for d in range(6)
              for alpha in comb.compositions_of(d, n)]
    want = [(_gcd_e_factor(alpha, 1), _gcd_e_factor(alpha, -1),
             _gcd_p_to_x_factor(alpha)) for alpha in alphas]
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return poly_gcd(a, b)

    monkeypatch.setattr(exactarith, "poly_gcd", counted)
    got = [(comb.e_factor(alpha, 1), comb.e_factor(alpha, -1),
            jack.p_to_x_factor(alpha)) for alpha in alphas]
    assert len(alphas) == 209
    assert got == want
    assert calls == []


def test_zeta_p_rescales_the_factored_form_without_a_gcd(monkeypatch):
    keys = [(alpha, n) for n in range(1, 5) for d in range(6)
            for alpha in comb.compositions_of(d, n)]
    xs = {key: jack.zeta_x(*key) for key in keys}
    calls = []

    def counted(a, b):
        calls.append((a, b))
        return poly_gcd(a, b)

    monkeypatch.setattr(exactarith, "poly_gcd", counted)
    ps = {key: jack.zeta_p(*key) for key in keys}
    assert len(keys) == 209
    assert calls == []
    monkeypatch.undo()
    for (alpha, n), zp in ps.items():
        assert zp.poly == mp.poly_scale(xs[alpha, n].poly,
                                        jack.p_to_x_factor(alpha))
    jack.clear_caches()


def test_packed_zeta_p_multiplies_by_each_top_in_turn():
    # one Kronecker product by the expanded tops gives the numerators of
    # one pass per linear factor, on the 209 small keys and on a
    # composition whose tops and numerators are both wide
    keys = [(alpha, n) for n in range(1, 5) for d in range(6)
            for alpha in comb.compositions_of(d, n)]
    assert len(keys) == 209
    for alpha, n in keys + [((5, 4, 3, 2, 0, 0, 0), 7)]:
        tops = jack.p_to_x_factors(alpha)[0]
        want = {e: jack._times_all(num, tops)
                for e, num in jack.zeta_x(alpha, n).nums.items()}
        assert jack.zeta_p(alpha, n).nums == want
        jack.clear_caches()


def _ks_d(alpha):
    """d_alpha of Knop and Sahi as a KappaPoly: prod over the boxes (i, j)
    of (l + 1) kappa + a + 1, a = alpha_i - j and l their leg for
    compositions."""
    out = KP_ONE
    for i, ai in enumerate(alpha):
        for j in range(1, ai + 1):
            leg = (sum(1 for k in range(i + 1, len(alpha))
                       if j <= alpha[k] <= ai)
                   + sum(1 for k in range(i) if j <= alpha[k] + 1 <= ai))
            out = out * kappa_linear(leg + 1, ai - j + 1)
    return out


def _expanded(den):
    d0, facs = den
    out = KappaPoly((d0,))
    for (a, b), m in facs:
        for _ in range(m):
            out = out * kappa_linear(a, b)
    return out


def test_zeta_x_matches_the_q_kappa_solve():
    # the route gives the reference solve, over the denominator d_alpha, and
    # d_alpha times each reference coefficient lies in Z[kappa]
    for alpha, n in _small_compositions():
        z = jack.zeta_x(alpha, n)
        poly, profile = _reference_zeta_x(alpha, n)
        assert z.poly.terms == poly.terms
        assert z.denominator_factors == profile
        d = _ks_d(comb.pad(alpha, n))
        assert _expanded(z.den) == d
        for c in poly.terms.values():
            scaled = c * d
            assert scaled.is_poly()
            assert all(x.denominator == 1 for x in scaled.num.coeffs)
        zp = jack.zeta_p(alpha, n)
        assert zp.denominator_factors == _reference_profile(zp.poly)


def _adjacent_steps():
    for alpha, n in _small_compositions():
        alpha = comb.pad(alpha, n)
        for i in range(1, n):
            if alpha[i - 1] > alpha[i]:
                yield alpha, n, i


def test_each_step_multiplies_d_alpha_by_q_over_l():
    count = 0
    for alpha, n, i in _adjacent_steps():
        (a1, b1), (a2, b2) = comb.spectral_vector(alpha)[i - 1:i + 1]
        ell = kappa_linear(a1 - a2, b1 - b2)
        child = comb.perm_on_comp(comb.transposition(n, i, i + 1), alpha)
        assert _ks_d(child) * ell == _ks_d(alpha) * (ell + KAPPA.num)
        assert jack.z2sz_step(jack.zeta_x(alpha, n), i).den == (
            jack._ks_denominator(child))
        count += 1
    assert count == 111
    jack.clear_caches()


def test_a_routed_zeta_steps_to_the_routed_one():
    # the route ends over d_alpha, computed from alpha, and a step from
    # there gives the child's own route
    for alpha, n, i in _adjacent_steps():
        zeta = jack.zeta_x(alpha, n)
        assert zeta.den == jack._ks_denominator(alpha)
        child = jack.z2sz_step(zeta, i)
        assert child.coeffs == jack.zeta_x(child.alpha, n).coeffs
    jack.clear_caches()


def test_a_factor_dropped_from_d_alpha_is_refused(monkeypatch):
    # drop one factor that no numerator can spare from d_alpha: the route
    # ends over that den, and its lead at x^alpha is then not 1
    ks = jack._ks_denominator
    count = 0
    for alpha, n in _small_compositions():
        z = jack.zeta_x(alpha, n)
        d0, facs = z.den
        profile = {(f.coeffs[0], m) for f, m in z.denominator_factors}
        full = [k for k, (f, m) in enumerate(facs)
                if (Fraction(f[1], f[0]), m) in profile]
        if not full:
            continue
        k = full[0]
        (f, m) = facs[k]
        cut = (d0, facs[:k] + ((f, m - 1),) * (m > 1) + facs[k + 1:])
        jack.clear_caches()
        monkeypatch.setattr(jack, "_ks_denominator",
                            lambda beta, _a=z.alpha, _c=cut:
                            _c if beta == _a else ks(beta))
        with pytest.raises(jack.SolveFailure, match="not 1"):
            jack.zeta_x(alpha, n)
        monkeypatch.undo()
        count += 1
    assert count == 89
    jack.clear_caches()


def test_each_step_mutation_is_refused(monkeypatch):
    # delta +- 1 in L and P turns the division inexact or its digits too
    # large; a parent numerator that s_i moves, off by 1, leaves a
    # remainder wherever P is not 1; the parent doubled doubles the lead
    intertwiner = jack._intertwiner
    count = 0
    for alpha, n, i in _adjacent_steps():
        zeta = jack.zeta_x(alpha, n)
        unit = intertwiner(alpha, i, i + 1)[1] == (0, 1)
        for db in (1, -1):
            def edited(beta, u, v, _db=db):
                ell, (a, b), q = intertwiner(beta, u, v)
                return ell, (a, b + _db), q
            if not unit or db > 0:
                monkeypatch.setattr(jack, "_intertwiner", edited)
                with pytest.raises(jack.SolveFailure):
                    jack.z2sz_step(zeta, i)
                monkeypatch.undo()
        e = next(e for e in zeta.nums if e[i - 1] != e[i] and e != alpha)
        if not unit:
            with pytest.raises(jack.SolveFailure):
                jack.z2sz_step(_with_numerator(
                    zeta, e, [zeta.nums[e][0] + 1] + zeta.nums[e][1:]), i)
        with pytest.raises(jack.SolveFailure, match="not 1"):
            jack.z2sz_step(_scaled(zeta, 2), i)
        count += 1
    assert count == 111
    jack.clear_caches()


def test_a_step_forced_to_too_narrow_a_width_is_refused(monkeypatch):
    # the parent's 1-norms read as c narrow the width X and the digit
    # bound g alike, outside the hypothesis of the proof: the true digits
    # then exceed g, or carry and are no longer the coefficients.  Each
    # step is refused, or still exact where X happens to hold every
    # coefficient; never a wrong zeta, which without the digit test some
    # steps give, e.g. (3,1,0) at i = 1 with c = 2
    refused = 0
    for alpha, n, i in _adjacent_steps():
        zeta = jack.zeta_x(alpha, n)
        child = jack.z2sz_step(zeta, i)
        for c in (1, 2):
            monkeypatch.setattr(jack, "_norm", lambda num, _c=c: _c)
            try:
                got = jack.z2sz_step(zeta, i)
            except jack.SolveFailure as exc:
                assert "intertwiner" in str(exc)
                refused += 1
            else:
                assert got.nums == child.nums
            monkeypatch.undo()
    assert refused == 202
    jack.clear_caches()


def test_step_formula_denominators_match_the_search():
    for alpha, n in _small_compositions():
        for i in range(1, n):
            if alpha[i - 1] <= alpha[i]:
                continue
            for build in (jack.zeta_x, jack.zeta_p):
                stepped = jack.z2sz_step(build(alpha, n), i)
                assert stepped.denominator_factors == _reference_profile(
                    stepped.poly)
    for moved in (jack.movert_step(jack.zeta_p((2, 1, 1), 3), 1, 2),
                  jack.movelt_step(jack.zeta_p((2, 2, 1), 3), 1, 2)):
        assert moved.denominator_factors == _reference_profile(moved.poly)


# -------------------------------------------------------- the raising route

def _every_small_composition():
    # N <= 4 with |alpha| <= 6, and N = 5 with |alpha| <= 4
    for n in range(1, 6):
        for d in range(7 if n < 5 else 5):
            for alpha in comb.compositions_of(d, n):
                yield alpha, n


def test_every_small_route_is_a_certified_eigenvector():
    # the route's end passes the eigen-equations and the shape check that
    # it does not run itself, with x^alpha first and no negative
    # coefficient (Knop and Sahi)
    count = 0
    for alpha, n in _every_small_composition():
        z = jack.zeta_x(alpha, n)
        z.assert_shape()
        z._assert_eigen()
        assert next(iter(z.nums)) == z.alpha
        assert all(x >= 0 for num in z.nums.values() for x in num)
        count += 1
    assert count == 455
    jack.clear_caches()


def test_a_raise_shifts_the_spectrum_and_adds_one_box():
    # xi(Phi beta) = (xi_2, ..., xi_N, xi_1 + 1)(beta), and d_{Phi beta} =
    # d_beta ((l + 1) kappa + alpha_N) with l = #{k < N : alpha_k <
    # alpha_N}, alpha = Phi beta
    count = 0
    for n in range(1, 6):
        for d in range(6):
            for beta in comb.compositions_of(d, n):
                alpha = beta[1:] + (beta[0] + 1,)
                (a1, b1), *rest = comb.spectral_vector(beta)
                assert comb.spectral_vector(alpha) == tuple(rest) + (
                    (a1, b1 + 1),)
                ell = sum(x < alpha[-1] for x in alpha) + 1
                assert _ks_d(alpha) == _ks_d(beta) * kappa_linear(
                    ell, alpha[-1])
                count += 1
    assert count == 461


def test_each_link_lowers_the_weight_or_moves_the_last_entry():
    # read from the end, each link's source is Phi^-1 or s_i of its
    # target, i the last descent of a target ending in 0; the first
    # source is 0 and the last target alpha
    for alpha, n in _every_small_composition():
        alpha = comb.pad(alpha, n)
        source = (0,) * n
        for beta, i in jack._route(alpha):
            if i:
                assert beta[i - 1] and not any(beta[i:])
                assert comb.perm_on_comp(comb.transposition(n, i, i + 1),
                                         beta) == source
            else:
                assert beta[-1] and (beta[-1] - 1,) + beta[:-1] == source
            source = beta
        assert source == alpha


def test_a_route_dividing_by_p_is_refused(monkeypatch):
    # Q swapped for P in every reverse step
    intertwiner = jack._intertwiner

    def swapped(*args):
        ell, p, _ = intertwiner(*args)
        return ell, p, p

    monkeypatch.setattr(jack, "_intertwiner", swapped)
    count = 0
    for alpha, n in _small_compositions():
        if any(i for _, i in jack._route(comb.pad(alpha, n))):
            jack.clear_caches()
            with pytest.raises(jack.SolveFailure):
                jack.zeta_x(alpha, n)
            count += 1
    assert count == 109
    jack.clear_caches()


def test_a_route_forced_to_too_narrow_a_width_is_refused(monkeypatch):
    # every 1-norm of L, Q and the raise's factor read as 1 narrows the
    # width X and the digit bound 2**t alike, outside the hypothesis of
    # the proof: the route is refused, or still exact where X happens to
    # hold every coefficient; never a wrong zeta
    jack.clear_caches()
    want = {key: jack.zeta_x(*key).nums for key in _small_compositions()}
    refused = 0
    monkeypatch.setattr(jack, "_norm", lambda num: 1)
    for key, nums in want.items():
        jack.clear_caches()
        try:
            got = jack.zeta_x(*key)
        except jack.SolveFailure:
            refused += 1
        else:
            assert got.nums == nums
    assert refused == 122
    jack.clear_caches()


def test_the_reverse_division_refuses_what_its_proof_excludes():
    # X = 2**8, Q = 2 kappa + 1, digits below 2**4 and at most 3 of them
    bits, q, t, digits = 8, (2, 1), 4, 3
    big_q, ok = jack._pack([1, 2], bits), jack._pack([3, 15, 1], bits)
    acc = {(1,): big_q * ok}
    assert jack._lowered(acc, q, bits, t, digits) == 19
    assert acc == {(1,): ok}
    for v in (big_q * ok + 1,                            # a remainder
              big_q * jack._pack([3, 16, 1], bits),      # a digit at 2**t
              -big_q * ok,                               # below 0
              big_q << 3 * bits,                         # at X^3
              big_q * jack._pack([3, 15, 1, 1], bits)):  # a fourth digit
        with pytest.raises(jack.SolveFailure, match="not exact"):
            jack._lowered({(1,): v}, q, bits, t, digits)


def test_the_route_widens_from_a_small_start_width(monkeypatch):
    # the route starts at 2 bits, for N_0 = 1, and repacks whenever a
    # link's bound outgrows the width; the widened route still gives the
    # certified zeta
    widths, steps = [], []
    pack, lowered = jack._pack, jack._lowered
    monkeypatch.setattr(jack, "_pack",
                        lambda num, bits: widths.append(bits)
                        or pack(num, bits))
    monkeypatch.setattr(jack, "_lowered",
                        lambda *args: steps.append(args[1:])
                        or lowered(*args))
    jack.clear_caches()
    z = jack.zeta_x((4, 3, 2, 1, 0), 5)
    assert len(set(widths)) >= 4 and widths == sorted(widths)
    # each reverse step ran inside the hypothesis of its proof:
    # 2**(B-1) >= (|Q| + 1) 2**t and K 2**t, K = |alpha| + 1 = 11
    assert len(steps) == 20
    for q, bits, t, digits in steps:
        assert digits == 11
        assert 1 << bits - 1 >= max(jack._norm(q) + 1, digits) << t
    z.assert_shape()
    z._assert_eigen()
    jack.clear_caches()
