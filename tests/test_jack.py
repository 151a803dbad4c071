"""Eigenvector construction, basis changes, and step/differentiation laws."""

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import gcd, lcm

import pytest

from singjack import combinatorics as comb
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
    ratio_sum,
    root_multiplicity,
)
from singjack.operators import (OperatorContext, cherednik,
                                cherednik_k_terms, dunkl)


def test_zeta_x_smallest_cases():
    z = jack.zeta_x((1, 0), 2)
    x1, x2 = mp.x_var(2, 1), mp.x_var(2, 2)
    assert z.poly == x1 + mp.poly_scale(x2, KAPPA / (KAPPA + 1))
    assert jack.zeta_x((0, 1), 2).poly == x2
    z3 = jack.zeta_x((0, 1, 0), 3)
    assert z3.poly == mp.x_var(3, 2) + mp.poly_scale(
        mp.x_var(3, 3), KAPPA / (2 * KAPPA + 1))


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
        mp.specialize(z.poly, Fraction(-3, 2))
    with pytest.raises(PoleError):
        mp.specialize(z.poly, -2)
    for v in (Fraction(-1, 2), -1, -3):
        assert mp.specialize(z.poly, v).field == Fraction(v)


def test_ambient_too_small():
    with pytest.raises(jack.AmbientTooSmall):
        jack.zeta_x((1, 1, 1), 2)
    with pytest.raises(jack.AmbientTooSmall):
        jack.zeta_p((1, 0, 2), 2)


def test_p_basis_small_values():
    x1, x2 = mp.x_var(2, 1), mp.x_var(2, 2)
    assert jack.p_basis((1, 0), 2) == mp.poly_scale(
        x1, kappa_linear(1, 1)) + mp.poly_scale(x2, KAPPA)
    # x1 x2 coefficient of p_(1,1): (k+1)^2 from the aligned picks, k^2 crossed
    p11 = jack.p_basis((1, 1), 2)
    assert mp.coeff(p11, (1, 1)) == KR_ZERO + (
        kappa_linear(1, 1) * kappa_linear(1, 1) + KAPPA * KAPPA)
    assert mp.coeff(p11, (2, 0)) == KAPPA * kappa_linear(1, 1)


def test_p_expand_inverts_p_basis():
    for n, d in ((2, 2), (3, 2), (3, 3)):
        for gamma in comb.compositions_of(d, n):
            got = jack.p_expand(jack.p_basis(gamma, n), n)
            assert got == {gamma: KR_ONE}


def test_p_expand_needs_homogeneous():
    f = mp.x_var(2, 1) + mp.mp_const(2, 1)
    with pytest.raises(jack.SolveFailure):
        jack.p_expand(f, 2)


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
        expansion = jack.p_expand(zp.poly, n)
        assert expansion[comb.pad(alpha, n)] == KR_ONE
        # the p-coefficient of zeta_x is the reciprocal of the factor
        assert jack.p_expand(zx.poly, n)[comb.pad(alpha, n)] == fac.reciprocal()


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
    assert rotated.poly == mp.mp_const(2, 1)
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
            direct = jack.p_expand(dunkl(ctx, m, jack.p_basis(beta, n)), n)
            assert direct == _difp_oracle(beta, n)


def test_difp_support_check():
    for beta in ((2, 1), (1, 2), (3, 0), (1, 1)):
        assert jack.difp_support_check(beta, 3)
    with pytest.raises(ZeroComposition):
        jack.difp_support_check((0, 0), 2)


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


def test_jackpoly_json_round_trip():
    z = jack.zeta_x((2, 0, 1), 3)
    obj = z.to_json()
    back = jack.JackPoly.from_json(obj, check=True)
    assert back.alpha == z.alpha and back.basis == "x"
    assert back.poly == z.poly
    assert [(f.coeffs, m) for f, m in back.denominator_factors] == [
        (f.coeffs, m) for f, m in z.denominator_factors]


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
    terms = dict(jp.poly.terms)
    terms[e] = c
    return jack.JackPoly(jp.alpha, jp.n, jp.basis,
                         mp.MultiPoly(jp.n, terms), check=False)


def _tampers(jp):
    """One poly per edit: each coefficient with its numerator edited (low
    and high in kappa), its denominator edited, 1/10**6 added; and one
    extra monomial."""
    d = jp.degree()
    for e, c in jp.poly.terms.items():
        yield _tampered(jp, e, KappaRatio(c.num + 1, c.den))
        # past the top kappa-degree: at x^alpha only the last layer
        # equation (K_i - a_i) F_top = 0 sees it
        yield _tampered(jp, e, KappaRatio(c.num + KAPPA.num ** 9, c.den))
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
    d = jp.degree()
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
        za = jack.zeta_x(alpha, n)
        bad = jack.JackPoly(alpha, n, "x",
                            za.poly + jack.zeta_x(beta, n).poly, check=False)
        ctx = OperatorContext(n)
        for i in range(1, n):
            xi = kappa_linear(*spec[i - 1])
            assert cherednik(ctx, i, bad.poly) == mp.poly_scale(bad.poly, xi)
        assert not _generic_eigen_ok(bad)
        assert not _layered_eigen_ok(bad)
        with pytest.raises(jack.SolveFailure):
            bad._assert_eigen()


def test_eigen_check_rejects_a_specialized_poly():
    z = jack.zeta_x((2, 1, 0), 3)
    with pytest.raises(mp.FieldMismatch):
        jack.JackPoly(z.alpha, 3, "x", mp.specialize(z.poly, Fraction(-1, 2)),
                      denominator_factors=[])


def test_clear_caches_empties_every_memo():
    memos = {name: val for name, val in vars(jack).items()
             if name.endswith("_CACHE")}
    assert set(memos) >= {"_KTERMS_CACHE", "_ZETA_CACHE", "_PBASIS_CACHE"}
    jack.zeta_x((2, 0, 1), 3)
    jack.zeta_p((1, 1, 0), 3)
    jack.p_expand(jack.zeta_x((1, 1), 2).poly, 2)
    assert all(memos.values())
    jack.clear_caches()
    assert not any(memos.values())


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
    for beta in comb.down_set(alpha)[1:]:
        spec_b = comb.spectral_vector(beta)
        piv = next(i for i in range(n) if spec_a[i] != spec_b[i])
        (sa, ta), (sb, tb) = spec_a[piv], spec_b[piv]
        items = [c * _u_monomial(n, piv + 1, g)[beta]
                 for g, c in coeffs.items()
                 if beta in _u_monomial(n, piv + 1, g)]
        val = ratio_sum(items) / kappa_linear(sa - sb, ta - tb)
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
            den = den.exact_div(fac ** mult)
            if mult > best.get(fac, 0):
                best[fac] = mult
    return sorted(best.items(), key=lambda t: (t[0].degree, t[0].coeffs))


def _small_compositions():
    for n in range(1, 5):
        for d in range(5):
            for alpha in comb.compositions_of(d, n):
                yield alpha, n
    yield from (((0, 3, 0), 3), ((2, 0, 1), 3), ((3, 2, 1, 0), 4))


def test_zeta_x_matches_the_q_kappa_solve():
    for alpha, n in _small_compositions():
        z = jack.zeta_x(alpha, n)
        poly, profile = _reference_zeta_x(alpha, n)
        assert z.poly.terms == poly.terms
        assert z.denominator_factors == profile
        zp = jack.zeta_p(alpha, n)
        assert zp.denominator_factors == _reference_profile(zp.poly)


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


def test_denominator_profile_refuses_a_missing_candidate():
    z = jack.zeta_x((0, 3, 0), 3)
    facs = [fac for fac, _ in z.denominator_factors]
    assert len(facs) == 2
    # scaled, repeated, unused and constant candidates change nothing
    extra = [fac * 4 for fac in facs] + facs + [
        kappa_linear(1, 7), kappa_linear(0, 5), KappaPoly((1, 0, 1))]
    assert jack.denominator_profile(z.poly, extra) == z.denominator_factors
    for missing in facs:
        with pytest.raises(jack.SolveFailure):
            jack.denominator_profile(
                z.poly, [fac for fac in extra if fac.monic() != missing])
    with pytest.raises(jack.SolveFailure):
        jack.denominator_profile(jack.zeta_x((2, 0, 1), 3).poly, [])
