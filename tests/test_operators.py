"""Dunkl / Cherednik / Murphy operators on explicit small cases."""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from singjack import multipoly as mp
from singjack import operators as ops
from singjack.combinatorics import (
    IndexOutOfRange,
    compositions_of,
    transposition,
    triangle_greater,
)
from singjack.exactarith import KAPPA, KR_ONE, KR_ZERO
from singjack.multipoly import FieldMismatch

import reference as ref


def ctx2():
    return ops.OperatorContext(2)


def test_dunkl_rank_one_examples():
    c = ctx2()
    x1 = ref.x_var(2, 1)
    x2 = ref.x_var(2, 2)
    one = ref.mp_const(2, 1)
    assert ops.dunkl(c, 1, x1) == mp.poly_scale(one, KR_ONE + KAPPA)
    assert ops.dunkl(c, 1, x2) == mp.poly_scale(one, -KAPPA)
    assert ops.dunkl(c, 1, one).is_zero()
    assert ops.dunkl(c, 2, x1) == mp.poly_scale(one, -KAPPA)


def test_cherednik_rank_one_examples():
    c = ctx2()
    one = ref.mp_const(2, 1)
    x2 = ref.x_var(2, 2)
    assert ops.cherednik(c, 1, one) == mp.poly_scale(one, KAPPA + 1)
    assert ops.cherednik(c, 1, x2) == x2
    # i=2: the swap correction cancels the kappa from D_2 x_2
    assert ops.cherednik(c, 2, one) == one


def test_omega_on_alternating():
    c = ctx2()
    f = ref.x_var(2, 1) - ref.x_var(2, 2)
    assert ref.omega_central(c, f) == mp.poly_scale(f, 2)
    sym = ref.x_var(2, 1) + ref.x_var(2, 2)
    assert ref.omega_central(c, sym).is_zero()


def _random_poly(rng, n, maxdeg, field=None, nterms=5):
    f = mp.mp_zero(n, field=field)
    for _ in range(nterms):
        e = tuple(rng.randint(0, maxdeg) for _ in range(n))
        if sum(e) > maxdeg:
            continue
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        f = f + mp.monomial(n, e, c, field=field)
    return f


def test_dunkl_dual_route():
    # independent composition: partial + kappa * pairwise divided differences
    rng = random.Random(21)
    c3 = ops.OperatorContext(3)
    for _ in range(12):
        f = _random_poly(rng, 3, 4)
        for i in (1, 2, 3):
            direct = ops.dunkl(c3, i, f)
            slow = ref.partial(i, f)
            for j in (1, 2, 3):
                if j != i:
                    slow = slow + mp.poly_scale(
                        ref.divided_difference(i, j, f), KAPPA)
            assert direct == slow


def test_dunkl_commutativity_small():
    rng = random.Random(5)
    c3 = ops.OperatorContext(3)
    for _ in range(6):
        f = _random_poly(rng, 3, 3)
        for i in (1, 2):
            for j in (2, 3):
                if i == j:
                    continue
                lhs = ops.dunkl(c3, i, ops.dunkl(c3, j, f))
                rhs = ops.dunkl(c3, j, ops.dunkl(c3, i, f))
                assert lhs == rhs


def test_cherednik_commutativity_small():
    rng = random.Random(6)
    c3 = ops.OperatorContext(3)
    for _ in range(4):
        f = _random_poly(rng, 3, 3)
        lhs = ops.cherednik(c3, 1, ops.cherednik(c3, 3, f))
        rhs = ops.cherednik(c3, 3, ops.cherednik(c3, 1, f))
        assert lhs == rhs


def test_cherednik_triangular_with_spectral_coefficient():
    c3 = ops.OperatorContext(3)
    for alpha in compositions_of(3, 3):
        f = mp.monomial(3, alpha)
        for i in (1, 2, 3):
            g = ops.cherednik(c3, i, f)
            assert mp.coeff(g, alpha) == KR_ZERO + ref.xi_poly(alpha, i)
            for e in g.support():
                if e != alpha:
                    assert triangle_greater(alpha, e)


def test_murphy_manual():
    f = mp.monomial(3, (2, 1, 0))
    assert ops.murphy_terms(3, 1, f.terms) == {}
    assert ops.murphy_terms(3, 2, f.terms) == mp.apply_perm(
        transposition(3, 2, 3), f).terms
    two = mp.apply_perm(transposition(3, 1, 2), f) + mp.apply_perm(
        transposition(3, 1, 3), f)
    assert ops.murphy_terms(3, 3, f.terms) == two.terms


def test_specialized_context():
    cs = ops.OperatorContext(2, Fraction(-1, 2))
    x1 = ref.x_var(2, 1, field=Fraction(-1, 2))
    one = ref.mp_const(2, 1, field=Fraction(-1, 2))
    assert ops.dunkl(cs, 1, x1) == mp.poly_scale(one, Fraction(1, 2))
    f = x1 - ref.x_var(2, 2, field=Fraction(-1, 2))
    assert ops.dunkl(cs, 1, f).is_zero()
    assert ops.dunkl(cs, 2, f).is_zero()


def test_context_guards():
    c = ctx2()
    with pytest.raises(FieldMismatch):
        ops.dunkl(c, 1, ref.x_var(2, 1, field=Fraction(1, 3)))
    with pytest.raises(IndexOutOfRange):
        ops.dunkl(c, 3, ref.x_var(2, 1))
    with pytest.raises(IndexOutOfRange):
        ops.dunkl(c, 1, ref.x_var(3, 1))


def test_cherednik_matches_dunkl_route():
    # reference: U_i f = D_i(x_i f) - kappa * sum_{j<i} (j,i) f
    rng = random.Random(33)
    for kappa0 in (None, Fraction(-2, 3)):
        c3 = ops.OperatorContext(3, kappa0)
        kappa = c3.kappa()
        for _ in range(6):
            f = _random_poly(rng, 3, 4, field=kappa0)
            for i in (1, 2, 3):
                want = ops.dunkl(c3, i, ref.x_var(3, i, field=kappa0) * f)
                for j in range(1, i):
                    want = want - mp.poly_scale(
                        mp.apply_perm(transposition(3, j, i), f), kappa)
                assert ops.cherednik(c3, i, f) == want


def test_cherednik_k_terms_over_the_integers():
    # U_i = U_i^0 + kappa*K_i; K_i acts on integer coefficients unchanged
    f = mp.monomial(3, (2, 0, 1), 3) + mp.monomial(3, (0, 1, 2), -2)
    out = {}
    ops.cherednik_k_terms(3, 2, {e: int(c.num.coeffs[0])
                                 for e, c in f.terms.items()}, out)
    assert all(isinstance(v, int) for v in out.values())
    c3 = ops.OperatorContext(3)
    u = ops.cherednik(c3, 2, f)
    diag = mp.MultiPoly(3, {e: c * (e[1] + 1) for e, c in f.terms.items()})
    assert u == diag + mp.poly_scale(mp.MultiPoly(3, out), KAPPA)


@st.composite
def _specialized_polys(draw):
    """A polynomial in N <= 4 variables of degree <= 4 with rational
    coefficients, specialized at kappa0 = +-p/q, 0 included."""
    n = draw(st.integers(1, 4))
    kappa0 = Fraction(draw(st.integers(-7, 7)), draw(st.integers(1, 5)))
    exps = st.lists(st.integers(0, 4), min_size=n, max_size=n).filter(
        lambda e: sum(e) <= 4).map(tuple)
    coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    terms = draw(st.dictionaries(exps, coeffs, max_size=7))
    return mp.MultiPoly(n, terms, field=kappa0)


@settings(max_examples=80, deadline=None)
@given(_specialized_polys())
@example(mp.MultiPoly(3, {(2, 1, 0): Fraction(1, 2), (0, 0, 3): -2},
                      field=Fraction(0)))
@example(mp.MultiPoly(4, {(1, 0, 2, 1): Fraction(-3, 4), (0, 1, 1, 2): 5},
                      field=Fraction(-5, 3)))
def test_integer_term_functions_match_the_fraction_operators(f):
    # q*L*D_i, L*omega_j and L*omega on the integer form F = L*f, against
    # the Fraction operators and against independent routes to them
    n, kappa0 = f.n, f.field
    p, q = kappa0.numerator, kappa0.denominator
    big_l = lcm(*(c.denominator for c in f.terms.values()))
    got_l, big_f = mp.integer_terms(f.terms)
    assert got_l == big_l
    assert all(type(v) is int for v in big_f.values())
    assert big_f == {e: big_l * c for e, c in f.terms.items()}
    ctx = ops.OperatorContext(n, kappa0)

    def times(g, s):
        return {e: s * c for e, c in g.terms.items()}

    omega = mp.mp_zero(n, field=kappa0)
    for i in range(1, n + 1):
        dunkl = ops.dunkl(ctx, i, f)
        slow = ref.partial(i, f)
        for j in range(1, n + 1):
            if j != i:
                slow = slow + mp.poly_scale(
                    ref.divided_difference(i, j, f), kappa0)
            if j > i:
                omega = omega + f - mp.apply_perm(transposition(n, i, j), f)
        assert dunkl == slow
        got = ops.dunkl_terms(n, i, big_f, p, q)
        assert all(type(v) is int for v in got.values())
        assert got == times(dunkl, q * big_l)
        murphy = mp.MultiPoly(n, ops.murphy_terms(n, i, f.terms),
                              field=kappa0)
        slow = mp.mp_zero(n, field=kappa0)
        for j in range(n - i + 2, n + 1):
            slow = slow + mp.apply_perm(transposition(n, n + 1 - i, j), f)
        assert murphy == slow
        assert ops.murphy_terms(n, i, big_f) == times(murphy, big_l)
    assert ref.omega_central(ctx, f) == omega
    assert ref.omega_terms(n, big_f) == times(omega, big_l)


@settings(max_examples=80, deadline=None)
@given(_specialized_polys())
@example(mp.MultiPoly(4, {(1, 0, 2, 1): Fraction(-3, 4), (0, 1, 1, 2): 5,
                          (2, 0, 0, 2): 1}, field=Fraction(-5, 3)))
def test_swap_terms_matches_the_permutation_route(f):
    # swap_terms, and cherednik_k_terms through it, against
    # perm_terms(transposition(...)) and apply_perm
    n = f.n
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            if a == b:
                continue
            w = transposition(n, a, b)
            for sub in (False, True):
                out = dict(f.terms)
                ops.swap_terms(f.terms, a, b, out, sub)
                slow = (mp.poly_sub if sub else mp.poly_add)(
                    f, mp.apply_perm(w, f))
                assert out == slow.terms
            out = {}
            ops.swap_terms(f.terms, a, b, out)
            assert out == mp.perm_terms(w, f.terms)
    for i in range(1, n + 1):
        xf = ref.x_var(n, i, field=f.field) * f
        slow = mp.mp_zero(n, field=f.field)
        for j in range(1, n + 1):
            if j != i:
                slow = slow + ref.divided_difference(i, j, xf)
            if j < i:
                slow = slow - mp.apply_perm(transposition(n, j, i), f)
        out = {}
        ops.cherednik_k_terms(n, i, f.terms, out)
        assert out == slow.terms


@st.composite
def _generic_polys(draw):
    """A polynomial in N = 3 or 4 variables, each exponent at most 2, with
    coefficients (a + b kappa)/c in Q(kappa)."""
    n = draw(st.sampled_from([3, 4]))
    exps = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(tuple)
    coeffs = st.builds(lambda a, b, c: KAPPA * b + Fraction(a, c),
                       st.integers(-5, 5), st.integers(-5, 5),
                       st.integers(1, 4))
    return mp.MultiPoly(n, draw(st.dictionaries(exps, coeffs, max_size=5)))


@settings(max_examples=40, deadline=None)
@given(_generic_polys())
def test_adjacent_transpositions_intertwine_the_cherednik_operators(f):
    # s_i U_i - U_{i+1} s_i = kappa and s_i U_j = U_j s_i for j not in
    # {i, i+1}, over Q(kappa): the identities behind the certificate of a
    # stepped zeta, its exact division by P in jack._step
    n = f.n
    ctx = ops.OperatorContext(n)
    for i in range(1, n):
        s = transposition(n, i, i + 1)
        assert (mp.apply_perm(s, ops.cherednik(ctx, i, f))
                - ops.cherednik(ctx, i + 1, mp.apply_perm(s, f))
                == mp.poly_scale(f, KAPPA))
        for j in range(1, n + 1):
            if j not in (i, i + 1):
                assert (mp.apply_perm(s, ops.cherednik(ctx, j, f))
                        == ops.cherednik(ctx, j, mp.apply_perm(s, f)))


def _raised(f):
    """Phi f = x_N f(x_N, x_1, ..., x_{N-1}): each exponent e becomes
    (e_2, ..., e_N, e_1 + 1)."""
    return mp.MultiPoly(f.n, {e[1:] + (e[0] + 1,): c
                              for e, c in f.terms.items()})


@settings(max_examples=40, deadline=None)
@given(_generic_polys())
def test_the_raising_operator_shifts_the_cherednik_operators(f):
    # U_i Phi = Phi U_{i+1} for i < N and U_N Phi = Phi (U_1 + 1), over
    # Q(kappa): the identities behind each raise of jack.zeta_x
    n = f.n
    ctx = ops.OperatorContext(n)
    for i in range(1, n):
        assert (ops.cherednik(ctx, i, _raised(f))
                == _raised(ops.cherednik(ctx, i + 1, f)))
    assert (ops.cherednik(ctx, n, _raised(f))
            == _raised(ops.cherednik(ctx, 1, f) + f))
