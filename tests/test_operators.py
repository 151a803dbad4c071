"""Dunkl / Cherednik / Murphy operators on explicit small cases."""

import random
from fractions import Fraction

import pytest

from singjack import multipoly as mp
from singjack import operators as ops
from singjack.combinatorics import (
    IndexOutOfRange,
    compositions_of,
    transposition,
    triangle_greater,
    xi_poly,
)
from singjack.exactarith import KAPPA, KR_ONE, KR_ZERO
from singjack.multipoly import FieldMismatch


def ctx2():
    return ops.OperatorContext(2)


def test_dunkl_rank_one_examples():
    c = ctx2()
    x1 = mp.x_var(2, 1)
    x2 = mp.x_var(2, 2)
    one = mp.mp_const(2, 1)
    assert ops.dunkl(c, 1, x1) == mp.poly_scale(one, KR_ONE + KAPPA)
    assert ops.dunkl(c, 1, x2) == mp.poly_scale(one, -KAPPA)
    assert ops.dunkl(c, 1, one).is_zero()
    assert ops.dunkl(c, 2, x1) == mp.poly_scale(one, -KAPPA)


def test_cherednik_rank_one_examples():
    c = ctx2()
    one = mp.mp_const(2, 1)
    x2 = mp.x_var(2, 2)
    assert ops.cherednik(c, 1, one) == mp.poly_scale(one, KAPPA + 1)
    assert ops.cherednik(c, 1, x2) == x2
    # i=2: the swap correction cancels the kappa from D_2 x_2
    assert ops.cherednik(c, 2, one) == one


def test_omega_on_alternating():
    c = ctx2()
    f = mp.x_var(2, 1) - mp.x_var(2, 2)
    assert ops.omega_central(c, f) == mp.poly_scale(f, 2)
    sym = mp.x_var(2, 1) + mp.x_var(2, 2)
    assert ops.omega_central(c, sym).is_zero()


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
            slow = mp.partial(i, f)
            for j in (1, 2, 3):
                if j != i:
                    slow = slow + mp.poly_scale(
                        mp.divided_difference(i, j, f), KAPPA)
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
            assert mp.coeff(g, alpha) == KR_ZERO + xi_poly(alpha, i)
            for e in g.support():
                if e != alpha:
                    assert triangle_greater(alpha, e)


def test_euler_identity():
    rng = random.Random(9)
    c3 = ops.OperatorContext(3)
    for _ in range(6):
        assert ops.euler_identity_check(c3, _random_poly(rng, 3, 3))
    cs = ops.OperatorContext(3, Fraction(-1, 2))
    f = _random_poly(rng, 3, 3, field=Fraction(-1, 2))
    assert ops.euler_identity_check(cs, f)


def test_murphy_manual():
    c3 = ops.OperatorContext(3)
    f = mp.monomial(3, (2, 1, 0))
    assert ops.murphy(c3, 1, f).is_zero()
    assert ops.murphy(c3, 2, f) == mp.apply_perm(transposition(3, 2, 3), f)
    two = mp.apply_perm(transposition(3, 1, 2), f) + mp.apply_perm(
        transposition(3, 1, 3), f)
    assert ops.murphy(c3, 3, f) == two


def test_specialized_context():
    cs = ops.OperatorContext(2, Fraction(-1, 2))
    x1 = mp.x_var(2, 1, field=Fraction(-1, 2))
    one = mp.mp_const(2, 1, field=Fraction(-1, 2))
    assert ops.dunkl(cs, 1, x1) == mp.poly_scale(one, Fraction(1, 2))
    f = x1 - mp.x_var(2, 2, field=Fraction(-1, 2))
    assert ops.dunkl(cs, 1, f).is_zero()
    assert ops.dunkl(cs, 2, f).is_zero()


def test_context_guards():
    c = ctx2()
    with pytest.raises(FieldMismatch):
        ops.dunkl(c, 1, mp.x_var(2, 1, field=Fraction(1, 3)))
    with pytest.raises(IndexOutOfRange):
        ops.dunkl(c, 3, mp.x_var(2, 1))
    with pytest.raises(IndexOutOfRange):
        ops.dunkl(c, 1, mp.x_var(3, 1))
    with pytest.raises(IndexOutOfRange):
        ops.murphy(c, 0, mp.x_var(2, 1))


def test_cherednik_matches_dunkl_route():
    # reference: U_i f = D_i(x_i f) - kappa * sum_{j<i} (j,i) f
    rng = random.Random(33)
    for kappa0 in (None, Fraction(-2, 3)):
        c3 = ops.OperatorContext(3, kappa0)
        kappa = c3.kappa()
        for _ in range(6):
            f = _random_poly(rng, 3, 4, field=kappa0)
            for i in (1, 2, 3):
                ref = ops.dunkl(c3, i, mp.x_var(3, i, field=kappa0) * f)
                for j in range(1, i):
                    ref = ref - mp.poly_scale(
                        mp.apply_perm(transposition(3, j, i), f), kappa)
                assert ops.cherednik(c3, i, f) == ref


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
