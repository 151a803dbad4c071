"""Sparse multivariate polynomials over Q(k) and specialized Q."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singjack import multipoly as mp
from singjack.combinatorics import transposition, compose
from singjack.exactarith import (KAPPA, KR_ONE, KR_ZERO, KappaPoly,
                                 KappaRatio, PoleError, kappa_linear)
from singjack.multipoly import AmbientMismatch, FieldMismatch, MultiPoly

import reference as ref


def xv(i, n=3, field=None):
    return ref.x_var(n, i, field=field)


def test_construction_and_cleanup():
    f = MultiPoly(2, {(1, 0): 1, (0, 1): 0})
    assert (0, 1) not in f.terms
    assert not f.is_zero() and bool(f)
    assert mp.mp_zero(2).is_zero()
    assert f.degree() == 1 and mp.mp_zero(2).degree() == -1


def test_immutability_and_hash():
    f = xv(1)
    with pytest.raises(AttributeError):
        f.n = 5
    assert hash(f) == hash(xv(1))
    assert f == xv(1) and f != xv(2)


def test_arithmetic():
    f = xv(1) + xv(2)
    g = xv(1) - xv(2)
    assert f * g == xv(1) * xv(1) - xv(2) * xv(2)


def test_ambient_and_field_guards():
    with pytest.raises(AmbientMismatch):
        mp.poly_add(ref.x_var(2, 1), ref.x_var(3, 1))
    with pytest.raises(FieldMismatch):
        mp.poly_add(xv(1), xv(1, field=Fraction(-1, 2)))


def test_generic_coeffs_live_in_q_of_k():
    f = mp.poly_scale(xv(1), KAPPA / (KAPPA + 1))
    assert f.zero_coeff() == 0
    assert mp.coeff(f, (1, 0, 0)) == KAPPA / (KAPPA + 1)
    g = ref.specialize(f, 1)
    assert mp.coeff(g, (1, 0, 0)) == Fraction(1, 2)
    with pytest.raises(PoleError):
        ref.specialize(f, -1)


def test_support_order_graded_lex_descending():
    f = xv(1) * xv(1) + xv(2) + xv(1) * xv(3)
    sup = f.support()
    assert sup == [(2, 0, 0), (1, 0, 1), (0, 1, 0)]


def test_apply_perm():
    f = xv(1) + 2 * mp.monomial(3, (0, 2, 0))
    w = transposition(3, 1, 2)
    g = mp.apply_perm(w, f)
    assert g == xv(2) + 2 * mp.monomial(3, (2, 0, 0))
    u = transposition(3, 2, 3)
    assert mp.apply_perm(compose(u, w), f) == mp.apply_perm(
        u, mp.apply_perm(w, f))


def test_word_apply():
    f = xv(1)
    word = [(KR_ONE, transposition(3, 1, 2)),
            (KAPPA, transposition(3, 1, 3))]
    assert mp.word_apply(word, f) == xv(2) + mp.poly_scale(xv(3), KAPPA)


def test_divided_difference_basics():
    f = xv(1) * xv(1)
    assert ref.divided_difference(1, 2, f) == xv(1) + xv(2)
    sym = xv(1) * xv(2)
    assert ref.divided_difference(1, 2, sym).is_zero()
    assert ref.divided_difference(1, 2, ref.mp_const(3, 5)).is_zero()
    # antisymmetric numerator of degree 1 divides exactly to a constant
    assert ref.divided_difference(1, 3, xv(1) - xv(3)) == ref.mp_const(3, 2)


def test_divided_difference_staircase():
    # f antisymmetric in (1,2), so the numerator is 2f:
    # 2(x1^3 x2 - x1 x2^3)/(x1 - x2) = 2 x1^2 x2 + 2 x1 x2^2
    f = mp.monomial(3, (3, 1, 0)) + mp.poly_scale(mp.monomial(3, (1, 3, 0)),
                                                  -1)
    assert ref.divided_difference(1, 2, f) == mp.poly_scale(
        mp.monomial(3, (2, 1, 0)) + mp.monomial(3, (1, 2, 0)), 2)


def _random_poly(rng, n, maxdeg, field=None, nterms=5):
    f = mp.mp_zero(n, field=field)
    for _ in range(nterms):
        e = tuple(rng.randint(0, maxdeg) for _ in range(n))
        if sum(e) > maxdeg:
            continue
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        f = f + mp.monomial(n, e, c, field=field)
    return f


def test_divided_difference_leibniz():
    rng = random.Random(7)
    for _ in range(15):
        n = rng.choice((2, 3))
        f = _random_poly(rng, n, 3)
        g = _random_poly(rng, n, 3)
        i, j = (1, 2) if n == 2 else rng.choice(((1, 2), (1, 3), (2, 3)))
        w = transposition(n, i, j)
        lhs = ref.divided_difference(i, j, f * g)
        rhs = ref.divided_difference(i, j, f) * g + mp.apply_perm(
            w, f) * ref.divided_difference(i, j, g)
        assert lhs == rhs


def test_divided_difference_kills_symmetrized():
    rng = random.Random(11)
    for _ in range(10):
        f = _random_poly(rng, 3, 3)
        w = transposition(3, 1, 2)
        assert ref.divided_difference(1, 2, f + mp.apply_perm(w, f)).is_zero()


def test_partial():
    f = mp.monomial(3, (2, 1, 0)) + xv(3)
    assert ref.partial(1, f) == mp.poly_scale(mp.monomial(3, (1, 1, 0)), 2)
    assert ref.partial(3, f) == ref.mp_const(3, 1)
    assert ref.partial(2, ref.mp_const(3, 4)).is_zero()
    # product rule on randoms
    rng = random.Random(3)
    for _ in range(8):
        g = _random_poly(rng, 3, 3)
        h = _random_poly(rng, 3, 3)
        assert ref.partial(2, g * h) == ref.partial(2, g) * h + g * ref.partial(
            2, h)


def test_eval_ones():
    f = mp.poly_scale(xv(1) * xv(2), KAPPA) + ref.mp_const(3, 1)
    assert mp.eval_ones(f) == KAPPA + 1
    g = ref.specialize(f, Fraction(1, 3))
    assert mp.eval_ones(g) == Fraction(4, 3)


def test_specialize_preserves_structure():
    f = mp.poly_scale(xv(1), KAPPA) + mp.poly_scale(xv(2), KAPPA + 1)
    g = ref.specialize(f, 0)
    assert g.field == Fraction(0)
    assert g == ref.x_var(3, 2, field=Fraction(0))  # kappa term drops


def test_json_round_trip_generic_and_special():
    # read back with Fraction
    def ratio(c):
        return KappaRatio(*(KappaPoly(tuple(map(Fraction, c[k])))
                            for k in ("num", "den")))

    f = mp.poly_scale(xv(1), KAPPA / (KAPPA + 2)) + xv(3)
    assert {tuple(t["exp"]): ratio(t["coeff"])
            for t in f.to_json()["terms"]} == f.terms
    g = ref.specialize(f, Fraction(1, 2))
    assert {tuple(t["exp"]): Fraction(t["coeff"])
            for t in g.to_json()["terms"]} == g.terms
    assert g.to_json()["field"] == "Q@1/2"
    assert f.to_json()["field"] == "Q(k)"


def test_homogeneous():
    assert (xv(1) * xv(2)).is_homogeneous()
    assert not (xv(1) + ref.mp_const(3, 1)).is_homogeneous()


frac = st.fractions(max_denominator=4, min_value=-3, max_value=3)
exps = st.tuples(st.integers(0, 3), st.integers(0, 3))
polys = st.dictionaries(exps, frac, max_size=4).map(
    lambda d: MultiPoly(2, d))


@settings(max_examples=60, deadline=None)
@given(polys, polys, polys)
def test_ring_laws(f, g, h):
    assert f + g == g + f
    assert f * g == g * f
    assert (f + g) + h == f + (g + h)
    assert f * (g + h) == f * g + f * h
    assert (f - f).is_zero()


@settings(max_examples=40, deadline=None)
@given(polys)
def test_perm_action_involution(f):
    w = transposition(2, 1, 2)
    assert mp.apply_perm(w, mp.apply_perm(w, f)) == f


@settings(max_examples=40, deadline=None)
@given(polys)
def test_divided_difference_degree_drop(f):
    d = ref.divided_difference(1, 2, f)
    assert d.is_zero() or d.degree() <= max(f.degree() - 1, 0)


def test_specialized_scale_by_constant_ratio():
    q = Fraction(-1, 2)
    f = ref.x_var(2, 1, field=q) + mp.monomial(2, (0, 2), 3, field=q)
    assert mp.poly_scale(f, KappaRatio.const(3)) == mp.poly_scale(f, 3)
    assert mp.poly_scale(f, KappaRatio.const(Fraction(2, 7))) == \
        mp.poly_scale(f, Fraction(2, 7))
    assert mp.poly_scale(f, KR_ZERO).is_zero()
    g = mp.MultiPoly(2, {(1, 0): KappaRatio.const(5)}, field=q)
    assert g.terms == {(1, 0): Fraction(5)}


def test_specialized_scale_rejects_kappa_dependent_ratio():
    q = Fraction(-1, 2)
    f = ref.x_var(2, 1, field=q)
    with pytest.raises(TypeError):
        mp.poly_scale(f, KAPPA)
    with pytest.raises(TypeError):
        mp.poly_scale(f, KappaRatio(1, kappa_linear(1, 1)))
    with pytest.raises(TypeError):
        mp.MultiPoly(2, {(1, 0): KAPPA + 1}, field=q)


def test_expand_in_basis_specialized_several_targets():
    q = Fraction(-1, 3)
    x1, x2, x3 = (xv(i, field=q) for i in (1, 2, 3))
    basis = [x1 + x2, x1 - x3, mp.poly_scale(x3, Fraction(1, 2))]
    targets = [x1, x1 + x2 + x3, mp.mp_zero(3, field=q), basis[1]]
    got = ref.expand_in_basis(basis, targets)
    assert got == [[0, 1, 2], [1, 0, 2], [0, 0, 0], [0, 1, 0]]
    for coeffs, f in zip(got, targets):
        assert all(isinstance(c, Fraction) for c in coeffs)
        rebuilt = mp.mp_zero(3, field=q)
        for c, b in zip(coeffs, basis):
            rebuilt = rebuilt + mp.poly_scale(b, c)
        assert rebuilt == f


def test_expand_in_basis_generic_coefficients():
    x1, x2 = ref.x_var(2, 1), ref.x_var(2, 2)
    basis = [mp.poly_scale(x1, kappa_linear(1, 1)) + x2,
             mp.poly_scale(x2, KAPPA)]
    target = x1 + x2
    (a, b), = ref.expand_in_basis(basis, [target])
    assert a == b == KappaRatio(1, kappa_linear(1, 1))
    assert mp.poly_scale(basis[0], a) + mp.poly_scale(basis[1], b) == target
    assert ref.expand_in_basis(basis, []) == []


def test_expand_in_basis_rejects_dependent_basis():
    basis = [xv(1) + xv(2), xv(3), mp.poly_scale(xv(1) + xv(2), KAPPA)]
    with pytest.raises(ref.ExpansionFailure, match="dependent"):
        ref.expand_in_basis(basis, [xv(3)])


def test_expand_in_basis_rejects_target_outside_span():
    basis = [xv(1) + xv(2), xv(3)]
    with pytest.raises(ref.ExpansionFailure, match="outside"):
        ref.expand_in_basis(basis, [xv(3), xv(1)])
    # a monomial no basis element carries is outside the span as well
    with pytest.raises(ref.ExpansionFailure, match="outside"):
        ref.expand_in_basis(basis, [xv(1) * xv(2)])
