"""Field arithmetic in Q(k): polynomials, ratios, gcds, pole detection."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from singjack.exactarith import (
    KAPPA,
    KP_ONE,
    KP_ZERO,
    KR_ONE,
    KR_ZERO,
    DivisionByZero,
    KappaPoly,
    KappaRatio,
    PoleError,
    ZeroPolynomial,
    kappa_linear,
    poly_gcd,
    rat_to_str,
    root_multiplicity,
)


def test_kappa_poly_basics():
    p = KappaPoly((1, 2, 3))  # 3k^2 + 2k + 1
    assert p.degree == 2
    assert p.leading() == 3
    assert p.eval_at(2) == 3 * 4 + 2 * 2 + 1
    assert KP_ZERO.degree == -1
    assert KP_ZERO.is_zero() and not p.is_zero()
    assert KP_ONE.is_one()
    with pytest.raises(ZeroPolynomial):
        KP_ZERO.leading()


def test_kappa_poly_trailing_zeros_trimmed():
    assert KappaPoly((1, 0, 0)) == KappaPoly((1,))
    assert KappaPoly((0, 0)) == KP_ZERO


def test_kappa_linear():
    p = kappa_linear(2, -3)  # 2k - 3
    assert p.coeffs == (Fraction(-3), Fraction(2))
    assert p.eval_at(Fraction(3, 2)) == 0


def test_poly_divmod_exact():
    a = kappa_linear(1, 1) * kappa_linear(2, 1)  # (k+1)(2k+1)
    q, r = a.divmod(kappa_linear(1, 1))
    assert r.is_zero()
    assert q == kappa_linear(2, 1)
    q2, r2 = a.divmod(kappa_linear(1, 0))
    assert q2 * kappa_linear(1, 0) + r2 == a


def test_poly_monic():
    p = kappa_linear(2, 1)
    assert p.monic() == kappa_linear(1, Fraction(1, 2))


def test_poly_gcd():
    a = kappa_linear(1, 1) * kappa_linear(2, 3)
    b = kappa_linear(1, 1) * kappa_linear(1, -5)
    g = poly_gcd(a, b)
    assert g == kappa_linear(1, 1)
    assert poly_gcd(a, KP_ZERO).monic() == a.monic()
    # coprime inputs reduce to a unit
    assert poly_gcd(kappa_linear(1, 1), kappa_linear(1, 2)).degree == 0


def test_root_multiplicity():
    p = kappa_linear(1, 1) * kappa_linear(1, 1) * kappa_linear(2, 1)
    assert root_multiplicity(p, Fraction(-1)) == 2
    assert root_multiplicity(p, Fraction(-1, 2)) == 1
    assert root_multiplicity(p, Fraction(3)) == 0


def test_ratio_from_factors():
    # 2(k + 2) * k * 3 / ((k + 2) * -2(k + 1) * 6) = -k / (2(k + 1))
    r = KappaRatio.from_factors([(2, 4), (1, 0), (0, 3)],
                                [(1, 2), (-2, -2), (0, 6)])
    assert (r.num, r.den) == (kappa_linear(Fraction(-1, 2), 0),
                              kappa_linear(1, 1))
    assert r == KappaRatio(kappa_linear(-1, 0), kappa_linear(2, 2))
    assert KappaRatio.from_factors([(1, 1)], [(3, 3)]) == Fraction(1, 3)
    assert KappaRatio.from_factors([], []) == KR_ONE


def test_ratio_canonical_form():
    r = KappaRatio(kappa_linear(2, 2), kappa_linear(4, 2))
    assert r == KappaRatio(kappa_linear(1, 1), kappa_linear(2, 1))
    assert r.den.leading() == 1  # monic denominator
    assert KappaRatio(KP_ZERO, kappa_linear(5, 1)) == KR_ZERO
    with pytest.raises(DivisionByZero):
        KappaRatio(KP_ONE, KP_ZERO)


def test_ratio_field_ops():
    a = KAPPA / (KAPPA + 1)
    b = KR_ONE / (KAPPA + 1)
    assert a + b == KR_ONE
    assert a * (KAPPA + 1) == KAPPA
    assert (a - a).is_zero()
    assert a.reciprocal() * a == KR_ONE
    assert (KAPPA ** 3) * (KAPPA ** -2) == KAPPA
    with pytest.raises(DivisionByZero):
        KR_ZERO.reciprocal()


def test_ratio_eval_and_pole():
    r = KAPPA / (KAPPA + 1)
    assert r.eval_at(1) == Fraction(1, 2)
    with pytest.raises(PoleError) as ei:
        r.eval_at(-1)
    assert ei.value.at == Fraction(-1)


def test_rat_str_round_trip():
    for q in (Fraction(0), Fraction(7), Fraction(-1, 3), Fraction(22, 7)):
        assert Fraction(rat_to_str(q)) == q


def test_display_forms():
    assert str(kappa_linear(3, 2)) == "3*k + 2"
    assert str(KAPPA / (2 * KAPPA + 1)) == "(1/2*k)/(k + 1/2)"
    assert str(KR_ZERO) == "0"


small_rat = st.fractions(max_denominator=6,
                         min_value=-5, max_value=5)
small_poly = st.lists(small_rat, min_size=0, max_size=4).map(KappaPoly)
nonzero_poly = small_poly.filter(lambda p: not p.is_zero())
small_ratio = st.tuples(small_poly, nonzero_poly).map(
    lambda t: KappaRatio(t[0], t[1]))
nonzero_ratio = small_ratio.filter(lambda r: not r.is_zero())


@settings(max_examples=60, deadline=None)
@given(small_ratio, small_ratio, small_ratio)
def test_field_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + KR_ZERO == a and a * KR_ONE == a
    assert (a - a).is_zero()


@settings(max_examples=60, deadline=None)
@given(nonzero_ratio)
def test_reciprocal_law(a):
    assert a * a.reciprocal() == KR_ONE
    assert a.den.leading() == 1


@settings(max_examples=60, deadline=None)
@given(small_poly, nonzero_poly)
def test_divmod_law(a, b):
    q, r = a.divmod(b)
    assert q * b + r == a
    assert r.is_zero() or r.degree < b.degree


@settings(max_examples=60, deadline=None)
@given(nonzero_poly, nonzero_poly)
def test_gcd_divides_both(a, b):
    g = poly_gcd(a, b)
    assert a.divmod(g)[1].is_zero()
    assert b.divmod(g)[1].is_zero()
    assert g.leading() == 1


# ------------------------------------- evaluation against a Fraction Horner

def _horner(p, q0):
    acc = Fraction(0)
    for c in reversed(p.coeffs):
        acc = acc * q0 + c
    return acc


non_integer_rat = small_rat.filter(lambda q: q.denominator > 1)
quadratic = KappaPoly((Fraction(1, 2), -3, Fraction(5, 7)))


@settings(max_examples=100, deadline=None)
@given(num=small_poly, den=nonzero_poly, pole=st.booleans(),
       q0=st.one_of(non_integer_rat, st.just(Fraction(0))))
@example(num=KP_ZERO, den=KP_ONE, pole=False, q0=Fraction(-2, 3))
@example(num=KappaPoly((Fraction(5, 7),)), den=KappaPoly((3,)), pole=False,
         q0=Fraction(3, 4))
@example(num=quadratic, den=kappa_linear(1, 1), pole=False, q0=Fraction(0))
@example(num=quadratic, den=kappa_linear(1, 1), pole=False, q0=Fraction(-5))
# num and den of one degree, where a wrong power of q cancels in the ratio
@example(num=quadratic, den=kappa_linear(1, 1), pole=True,
         q0=Fraction(-3, 2))
def test_eval_at_matches_fraction_horner(num, den, pole, q0):
    assert num.eval_at(q0) == _horner(num, q0)
    assert den.eval_at(q0) == _horner(den, q0)
    if pole:
        den = den * kappa_linear(q0.denominator, -q0.numerator)
    r = KappaRatio(num, den)
    dv = _horner(r.den, q0)
    if dv:
        assert r.eval_at(q0) == _horner(r.num, q0) / dv
    else:
        with pytest.raises(PoleError):
            r.eval_at(q0)


# ------------------------------------------- differential tests with sympy

linear_factor = st.tuples(st.integers(-3, 3), st.integers(-4, 4)).filter(
    lambda f: f != (0, 0))
factor_list = st.lists(linear_factor, max_size=5)


def _product(factors):
    out = KP_ONE
    for a, b in factors:
        out = out * kappa_linear(a, b)
    return out


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def _to_sympy(sympy, p):
    k = sympy.Symbol("k")
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator)
                       for c in reversed(p.coeffs)] or [0], k, domain="QQ")


@settings(max_examples=80, deadline=None)
@given(common=factor_list, left=factor_list, right=factor_list,
       extra=nonzero_poly)
def test_poly_gcd_agrees_with_sympy(sympy, common, left, right, extra):
    a = _product(common + left) * extra
    b = _product(common + right)
    want = sympy.gcd(_to_sympy(sympy, a), _to_sympy(sympy, b)).monic()
    assert _to_sympy(sympy, poly_gcd(a, b)) == want


@settings(max_examples=80, deadline=None)
@given(factors=factor_list, extra=nonzero_poly, data=st.data())
def test_root_multiplicity_agrees_with_sympy(sympy, factors, extra, data):
    p = _product(factors) * extra
    roots = [Fraction(-b, a) for a, b in factors if a]
    q0 = data.draw(st.one_of(st.sampled_from(roots), small_rat)
                   if roots else small_rat)
    _, irreducible = _to_sympy(sympy, p).factor_list()
    want = sum(m for f, m in irreducible if f.degree() == 1
               and f.eval(sympy.Rational(q0.numerator, q0.denominator)) == 0)
    assert root_multiplicity(p, q0) == want


@settings(max_examples=80, deadline=None)
@given(num=factor_list, den=factor_list)
def test_from_factors_agrees_with_sympy(sympy, num, den):
    r = KappaRatio.from_factors(num, den)
    k = sympy.Symbol("k")
    top, bottom = sympy.fraction(sympy.cancel(
        sympy.Mul(*[a * k + b for a, b in num])
        / sympy.Mul(*[a * k + b for a, b in den])))
    bottom = sympy.Poly(bottom, k, domain="QQ")
    lead = bottom.LC()
    assert _to_sympy(sympy, r.num) == sympy.Poly(top, k, domain="QQ") / lead
    assert _to_sympy(sympy, r.den) == bottom.monic()
