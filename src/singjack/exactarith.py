"""Exact scalar arithmetic over Q and over the rational function field Q(k).

Rationals are fractions.Fraction.  KappaPoly is a dense univariate polynomial
in the coupling parameter k with Fraction coefficients.  KappaRatio is a
quotient of two KappaPolys kept in canonical form: fully reduced and with a
monic denominator, so equality is structural.  No floating point anywhere.
"""

from fractions import Fraction
from math import gcd, lcm


class DivisionByZero(ZeroDivisionError):
    pass


class PoleError(ArithmeticError):
    """Raised when a specialization hits a zero of a denominator."""

    def __init__(self, msg, at=None, where=None):
        super().__init__(msg)
        self.at = at
        self.where = where


class ZeroPolynomial(ValueError):
    pass


def rat_to_str(q):
    """"p" or "p/q" for a Fraction or int q, already in lowest terms."""
    p, d = q.numerator, q.denominator
    return str(p) if d == 1 else "%d/%d" % (p, d)


def ratio_str(p, q):
    """The string of p/q, ints with q > 0: "p" or "p/q" in lowest terms,
    with no Fraction."""
    g = gcd(p, q)
    return str(p // g) if g == q else "%d/%d" % (p // g, q // g)


class KappaPoly:
    """Polynomial in k with Fraction coefficients, coeffs[i] on k**i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        c = [x if isinstance(x, Fraction) else Fraction(x) for x in coeffs]
        while c and not c[-1]:
            c.pop()
        self.coeffs = tuple(c)

    @classmethod
    def const(cls, q):
        return cls((Fraction(q),))

    @property
    def degree(self):
        # degree of the zero polynomial reported as -1
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def is_one(self):
        return self.coeffs == (Fraction(1),)

    def leading(self):
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        if isinstance(other, KappaPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == KappaPoly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(("KappaPoly", self.coeffs))

    def __neg__(self):
        return KappaPoly(tuple(-c for c in self.coeffs))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = KappaPoly.const(other)
        if not isinstance(other, KappaPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return KappaPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return KappaPoly()
            return KappaPoly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, KappaPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return KappaPoly()
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return KappaPoly(out)

    __rmul__ = __mul__

    def eval_at(self, q0):
        """The value at k = p/q, q > 0: with self = num/d over Z,
        num(p/q) = _at_root(num, q, -p) / q^deg."""
        q0 = Fraction(q0)
        num, d = _int_form(self)
        q = q0.denominator
        return Fraction(_at_root(num, q, -q0.numerator),
                        d * q ** max(self.degree, 0))

    def divmod(self, other):
        """Exact polynomial division with remainder over Q."""
        if other.is_zero():
            raise DivisionByZero("division by zero polynomial")
        rem = list(self.coeffs)
        db, lb = other.degree, other.leading()
        if len(rem) - 1 < db:
            return KappaPoly(), self
        quo = [Fraction(0)] * (len(rem) - db)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c:
                q = c / lb
                quo[i - db] = q
                for j, cb in enumerate(other.coeffs):
                    rem[i - db + j] -= q * cb
        return KappaPoly(quo), KappaPoly(rem)

    def exact_div(self, other):
        quo, rem = self.divmod(other)
        if not rem.is_zero():
            raise ValueError("inexact polynomial division")
        return quo

    def monic(self):
        if self.is_zero():
            return self
        lb = self.leading()
        if lb == 1:
            return self
        return self * (1 / lb)

    def to_json(self):
        return [rat_to_str(c) for c in self.coeffs]

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if not c:
                continue
            if i == 0:
                term = rat_to_str(abs(c))
            else:
                mag = "" if abs(c) == 1 else rat_to_str(abs(c)) + "*"
                term = mag + ("k" if i == 1 else "k^%d" % i)
            parts.append(("-" if c < 0 else "+", term))
        sign0, term0 = parts[0]
        out = ("-" if sign0 == "-" else "") + term0
        for s, t in parts[1:]:
            out += " %s %s" % (s, t)
        return out

    def __repr__(self):
        return "KappaPoly(%s)" % self


KP_ZERO = KappaPoly()
KP_ONE = KappaPoly.const(1)


def kappa_linear(a, b):
    """The polynomial a*k + b."""
    return KappaPoly((Fraction(b), Fraction(a)))


def _int_form(kp):
    """(integer coefficients, positive integer d) with kp = ints / d."""
    d = lcm(*(c.denominator for c in kp.coeffs))
    return [c.numerator * (d // c.denominator) for c in kp.coeffs], d


def _int_primitive(v):
    g = gcd(*v) or 1
    if v[-1] < 0:
        g = -g
    return [x // g for x in v]


# Z[k] as int lists, low degree first.  A linear factor a*k + b is the
# int pair (a, b); it is primitive when gcd(a, b) = 1 and a > 0.

def _times(num, a, b):
    """num * (a*k + b)."""
    if not b:
        return [0] + [a * x for x in num]
    return [b * x + a * y for x, y in zip(num + [0], [0] + num)]


def _at_root(num, a, b):
    """a^deg * num(-b/a) by homogenised Horner: 0 iff a*k + b | num."""
    acc, apow = 0, 1
    for x in reversed(num):
        acc = acc * -b + x * apow
        apow *= a
    return acc


def _divide_out(num, a, b, most):
    """(num / (a*k + b)^m, m) for the largest m <= most with (a*k + b)^m
    dividing the nonzero num, by synthetic division.  a*k + b is primitive
    with a > 0, so a quotient in Q[k] lies in Z[k] (Gauss's lemma): a pass
    stops at the first step a does not divide, or a nonzero remainder."""
    m = 0
    while m < most and len(num) > 1:
        quo, r = [0] * (len(num) - 1), num[-1]
        for j in range(len(num) - 2, -1, -1):
            quo[j], r = divmod(r, a)
            if r:
                return num, m
            r = num[j] - b * quo[j]
        if r:
            return num, m
        num, m = quo, m + 1
    return num, m


def _int_pseudo_rem(u, v):
    """prem(u, v) over Z, deg u >= deg v >= 0."""
    du, dv = len(u) - 1, len(v) - 1
    lv = v[-1]
    r = list(u)
    for i in range(du, dv - 1, -1):
        c = r[i]
        for j in range(len(r)):
            r[j] *= lv
        if c:
            for j in range(dv + 1):
                r[i - dv + j] -= c * v[j]
        # r[i] is now zero by construction
    while r and not r[-1]:
        r.pop()
    return r


def _int_subresultant_gcd(u, v):
    """Primitive gcd over Z of primitive u, v via the subresultant PRS."""
    if len(u) < len(v):
        u, v = v, u
    g, h = 1, 1
    while True:
        d = (len(u) - 1) - (len(v) - 1)
        r = _int_pseudo_rem(u, v)
        if not r:
            return _int_primitive(v)
        if len(r) == 1:
            return [1]
        denom = g * h ** d
        u, v = v, [x // denom for x in r]
        g = u[-1]
        if d > 0:
            h = g ** d // h ** (d - 1)


def poly_gcd(a, b):
    """Monic gcd in Q[k], computed fraction-free over Z internally."""
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    if a.degree == 0 or b.degree == 0:
        return KP_ONE
    w = _int_subresultant_gcd(_int_primitive(_int_form(a)[0]),
                              _int_primitive(_int_form(b)[0]))
    return KappaPoly(w).monic()


def root_multiplicity(p, q0):
    """Multiplicity of q0 as a root of p; 0 when p(q0) != 0."""
    if p.is_zero():
        raise ZeroPolynomial("root multiplicity of the zero polynomial")
    q0 = Fraction(q0)
    num = _int_form(p)[0]
    return _divide_out(num, q0.denominator, -q0.numerator, len(num))[1]


class KappaRatio:
    """Element of Q(k) as num/den, reduced, denominator monic."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _canonical=False):
        if not isinstance(num, KappaPoly):
            num = KappaPoly.const(num)
        if den is None:
            den = KP_ONE
        elif not isinstance(den, KappaPoly):
            den = KappaPoly.const(den)
        if den.is_zero():
            raise DivisionByZero("zero denominator in KappaRatio")
        if not _canonical:
            if num.is_zero():
                den = KP_ONE
            else:
                g = poly_gcd(num, den)
                if g.degree > 0:
                    num = num.exact_div(g)
                    den = den.exact_div(g)
                lb = den.leading()
                if lb != 1:
                    num = num * (1 / lb)
                    den = den * (1 / lb)
        self.num = num
        self.den = den

    @classmethod
    def const(cls, q):
        return cls(KappaPoly.const(q), KP_ONE, _canonical=True)

    @classmethod
    def from_factors(cls, num, den):
        """prod(a*k + b over num) / prod(a*k + b over den), canonical with
        no gcd.  num and den list nonzero int pairs (a, b), repeated for
        multiplicity.  Each factor is made primitive with a >= 0, its
        content (all of it when a = 0) going into a rational constant;
        equal factors then cancel in pairs, so the products left are
        coprime."""
        c, count = Fraction(1), {}
        for side, facs in ((1, num), (-1, den)):
            for a, b in facs:
                g = b if not a else gcd(a, b) if a > 0 else -gcd(a, b)
                c *= Fraction(g) ** side
                if a:
                    f = (a // g, b // g)
                    count[f] = count.get(f, 0) + side
        top, bottom = [1], [1]
        for (a, b), m in count.items():
            for _ in range(m):
                top = _times(top, a, b)
            for _ in range(-m):
                bottom = _times(bottom, a, b)
        c /= bottom[-1]
        return cls(KappaPoly([c * x for x in top]),
                   KappaPoly([Fraction(x, bottom[-1]) for x in bottom]),
                   _canonical=True)

    def is_zero(self):
        return self.num.is_zero()

    def is_poly(self):
        return self.den.is_one()

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash(("KappaRatio", self.num.coeffs, self.den.coeffs))

    def __bool__(self):
        return not self.num.is_zero()

    def __neg__(self):
        return KappaRatio(-self.num, self.den, _canonical=True)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.num, self.den
        c, d = other.num, other.den
        if a.is_zero():
            return other
        if c.is_zero():
            return self
        if b == d:
            return KappaRatio(a + c, b)
        g = poly_gcd(b, d)
        if g.degree == 0:
            num = a * d + c * b
            if num.is_zero():
                return KR_ZERO
            return KappaRatio(num, b * d, _canonical=True)
        b1 = b.exact_div(g)
        d1 = d.exact_div(g)
        t = a * d1 + c * b1
        if t.is_zero():
            return KR_ZERO
        h = poly_gcd(t, g)
        if h.degree > 0:
            t = t.exact_div(h)
            g = g.exact_div(h)
        return KappaRatio(t, b1 * d1 * g, _canonical=True)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.num, self.den
        c, d = other.num, other.den
        if a.is_zero() or c.is_zero():
            return KR_ZERO
        g1 = poly_gcd(a, d)
        if g1.degree > 0:
            a = a.exact_div(g1)
            d = d.exact_div(g1)
        g2 = poly_gcd(c, b)
        if g2.degree > 0:
            c = c.exact_div(g2)
            b = b.exact_div(g2)
        return KappaRatio(a * c, b * d, _canonical=True)

    __rmul__ = __mul__

    def reciprocal(self):
        if self.num.is_zero():
            raise DivisionByZero("reciprocal of zero")
        num, den = self.den, self.num
        lb = den.leading()
        if lb != 1:
            num = num * (1 / lb)
            den = den * (1 / lb)
        return KappaRatio(num, den, _canonical=True)

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self * other.reciprocal()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other * self.reciprocal()

    def __pow__(self, n):
        base = self if n >= 0 else self.reciprocal()
        out = KR_ONE
        for _ in range(abs(n)):
            out = out * base
        return out

    def eval_at(self, q0):
        """Evaluate at k = q0; canonical form makes den zeros true poles."""
        q0 = Fraction(q0)
        dv = self.den.eval_at(q0)
        if not dv:
            raise PoleError("pole at k = %s" % rat_to_str(q0), at=q0)
        return self.num.eval_at(q0) / dv

    def to_json(self):
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        return "(%s)/(%s)" % (self.num, self.den)

    def __repr__(self):
        return "KappaRatio(%s)" % self


def _coerce(x):
    if isinstance(x, KappaRatio):
        return x
    if isinstance(x, (int, Fraction)):
        return KappaRatio.const(x)
    if isinstance(x, KappaPoly):
        return KappaRatio(x, KP_ONE, _canonical=True)
    return None


KR_ZERO = KappaRatio.const(0)
KR_ONE = KappaRatio.const(1)
KAPPA = KappaRatio(kappa_linear(1, 0), KP_ONE, _canonical=True)
