"""Sparse multivariate polynomials with S_N actions.

A MultiPoly lives in a fixed ambient dimension n.  Coefficients are either
KappaRatio (generic parameter field, tag None) or Fraction (parameter
specialized at a rational value, tag = that Fraction).  Exponent vectors are
dense tuples of length n.
"""

from fractions import Fraction
from math import lcm

from .exactarith import KappaPoly, KappaRatio, KR_ZERO, rat_to_str


class AmbientMismatch(ValueError):
    pass


class FieldMismatch(ValueError):
    pass


class SizeMismatch(ValueError):
    pass


def _coerce_generic(c):
    if isinstance(c, KappaRatio):
        return c
    if isinstance(c, (int, Fraction, KappaPoly)):
        return KR_ZERO + c
    raise TypeError("bad generic coefficient %r" % (c,))


def _coerce_special(c):
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, KappaRatio) and c.is_poly() and c.num.degree <= 0:
        return c.num.coeffs[0] if c.num.coeffs else Fraction(0)
    raise TypeError("bad specialized coefficient %r" % (c,))


def support_order(exps):
    """The exponent vectors exps in graded-lex descending order, the order
    of the JSON terms."""
    return sorted(exps, key=lambda e: (sum(e), e), reverse=True)


def _accumulate(terms, key, c, sub=False):
    """terms[key] += c, or -= c when sub, for a nonzero c; a key whose sum
    is zero is dropped, so terms stays free of zero coefficients."""
    acc = terms.get(key)
    if acc is None:
        terms[key] = -c if sub else c
    else:
        acc = acc - c if sub else acc + c
        if acc:
            terms[key] = acc
        else:
            del terms[key]


class MultiPoly:
    """Immutable sparse polynomial; do not mutate .terms after construction."""

    __slots__ = ("n", "field", "terms")

    def __init__(self, n, terms=None, field=None, _clean=False):
        if not (isinstance(n, int) and n >= 1):
            raise AmbientMismatch("ambient dimension must be a positive integer")
        if field is not None and not isinstance(field, Fraction):
            field = Fraction(field)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "field", field)
        if terms is None:
            terms = {}
        if _clean:
            object.__setattr__(self, "terms", terms)
            return
        coerce = _coerce_generic if field is None else _coerce_special
        clean = {}
        for exp, c in terms.items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != n:
                raise AmbientMismatch(
                    "exponent %r has length %d, ambient is %d" % (exp, len(exp), n)
                )
            if any(e < 0 for e in exp):
                raise ValueError("negative exponent in %r" % (exp,))
            c = coerce(c)
            if c:
                _accumulate(clean, exp, c)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def degree(self):
        """Total degree, -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def zero_coeff(self):
        return KR_ZERO if self.field is None else Fraction(0)

    def support(self):
        """Exponent vectors in graded-lex descending order."""
        return support_order(self.terms)

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (
            self.n == other.n
            and self.field == other.field
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, self.field, frozenset(self.terms.items())))

    def __add__(self, other):
        return poly_add(self, other)

    def __sub__(self, other):
        return poly_sub(self, other)

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            return poly_mul(self, other)
        return poly_scale(self, other)

    def __rmul__(self, other):
        return poly_scale(self, other)

    def __neg__(self):
        return poly_scale(self, -1)

    def to_json(self):
        if self.field is None:
            field = "Q(k)"
            cj = lambda c: c.to_json()
        else:
            field = "Q@" + rat_to_str(self.field)
            cj = rat_to_str
        return {
            "N": self.n,
            "field": field,
            "terms": [
                {"exp": list(e), "coeff": cj(self.terms[e])} for e in self.support()
            ],
        }

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in self.support():
            c = self.terms[e]
            mono = "*".join(
                "x%d" % (i + 1,) if p == 1 else "x%d^%d" % (i + 1, p)
                for i, p in enumerate(e)
                if p
            )
            cs = str(c)
            if mono:
                parts.append(mono if cs == "1" else "(%s)*%s" % (cs, mono))
            else:
                parts.append("(%s)" % cs)
        return " + ".join(parts)

    def __repr__(self):
        return "MultiPoly(%s)" % (self,)


def mp_zero(n, field=None):
    return MultiPoly(n, {}, field=field)


def monomial(n, exp, coeff=1, field=None):
    return MultiPoly(n, {tuple(exp): coeff}, field=field)


def _check_compat(f, g):
    if f.n != g.n:
        raise AmbientMismatch("ambient %d vs %d" % (f.n, g.n))
    if f.field != g.field:
        raise FieldMismatch("field %r vs %r" % (f.field, g.field))


def poly_add(f, g):
    _check_compat(f, g)
    terms = dict(f.terms)
    for e, c in g.terms.items():
        _accumulate(terms, e, c)
    return MultiPoly(f.n, terms, field=f.field, _clean=True)


def poly_sub(f, g):
    _check_compat(f, g)
    terms = dict(f.terms)
    for e, c in g.terms.items():
        _accumulate(terms, e, c, True)
    return MultiPoly(f.n, terms, field=f.field, _clean=True)


def poly_mul(f, g):
    _check_compat(f, g)
    terms = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            # a product of nonzero field elements is nonzero
            _accumulate(terms, tuple(a + b for a, b in zip(e1, e2)), c1 * c2)
    return MultiPoly(f.n, terms, field=f.field, _clean=True)


def poly_scale(f, c):
    c = _coerce_generic(c) if f.field is None else _coerce_special(c)
    if not c:
        return mp_zero(f.n, field=f.field)
    return MultiPoly(
        f.n, {e: c * v for e, v in f.terms.items()}, field=f.field, _clean=True
    )


def perm_terms(w, terms):
    """The terms of w applied to the polynomial with the given terms."""
    n = len(w)
    targets = [w[i] - 1 for i in range(n)]
    out = {}
    for e, c in terms.items():
        we = [0] * n
        for i in range(n):
            we[targets[i]] = e[i]
        out[tuple(we)] = c
    return out


def apply_perm(w, f):
    """w(x^a) = x^{wa} with (wa)_{w(i)} = a_i, extended linearly."""
    n = f.n
    if len(w) != n:
        raise SizeMismatch("permutation length %d, ambient %d" % (len(w), n))
    return MultiPoly(n, perm_terms(w, f.terms), field=f.field, _clean=True)


def eval_ones(f, n=None):
    """f(1,1,...,1): the sum of all coefficients."""
    if n is not None and n != f.n:
        raise AmbientMismatch("ambient %d vs requested %d" % (f.n, n))
    acc = f.zero_coeff()
    for c in f.terms.values():
        acc = acc + c
    return acc


def coeff(f, alpha):
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != f.n:
        raise AmbientMismatch(
            "exponent length %d, ambient %d" % (len(alpha), f.n)
        )
    return f.terms.get(alpha, f.zero_coeff())


def integer_terms(terms):
    """(L, the terms of L*g as ints), for g given by its Fraction terms and
    L > 0 the lcm of their denominators."""
    den = lcm(*(c.denominator for c in terms.values()))
    return den, {e: c.numerator * (den // c.denominator)
                 for e, c in terms.items()}


def word_apply(word, f):
    """Apply a group-algebra word [(coeff, perm), ...] to a polynomial."""
    acc = mp_zero(f.n, field=f.field)
    for c, w in word:
        g = apply_perm(w, f)
        if not (isinstance(c, int) and c == 1):
            if f.field is not None and isinstance(c, KappaRatio):
                c = c.eval_at(f.field)
            g = poly_scale(g, c)
        acc = poly_add(acc, g)
    return acc
