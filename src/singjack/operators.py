"""Dunkl and Cherednik operators, and Murphy elements.

The operators act on MultiPoly and are parametric in kappa: a context
either keeps kappa formal (generic) or pins it to a rational value
(specialized).  The field tag of the input polynomial must match the
context.

The Dunkl operator is a thin wrapper over its term function dunkl_terms.
It and murphy_terms, the term function of the Murphy elements, take a
terms dict with coefficients in any ring.  The kappa0 certificates of
`singular` call them on integer terms: for the integer form F = L*f of a
specialized polynomial, kappa0 = p/q in lowest terms,
dunkl_terms(..., p, q) is q*L*D_i f, with no Fraction arithmetic.  The
term functions, and the Cherednik K_i terms, apply each transposition by
swap_terms, a swap of two exponent entries.
"""

from fractions import Fraction

from .combinatorics import IndexOutOfRange
from .exactarith import KAPPA
from .multipoly import (FieldMismatch, MultiPoly, _accumulate, poly_add,
                        poly_scale)


class OperatorContext:
    """Ambient dimension plus kappa mode (None = generic, Fraction = pinned)."""

    __slots__ = ("n", "kappa0")

    def __init__(self, n, kappa0=None):
        if not (isinstance(n, int) and n >= 1):
            raise IndexOutOfRange("ambient dimension must be a positive integer")
        if kappa0 is not None:
            kappa0 = Fraction(kappa0)
        self.n = n
        self.kappa0 = kappa0

    def kappa(self):
        return KAPPA if self.kappa0 is None else self.kappa0

    def check(self, f):
        if f.n != self.n:
            raise IndexOutOfRange(
                "polynomial ambient %d, context ambient %d" % (f.n, self.n)
            )
        if f.field != self.kappa0:
            raise FieldMismatch(
                "polynomial field %r, context kappa %r" % (f.field, self.kappa0)
            )

    def __repr__(self):
        return "OperatorContext(n=%d, kappa0=%r)" % (self.n, self.kappa0)


def _pair_difference_terms(terms, i0, lift, out):
    """Accumulate sum_{j != i} (h - (ij)h)/(x_i - x_j) into out, for
    h = x_i^lift g and g given by its terms, term by term:

        (x^a y^b - x^b y^a)/(x-y) = sign * sum_{u=lo}^{hi-1} x^u y^{a+b-1-u}."""
    get = out.get
    for e, c in terms.items():
        a = e[i0] + lift
        base = list(e)
        for j0 in range(len(e)):
            b = e[j0]
            if j0 == i0 or a == b:
                continue
            if a > b:
                lo, hi, cc = b, a, c
            else:
                lo, hi, cc = a, b, -c
            s = a + b - 1
            for u in range(lo, hi):
                base[i0] = u
                base[j0] = s - u
                key = tuple(base)
                acc = get(key)
                if acc is None:
                    out[key] = cc
                else:
                    acc += cc
                    if acc:
                        out[key] = acc
                    else:
                        del out[key]
            base[j0] = b


def swap_terms(terms, a, b, out, sub=False):
    """Accumulate (a, b) g into out, or subtract it when sub, for g given
    by its terms: the transposition swaps exponent entries a and b."""
    a, b = a - 1, b - 1
    for e, c in terms.items():
        s = list(e)
        s[a], s[b] = e[b], e[a]
        _accumulate(out, tuple(s), c, sub)


def cherednik_k_terms(n, i, terms, out):
    """Accumulate K_i g into out, where U_i = U_i^0 + kappa * K_i with
    U_i^0 x^e = (e_i + 1) x^e and

        K_i g = sum_{j != i} (x_i g - (ij)(x_i g))/(x_i - x_j)
                - sum_{j < i} (j,i) g.

    g is given by its terms dict; K_i has integer coefficients, so the
    coefficients may lie in any ring (Z, Q or Q(kappa))."""
    _pair_difference_terms(terms, i - 1, 1, out)
    for j in range(1, i):
        swap_terms(terms, j, i, out, True)


def dunkl_terms(n, i, terms, p, q):
    """The terms of q D_i g at kappa = p/q, for g given by its terms:

        q d/dx_i g + p sum_{j != i} (g - (ij)g)/(x_i - x_j).

    The coefficients may lie in any ring that holds p and q.  With q = 1
    and p = kappa this is D_i itself; with kappa0 = p/q in lowest terms,
    q D_i maps integer terms to integer terms."""
    i0 = i - 1
    out = {}
    _pair_difference_terms(terms, i0, 0, out)
    out = {e: p * c for e, c in out.items()} if p else {}
    for e, c in terms.items():
        a = e[i0]
        if a:
            b = list(e)
            b[i0] = a - 1
            _accumulate(out, tuple(b), c * (q * a))
    return out


def dunkl(ctx, i, f):
    """D_i f = partial_i f + kappa * sum_{j != i} (f - (ij)f)/(x_i - x_j)."""
    ctx.check(f)
    n = ctx.n
    if not 1 <= i <= n:
        raise IndexOutOfRange("operator index %d outside [1,%d]" % (i, n))
    return MultiPoly(n, dunkl_terms(n, i, f.terms, ctx.kappa(), 1),
                     field=f.field, _clean=True)


def cherednik(ctx, i, f):
    """U_i f = D_i(x_i f) - kappa * sum_{j < i} (j,i) f, applied as
    U_i^0 f + kappa * K_i f (see cherednik_k_terms)."""
    ctx.check(f)
    n = ctx.n
    if not 1 <= i <= n:
        raise IndexOutOfRange("operator index %d outside [1,%d]" % (i, n))
    i0 = i - 1
    result = MultiPoly(n, {e: c * (e[i0] + 1) for e, c in f.terms.items()},
                       field=f.field, _clean=True)
    k_terms = {}
    cherednik_k_terms(n, i, f.terms, k_terms)
    if k_terms:
        kpart = MultiPoly(n, k_terms, field=f.field, _clean=True)
        result = poly_add(result, poly_scale(kpart, ctx.kappa()))
    return result


def murphy_terms(n, i, terms):
    """The terms of omega_i g = sum_{j=N-i+2}^{N} (N+1-i, j) g, with
    omega_1 = 0; any coefficients."""
    out = {}
    a = n + 1 - i
    for j in range(n - i + 2, n + 1):
        swap_terms(terms, a, j, out)
    return out
