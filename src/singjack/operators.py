"""Dunkl and Cherednik operators, the central element, and Murphy elements.

All operators act on MultiPoly and are parametric in kappa: a context either
keeps kappa formal (generic) or pins it to a rational value (specialized).
The field tag of the input polynomial must match the context.
"""

from fractions import Fraction

from .combinatorics import IndexOutOfRange, transposition
from .exactarith import KAPPA
from .multipoly import (
    FieldMismatch,
    MultiPoly,
    apply_perm,
    mp_zero,
    partial,
    perm_terms,
    poly_add,
    poly_scale,
    poly_sub,
    x_var,
)


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


def _accumulate(terms, key, c):
    acc = terms.get(key)
    if acc is None:
        terms[key] = c
    else:
        acc = acc + c
        if acc:
            terms[key] = acc
        else:
            del terms[key]


def _pair_difference_terms(terms, i0, j0, out):
    # (g - (i,j)g)/(x_i - x_j) for g given by its terms, accumulated into
    # out term by term:
    # (x^a y^b - x^b y^a)/(x-y) = sign * sum_{u=lo}^{hi-1} x^u y^{a+b-1-u}
    for e, c in terms.items():
        a, b = e[i0], e[j0]
        if a == b:
            continue
        if a > b:
            lo, hi, cc = b, a, c
        else:
            lo, hi, cc = a, b, -c
        base = list(e)
        s = a + b - 1
        for u in range(lo, hi):
            base[i0] = u
            base[j0] = s - u
            _accumulate(out, tuple(base), cc)


def cherednik_k_terms(n, i, terms, out):
    """Accumulate K_i g into out, where U_i = U_i^0 + kappa * K_i with
    U_i^0 x^e = (e_i + 1) x^e and

        K_i g = sum_{j != i} (x_i g - (ij)(x_i g))/(x_i - x_j)
                - sum_{j < i} (j,i) g.

    g is given by its terms dict; K_i has integer coefficients, so the
    coefficients may lie in any ring (Z, Q or Q(kappa))."""
    i0 = i - 1
    shifted = {}
    for e, c in terms.items():
        xe = list(e)
        xe[i0] += 1
        shifted[tuple(xe)] = c
    for j0 in range(n):
        if j0 != i0:
            _pair_difference_terms(shifted, i0, j0, out)
    for j in range(1, i):
        for e, c in perm_terms(transposition(n, j, i), terms).items():
            _accumulate(out, e, -c)


def dunkl(ctx, i, f):
    """D_i f = partial_i f + kappa * sum_{j != i} (f - (ij)f)/(x_i - x_j)."""
    ctx.check(f)
    n = ctx.n
    if not 1 <= i <= n:
        raise IndexOutOfRange("operator index %d outside [1,%d]" % (i, n))
    i0 = i - 1
    pair_terms = {}
    for j0 in range(n):
        if j0 != i0:
            _pair_difference_terms(f.terms, i0, j0, pair_terms)
    result = partial(i, f)
    if pair_terms:
        kpart = MultiPoly(n, pair_terms, field=f.field, _clean=True)
        result = poly_add(result, poly_scale(kpart, ctx.kappa()))
    return result


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


def omega_central(ctx, f):
    """omega f = sum_{i<j} (1 - (i,j)) f."""
    ctx.check(f)
    n = ctx.n
    npairs = n * (n - 1) // 2
    acc = poly_scale(f, npairs)
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            acc = poly_sub(acc, apply_perm(transposition(n, i, j), f))
    return acc


def euler_identity_check(ctx, f):
    """Check sum_i x_i D_i f == sum_i x_i partial_i f + kappa * omega f."""
    ctx.check(f)
    n = ctx.n
    lhs = mp_zero(n, field=f.field)
    euler = mp_zero(n, field=f.field)
    for i in range(1, n + 1):
        xi = x_var(n, i, field=f.field)
        lhs = poly_add(lhs, xi * dunkl(ctx, i, f))
        euler = poly_add(euler, xi * partial(i, f))
    rhs = poly_add(euler, poly_scale(omega_central(ctx, f), ctx.kappa()))
    return lhs == rhs


def murphy(ctx, i, f):
    """omega_i f = sum_{j=N-i+2}^{N} (N+1-i, j) f, with omega_1 = 0."""
    ctx.check(f)
    n = ctx.n
    if not 1 <= i <= n:
        raise IndexOutOfRange("Murphy index %d outside [1,%d]" % (i, n))
    acc = mp_zero(n, field=f.field)
    a = n + 1 - i
    for j in range(n - i + 2, n + 1):
        acc = poly_add(acc, apply_perm(transposition(n, a, j), f))
    return acc
