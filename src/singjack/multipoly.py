"""Sparse multivariate polynomials with S_N actions and divided differences.

A MultiPoly lives in a fixed ambient dimension n.  Coefficients are either
KappaRatio (generic parameter field, tag None) or Fraction (parameter
specialized at a rational value, tag = that Fraction).  Exponent vectors are
dense tuples of length n.
"""

from fractions import Fraction

from .exactarith import (
    KappaPoly,
    KappaRatio,
    KR_ZERO,
    PoleError,
    rat_from_str,
    rat_to_str,
)


class AmbientMismatch(ValueError):
    pass


class FieldMismatch(ValueError):
    pass


class SizeMismatch(ValueError):
    pass


class InexactDivision(ArithmeticError):
    pass


class ExpansionFailure(Exception):
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
                acc = clean.get(exp)
                if acc is None:
                    clean[exp] = c
                else:
                    acc = acc + c
                    if acc:
                        clean[exp] = acc
                    else:
                        del clean[exp]
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
        return sorted(self.terms, key=lambda e: (sum(e), e), reverse=True)

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

    @classmethod
    def from_json(cls, obj):
        field = obj["field"]
        if field == "Q(k)":
            kappa0 = None
            cf = KappaRatio.from_json
        elif field.startswith("Q@"):
            kappa0 = rat_from_str(field[2:])
            cf = rat_from_str
        else:
            raise FieldMismatch("unknown field tag %r" % (field,))
        terms = {tuple(t["exp"]): cf(t["coeff"]) for t in obj["terms"]}
        return cls(obj["N"], terms, field=kappa0)

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


def x_var(n, i, field=None):
    """The variable x_i, 1-based."""
    exp = [0] * n
    exp[i - 1] = 1
    return monomial(n, exp, 1, field=field)


def mp_const(n, c, field=None):
    return MultiPoly(n, {(0,) * n: c}, field=field)


def _check_compat(f, g):
    if f.n != g.n:
        raise AmbientMismatch("ambient %d vs %d" % (f.n, g.n))
    if f.field != g.field:
        raise FieldMismatch("field %r vs %r" % (f.field, g.field))


def poly_add(f, g):
    _check_compat(f, g)
    terms = dict(f.terms)
    for e, c in g.terms.items():
        acc = terms.get(e)
        if acc is None:
            terms[e] = c
        else:
            acc = acc + c
            if acc:
                terms[e] = acc
            else:
                del terms[e]
    return MultiPoly(f.n, terms, field=f.field, _clean=True)


def poly_sub(f, g):
    _check_compat(f, g)
    terms = dict(f.terms)
    for e, c in g.terms.items():
        acc = terms.get(e)
        if acc is None:
            terms[e] = -c
        else:
            acc = acc - c
            if acc:
                terms[e] = acc
            else:
                del terms[e]
    return MultiPoly(f.n, terms, field=f.field, _clean=True)


def poly_mul(f, g):
    _check_compat(f, g)
    terms = {}
    for e1, c1 in f.terms.items():
        for e2, c2 in g.terms.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            c = c1 * c2
            acc = terms.get(e)
            if acc is None:
                if c:
                    terms[e] = c
            else:
                acc = acc + c
                if acc:
                    terms[e] = acc
                else:
                    del terms[e]
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


def divided_difference(i, j, f):
    """(f - (i,j)f)/(x_i - x_j), always an exact quotient.

    Division runs as synthetic univariate division in x_i with the other
    variables absorbed into the coefficients.  A nonzero remainder cannot
    happen for an antisymmetric numerator and signals an internal bug.
    """
    n = f.n
    if not (1 <= i <= n and 1 <= j <= n) or i == j:
        raise SizeMismatch("bad variable pair (%d,%d) in ambient %d" % (i, j, n))
    tij = [k + 1 for k in range(n)]
    tij[i - 1], tij[j - 1] = j, i
    num = poly_sub(f, apply_perm(tuple(tij), f))
    if num.is_zero():
        return mp_zero(n, field=f.field)
    i0, j0 = i - 1, j - 1
    # slice into coefficients of powers of x_i
    layers = {}
    for e, c in num.terms.items():
        t = e[i0]
        base = list(e)
        base[i0] = 0
        layers.setdefault(t, {})[tuple(base)] = c
    top = max(layers)
    quot = {}
    carry = {}  # running q_t as dict, multiplied by x_j each step
    for t in range(top, -1, -1):
        cur = dict(carry)
        for e, c in layers.get(t, {}).items():
            acc = cur.get(e)
            if acc is None:
                cur[e] = c
            else:
                acc = acc + c
                if acc:
                    cur[e] = acc
                else:
                    del cur[e]
        if t == 0:
            if cur:
                raise InexactDivision(
                    "nonzero remainder dividing by x%d - x%d" % (i, j)
                )
            break
        for e, c in cur.items():
            out = list(e)
            out[i0] = t - 1
            quot[tuple(out)] = c
        carry = {}
        for e, c in cur.items():
            out = list(e)
            out[j0] += 1
            carry[tuple(out)] = c
    return MultiPoly(n, quot, field=f.field, _clean=True)


def partial(i, f):
    """d/dx_i."""
    n = f.n
    if not 1 <= i <= n:
        raise SizeMismatch("variable index %d outside [1,%d]" % (i, n))
    i0 = i - 1
    terms = {}
    for e, c in f.terms.items():
        p = e[i0]
        if p == 0:
            continue
        out = list(e)
        out[i0] = p - 1
        terms[tuple(out)] = c * p
    return MultiPoly(n, terms, field=f.field, _clean=True)


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


def specialize(f, kappa0):
    """Evaluate every coefficient at kappa = kappa0; fails loudly on poles."""
    if f.field is not None:
        raise FieldMismatch("polynomial is already specialized at %s" % (f.field,))
    kappa0 = Fraction(kappa0)
    terms = {}
    for e, c in f.terms.items():
        try:
            v = c.eval_at(kappa0)
        except PoleError:
            raise PoleError(
                "coefficient of x^%r has a pole at kappa=%s" % (list(e), kappa0),
                at=kappa0,
                where=list(e),
            )
        if v:
            terms[e] = v
    return MultiPoly(f.n, terms, field=kappa0, _clean=True)


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


def expand_in_basis(basis, targets):
    """Coefficients of each target in the basis, one list per target.

    Gauss-Jordan elimination on the augmented matrix [basis | targets],
    one row per monomial in graded-lex descending order.  Raises
    ExpansionFailure when the basis is linearly dependent or a target lies
    outside its span.
    """
    polys = list(basis) + list(targets)
    k = len(basis)
    zero = polys[0].zero_coeff()
    exps = sorted({e for f in polys for e in f.terms},
                  key=lambda e: (sum(e), e), reverse=True)
    rows = [[f.terms.get(e, zero) for f in polys] for e in exps]
    for c in range(k):
        p = next((r for r in range(c, len(rows)) if rows[r][c]), None)
        if p is None:
            raise ExpansionFailure("basis is linearly dependent")
        rows[c], rows[p] = rows[p], rows[c]
        piv = rows[c]
        inv = 1 / piv[c]
        piv[c:] = [x * inv if x else x for x in piv[c:]]
        for r, row in enumerate(rows):
            t = row[c]
            if r != c and t:
                # entries that cancel share one zero, which keeps the
                # matrix of many in-span targets small
                row[c:] = [(a - t * b) or zero if b else a
                           for a, b in zip(row[c:], piv[c:])]
    if any(x for row in rows[k:] for x in row[k:]):
        raise ExpansionFailure("target lies outside the basis span")
    return [[rows[j][k + t] for j in range(k)] for t in range(len(targets))]
