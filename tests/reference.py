"""Reference implementations the tests and CI compare the runtime against.

None of these runs in `singjack`: each is a slower or more literal
formulation of something the runtime computes another way, or a
constructor that only tests need.

- multipoly: the divided difference by synthetic division (the reference
  for the pair-difference kernel operators._pair_difference_terms), the
  partial derivative, Gauss-Jordan expansion in a basis, evaluation of a
  Q(kappa) MultiPoly at a rational, and the constructors x_var and
  mp_const.
- jack: the p-basis p_alpha and the expansion in it, which check the
  p-monic normalization of zeta_p.
- operators: the central element omega, which build_module reads off
  the Murphy certificates and never applies.
- combinatorics: standard Young tableaux by enumeration, against the hook
  length formula and the reverse lattice permutations, the spectral
  value xi_i(alpha) as a KappaPoly, and the down-set of alpha, the rows
  of the Q(kappa) triangular solve that zeta_x is tested against.
"""

from fractions import Fraction
from math import factorial

from singjack import combinatorics as comb
from singjack.combinatorics import ShapeViolation, Tableau, is_partition
from singjack.exactarith import KP_ONE, KP_ZERO, PoleError, kappa_linear
from singjack.jack import SolveFailure, _ambient
from singjack.multipoly import (FieldMismatch, MultiPoly, SizeMismatch,
                                apply_perm, monomial, mp_zero, poly_sub)
from singjack.operators import swap_terms
from singjack.singular import ExpansionFailure


# ------------------------------------------------------------------ multipoly

class InexactDivision(ArithmeticError):
    pass


def x_var(n, i, field=None):
    """The variable x_i, 1-based."""
    exp = [0] * n
    exp[i - 1] = 1
    return monomial(n, exp, 1, field=field)


def mp_const(n, c, field=None):
    return MultiPoly(n, {(0,) * n: c}, field=field)


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


# ----------------------------------------------------------------------- jack

def p_basis(alpha, n):
    """Coefficient of y^alpha in prod_i ((1-x_i y_i)^-1 prod_j (1-x_i y_j)^-kappa).

    Truncated series: y_j is capped at alpha_j and processed one j at a time,
    pinning the y_j-degree to alpha_j before moving on.  The x-degree always
    equals the pinned y-weight, so no spurious terms are carried.
    """
    alpha = _ambient(alpha, n)
    state = {(0,) * n: KP_ONE}
    for j in range(1, n + 1):
        cap = alpha[j - 1]
        if cap == 0:
            continue
        layers = [state] + [{} for _ in range(cap)]
        for i in range(1, n + 1):
            base = kappa_linear(1, 1 if i == j else 0)
            series = [comb.pochhammer(base, (t,)) * Fraction(1, factorial(t))
                      for t in range(cap + 1)]
            new = [{} for _ in range(cap + 1)]
            for t_prev, src in enumerate(layers):
                for t in range(cap + 1 - t_prev):
                    dst = new[t_prev + t]
                    for e, v in src.items():
                        e2 = e[:i - 1] + (e[i - 1] + t,) + e[i:]
                        dst[e2] = dst.get(e2, KP_ZERO) + v * series[t]
            layers = new
        state = layers[cap]
    return MultiPoly(n, state)


def p_expand(f, n):
    """Expand a homogeneous polynomial in the p-basis of its degree.

    Returns a dict composition -> KappaRatio.  Exact linear solve against
    all p_gamma of the same degree.
    """
    if not f.is_homogeneous():
        raise SolveFailure("p-expansion needs a homogeneous input")
    d = f.degree()
    if d < 0:
        return {}
    gammas = list(comb.compositions_of(d, n))
    sol, = expand_in_basis([p_basis(g, n) for g in gammas], [f])
    return {g: v for g, v in zip(gammas, sol) if v}


# ------------------------------------------------------------------ operators

def omega_terms(n, terms):
    """The terms of omega g = sum_{i<j} (1 - (i,j)) g; any coefficients."""
    npairs = n * (n - 1) // 2
    out = {e: npairs * c for e, c in terms.items()} if npairs else {}
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            swap_terms(terms, i, j, out, True)
    return out


def omega_central(ctx, f):
    """omega f = sum_{i<j} (1 - (i,j)) f (see omega_terms)."""
    ctx.check(f)
    return MultiPoly(ctx.n, omega_terms(ctx.n, f.terms), field=f.field,
                     _clean=True)


# -------------------------------------------------------------- combinatorics

def down_set(alpha):
    """alpha and everything strictly triangle-below it, in an order
    compatible with descending triangle order (alpha first)."""
    alpha = tuple(alpha)
    out = [beta for beta in comb.compositions_of(sum(alpha), len(alpha))
           if beta == alpha or comb.triangle_greater(alpha, beta)]
    out.sort(key=lambda b: (comb.sort_desc(b), b), reverse=True)
    return out


def xi_poly(alpha, i):
    n = len(alpha)
    return kappa_linear(n - comb.rank(alpha, i), alpha[i - 1] + 1)


def syt_enumerate(tau):
    tau = tuple(x for x in tau if x)
    if not tau or not is_partition(tau) or any(x < 1 for x in tau):
        raise ShapeViolation("not a partition shape: %s" % (tau,))
    n = sum(tau)
    filled = [0] * len(tau)
    out = []

    def place(v):
        if v > n:
            rows = [tuple(assign[r]) for r in range(len(tau))]
            out.append(Tableau.from_rows(rows))
            return
        for r in range(len(tau)):
            if filled[r] < tau[r] and (r == 0 or filled[r] < filled[r - 1]):
                assign[r].append(v)
                filled[r] += 1
                place(v + 1)
                filled[r] -= 1
                assign[r].pop()

    assign = [[] for _ in tau]
    place(1)
    return out
