"""Independent joint-kernel computation for the Dunkl operators.

Brute force on purpose: build the matrix of every D_i on the full
monomial basis of a fixed degree, stack them, and compute the exact
nullspace by fraction-free elimination.  The result is compared against
the constructed module without sharing any of its code path.

A caller may offer candidate polynomials, such as the module's, as
vectors that might span the kernel.  They are never trusted: their span
is taken as the kernel only when it is proven to be.  Every vector of
the span is checked exactly to be killed by the oracle's own stacked
matrix, so dim ker >= r, the exact rank of the candidates over Q.  The
rank of that matrix modulo the prime 2^61 - 1 never exceeds its rank
over Q, so dim ker <= cols - rank_p.  When cols - rank_p = r the two
bounds meet.  If a check fails or the bound is not tight, the exact
Bareiss elimination runs as it does without candidates.
"""

from datetime import datetime, timezone
from fractions import Fraction
from math import lcm

from . import combinatorics as comb
from . import multipoly as mp
from . import operators as ops
from .exactarith import rat_from_str, rat_to_str


# The prime of the one-sided rank bound, 2^61 - 1.
MODULUS = (1 << 61) - 1


class KernelInvariantError(Exception):
    pass


def monomial_basis(N, degree):
    """Exponent tuples of total degree `degree`, descending lex."""
    if degree < 0:
        return []
    return sorted(comb.compositions_of(degree, N), reverse=True)


def dunkl_matrix(N, degree, i, kappa0):
    """Matrix of D_i from degree `degree` to `degree - 1`: rows indexed
    by the lower monomial basis, columns by the upper one."""
    kappa0 = Fraction(kappa0)
    cols = monomial_basis(N, degree)
    rows = monomial_basis(N, degree - 1)
    rix = {e: r for r, e in enumerate(rows)}
    ctx = ops.OperatorContext(N, kappa0)
    mat = [[Fraction(0)] * len(cols) for _ in rows]
    for c, e in enumerate(cols):
        img = ops.dunkl(ctx, i, mp.monomial(N, e, Fraction(1), field=kappa0))
        for ee, v in img.terms.items():
            mat[rix[ee]][c] = v
    return mat


def _bareiss_echelon(mat):
    """Fraction-free row echelon form of an integer matrix; returns the
    nonzero rows and their pivot columns.  Pivot choice: leftmost column,
    first nonzero row."""
    a = [row[:] for row in mat]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    pivots = []
    r = 0
    prev = 1
    for c in range(cols):
        p = next((i for i in range(r, rows) if a[i][c]), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        for i in range(r + 1, rows):
            for j in range(cols - 1, c - 1, -1):
                a[i][j] = (a[i][j] * a[r][c] - a[i][c] * a[r][j]) // prev
        prev = a[r][c]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a[:r], pivots


class KernelReport:
    def __init__(self, N, degree, kappa0, monomials, basis, free_columns):
        self.N = N
        self.degree = degree
        self.kappa0 = Fraction(kappa0)
        self.monomials = list(monomials)
        self.basis = basis  # list of Fraction vectors, one per free column
        self.free_columns = list(free_columns)
        self.comparison = None

    @property
    def dimension(self):
        return len(self.basis)

    def to_json(self, include_timestamp=True):
        out = {
            "N": self.N,
            "degree": self.degree,
            "kappa0": rat_to_str(self.kappa0),
            "monomials": [list(e) for e in self.monomials],
            "dimension": self.dimension,
            "free_columns": list(self.free_columns),
            "kernel_basis": [[rat_to_str(v) for v in vec]
                             for vec in self.basis],
        }
        if self.comparison is not None:
            out["comparison"] = dict(self.comparison)
        if include_timestamp:
            out["timestamp"] = datetime.now(timezone.utc).isoformat()
        return out

    @classmethod
    def from_json(cls, obj):
        rep = cls(obj["N"], obj["degree"], rat_from_str(obj["kappa0"]),
                  [tuple(e) for e in obj["monomials"]],
                  [[rat_from_str(s) for s in vec]
                   for vec in obj["kernel_basis"]],
                  obj["free_columns"])
        rep.comparison = obj.get("comparison")
        return rep


def _integer_rows(mat, cols):
    """Each row of a Fraction matrix times the lcm of its denominators,
    as a dense integer row built from the nonzero entries only."""
    out = []
    for row in mat:
        nz = [(j, v) for j, v in enumerate(row) if v]
        den = lcm(*(v.denominator for _, v in nz))
        irow = [0] * cols
        for j, v in nz:
            irow[j] = v.numerator * (den // v.denominator)
        out.append(irow)
    return out


def _rank_mod_p(introws, stop=None):
    """Rank of an integer matrix modulo MODULUS, never above its rank
    over Q; the elimination ends once the rank reaches `stop`.

    Sparse rows, pivot on the last nonzero column, rows taken by that
    column from the right: of the orders tried on the stacked Dunkl
    matrices, this one did the fewest row updates."""
    rows = []
    for row in introws:
        d = {}
        for j, v in enumerate(row):
            if v:
                v %= MODULUS
                if v:
                    d[j] = v
        if d:
            rows.append(d)
    rows.sort(key=max, reverse=True)
    pivots = {}  # pivot column -> row scaled to 1 there
    for d in rows:
        while d:
            c = max(d)
            prow = pivots.get(c)
            if prow is None:
                inv = pow(d[c], -1, MODULUS)
                pivots[c] = {j: v * inv % MODULUS for j, v in d.items()}
                break
            t = d[c]
            for j, v in prow.items():
                w = (d.get(j, 0) - t * v) % MODULUS
                if w:
                    d[j] = w
                else:
                    d.pop(j, None)
        if len(pivots) == stop:
            break
    return len(pivots)


def _subtract_multiple(dst, t, src):
    """dst -= t * src on sparse Fraction vectors, dropping zeros."""
    for j, w in src.items():
        x = dst.get(j, 0) - t * w
        if x:
            dst[j] = x
        else:
            dst.pop(j, None)


def _candidate_span(candidates, N, kappa0, cols):
    """Right-to-left Gauss-Jordan over Q on the candidates' coefficient
    vectors: {pivot column: row}, the pivot being the last nonzero column,
    each row 1 there and 0 on every other pivot column.  None when a
    candidate is not a specialized polynomial on the monomial columns."""
    colix = {e: c for c, e in enumerate(cols)}
    span = {}
    for f in candidates:
        if f.n != N or f.field != kappa0 or not all(e in colix
                                                   for e in f.terms):
            return None
        v = {colix[e]: Fraction(c) for e, c in f.terms.items()}
        for c, row in span.items():
            if v.get(c):
                _subtract_multiple(v, v[c], row)
        if not v:
            continue
        c = max(v)
        inv = 1 / v[c]
        v = {j: x * inv for j, x in v.items()}
        for row in span.values():
            if row.get(c):
                _subtract_multiple(row, row[c], v)
        span[c] = v
    return span


def _annihilated(vec, introws):
    """Exact check that every integer row kills the sparse Fraction
    vector `vec`, done over Z after clearing its denominators."""
    den = lcm(*(x.denominator for x in vec.values()))
    ivec = [(j, x.numerator * (den // x.denominator)) for j, x in vec.items()]
    return not any(sum(row[j] * x for j, x in ivec) for row in introws)


def _certified_span(candidates, N, kappa0, cols, introws):
    """The reduced span of the candidates when it is proven to be the
    whole kernel of `introws`, else None.

    Each reduced vector is checked exactly to be killed by every row, so
    dim ker >= r, the exact rank of the candidates.  The rank modulo a
    prime never exceeds the rank over Q, so dim ker <= cols - rank_p.
    When cols - rank_p = r the two bounds meet; the modular rank alone
    never decides equality."""
    span = _candidate_span(candidates, N, kappa0, cols)
    if span is None or not all(_annihilated(v, introws)
                               for v in span.values()):
        return None
    target = len(cols) - len(span)
    if _rank_mod_p(introws, stop=target) != target:
        return None
    return span


def joint_kernel(N, degree, kappa0, candidates=None):
    """Exact nullspace of all D_i on homogeneous degree-`degree`
    polynomials at kappa0; one canonical basis vector per free column.

    `candidates`, specialized polynomials expected to span the kernel,
    are never trusted: the report is read off their span only when
    `_certified_span` proves that span is the kernel.  Otherwise, and
    without candidates, the stacked matrix is eliminated by Bareiss."""
    if degree < 1:
        raise comb.ParameterViolation("degree must be positive")
    kappa0 = Fraction(kappa0)
    cols = monomial_basis(N, degree)
    stacked = []
    per_op = []
    for i in range(1, N + 1):
        m = dunkl_matrix(N, degree, i, kappa0)
        per_op.append(m)
        stacked.extend(m)
    introws = _integer_rows(stacked, len(cols))
    span = None
    if candidates is not None:
        span = _certified_span(candidates, N, kappa0, cols, introws)
    if span is not None:
        free = sorted(span)
        basis = []
        for f in free:
            x = [Fraction(0)] * len(cols)
            for j, v in span[f].items():
                x[j] = v
            basis.append(x)
        return KernelReport(N, degree, kappa0, cols, basis, free)
    ech, pivots = _bareiss_echelon(introws)
    free = [c for c in range(len(cols)) if c not in set(pivots)]
    basis = []
    for f in free:
        x = [Fraction(0)] * len(cols)
        x[f] = Fraction(1)
        for r in range(len(pivots) - 1, -1, -1):
            c = pivots[r]
            s = sum(Fraction(ech[r][j]) * x[j]
                    for j in range(c + 1, len(cols)) if ech[r][j] and x[j])
            x[c] = Fraction(-s, ech[r][c])
        basis.append(x)
    for vec in basis:
        for m in per_op:
            for row in m:
                if sum(rv * xv for rv, xv in zip(row, vec) if rv and xv):
                    raise KernelInvariantError(
                        "computed kernel vector is not annihilated")
    return KernelReport(N, degree, kappa0, cols, basis, free)


def compare_with_module(report, module):
    """Membership of every module element in the kernel span; dimension
    mismatches are recorded, never raised."""
    colix = {e: i for i, e in enumerate(report.monomials)}
    per_element = []
    for el in module.elements:
        ok = (el.zeta.n == report.N
              and module.kappa0 == report.kappa0
              and el.zeta.is_homogeneous()
              and el.zeta.degree() == report.degree)
        if ok:
            v = [Fraction(0)] * len(report.monomials)
            for e, c in el.zeta.terms.items():
                if e not in colix:
                    ok = False
                    break
                v[colix[e]] = c
        if ok:
            for vec, f in zip(report.basis, report.free_columns):
                t = v[f]
                if t:
                    v = [a - t * b for a, b in zip(v, vec)]
            ok = not any(v)
        per_element.append(ok)
    contains = all(per_element) and bool(per_element)
    comparison = {
        "module_label": module.label.to_json(),
        "module_dimension": len(module.elements),
        "kernel_dimension": report.dimension,
        "per_element": per_element,
        "contains_module": contains,
        "equal_to_module": contains and report.dimension == len(
            module.elements),
        "dimension_mismatch": report.dimension != len(module.elements),
    }
    report.comparison = comparison
    return comparison
