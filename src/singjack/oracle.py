"""Independent joint-kernel computation for the Dunkl operators.

Brute force on purpose: build the matrix of every D_i on the full
monomial basis of a fixed degree, stack them, and compute the exact
nullspace by fraction-free elimination.  The result is compared against
the constructed module without sharing any of its code path.
"""

from datetime import datetime, timezone
from fractions import Fraction
from math import lcm

from . import combinatorics as comb
from . import multipoly as mp
from . import operators as ops
from .exactarith import rat_from_str, rat_to_str


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


def joint_kernel(N, degree, kappa0):
    """Exact nullspace of all D_i on homogeneous degree-`degree`
    polynomials at kappa0; one canonical basis vector per free column."""
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
    introws = []
    for row in stacked:
        den = lcm(*(v.denominator for v in row))
        introws.append([int(v * den) for v in row])
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
            x[c] = -s / ech[r][c]
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
