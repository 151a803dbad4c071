"""Independent joint-kernel computation for the Dunkl operators.

The oracle shares no code path with the Jack-polynomial construction.  It
writes the operators as integer matrices itself, from the pair-difference
kernel of `operators`: with kappa0 = p/q in lowest terms, q D_i has
integer coefficients on monomials.  Without candidates, the stacked
matrices of every D_i on the monomials of one degree are eliminated
exactly over Q by `_echelon`, the oracle's one elimination, and the
kernel is read off the reduced rows (`_nullspace`).

A caller may offer candidate polynomials, such as the module's, as vectors
that might span the kernel K in degree d.  They are never trusted: their
span C is taken as K only when it is proven to be.  First, exact checks
over Q: the span is closed under every adjacent transposition, so under
S_N, and D_1 kills every vector of the reduced span.  Then every D_i kills
C: D_i = (1 i) D_1 (1 i), and for v in C, (1 i) v lies in C, which D_1
kills.  So C is an S_N-submodule of K.  Then the first of three methods
that succeeds gives the report's `method`: the spectral bound, the
spectral vectors, the elimination.

The spectral bound ("spectral bound"), with no linear algebra:
1. U_i = D_i x_i - kappa sum_{j<i} (ij) are the Cherednik operators.  As
   D_i(x_i f) = f + x_i D_i f + kappa0 sum_{j != i} (ij) f, on K they act
   as U_i = 1 + kappa0 sum_{j>i} (ij): K is stable under every U_i, and the
   (U_i - 1)/kappa0 are the Jucys-Murphy elements in reversed order.
2. The U_i are triangular on the monomials of degree d in one common order,
   with diagonal xi_i(alpha) = (N - r_i(alpha)) kappa0 + alpha_i + 1 (Opdam),
   r(alpha) the rank vector.  So a joint generalized eigenspace has the
   dimension of the number of compositions alpha of d with its spectrum.
3. Each copy of the irreducible nu in K holds one joint eigenvector per
   standard tableau T of shape nu, on which (U_i - 1)/kappa0 is the content
   c_{N+1-i}(T) of the box of T holding N+1-i (Okounkov-Vershik).
4. So mult_nu(K) is at most min_T #{alpha |= d : N - r_i(alpha) +
   alpha_i/kappa0 = c_{N+1-i}(T) for all i}, and dim K at most the sum over
   nu of f_nu times that minimum, f_nu the number of tableaux.  Summed over
   i, the equations leave only shapes with content sum C(N,2) + d/kappa0;
   given T and r, alpha_i = kappa0 (c_{N+1-i}(T) - N + r_i), so the count
   runs over rank vectors r and keeps those that are alpha's own.
5. C lies in K, so when dim C meets the bound, C = K.  The count is exact.

The spectral vectors ("spectral vector"), where the bound is loose:
6. When one composition alpha alone matches a tableau T of shape nu, the
   joint generalized eigenspace G_T of T's spectrum is the line of one
   vector v (2).  A copy of nu in K gives a joint eigenvector with T's
   spectrum (3), which lies in G_T: mult_nu(K) <= 1.  If v lies in K, it is
   a joint Jucys-Murphy eigenvector (1) with content vector c(T), which
   determines the shape: mult_nu(K) >= 1.  So mult_nu(K) is 1 if every D_i
   kills v and 0 if not.  v is solved triangularly at kappa0 over Q from
   x^alpha, and counts only after an exact check over Z that it is nonzero
   and U_i v = xi_i(alpha) v for every i.  With these shapes decided and
   the others kept at their count, C = K when the sum meets dim C.

If a check fails or neither sum is met, the elimination ("elimination")
runs as it does without candidates.  All paths give the same canonical
basis, one vector per free column: a subspace has one basis whose vectors
each end (last nonzero entry) at a column of their own, with 1 there and 0
at the others' ends.  `_echelon` keeps the candidates' span in that form,
and the kernel vector x_f of a free column f ends at f and is 0 on every
other free column.  The partitions, tableaux, contents, rank vectors,
Cherednik operators and spectral vectors are the oracle's own.
"""

from datetime import datetime, timezone
from fractions import Fraction
from math import gcd

from . import combinatorics as comb
from .exactarith import rat_to_str
from .multipoly import _accumulate, integer_terms
from .operators import _pair_difference_terms


class KernelInvariantError(Exception):
    pass


def monomial_basis(N, degree):
    """Exponent tuples of total degree `degree`, descending lex."""
    if degree < 0:
        return []
    return sorted(comb.compositions_of(degree, N), reverse=True)


def _partitions(n, cap=None):
    """Partitions of n with parts at most `cap`, descending lex."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap or n), 0, -1):
        for rest in _partitions(n - first, first):
            yield (first,) + rest


def _rank_vector(alpha):
    """r_i = #{j: alpha_j > alpha_i} + #{j <= i: alpha_j = alpha_i}."""
    order = sorted(range(len(alpha)), key=lambda i: (-alpha[i], i))
    return tuple(order.index(i) + 1 for i in range(len(alpha)))


def _content_vectors(nu):
    """(c_1, ..., c_N), c_k the content (column - row) of the box holding
    k, for every standard tableau of shape nu."""
    filled = [0] * len(nu)

    def place(contents):
        if len(contents) == sum(nu):
            yield contents
        for r, part in enumerate(nu):
            if filled[r] < part and (r == 0 or filled[r] < filled[r - 1]):
                filled[r] += 1
                yield from place(contents + (filled[r] - 1 - r,))
                filled[r] -= 1
    return list(place(()))


def _spectral_matches(c, degree, kappa0):
    """[alpha |= degree : N - r_i(alpha) + alpha_i/kappa0 = c_{N+1-i}],
    alpha_i = kappa0 (c_{N+1-i} - N + r_i) over distinct ranks r_i."""
    N = len(c)
    p, q = kappa0.numerator, kappa0.denominator

    def extend(ranks, alpha, left):
        if len(ranks) == N:
            ok = left == 0 and _rank_vector(alpha) == ranks
            return [alpha] if ok else []
        out = []
        for r in range(1, N + 1):
            a, rem = divmod(p * (c[N - 1 - len(ranks)] - N + r), q)
            if r not in ranks and not rem and 0 <= a <= left:
                out += extend(ranks + (r,), alpha + (a,), left - a)
        return out
    return extend((), (), degree)


def _shapes(N, degree, kappa0):
    """(nu, f_nu, alphas) for each shape nu with content sum C(N,2) +
    degree/kappa0, alphas the _spectral_matches of the first tableau of
    shape nu with the fewest."""
    content_sum = Fraction(N * (N - 1), 2) + degree / kappa0
    for nu in _partitions(N):
        if sum(c - r for r, part in enumerate(nu)
               for c in range(part)) == content_sum:
            tabs = _content_vectors(nu)
            yield nu, len(tabs), min(
                (_spectral_matches(t, degree, kappa0) for t in tabs), key=len)


def _spectral_bound(N, degree, kappa0):
    """An upper bound on the joint kernel's dimension: the sum over
    _shapes of f_nu times the number of matches (step 4)."""
    return sum(f * len(alphas) for _, f, alphas in _shapes(N, degree, kappa0))


def _dunkl_terms(N, i0, terms, kappa0):
    """q D_i on the integer `terms`, kappa0 = p/q in lowest terms:
    q d/dx_i + p sum_{j != i} (1 - (ij))/(x_i - x_j), as integer terms."""
    p, q = kappa0.numerator, kappa0.denominator
    out = {}
    if p:
        scaled = {e: p * c for e, c in terms.items()}
        _pair_difference_terms(scaled, i0, 0, out)
    for e, c in terms.items():
        a = e[i0]
        if a:
            b = list(e)
            b[i0] = a - 1
            _accumulate(out, tuple(b), q * a * c)
    return out


def _cherednik_terms(N, i0, terms, kappa0):
    """q U_i = q D_i x_i - p sum_{j<i} (ij) on `terms`, kappa0 = p/q != 0 in
    lowest terms."""
    shifted = {e[:i0] + (e[i0] + 1,) + e[i0 + 1:]: c for e, c in terms.items()}
    out = _dunkl_terms(N, i0, shifted, kappa0)
    for j0 in range(i0):
        for e, c in terms.items():
            b = list(e)
            b[i0], b[j0] = b[j0], b[i0]
            _accumulate(out, tuple(b), kappa0.numerator * c, sub=True)
    return out


def _spectrum(alpha, kappa0):
    """[q xi_i(alpha)] = [(N - r_i(alpha)) p + q (alpha_i + 1)]."""
    p, q = kappa0.numerator, kappa0.denominator
    return [(len(alpha) - r) * p + q * (a + 1)
            for r, a in zip(_rank_vector(alpha), alpha)]


def _solve(alpha, kappa0):
    """The joint eigenvector of the U_i at kappa0 with leading term x^alpha,
    as integer terms over one common denominator, or None when a
    composition below alpha has alpha's spectrum.  The monomials x^beta
    below alpha, in descending (sorted parts, composition), a linear
    extension of the triangle order, each take the coefficient that zeroes
    (q U_i - q xi_i(alpha)) v at beta for the first i with xi_i(beta) !=
    xi_i(alpha); v and the residuals are scaled up where it is fractional."""
    N = len(alpha)
    xi = _spectrum(alpha, kappa0)
    order = sorted(monomial_basis(N, sum(alpha)),
                   key=lambda e: (sorted(e, reverse=True), e), reverse=True)
    v = {}
    residual = [{} for _ in range(N)]
    for e in order[order.index(alpha):]:
        s = _spectrum(e, kappa0)
        i0 = next((i for i in range(N) if s[i] != xi[i]), None)
        if i0 is None:
            if e != alpha:
                return None
            c = 1
        else:
            r, d = residual[i0].get(e, 0), s[i0] - xi[i0]
            if r % d:
                t = abs(d) // gcd(r, d)
                for terms in [v] + residual:
                    for k in terms:
                        terms[k] *= t
                r *= t
            c = -r // d
        if not c:
            continue
        v[e] = c
        for i in range(N):
            image = _cherednik_terms(N, i, {e: 1}, kappa0)
            if xi[i]:
                _accumulate(image, e, xi[i], sub=True)
            for b, x in image.items():
                _accumulate(residual[i], b, c * x)
    return v


def _joint_eigen_ok(terms, N, kappa0, xi):
    """Whether the integer `terms` are nonzero and q U_i maps them to xi[i]
    times them, to {} where xi[i] is 0, for every i."""
    return bool(terms) and all(
        _cherednik_terms(N, i0, terms, kappa0)
        == ({e: x * c for e, c in terms.items()} if x else {})
        for i0, x in enumerate(xi))


def _decided(N, degree, kappa0):
    """{nu: (f_nu, an upper bound on mult_nu(K))} over _shapes, exact
    (step 6) where a single alpha matches: 1 if every D_i kills its
    spectral vector and 0 if not.  None when a vector fails its check."""
    out = {}
    for nu, f, alphas in _shapes(N, degree, kappa0):
        if len(alphas) == 1:
            v = _solve(alphas[0], kappa0)
            if not _joint_eigen_ok(v, N, kappa0, _spectrum(alphas[0], kappa0)):
                return None
            out[nu] = f, int(_annihilated(v, N, kappa0))
        else:
            out[nu] = f, len(alphas)
    return out


def dunkl_matrix(N, degree, kappa0):
    """(cols, rows): the monomials of degree `degree` in descending lex
    order, and the sparse integer rows {column: entry} of q D_i on them.
    Rows follow i, then the lower monomial in descending lex order."""
    cols = monomial_basis(N, degree)
    rows = []
    for i0 in range(N):
        block_rows = {}
        for c, e in enumerate(cols):
            for b, v in _dunkl_terms(N, i0, {e: 1}, kappa0).items():
                block_rows.setdefault(b, {})[c] = v
        rows.extend(block_rows[b] for b in sorted(block_rows, reverse=True))
    return cols, rows


class KernelReport:
    def __init__(self, N, degree, kappa0, monomials, rows, method=None):
        self.N = N
        self.degree = degree
        self.kappa0 = Fraction(kappa0)
        self.monomials = list(monomials)
        # {free column: sparse Fraction row}, the basis in `_echelon` form
        self.rows = rows
        self.comparison = None
        # "spectral bound", "spectral vector" or "elimination", not in JSON
        self.method = method

    @property
    def free_columns(self):
        return sorted(self.rows)

    @property
    def dimension(self):
        return len(self.rows)

    def to_json(self, include_timestamp=True):
        out = {
            "N": self.N,
            "degree": self.degree,
            "kappa0": rat_to_str(self.kappa0),
            "monomials": [list(e) for e in self.monomials],
            "dimension": self.dimension,
            "free_columns": self.free_columns,
            "kernel_basis": [[rat_to_str(self.rows[f].get(j, 0))
                              for j in range(len(self.monomials))]
                             for f in self.free_columns],
        }
        if self.comparison is not None:
            out["comparison"] = dict(self.comparison)
        if include_timestamp:
            out["timestamp"] = datetime.now(timezone.utc).isoformat()
        return out


def _subtract_multiple(dst, t, src):
    """dst -= t * src on sparse Fraction vectors, dropping zeros."""
    for j, w in src.items():
        x = dst.get(j, 0) - t * w
        if x:
            dst[j] = x
        else:
            dst.pop(j, None)


def _reduce(v, span):
    """The sparse vector v, reduced in place by the rows of an `_echelon`
    span: each row clears v at its pivot column."""
    for c, row in span.items():
        if v.get(c):
            _subtract_multiple(v, v[c], row)
    return v


def _echelon(vectors):
    """Right-to-left Gauss-Jordan over Q on sparse vectors {column: value}:
    {pivot column: row}, the pivot being the last nonzero column, each row
    1 there and 0 on every other pivot column."""
    span = {}
    for v in vectors:
        v = _reduce(dict(v), span)
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


def _nullspace(rows, ncols):
    """{free column f: x_f} spanning the nullspace of the sparse integer
    `rows` on columns 0..ncols-1.  `_echelon` runs on the reversed columns,
    so it pivots on the leftmost; x_f is 1 at f, -R_p[f] at each pivot
    column p, R_p the reduced row of pivot p, and 0 on every other free
    column."""
    last = ncols - 1
    span = _echelon({last - j: Fraction(x) for j, x in row.items()}
                    for row in rows)
    pivots = {last - c: row for c, row in span.items()}
    out = {}
    for f in range(ncols):
        if f not in pivots:
            x = out[f] = {f: Fraction(1)}
            for p, row in pivots.items():
                if row.get(last - f):
                    x[p] = -row[last - f]
    return out


def _candidate_span(candidates, N, kappa0, cols):
    """The reduced span (`_echelon`) of the candidates' coefficient vectors
    on the monomial columns, or None when a candidate is not a specialized
    polynomial on those columns."""
    colix = {e: c for c, e in enumerate(cols)}
    if any(f.n != N or f.field != kappa0
           or not all(e in colix for e in f.terms) for f in candidates):
        return None
    return _echelon({colix[e]: Fraction(c) for e, c in f.terms.items()}
                    for f in candidates)


def _annihilated(terms, N, kappa0, upto=None):
    """Exact check that D_1, ..., D_upto kill the polynomial with rational
    `terms`, every D_i by default, done over Z after clearing its
    denominators."""
    iterms = integer_terms(terms)[1]
    return not any(_dunkl_terms(N, i0, iterms, kappa0)
                   for i0 in range(upto or N))


def _stable(span, cols, N):
    """Exact check that the reduced span is closed under every adjacent
    transposition (k, k+1)."""
    colix = {e: c for c, e in enumerate(cols)}
    for k in range(N - 1):
        for v in span.values():
            w = {}
            for j, x in v.items():
                e = list(cols[j])
                e[k], e[k + 1] = e[k + 1], e[k]
                w[colix[tuple(e)]] = x
            if _reduce(w, span):
                return False
    return True


def _certified_span(candidates, N, kappa0, cols):
    """(method, span) when the reduced span of the candidates is proven to
    be the whole joint kernel on the monomial columns `cols`, else None.

    The span must be closed under S_N and killed by D_1, both checked
    exactly, which puts it in the kernel of every D_i (module docstring);
    then its dimension must meet _spectral_bound, or else the sum of f_nu
    times the multiplicity bounds of _decided."""
    span = _candidate_span(candidates, N, kappa0, cols)
    if span is None:
        return None
    vecs = [{cols[j]: x for j, x in v.items()} for v in span.values()]
    if not (kappa0 and _stable(span, cols, N)
            and all(_annihilated(v, N, kappa0, 1) for v in vecs)):
        return None
    degree = sum(cols[0])
    if _spectral_bound(N, degree, kappa0) == len(span):
        return "spectral bound", span
    mults = _decided(N, degree, kappa0)
    if mults is not None and len(span) == sum(
            f * k for f, k in mults.values()):
        return "spectral vector", span
    return None


def joint_kernel(N, degree, kappa0, candidates=None):
    """Exact nullspace of all D_i on homogeneous degree-`degree`
    polynomials at kappa0; one canonical basis vector per free column.

    `candidates`, specialized polynomials expected to span the kernel,
    are never trusted: the report is read off their span only when
    `_certified_span` proves that span is the kernel.  Otherwise, and
    without candidates, the stacked full-space matrix is eliminated
    (`_nullspace`) and every kernel vector is checked to be killed."""
    if degree < 1:
        raise comb.ParameterViolation("degree must be positive")
    kappa0 = Fraction(kappa0)
    cols = monomial_basis(N, degree)
    certified = (candidates is not None
                 and _certified_span(candidates, N, kappa0, cols))
    if certified:
        method, span = certified
        return KernelReport(N, degree, kappa0, cols, span, method)
    _, rows = dunkl_matrix(N, degree, kappa0)
    kernel = _nullspace(rows, len(cols))
    for x in kernel.values():
        if not _annihilated({cols[j]: v for j, v in x.items()}, N, kappa0):
            raise KernelInvariantError(
                "computed kernel vector is not annihilated")
    return KernelReport(N, degree, kappa0, cols, kernel, "elimination")


def compare_with_module(report, module):
    """Membership of every module element in the kernel span; dimension
    mismatches are recorded, never raised."""
    colix = {e: i for i, e in enumerate(report.monomials)}
    per_element = []
    for el in module.elements:
        z = el.zeta
        ok = (z.n == report.N
              and module.kappa0 == report.kappa0
              and z.is_homogeneous()
              and z.degree() == report.degree
              and all(e in colix for e in z.terms))
        per_element.append(ok and not _reduce(
            {colix[e]: c for e, c in z.terms.items()}, report.rows))
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
