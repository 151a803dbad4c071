"""Independent joint-kernel computation for the Dunkl operators.

The oracle shares no code path with the Jack-polynomial construction.  It
writes the operators as integer matrices itself, from the pair-difference
kernel of `operators`: with kappa0 = p/q in lowest terms, q D_i has
integer coefficients on monomials.  Without candidates, the stacked
matrices of every D_i on the monomials of one degree are eliminated
exactly by fraction-free (Bareiss) elimination.

A caller may offer candidate polynomials, such as the module's, as vectors
that might span the kernel K in degree d.  They are never trusted: their
span C is taken as K only when it is proven to be.  First, exact checks
over Q: every vector of the reduced span is killed by every D_i, and the
span is closed under every adjacent transposition, so C is an
S_N-submodule of K.  Then the first of three methods that succeeds gives
the report's `method`.

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

The Young-subgroup slices ("slices"), where the bound is loose:
6. The D_i are S_N-equivariant, w D_i w^-1 = D_w(i), so K is an
   S_N-module, the direct sum of C and a submodule C'.  For the symmetrizer (+)
   or antisymmetrizer (-) e of a Young subgroup S_mu, dim e.V is
   sum_lambda mult_lambda(V) K_{lambda mu}, with K_{lambda' mu} for -,
   and by Young's rule the Kostka number K_{lambda mu} is positive iff
   lambda dominates mu.  A family of (mu, +-) covers lambda when lambda
   dominates mu for a + member or lambda' dominates mu for a - member.
7. For each member, dim e.C is the exact rank of the candidates'
   coordinates on the (signed) S_mu orbit sums, and dim e.K is at most
   cols - rank_p.  The columns are the orbit sums; the rows are q D_i for
   one i per block of mu, which lose nothing: for f in e.P and s in S_mu
   with s(i) = j, D_j f = +-s D_i f.  rank_p, the rank modulo the prime
   2^61 - 1, never exceeds the rank over Q.
8. When the two bounds meet on every member of a covering family, e.C'
   is 0 for every member, so C' has no irreducible constituent and C = K.

Modular arithmetic is only ever a one-sided bound.  If a check fails or
neither bound is tight, the Bareiss elimination ("bareiss") runs as it does
without candidates.  All paths give the same canonical basis, one vector
per free column.  The partitions, tableaux, contents, rank vectors,
dominance, conjugation and orbits are the oracle's own.
"""

from datetime import datetime, timezone
from fractions import Fraction
from itertools import combinations
from math import factorial, prod

from . import combinatorics as comb
from .exactarith import rat_from_str, rat_to_str
from .multipoly import _accumulate, integer_terms
from .operators import _pair_difference_terms


# The prime of the one-sided rank bound, 2^61 - 1.
MODULUS = (1 << 61) - 1


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


def _conjugate(lam):
    return tuple(sum(1 for part in lam if part > k) for k in range(lam[0]))


def _dominates(lam, mu):
    """lam dominates mu, for partitions of the same number."""
    s = t = 0
    for k, part in enumerate(mu):
        s += lam[k] if k < len(lam) else 0
        t += part
        if s < t:
            return False
    return True


def _sees(member, lam):
    """Whether the (anti)symmetrizer of the member (mu, sign) keeps some of
    the irreducible lambda: lambda dominates mu for sign 1, its conjugate
    does for sign -1."""
    mu, sign = member
    return _dominates(lam if sign > 0 else _conjugate(lam), mu)


def _covers(family, N):
    """Whether some member of the family sees every lambda of N."""
    return all(any(_sees(m, lam) for m in family) for lam in _partitions(N))


def _family(N):
    """The covering family of at most three (mu, sign) members with the
    fewest columns expected, sum N!/|S_mu|; ties go to the fewer, then the
    earlier, members."""
    lams = list(_partitions(N))
    everything = (1 << len(lams)) - 1
    members = []
    for mu in lams:
        cost = factorial(N) // prod(map(factorial, mu))
        for sign in (1, -1):
            seen = sum(1 << k for k, lam in enumerate(lams)
                       if _sees((mu, sign), lam))
            members.append(((mu, sign), seen, cost))
    best = None
    for size in (1, 2, 3):
        for fam in combinations(members, size):
            cost = sum(c for _, _, c in fam)
            if best is None or cost < best[0]:
                seen = 0
                for _, s, _ in fam:
                    seen |= s
                if seen == everything:
                    best = (cost, [m for m, _, _ in fam])
    return best[1]


def _rank_vector(alpha):
    """r_i = #{j: alpha_j > alpha_i} + #{j <= i: alpha_j = alpha_i}."""
    r = [0] * len(alpha)
    for k, i in enumerate(sorted(range(len(alpha)),
                                 key=lambda i: (-alpha[i], i)), 1):
        r[i] = k
    return tuple(r)


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


def _spectral_count(c, degree, kappa0):
    """#{alpha |= degree : N - r_i(alpha) + alpha_i/kappa0 = c_{N+1-i}},
    alpha_i = kappa0 (c_{N+1-i} - N + r_i) over distinct ranks r_i."""
    N = len(c)
    p, q = kappa0.numerator, kappa0.denominator

    def extend(ranks, alpha, left):
        if len(ranks) == N:
            return left == 0 and _rank_vector(alpha) == ranks
        total = 0
        for r in range(1, N + 1):
            a, rem = divmod(p * (c[N - 1 - len(ranks)] - N + r), q)
            if r not in ranks and not rem and 0 <= a <= left:
                total += extend(ranks + (r,), alpha + (a,), left - a)
        return total
    return extend((), (), degree)


def _spectral_bound(N, degree, kappa0):
    """An upper bound on the joint kernel's dimension: the sum, over the
    shapes nu with content sum C(N,2) + degree/kappa0, of f_nu times the
    least _spectral_count over the tableaux of shape nu."""
    total = 0
    content_sum = Fraction(N * (N - 1), 2) + degree / kappa0
    for nu in _partitions(N):
        if sum(c - r for r, part in enumerate(nu)
               for c in range(part)) == content_sum:
            tabs = _content_vectors(nu)
            total += len(tabs) * min(_spectral_count(t, degree, kappa0)
                                     for t in tabs)
    return total


def _blocks(mu):
    """The blocks of the Young subgroup S_mu as (start, stop) index pairs."""
    out = []
    start = 0
    for part in mu:
        out.append((start, start + part))
        start += part
    return out


def _orbit_sign(e, blocks, sign):
    """(r, s) with e.x^e = s * c * e.x^r for the (anti)symmetrizer e of the
    blocks and some c > 0: r sorts each block of e descending, and s is 1,
    or for sign -1 the parity of that sort, or 0 when a block repeats an
    exponent and e kills x^e."""
    r = []
    s = 1
    for lo, hi in blocks:
        part = e[lo:hi]
        if sign < 0:
            if len(set(part)) < len(part):
                return None, 0
            for a in range(len(part)):
                for b in range(a + 1, len(part)):
                    if part[a] < part[b]:
                        s = -s
        r.extend(sorted(part, reverse=True))
    return tuple(r), s


def _dunkl_terms(N, i0, terms, kappa0):
    """q D_i on the integer `terms`, kappa0 = p/q in lowest terms:
    q d/dx_i + p sum_{j != i} (1 - (ij))/(x_i - x_j), as integer terms."""
    p, q = kappa0.numerator, kappa0.denominator
    out = {}
    if p:
        scaled = {e: p * c for e, c in terms.items()}
        for j0 in range(N):
            if j0 != i0:
                _pair_difference_terms(scaled, i0, j0, out)
    for e, c in terms.items():
        a = e[i0]
        if a:
            b = list(e)
            b[i0] = a - 1
            _accumulate(out, tuple(b), q * a * c)
    return out


def dunkl_matrix(N, degree, kappa0, mu, sign):
    """(cols, rows): the S_mu orbit sums of degree `degree`, signed for
    sign -1, by their representatives in descending lex order, and the
    sparse integer rows {column: entry} of q D_i from them, for the first
    index i of each block of mu.  Rows follow i, then the lower monomial in
    descending lex order; only lower monomials sorted descending on each
    block less i are kept, since S_mu fixing i permutes the others up to
    sign.  mu = (1^N) with sign 1 gives the full space."""
    kappa0 = Fraction(kappa0)
    blocks = _blocks(mu)
    sums = {}
    for e in monomial_basis(N, degree):
        r, s = _orbit_sign(e, blocks, sign)
        if s:
            sums.setdefault(r, {})[e] = s
    cols = sorted(sums, reverse=True)
    rows = []
    for lo, hi in blocks:
        rest = [(a, b) if a != lo else (lo + 1, hi) for a, b in blocks]
        block_rows = {}
        for c, r in enumerate(cols):
            for b, v in _dunkl_terms(N, lo, sums[r], kappa0).items():
                if all(b[k] >= b[k + 1] for a, z in rest
                       for k in range(a, z - 1)):
                    block_rows.setdefault(b, {})[c] = v
        rows.extend(block_rows[b] for b in sorted(block_rows, reverse=True))
    return cols, rows


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
    def __init__(self, N, degree, kappa0, monomials, basis, free_columns,
                 method=None):
        self.N = N
        self.degree = degree
        self.kappa0 = Fraction(kappa0)
        self.monomials = list(monomials)
        self.basis = basis  # list of Fraction vectors, one per free column
        self.free_columns = list(free_columns)
        self.comparison = None
        # "spectral bound", "slices" or "bareiss"; not in the JSON
        self.method = method

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


def _rank_mod_p(introws, stop=None):
    """Rank of a sparse integer matrix, rows {column: entry}, modulo
    MODULUS, never above its rank over Q; the elimination ends once the
    rank reaches `stop`.

    Pivot on the last nonzero column, rows taken by that column from the
    left.  On the Dunkl rows of the orbit-sum slices this was the fastest
    order tried overall: 7 s against 75 s from the right on the degree-15
    slices of N = 6, though 0.04 s against 0.01 s on the degree-21 (2,1)-
    slice of N = 3."""
    rows = []
    for row in introws:
        d = {}
        for j, v in row.items():
            v %= MODULUS
            if v:
                d[j] = v
        if d:
            rows.append(d)
    rows.sort(key=max)
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


def _echelon(vectors):
    """Right-to-left Gauss-Jordan over Q on sparse vectors {column: value}:
    {pivot column: row}, the pivot being the last nonzero column, each row
    1 there and 0 on every other pivot column."""
    span = {}
    for v in vectors:
        v = dict(v)
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


def _annihilated(terms, N, kappa0):
    """Exact check that every D_i kills the polynomial with Fraction
    `terms`, done over Z after clearing its denominators."""
    iterms = integer_terms(terms)
    return not any(_dunkl_terms(N, i0, iterms, kappa0) for i0 in range(N))


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
            for c, row in span.items():
                if w.get(c):
                    _subtract_multiple(w, w[c], row)
            if w:
                return False
    return True


def _certified_span(candidates, N, kappa0, cols):
    """(method, span) when the reduced span of the candidates is proven to
    be the whole joint kernel on the monomial columns `cols`, else None.

    The span must be killed by every D_i and closed under S_N, both checked
    exactly; then its dimension must meet _spectral_bound, or else on each
    member of a covering family the exact rank r of its orbit-sum
    coordinates must meet cols - rank_p of that member's Dunkl rows."""
    span = _candidate_span(candidates, N, kappa0, cols)
    if span is None:
        return None
    vecs = [{cols[j]: x for j, x in v.items()} for v in span.values()]
    if not (all(_annihilated(v, N, kappa0) for v in vecs)
            and _stable(span, cols, N)):
        return None
    degree = sum(cols[0])
    if kappa0 and _spectral_bound(N, degree, kappa0) == len(span):
        return "spectral bound", span
    family = _family(N)
    if not _covers(family, N):
        return None
    for mu, sign in family:
        slice_cols, rows = dunkl_matrix(N, degree, kappa0, mu, sign)
        colix = {r: c for c, r in enumerate(slice_cols)}
        blocks = _blocks(mu)
        coords = []
        for v in vecs:
            u = {}
            for e, x in v.items():
                r, s = _orbit_sign(e, blocks, sign)
                if s:
                    _accumulate(u, colix[r], s * x)
            coords.append(u)
        target = len(slice_cols) - len(_echelon(coords))
        if _rank_mod_p(rows, stop=target) != target:
            return None
    return "slices", span


def joint_kernel(N, degree, kappa0, candidates=None):
    """Exact nullspace of all D_i on homogeneous degree-`degree`
    polynomials at kappa0; one canonical basis vector per free column.

    `candidates`, specialized polynomials expected to span the kernel,
    are never trusted: the report is read off their span only when
    `_certified_span` proves that span is the kernel.  Otherwise, and
    without candidates, the stacked full-space matrix is eliminated by
    Bareiss."""
    if degree < 1:
        raise comb.ParameterViolation("degree must be positive")
    kappa0 = Fraction(kappa0)
    cols = monomial_basis(N, degree)
    certified = None
    if candidates is not None:
        certified = _certified_span(candidates, N, kappa0, cols)
    if certified is not None:
        method, span = certified
        free = sorted(span)
        basis = []
        for f in free:
            x = [Fraction(0)] * len(cols)
            for j, v in span[f].items():
                x[j] = v
            basis.append(x)
        return KernelReport(N, degree, kappa0, cols, basis, free, method)
    _, rows = dunkl_matrix(N, degree, kappa0, (1,) * N, 1)
    ech, pivots = _bareiss_echelon([[row.get(c, 0) for c in range(len(cols))]
                                    for row in rows])
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
        if not _annihilated({cols[j]: v for j, v in enumerate(x) if v},
                            N, kappa0):
            raise KernelInvariantError(
                "computed kernel vector is not annihilated")
    return KernelReport(N, degree, kappa0, cols, basis, free, "bareiss")


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
