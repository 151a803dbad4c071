"""Compositions, partitions, rank and spectral vectors, orders, hooks,
tableaux, the singular-label resolver, and critical-pair combinatorics.

Compositions are plain tuples of nonnegative ints; the tuple length is the
ambient dimension N (trailing zeros are stored explicitly once padded).
Permutations w are tuples with w[i-1] = w(i), acting on compositions by
(w.alpha)_{w(i)} = alpha_i.
"""

from fractions import Fraction
from math import comb, gcd

from .exactarith import KP_ONE, KappaRatio, kappa_linear


class UsageError(Exception):
    """Base of the errors in what the user asked for: the CLI exits 2."""


class IndexOutOfRange(UsageError, IndexError):
    pass


class DegreeMismatch(UsageError, ValueError):
    pass


class ZeroComposition(UsageError, ValueError):
    pass


class ParameterViolation(UsageError, ValueError):
    pass


class SearchBudgetExceeded(RuntimeError):
    def __init__(self, budget):
        super().__init__("search exceeded node budget %d" % budget)
        self.budget = budget


class ShapeViolation(UsageError, ValueError):
    pass


class ZeroPartition(ValueError):
    pass


# ---------------------------------------------------------------- compositions

def pad(alpha, n):
    alpha = tuple(alpha)
    if len(alpha) > n:
        if any(alpha[n:]):
            raise ParameterViolation(
                "composition %s does not fit in ambient %d" % (alpha, n))
        return alpha[:n]
    return alpha + (0,) * (n - len(alpha))


def comp_weight(alpha):
    return sum(alpha)


def comp_length(alpha):
    """ell(alpha): index of the last nonzero part, 0 for the zero composition."""
    for i in range(len(alpha), 0, -1):
        if alpha[i - 1]:
            return i
    return 0


def sort_desc(alpha):
    return tuple(sorted(alpha, reverse=True))


def is_partition(alpha):
    return all(alpha[i] >= alpha[i + 1] for i in range(len(alpha) - 1))


def epsilon(i, n):
    if not 1 <= i <= n:
        raise IndexOutOfRange("epsilon index %d outside [1,%d]" % (i, n))
    return tuple(1 if j == i else 0 for j in range(1, n + 1))


def comp_sub(alpha, beta):
    out = tuple(a - b for a, b in zip(alpha, beta))
    if any(x < 0 for x in out):
        raise ParameterViolation("negative part in composition difference")
    return out


# ------------------------------------------------------------ rank and spectra

def rank(alpha, i):
    """r(alpha,i) = #{j: a_j > a_i} + #{j <= i: a_j = a_i}."""
    n = len(alpha)
    if not 1 <= i <= n:
        raise IndexOutOfRange("rank index %d outside [1,%d]" % (i, n))
    return rank_vector(alpha)[i - 1]


def rank_vector(alpha):
    n = len(alpha)
    out = [0] * n
    for i in range(n):
        ai = alpha[i]
        r = 1
        for j in range(n):
            if alpha[j] > ai or (alpha[j] == ai and j < i):
                r += 1
        out[i] = r
    return tuple(out)


def spectral_vector(alpha):
    """Entries (slope, intercept) with xi_i(alpha) = slope*kappa + intercept."""
    n = len(alpha)
    rv = rank_vector(alpha)
    return tuple((n - rv[i], alpha[i] + 1) for i in range(n))


# -------------------------------------------------------------------- orders

def _prefix_ge(alpha, beta):
    s = 0
    for a, b in zip(alpha, beta):
        s += a - b
        if s < 0:
            return False
    return True


def triangle_greater(alpha, beta):
    """Strict triangle order: alpha |> beta."""
    n = max(len(alpha), len(beta))
    a, b = pad(alpha, n), pad(beta, n)
    if comp_weight(a) != comp_weight(b):
        raise DegreeMismatch("triangle order needs equal degrees")
    if a == b:
        return False
    ap, bp = sort_desc(a), sort_desc(b)
    if ap == bp:
        return _prefix_ge(a, b)
    return _prefix_ge(ap, bp)


# ---------------------------------------------------------------- permutations

def identity_perm(n):
    return tuple(range(1, n + 1))


def transposition(n, i, j):
    if i == j or not (1 <= i <= n and 1 <= j <= n):
        raise IndexOutOfRange("bad transposition (%d,%d) in S_%d" % (i, j, n))
    w = list(range(1, n + 1))
    w[i - 1], w[j - 1] = j, i
    return tuple(w)


def compose(u, v):
    """(u o v)(x) = u(v(x))."""
    return tuple(u[v[x] - 1] for x in range(len(u)))


def invert(w):
    out = [0] * len(w)
    for i, wi in enumerate(w):
        out[wi - 1] = i + 1
    return tuple(out)


def theta_perm(n, m):
    """The cycle sending i -> i+1 for i < m, m -> 1, fixing i > m."""
    if not 1 <= m <= n:
        raise IndexOutOfRange("theta cycle length %d outside [1,%d]" % (m, n))
    w = list(range(1, n + 1))
    for i in range(1, m):
        w[i - 1] = i + 1
    w[m - 1] = 1
    return tuple(w)


def perm_on_comp(w, alpha):
    """(w.alpha) with (w.alpha)_{w(i)} = alpha_i."""
    out = [0] * len(alpha)
    for i in range(len(alpha)):
        out[w[i] - 1] = alpha[i]
    return tuple(out)


def longest_perm(n):
    return tuple(range(n, 0, -1))


# Group-algebra words: tuples of (coefficient, permutation).  Coefficients may
# be ints or KappaRatio; no like-term combination is attempted.

def word_scale(c, word):
    return tuple((c * coeff, w) for coeff, w in word)


# ------------------------------------------------------------------- tilde

def tilde(alpha):
    m = comp_length(alpha)
    if m == 0:
        raise ZeroComposition("tilde of the zero composition")
    out = [alpha[m - 1] - 1] + list(alpha[:m - 1]) + [0] * (len(alpha) - m)
    return tuple(out)


# ---------------------------------------------------------- hooks, pochhammer

def hooks(lam):
    """(leg, arm) at each node (i, j) of lam, row by row: the hook length
    h(lam, t; i, j) = t + leg*kappa + arm, with arm = lam_i - j and
    leg = #{l > i : lam_l >= j}."""
    lam = tuple(lam)
    return [(sum(1 for l in range(i, len(lam)) if lam[l] >= j),
             lam[i - 1] - j)
            for i in range(1, len(lam) + 1) for j in range(1, lam[i - 1] + 1)]


def hook_product(lam, t):
    out = KP_ONE
    for leg, arm in hooks(lam):
        out = out * (kappa_linear(leg, arm) + t)
    return out


def pochhammer(t, lam):
    """(t)_lam = prod over nodes (i,j) of (t - (i-1)kappa + j - 1)."""
    out = KP_ONE
    for i in range(1, len(lam) + 1):
        for j in range(1, lam[i - 1] + 1):
            out = out * (kappa_linear(-(i - 1), j - 1) + t)
    return out


def e_factors(alpha, sign):
    """The factors of e_factor(alpha, sign) as (numerators, denominators),
    each a list of int pairs (a, b) for a*kappa + b."""
    if sign not in (1, -1):
        raise ParameterViolation("sign must be +1 or -1")
    n = len(alpha)
    rv = rank_vector(alpha)
    den = [(rv[i] - rv[j], alpha[j] - alpha[i]) for i in range(n)
           for j in range(i + 1, n) if alpha[i] < alpha[j]]
    return [(a + sign, b) for a, b in den], den


def e_factor(alpha, sign):
    """Product over pairs i<j with a_i < a_j of
    1 + sign*kappa/(kappa(r(alpha,i)-r(alpha,j)) + a_j - a_i)."""
    return KappaRatio.from_factors(*e_factors(alpha, sign))


# ------------------------------------------------------------- label machinery

def build_lambda(mu, s, l, rho, m):
    """The staircase partition ((m(s+l+1))^rho, (m(s+l))^mu, ..., (m(s+1))^mu),
    padded to its ambient N = (s+l+1)mu + s + rho."""
    if mu < 1 or l < 1 or s < 0 or not 1 <= rho <= mu or m < 1:
        raise ParameterViolation(
            "bad staircase parameters (mu,s,l,rho,m)=(%d,%d,%d,%d,%d)"
            % (mu, s, l, rho, m))
    if gcd(m, mu + 1) != 1:
        raise ParameterViolation("gcd(m, mu+1) must be 1")
    parts = [m * (s + l + 1)] * rho
    for j in range(1, l + 1):
        parts.extend([m * (s + l + 1 - j)] * mu)
    n_amb = (s + l + 1) * mu + s + rho
    return pad(tuple(parts), n_amb)


class SingularLabel:
    """Resolved (m, n, N) label: singular value, isotype tau, and partition."""

    def __init__(self, m, n, N, family, params, tau, lam):
        self.m = m
        self.n = n
        self.N = N
        self.d = gcd(m, n)
        self.m1 = m // self.d
        self.n1 = n // self.d
        self.kappa0 = Fraction(-m, n)
        self.family = family
        self.params = params
        self.tau = tau
        self.lam = lam

    def to_json(self):
        from .exactarith import rat_to_str
        return {
            "m": self.m, "n": self.n, "N": self.N,
            "d": self.d, "m1": self.m1, "n1": self.n1,
            "kappa0": rat_to_str(self.kappa0),
            "family": self.family,
            "family_params": dict(self.params),
            "tau": list(self.tau),
            "lambda": list(self.lam),
        }

    def __repr__(self):
        return ("SingularLabel(m=%d, n=%d, N=%d, family=%s, tau=%s, lam=%s)"
                % (self.m, self.n, self.N, self.family, self.tau, self.lam))


def resolve_label(m, n, N):
    if not (2 <= n <= N):
        raise ParameterViolation("need 2 <= n <= N, got n=%d, N=%d" % (n, N))
    if m < 1:
        raise ParameterViolation("need m >= 1")
    if m % n == 0:
        raise ParameterViolation("m/n must not be an integer")
    d = gcd(m, n)
    m1, n1 = m // d, n // d
    rem = N + 1 - n
    l = -(-rem // (n1 - 1)) - 1  # ceil(rem/(n1-1)) - 1
    rho = rem - l * (n1 - 1)
    if l == 0:
        mu = n - 1
        tau = (mu, N - mu)
        lam = pad((m,) * (N - mu), N)
        label = SingularLabel(m, n, N, "two_part", {"mu": mu}, tau, lam)
    else:
        mu = n1 - 1
        s = d - 1
        tau = (n - 1,) + (mu,) * l + (rho,)
        lam = pad(build_lambda(mu, s, l, rho, m1), N)
        label = SingularLabel(
            m, n, N, "multi", {"mu": mu, "s": s, "l": l, "rho": rho}, tau, lam)
    if sum(label.tau) != N or not is_partition(label.tau):
        raise ParameterViolation("internal: isotype %s is not a partition of %d"
                                 % (label.tau, N))
    return label


def omega_eigenvalue(tau):
    """tau(omega) = C(N,2) - sum of contents of the diagram of tau."""
    n = sum(tau)
    contents = 0
    for i, row in enumerate(tau, start=1):
        contents += row * (row + 1) // 2 - i * row
    return Fraction(comb(n, 2) - contents)


def gamma_values(lam):
    """Distinct part values of the padded composition, ascending."""
    return tuple(sorted(set(lam)))


def isotype_of(lam):
    """Row sizes = multiplicities of the ascending distinct values of lam."""
    vals = gamma_values(lam)
    rows = tuple(sum(1 for x in lam if x == v) for v in vals)
    if not is_partition(rows):
        raise ShapeViolation(
            "value multiplicities %s of %s are not weakly decreasing"
            % (rows, lam))
    return rows


def content_sequence(lam, kappa0):
    """c_k = N - k + lam_k/kappa0 for k in [1,N]."""
    kappa0 = Fraction(kappa0)
    if kappa0 == 0:
        raise ParameterViolation("kappa0 must be nonzero")
    n = len(lam)
    return [Fraction(n - k) + Fraction(lam[k - 1]) / kappa0
            for k in range(1, n + 1)]


# ------------------------------------------------------------------- tableaux

class Tableau:
    """Standard Young tableau: shape plus value -> (row, column), 1-based."""

    __slots__ = ("shape", "pos")

    def __init__(self, shape, pos):
        self.shape = tuple(shape)
        self.pos = dict(pos)

    @classmethod
    def from_rows(cls, rows):
        pos = {}
        for r, row in enumerate(rows, start=1):
            for c, v in enumerate(row, start=1):
                pos[v] = (r, c)
        return cls(tuple(len(row) for row in rows), pos)

    def rows(self):
        out = [[None] * k for k in self.shape]
        for v, (r, c) in self.pos.items():
            out[r - 1][c - 1] = v
        return tuple(tuple(row) for row in out)

    def rw(self, i):
        return self.pos[i][0]

    def cm(self, i):
        return self.pos[i][1]

    def eta(self, i):
        """Content of the node holding i: column - row."""
        r, c = self.pos[i]
        return c - r

    def is_standard(self):
        rows = self.rows()
        for row in rows:
            if any(v is None for v in row):
                return False
            if any(row[j] >= row[j + 1] for j in range(len(row) - 1)):
                return False
        for r in range(len(rows) - 1):
            for c in range(len(rows[r + 1])):
                if rows[r][c] >= rows[r + 1][c]:
                    return False
        return True

    def swap_values(self, i, j):
        pos = dict(self.pos)
        pos[i], pos[j] = pos[j], pos[i]
        return Tableau(self.shape, pos)

    def relabel(self, u):
        """Tableau with u(i) at the node that held i."""
        return Tableau(self.shape, {u[i - 1]: p for i, p in self.pos.items()})

    def __eq__(self, other):
        return (isinstance(other, Tableau) and self.shape == other.shape
                and self.pos == other.pos)

    def __hash__(self):
        return hash((self.shape, tuple(sorted(self.pos.items()))))

    def __repr__(self):
        return "Tableau%s" % (self.rows(),)


def t0_tableau(tau):
    """Row-by-row filling 1..N of shape tau."""
    rows, v = [], 1
    for k in tau:
        rows.append(tuple(range(v, v + k)))
        v += k
    return Tableau.from_rows(rows)


def rlp_enumerate(lam, gamma=None):
    """All rearrangements sigma of lam whose every right substring has at
    least as many entries gamma_i as gamma_{i+1}; descending-lex order."""
    lam = tuple(lam)
    vals = gamma_values(lam)
    if gamma is not None and tuple(gamma) != vals:
        raise ShapeViolation("gamma %s does not match values %s of %s"
                             % (tuple(gamma), vals, lam))
    n = len(lam)
    mult = {v: sum(1 for x in lam if x == v) for v in vals}
    out = []
    counts = {v: 0 for v in vals}
    buf = [0] * n

    def place(pos):
        # fills positions n..1 right to left
        if pos == 0:
            out.append(tuple(buf))
            return
        for v in vals:
            if counts[v] >= mult[v]:
                continue
            counts[v] += 1
            ok = all(counts[vals[t]] >= counts[vals[t + 1]]
                     for t in range(len(vals) - 1))
            if ok:
                buf[pos - 1] = v
                place(pos - 1)
            counts[v] -= 1

    place(n)
    out.sort(reverse=True)
    return out


def tableau_from_rlp(lam, sigma):
    """The pair (w, T): w with w.lam = sigma and ranks preserved, and the
    standard tableau T = w0 w w0 . T0 indexing the same basis element."""
    n = len(sigma)
    winv = rank_vector(sigma)
    w = invert(winv)
    if perm_on_comp(w, pad(lam, n)) != tuple(sigma):
        raise ShapeViolation("%s is not a rearrangement of %s" % (sigma, lam))
    tau = isotype_of(lam)
    w0 = longest_perm(n)
    u = compose(compose(w0, w), w0)
    t = t0_tableau(tau).relabel(u)
    if not t.is_standard():
        raise ShapeViolation("rearrangement %s gave a non-standard tableau"
                             % (sigma,))
    return w, t


# ---------------------------------------------------------------- critical pairs

def is_critical_pair(alpha, beta, m, n):
    """True iff alpha |> beta and every rank/value difference is proportional
    to (n*kappa + m): (r(beta,i)-r(alpha,i))*m = (alpha_i-beta_i)*n."""
    if m < 1 or n < 1 or gcd(m, n) != 1:
        raise ParameterViolation("need m, n >= 1 and gcd(m,n)=1")
    big = max(len(alpha), len(beta))
    a, b = pad(alpha, big), pad(beta, big)
    if comp_weight(a) != comp_weight(b):
        raise DegreeMismatch("critical pairs need equal degrees")
    if not triangle_greater(a, b):
        return False
    ra, rb = rank_vector(a), rank_vector(b)
    return all((rb[i] - ra[i]) * m == (a[i] - b[i]) * n for i in range(big))


def critical_partner(mu, s, l, rho, m, k):
    """The explicit partner of Lambda - epsilon(rho + k*mu) living in ambient
    N + l - k."""
    if not 0 <= k <= l - 1:
        raise ParameterViolation("need 0 <= k <= l-1, got k=%d, l=%d" % (k, l))
    build_lambda(mu, s, l, rho, m)  # validates the parameters
    n_amb = (s + l + 1) * mu + s + rho
    bigl = l * mu + rho
    ext = n_amb + l - k
    beta = [0] * ext

    def block(j):
        if j == 0:
            return range(1, rho + 1)
        return range(rho + (j - 1) * mu + 1, rho + j * mu + 1)

    for j in range(0, k + 1):
        for i in block(j):
            beta[i - 1] = m * (l + s + 1 - j)
    beta[rho + k * mu - 1] = m - 1
    for i in block(k + 1):
        beta[i - 1] = 0
    for j in range(k + 2, l + 1):
        for i in block(j):
            beta[i - 1] = m * (l + s + 2 - j)
    for i in range(bigl + 1, ext + 1):
        beta[i - 1] = m
    return tuple(beta)


def find_critical_partners(lam, m, n, max_len, value_cap=None,
                           budget=10_000_000):
    """All beta with ell(beta) <= max_len, parts <= value_cap, |beta| = |lam|,
    forming a critical pair with lam.  Depth-first search in descending
    lexicographic order with residue, rank-range, and sum pruning."""
    if m < 1 or n < 1 or gcd(m, n) != 1:
        raise ParameterViolation("need m, n >= 1 and gcd(m,n)=1")
    if max_len < 1:
        raise ParameterViolation("max_len must be positive")
    if value_cap is not None and value_cap < 0:
        raise ParameterViolation("value_cap must be nonnegative")
    lam = tuple(lam)
    big = max(max_len, len(lam))
    a = pad(lam, big)
    if value_cap is None:
        value_cap = max(a) if any(a) else 0
    ra = rank_vector(a)

    cands = []
    for i in range(big):
        opts = []
        lo_t = -((value_cap - a[i]) // m)
        hi_t = a[i] // m
        for t in range(lo_t, hi_t + 1):
            bi = a[i] - m * t
            ri = ra[i] + n * t
            if bi < 0 or bi > value_cap:
                continue
            if not 1 <= ri <= big:
                continue
            if i >= max_len and bi != 0:
                continue
            opts.append((bi, ri, t))
        if i >= max_len:
            opts = [o for o in opts if o[0] == 0]
        # t ascending means beta_i descending: lexicographic descent
        if not opts:
            return []
        cands.append(opts)

    suf_min = [0] * (big + 1)
    suf_max = [0] * (big + 1)
    for i in range(big - 1, -1, -1):
        ts = [o[2] for o in cands[i]]
        suf_min[i] = suf_min[i + 1] + min(ts)
        suf_max[i] = suf_max[i + 1] + max(ts)

    out = []
    chosen = []  # (beta_i, rank_i)
    nodes = 0

    def dfs(i, tsum):
        nonlocal nodes
        if i == big:
            if tsum == 0:
                beta = tuple(b for b, _ in chosen)
                if beta != a and is_critical_pair(a, beta, m, n):
                    out.append(beta)
            return
        for bi, ri, t in cands[i]:
            nodes += 1
            if nodes > budget:
                raise SearchBudgetExceeded(budget)
            if not (tsum + t + suf_min[i + 1] <= 0 <= tsum + t + suf_max[i + 1]):
                continue
            ok = True
            for bj, rj in chosen:
                if (rj < ri) != (bj >= bi):
                    ok = False
                    break
            if not ok:
                continue
            chosen.append((bi, ri))
            dfs(i + 1, tsum + t)
            chosen.pop()

    dfs(0, 0)
    return out


# ------------------------------------------------------------------ big plan

class BigDiffPlan:
    """Data for the block-by-block Dunkl recursion on a partition:
    points of decrease, coefficients, group-algebra words, and the shifted
    compositions mu(j,k) and nu(k,j)."""

    def __init__(self, lam):
        lam = tuple(lam)
        n = len(lam)
        if not is_partition(lam):
            raise ShapeViolation("not a partition: %s" % (lam,))
        if comp_length(lam) == 0:
            raise ZeroPartition("zero partition has no plan")
        pts = [i for i in range(1, n + 1)
               if lam[i - 1] > (lam[i] if i < n else 0)]
        self.lam = lam
        self.n = n
        self.points = tuple(pts)
        self.M = len(pts)
        kappa = kappa_linear(1, 0)

        self.C = {}
        for j in range(1, self.M + 1):
            for k in range(j + 1, self.M + 1):
                ij, ik = pts[j - 1], pts[k - 1]
                self.C[(j, k)] = KappaRatio(
                    kappa, kappa_linear(ik - ij, lam[ij - 1] - lam[ik - 1]))

        # w_j = 1 + sum over i_j < r < i_{j+1} of (i_j, r)
        self.w = {}
        for j in range(1, self.M):
            ij, ij1 = pts[j - 1], pts[j]
            word = [(1, identity_perm(n))]
            for r in range(ij + 1, ij1):
                word.append((1, transposition(n, ij, r)))
            self.w[j] = tuple(word)

        # z_{jk} = (i_{k-1}, i_k) - C_{jk} w_{k-1}
        self.z = {}
        for (j, k), c in self.C.items():
            word = [(1, transposition(n, pts[k - 2], pts[k - 1]))]
            word.extend(word_scale(-c, self.w[k - 1]))
            self.z[(j, k)] = tuple(word)

        # nu-chain data: special step k = j-1, generic steps k <= j-2
        self.Cp = {}
        self.wp = {}
        for j in range(1, self.M + 1):
            ij = pts[j - 1]
            ijm1 = pts[j - 2] if j >= 2 else 0
            if ij > ijm1 + 1:
                self.Cp[(j - 1, j)] = KappaRatio(
                    kappa, kappa_linear(ij - ijm1 - 1, 1))
                word = [(1, identity_perm(n))]
                for r in range(ijm1 + 2, ij):
                    word.append((1, transposition(n, r, ij)))
                self.wp[(j - 1, j)] = tuple(word)
            for k in range(0, j - 1):
                ik = pts[k - 1] if k >= 1 else 0
                ik1 = pts[k]
                self.Cp[(k, j)] = KappaRatio(
                    kappa,
                    kappa_linear(ij - ik - 1, lam[ik1 - 1] - lam[ij - 1] + 1))
                word = [(1, identity_perm(n))]
                for r in range(ik + 2, ik1 + 1):
                    word.append((1, transposition(n, r, ik1 + 1)))
                self.wp[(k, j)] = tuple(word)

        self.mu = {}
        for j in range(1, self.M + 1):
            for k in range(j, self.M + 1):
                self.mu[(j, k)] = self._mu_shift(j, k)
        self.nu = {}
        for j in range(1, self.M + 1):
            for k in range(0, j + 1):
                self.nu[(k, j)] = self._nu_shift(k, j)

    def _mu_shift(self, j, k):
        lam, pts = self.lam, self.points
        ij, ik = pts[j - 1], pts[k - 1]
        out = list(lam)
        out[ik - 1] = lam[ij - 1]
        for i in range(ij, ik):
            out[i - 1] = lam[i]
        return tuple(out)

    def _nu_shift(self, k, j):
        lam, pts = self.lam, self.points
        ij = pts[j - 1]
        ik = pts[k - 1] if k >= 1 else 0
        out = list(lam)
        if k == j:
            out[ij - 1] = lam[ij - 1] - 1
            return tuple(out)
        out[ik] = lam[ij - 1] - 1
        for i in range(ik + 2, ij + 1):
            out[i - 1] = lam[i - 2]
        return tuple(out)

    def scalar(self, s):
        """(N + 1 - i_s)kappa + lam_{i_s} as a KappaPoly."""
        i_s = self.points[s - 1]
        return kappa_linear(self.n + 1 - i_s, self.lam[i_s - 1])


def bigdiff_plan(lam):
    return BigDiffPlan(lam)


# --------------------------------------------------------------- enumeration

def compositions_of(d, n):
    """All length-n compositions of d, descending lexicographic order."""
    if n == 0:
        if d == 0:
            yield ()
        return
    for first in range(d, -1, -1):
        for rest in compositions_of(d - first, n - 1):
            yield (first,) + rest


def partitions_of(d, max_len=None, max_part=None):
    """All partitions of d (no trailing zeros), descending lexicographic."""
    if max_len is None:
        max_len = d
    if max_part is None:
        max_part = d

    def rec(remaining, cap, slots):
        if remaining == 0:
            yield ()
            return
        if slots == 0:
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in rec(remaining - first, first, slots - 1):
                yield (first,) + rest

    yield from rec(d, max_part, max_len)


def rearrangements(parts, n):
    """Distinct rearrangements of the padded multiset, descending lex."""
    base = pad(tuple(parts), n)
    vals = sorted(set(base), reverse=True)
    mult = {v: base.count(v) for v in vals}
    out = []
    buf = []

    def rec(depth):
        if depth == n:
            out.append(tuple(buf))
            return
        for v in vals:
            if mult[v]:
                mult[v] -= 1
                buf.append(v)
                rec(depth + 1)
                buf.pop()
                mult[v] += 1

    rec(0)
    return out
