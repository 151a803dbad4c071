"""Nonsymmetric Jack polynomials over the generic parameter field.

Construction is a triangular joint-eigenvector solve against the Cherednik
operators; the transposition/cycle recurrences are implemented as separate
routes so the two can be cross-checked.  All arithmetic is exact.
"""

from fractions import Fraction
from math import factorial, gcd, lcm

from . import combinatorics as comb
from .exactarith import (
    KAPPA,
    KP_ONE,
    KP_ZERO,
    KappaPoly,
    KappaRatio,
    KR_ONE,
    KR_ZERO,
    _int_form,
    kappa_linear,
    poly_gcd,
    root_multiplicity,
)
from .multipoly import (
    MultiPoly,
    apply_perm,
    coeff,
    expand_in_basis,
    mp_zero,
    poly_add,
    poly_scale,
    poly_sub,
    word_apply,
)
from .operators import OperatorContext, cherednik_k_terms, dunkl


class NotDecreasingAt(ValueError):
    def __init__(self, i, msg=None):
        self.i = i
        super().__init__(msg or "entry %d is not greater than its successor" % i)


class PreconditionViolation(ValueError):
    pass


class FormulaMismatch(Exception):
    def __init__(self, msg, lhs=None, rhs=None, at=None):
        super().__init__(msg)
        self.lhs = lhs
        self.rhs = rhs
        self.at = at


class AmbientTooSmall(ValueError):
    pass


class SolveFailure(ArithmeticError):
    pass


# ------------------------------------------------------------ denominators

def denominator_profile(f, candidates):
    """The denominator factors kappa + c across the coefficients of f, each
    with its largest multiplicity in one coefficient.  They are sought
    among the linear candidates only, and SolveFailure is raised if those
    leave a denominator unfactored, so a factor is never mislabelled."""
    consts = {fac.monic().coeffs[0] for fac in candidates if fac.degree == 1}
    best = {}
    for den in {c.den for c in f.terms.values()}:
        for c in consts:
            mult = root_multiplicity(den, -c)
            if mult:
                den = den.exact_div(kappa_linear(1, c) ** mult)
                best[c] = max(best.get(c, 0), mult)
        if not den.is_one():
            raise SolveFailure(
                "denominator factor %s is not among the candidates" % den)
    return [(kappa_linear(1, c), best[c]) for c in sorted(best)]


def _integer_form(f):
    """F = L*D*f as {exponent: Z[kappa] int list, low degree first}.

    D is the lcm of the distinct coefficient denominators, so D*f lies in
    Q[kappa][x], and the integer L > 0 clears its rational denominators.
    """
    dens = {c.den for c in f.terms.values()}
    big_d = KP_ONE
    for den in dens:
        big_d = big_d * den.exact_div(poly_gcd(big_d, den))
    cofactor = {den: _int_form(big_d.exact_div(den)) for den in dens}
    scaled = {}
    for e, c in f.terms.items():
        num, dn = _int_form(c.num)
        qs, dq = cofactor[c.den]
        prod = []
        for s, x in enumerate(num):
            _axpy(prod, [0] * s + qs, x)
        scaled[e] = prod, dn * dq
    big_l = lcm(*(d for _, d in scaled.values()))
    return {e: [x * (big_l // d) for x in prod]
            for e, (prod, d) in scaled.items()}


# ------------------------------------------------------------------ JackPoly

class JackPoly:
    """A simultaneous Cherednik eigenvector tagged with its composition.

    basis "x": coefficient of x^alpha is 1 and the rest of the support is
    strictly below alpha in the triangle order.  basis "p": the same
    polynomial rescaled so its p-expansion is monic at p_alpha.
    denominator_factors lists (kappa + c, multiplicity) pairs, as
    denominator_profile gives them; None when they are not known.
    """

    __slots__ = ("alpha", "n", "basis", "poly", "denominator_factors")

    def __init__(self, alpha, n, basis, poly, denominator_factors=None,
                 check=True):
        if basis not in ("x", "p"):
            raise ValueError("basis must be 'x' or 'p', got %r" % (basis,))
        self.alpha = comb.pad(alpha, n)
        self.n = n
        self.basis = basis
        self.poly = poly
        self.denominator_factors = denominator_factors
        if check:
            self._assert_eigen()
            self.assert_shape()

    def _assert_eigen(self):
        """Assert U_i f = xi_i f for every i, exactly, over Z[kappa][x].

        F = L*D*f (see _integer_form) is f times a nonzero element of
        Q[kappa].  With U_i = U_i^0 + kappa*K_i and xi_i = a_i*kappa + b_i,
        the identity holds iff (U_i^0 - b_i - a_i*kappa) F + kappa*K_i F = 0,
        checked in one pass per operator with K_i x^e from the solve's memo.
        Its kappa^k coefficient is the layer equation
        (U_i^0 - b_i) F_k + (K_i - a_i) F_{k-1} = 0.
        """
        n = self.n
        OperatorContext(n).check(self.poly)
        big_f = _integer_form(self.poly)
        spec = comb.spectral_vector(self.alpha)
        for i in range(1, n + 1):
            a, b = spec[i - 1]
            # (U_i^0 - b_i - a_i*kappa) F, as U_i^0 x^e = (e_i + 1) x^e
            out = {e: _times(num, -a, e[i - 1] + 1 - b)
                   for e, num in big_f.items()}
            for e, num in big_f.items():
                shifted = [0] + num
                for e2, k in _k_monomial_terms(n, i, e).items():
                    _axpy(out.setdefault(e2, []), shifted, k)
            if any(any(v) for v in out.values()):
                raise SolveFailure(
                    "U_%d eigen-equation fails for alpha=%s"
                    % (i, self.alpha))

    def assert_shape(self):
        """Assert the support is alpha and exponents strictly below it, with
        1 at x^alpha in basis x and p_to_x_factor(alpha) in basis p."""
        lead = self.poly.terms.get(self.alpha)
        want = KR_ONE if self.basis == "x" else p_to_x_factor(self.alpha)
        if lead != want:
            raise SolveFailure("coefficient at x^alpha is %r" % (lead,))
        weight = comb.comp_weight(self.alpha)
        for e in self.poly.terms:
            if e != self.alpha and not (
                    sum(e) == weight and comb.triangle_greater(self.alpha, e)):
                raise SolveFailure("support %s not below %s" % (e, self.alpha))

    def degree(self):
        return comb.comp_weight(self.alpha)

    def to_json(self):
        body = self.poly.to_json()
        body["alpha"] = list(self.alpha)
        body["basis"] = self.basis
        body["denominator_factors"] = [
            {"factor": fac.to_json(), "multiplicity": mult}
            for fac, mult in self.denominator_factors
        ]
        return body

    @classmethod
    def from_json(cls, obj, check=False):
        poly = MultiPoly.from_json(obj)
        factors = [
            (KappaPoly.from_json(d["factor"]), d["multiplicity"])
            for d in obj["denominator_factors"]
        ]
        return cls(obj["alpha"], obj["N"], obj["basis"], poly,
                   denominator_factors=factors, check=check)

    def __repr__(self):
        return "JackPoly(alpha=%s, n=%d, basis=%r)" % (
            self.alpha, self.n, self.basis)


# ------------------------------------------------------------- construction

_KTERMS_CACHE = {}
_ZETA_CACHE = {}


def clear_caches():
    """Empty every module-level memo: each call after this starts cold."""
    _KTERMS_CACHE.clear()
    _ZETA_CACHE.clear()
    _PBASIS_CACHE.clear()


def _k_monomial_terms(n, i, exp):
    """Integer terms of K_i x^exp, where U_i = U_i^0 + kappa*K_i; cached."""
    got = _KTERMS_CACHE.get((n, i, exp))
    if got is None:
        got = _KTERMS_CACHE[n, i, exp] = {}
        cherednik_k_terms(n, i, {exp: 1}, got)
    return got


def _ambient(alpha, n):
    """alpha as an int tuple padded to n entries."""
    alpha = tuple(int(a) for a in alpha)
    if comb.comp_length(alpha) > n:
        raise AmbientTooSmall(
            "composition %s does not fit in %d variables" % (alpha, n))
    return comb.pad(alpha, n)


# Z[kappa] as int lists, low degree first.  A coefficient of zeta_x is
# (num, d0, facs): num / (d0 * prod f^m) with d0 a positive int and facs a
# sorted tuple of (f, m), f = (a, b) the primitive factor a*kappa + b, a > 0.

def _axpy(acc, num, k):
    """acc += k * num, in place."""
    acc.extend([0] * (len(num) - len(acc)))
    for j, x in enumerate(num):
        acc[j] += k * x


def _times(num, a, b):
    return [b * x + a * y for x, y in zip(num + [0], [0] + num)]


def _at_root(num, a, b):
    """a^deg * num(-b/a) by homogenised Horner: 0 iff a*kappa + b | num."""
    acc, apow = 0, 1
    for x in reversed(num):
        acc = acc * -b + x * apow
        apow *= a
    return acc


def _solve_step(groups, s, t):
    """kappa * (sum of groups) / (s*kappa + t), or None when it vanishes;
    groups maps (d0, facs) to a numerator.  The sum is taken over the lcm
    of the denominators; each factor is divided out as often as its root is
    a root of the numerator, and d0 is cancelled against the content."""
    d0 = lcm(*(gd for gd, _ in groups))
    top = {}
    for _, facs in groups:
        for f, m in facs:
            top[f] = max(top.get(f, 0), m)
    total = []
    for (gd, facs), num in groups.items():
        have = dict(facs)
        for (a, b), m in top.items():
            for _ in range(m - have.get((a, b), 0)):
                num = _times(num, a, b)
        _axpy(total, num, d0 // gd)
    while total and not total[-1]:
        total.pop()
    if not total:
        return None
    num, g = [0] + total, t
    if s:
        g = gcd(s, t) if s > 0 else -gcd(s, t)
        top[s // g, t // g] = top.get((s // g, t // g), 0) + 1
    num, d0 = [x if g > 0 else -x for x in num], d0 * abs(g)
    for (a, b), m in top.items():
        while m and not _at_root(num, a, b):
            quo, r = [0] * (len(num) - 1), num[-1]
            for j in range(len(num) - 2, -1, -1):
                quo[j] = r // a
                r = num[j] - b * quo[j]
            num, m = quo, m - 1
        top[a, b] = m
    g = gcd(d0, *num)
    return ([x // g for x in num], d0 // g,
            tuple(sorted((f, m) for f, m in top.items() if m)))


def zeta_x(alpha, n):
    """The x-monic simultaneous eigenvector for composition alpha.

    Triangular solve over the down-set of alpha: the coefficient at a lower
    beta is kappa * sum_gamma c_gamma [x^beta] K_i x^gamma over
    xi_i(alpha) - xi_i(beta), i the least index where the spectra differ.
    It runs over Z[kappa] with the linear denominators known (_solve_step),
    with no polynomial gcd; then every eigen-equation is asserted.
    """
    alpha = _ambient(alpha, n)
    key = (alpha, n, "x")
    got = _ZETA_CACHE.get(key)
    if got is not None:
        return got

    dset = comb.down_set(alpha)
    spec_a = comb.spectral_vector(alpha)
    pivots = {}
    for beta in dset[1:]:
        spec_b = comb.spectral_vector(beta)
        # xi_i = (N - rank_i)kappa + beta_i + 1, so spectra differ somewhere
        i = next(i for i in range(n) if spec_a[i] != spec_b[i])
        pivots[beta] = (i + 1, spec_a[i][0] - spec_b[i][0],
                        spec_a[i][1] - spec_b[i][1])
    used = {p[0] for p in pivots.values()}
    # pending[beta]: the contributions of the solved gammas, grouped by
    # denominator.  K_i x^gamma lies triangle-below gamma, so all of them
    # arrive before beta is reached in down-set order.
    pending = {}
    coeffs = {}
    for beta in dset:
        groups = pending.pop(beta, None)
        c = ([1], 1, ()) if beta == alpha else (
            groups and _solve_step(groups, *pivots[beta][1:]))
        if not c:
            continue
        coeffs[beta] = num, d0, facs = c
        for i in used:
            for b2, k in _k_monomial_terms(n, i, beta).items():
                if b2 != beta and pivots.get(b2, (0,))[0] == i:
                    _axpy(pending.setdefault(b2, {}).setdefault(
                        (d0, facs), []), num, k)

    terms, best, dens = {}, {}, {}
    for beta, (num, d0, facs) in coeffs.items():
        if facs not in dens:
            den = [1]
            for (a, b), m in facs:
                for _ in range(m):
                    den = _times(den, a, b)
                best[Fraction(b, a)] = max(best.get(Fraction(b, a), 0), m)
            dens[facs] = KappaPoly([Fraction(x, den[-1]) for x in den]), den[-1]
        den, lead = dens[facs]
        terms[beta] = KappaRatio(KappaPoly(
            [Fraction(x, d0 * lead) for x in num]), den, _canonical=True)
    zp = JackPoly(alpha, n, "x", MultiPoly(n, terms, field=None, _clean=True),
                  [(kappa_linear(1, c), best[c]) for c in sorted(best)])
    _ZETA_CACHE[key] = zp
    return zp


def p_to_x_factor(alpha):
    """Scalar carrying zeta^x to the p-monic normalization."""
    lam = comb.sort_desc(alpha)
    num = comb.hook_product(lam, kappa_linear(1, 1))
    den = comb.hook_product(lam, 1)
    fac = comb.e_factor(alpha, 1) * comb.e_factor(alpha, -1)
    return fac * KappaRatio(num, den)


def zeta_p(alpha, n):
    """The p-monic eigenvector: zeta_x rescaled by the hook/E factor.  The
    scalar is nonzero, so the eigen-equations certified on zeta_x hold here
    too and are not checked again."""
    alpha = _ambient(alpha, n)
    key = (alpha, n, "p")
    got = _ZETA_CACHE.get(key)
    if got is not None:
        return got
    zx = zeta_x(alpha, n)
    poly = poly_scale(zx.poly, p_to_x_factor(alpha))
    # the factor's denominators: hook lengths at t = 1 and E-factor pairs
    lam, rv = comb.sort_desc(alpha), comb.rank_vector(alpha)
    divided = [comb.hook_length(lam, 1, i, j) for i in range(1, n + 1)
               for j in range(1, lam[i - 1] + 1)]
    divided += [kappa_linear(rv[i] - rv[j], alpha[j] - alpha[i])
                for i in range(n) for j in range(i + 1, n)
                if alpha[i] < alpha[j]]
    zp = JackPoly(alpha, n, "p", poly, denominator_profile(
        poly, [fac for fac, _ in zx.denominator_factors] + divided),
        check=False)
    _ZETA_CACHE[key] = zp
    return zp


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


# ----------------------------------------------------------- step formulas

def z2sz_step(zeta, i):
    """Adjacent-transposition step from zeta_alpha to zeta_{(i,i+1)alpha},
    valid when alpha_i > alpha_{i+1}."""
    alpha, n = zeta.alpha, zeta.n
    if not 1 <= i < n:
        raise NotDecreasingAt(i, "position %d has no successor in %d" % (i, n))
    if alpha[i - 1] <= alpha[i]:
        raise NotDecreasingAt(i)
    d_r = comb.rank(alpha, i + 1) - comb.rank(alpha, i)
    diff = alpha[i - 1] - alpha[i]
    a = KAPPA / kappa_linear(d_r, diff)
    sigma = comb.transposition(n, i, i + 1)
    flipped = poly_sub(apply_perm(sigma, zeta.poly), poly_scale(zeta.poly, a))
    if zeta.basis == "x":
        # 1 - a^2 = ((d_r - 1)kappa + diff)((d_r + 1)kappa + diff) / denom^2,
        # nonzero as diff > 0
        flipped = poly_scale(flipped, (KR_ONE - a * a).reciprocal())
    divided = [kappa_linear(d_r + e, diff) for e in (-1, 0, 1)]
    return JackPoly(comb.perm_on_comp(sigma, alpha), n, zeta.basis, flipped,
                    denominator_profile(flipped, [
                        fac for fac, _ in zeta.denominator_factors] + divided))


def _check_window(zeta, i, s, name):
    if zeta.basis != "p":
        raise PreconditionViolation("%s needs the p-monic basis" % name)
    if not (1 <= i and i + s <= zeta.n and s >= 1):
        raise PreconditionViolation(
            "window [%d,%d] outside [1,%d]" % (i, i + s, zeta.n))
    a, b = zeta.alpha[i - 1], zeta.alpha[i + s - 1]
    if not a > b:
        raise PreconditionViolation(
            "alpha_%d=%d not greater than alpha_%d=%d" % (i, a, i + s, b))


def _check_block(alpha, lo, hi, value):
    for j in range(lo, hi):
        if alpha[j - 1] != value:
            raise PreconditionViolation(
                "alpha_%d=%d breaks the constant block of %d"
                % (j, alpha[j - 1], value))


def _move_step(zeta, i, s, swaps):
    """zeta_{(i,i+s)alpha} = ((i,i+s) - bracket * (1 + sum of swaps)) zeta."""
    alpha, n = zeta.alpha, zeta.n
    d_r = comb.rank(alpha, i + s) - comb.rank(alpha, i)
    divided = kappa_linear(d_r, alpha[i - 1] - alpha[i + s - 1])
    bracket = KAPPA / divided
    word = [(1, comb.identity_perm(n))]
    word.extend((1, comb.transposition(n, u, v)) for u, v in swaps)
    t = comb.transposition(n, i, i + s)
    moved = _word_step(t, bracket, word, zeta.poly)
    return JackPoly(comb.perm_on_comp(t, alpha), n, "p", moved,
                    denominator_profile(moved, [
                        fac for fac, _ in zeta.denominator_factors] + [divided]))


def movert_step(zeta, i, s):
    """Move a larger entry right across a block of equal smaller entries:
    alpha_i = a > b = alpha_{i+1} = ... = alpha_{i+s}.  p-monic only."""
    _check_window(zeta, i, s, "movert_step")
    _check_block(zeta.alpha, i + 1, i + s + 1, zeta.alpha[i + s - 1])
    return _move_step(zeta, i, s, [(i, i + j) for j in range(1, s)])


def movelt_step(zeta, i, s):
    """Move a smaller entry left across a block of equal larger entries:
    alpha_i = ... = alpha_{i+s-1} = b > a = alpha_{i+s}.  p-monic only."""
    _check_window(zeta, i, s, "movelt_step")
    _check_block(zeta.alpha, i + 1, i + s, zeta.alpha[i - 1])
    return _move_step(zeta, i, s, [(i + j, i + s) for j in range(1, s)])


# ------------------------------------------------- differentiation formulas

def dm_formula(zeta):
    """Closed form for D_m zeta_alpha, m = length of alpha (p-monic).

    Returns (scalar, rotated) with scalar = (N+1-r(alpha,m))kappa + alpha_m
    and rotated = the inverse cycle applied to zeta of the wrapped
    composition; asserts D_m zeta == scalar * rotated and D_i zeta == 0 for
    i > m before returning.
    """
    if zeta.basis != "p":
        raise PreconditionViolation("dm_formula needs the p-monic basis")
    alpha, n = zeta.alpha, zeta.n
    m = comb.comp_length(alpha)
    if m == 0:
        raise comb.ZeroComposition("zero composition has no last entry")
    scalar = KappaRatio(
        kappa_linear(n + 1 - comb.rank(alpha, m), alpha[m - 1]), KP_ONE)
    at = comb.tilde(alpha)
    zt = zeta_p(at, n)
    rotated = apply_perm(comb.invert(comb.theta_perm(n, m)), zt.poly)
    ctx = OperatorContext(n)
    lhs = dunkl(ctx, m, zeta.poly)
    rhs = poly_scale(rotated, scalar)
    if lhs != rhs:
        raise FormulaMismatch(
            "D_%d zeta_%s does not match the cycle formula" % (m, alpha),
            lhs=lhs, rhs=rhs)
    for i in range(m + 1, n + 1):
        if dunkl(ctx, i, zeta.poly):
            raise FormulaMismatch(
                "D_%d zeta_%s expected to vanish" % (i, alpha),
                lhs=dunkl(ctx, i, zeta.poly), rhs=mp_zero(n))
    # a permutation of zt: the same coefficients, so the same factors
    out = JackPoly(at, n, "p", rotated, zt.denominator_factors, check=False)
    return scalar, out


def _word_step(t, bracket, word, poly):
    """(t - bracket * word) poly: t a transposition, bracket in Q(kappa)
    and word a block word."""
    return poly_sub(apply_perm(t, poly),
                    poly_scale(word_apply(word, poly), bracket))


def bigdiff_verify(lam, n):
    """Execute the block recursion for D_{i_j} zeta_lambda and verify each
    stage against direct Dunkl application.  Returns a report dict."""
    lam = comb.pad(lam, n)
    plan = comb.bigdiff_plan(lam)
    pts = plan.points
    M = plan.M
    ctx = OperatorContext(n)
    z_lam = zeta_p(lam, n)

    report = {
        "lambda": list(lam),
        "N": n,
        "points_of_decrease": list(pts),
        "final_coefficients": [str(plan.scalar(s)) for s in range(1, M + 1)],
        "mu_chain": [],
        "nu_chain": [],
        "recursion": [],
    }

    # mu-chain: zeta_{mu(j,k+1)} = z_{j,k+1} zeta_{mu(j,k)}
    for j in range(1, M + 1):
        for k in range(j, M):
            lhs = zeta_p(plan.mu[(j, k + 1)], n).poly
            rhs = word_apply(plan.z[(j, k + 1)], zeta_p(plan.mu[(j, k)], n).poly)
            ok = lhs == rhs
            report["mu_chain"].append({"j": j, "k": k + 1, "ok": ok})
            if not ok:
                raise FormulaMismatch(
                    "mu-chain step (%d,%d) fails" % (j, k + 1),
                    lhs=lhs, rhs=rhs, at=j)

    # nu-chain: from zeta_{lambda - eps(i_j)} up to zeta_{nu(0,j)}, which must
    # match the wrapped composition from the mu-route
    for j in range(1, M + 1):
        if comb.tilde(plan.mu[(j, M)]) != plan.nu[(0, j)]:
            raise FormulaMismatch(
                "wrapped mu(%d,M) disagrees with nu(0,%d)" % (j, j), at=j)
        cur = zeta_p(plan.nu[(j, j)], n).poly
        steps = []
        if (j - 1, j) in plan.Cp:
            ijm1 = pts[j - 2] if j >= 2 else 0
            steps.append((comb.transposition(n, ijm1 + 1, pts[j - 1]),
                          plan.Cp[(j - 1, j)], plan.wp[(j - 1, j)]))
        for k in range(j - 2, -1, -1):
            ik = pts[k - 1] if k >= 1 else 0
            ik1 = pts[k]
            steps.append((comb.transposition(n, ik + 1, ik1 + 1),
                          plan.Cp[(k, j)], plan.wp[(k, j)]))
        expect = [plan.nu[(k, j)] for k in range(j - 1, -1, -1)]
        if (j - 1, j) not in plan.Cp:
            # adjacent blocks: nu(j-1,j) == nu(j,j), no step emitted
            expect = expect[1:]
            if plan.nu.get((j - 1, j)) != plan.nu[(j, j)]:
                raise FormulaMismatch(
                    "expected nu(%d,%d) == nu(%d,%d)" % (j - 1, j, j, j), at=j)
        for target, (t, bracket, word) in zip(expect, steps):
            cur = _word_step(t, bracket, word, cur)
            ok = cur == zeta_p(target, n).poly
            report["nu_chain"].append({"j": j, "target": list(target), "ok": ok})
            if not ok:
                raise FormulaMismatch(
                    "nu-chain step toward %s fails" % (target,), at=j)

    # block recursion, solved from j = M downward
    d_rec = {}
    for j in range(M, 0, -1):
        scalar, rotated = dm_formula(zeta_p(plan.mu[(j, M)], n))
        acc = poly_scale(rotated.poly, scalar)
        for r in range(M - 1, j - 1, -1):
            acc = apply_perm(comb.transposition(n, pts[r - 1], pts[r]), acc)
        for s in range(j + 1, M + 1):
            term = d_rec[s]
            for k in range(j + 1, s):
                term = word_apply(plan.z[(j, k)], term)
            term = word_apply(plan.w[s - 1], term)
            for r in range(s - 1, j - 1, -1):
                term = apply_perm(
                    comb.transposition(n, pts[r - 1], pts[r]), term)
            acc = poly_add(acc, poly_scale(term, plan.C[(j, s)]))
        d_rec[j] = acc
        direct = dunkl(ctx, pts[j - 1], z_lam.poly)
        ok = acc == direct
        report["recursion"].append({"j": j, "i": pts[j - 1], "ok": ok})
        if not ok:
            raise FormulaMismatch(
                "recursion for D_%d disagrees with direct application"
                % pts[j - 1], lhs=acc, rhs=direct, at=j)

    report["ok"] = True
    return report


def ks_coefficient_check(lam, n):
    """Compare the squarefree coefficient of zeta_lambda^x against
    |lam|! kappa^|lam| / h(lam, kappa+1)."""
    lam = tuple(int(a) for a in lam)
    if not comb.is_partition(lam):
        raise comb.ShapeViolation("not a partition: %s" % (lam,))
    m = comb.comp_length(lam)
    wt = comb.comp_weight(lam)
    if n < m + wt:
        raise AmbientTooSmall(
            "need at least %d variables for %s" % (m + wt, lam))
    z = zeta_x(lam, n)
    exp = (0,) * m + (1,) * wt + (0,) * (n - m - wt)
    lhs = coeff(z.poly, exp)
    num = KappaPoly((0,) * wt + (Fraction(factorial(wt)),))
    rhs = KappaRatio(num, comb.hook_product(lam, kappa_linear(1, 1)))
    return lhs == rhs


# --------------------------------------------------------- p-basis expansion

_PBASIS_CACHE = {}


def _p_basis_cached(gamma, n):
    if (gamma, n) not in _PBASIS_CACHE:
        _PBASIS_CACHE[gamma, n] = p_basis(gamma, n)
    return _PBASIS_CACHE[gamma, n]


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
    sol, = expand_in_basis([_p_basis_cached(g, n) for g in gammas], [f])
    return {g: v for g, v in zip(gammas, sol) if v}


def difp_support_check(alpha, n):
    """Expand D_m p_alpha in the p-basis and check the support law:
    the coefficient at alpha - eps(m) is (N+1-r(alpha,m))kappa + alpha_m,
    and every other contributing index gamma has support in [1,m] with
    alpha strictly below gamma + eps(m) in the triangle order."""
    alpha = comb.pad(tuple(int(a) for a in alpha), n)
    m = comb.comp_length(alpha)
    if m == 0:
        raise comb.ZeroComposition("zero composition not allowed")
    ctx = OperatorContext(n)
    dp = dunkl(ctx, m, _p_basis_cached(alpha, n))
    expansion = p_expand(dp, n)
    target = comb.comp_sub(alpha, comb.epsilon(m, n))
    diag = expansion.get(target, KR_ZERO)
    want = KR_ZERO + kappa_linear(n + 1 - comb.rank(alpha, m), alpha[m - 1])
    if diag != want:
        return False
    for gamma, val in expansion.items():
        if gamma == target:
            continue
        if comb.comp_length(gamma) > m:
            return False
        lifted = tuple(g + (1 if i == m - 1 else 0)
                       for i, g in enumerate(gamma))
        if not comb.triangle_greater(lifted, alpha):
            return False
    return True
