"""Nonsymmetric Jack polynomials over the generic parameter field.

zeta_x is a triangular joint-eigenvector solve against the Cherednik
operators; the step formulas derive zeta_{t alpha} from zeta_alpha by the
Knop-Sahi intertwiner.  All arithmetic is exact.

The integer form.  A JackPoly holds N over d: nums maps each exponent e
to N_e in Z[kappa] (an int list, low degree first), den = (d0, facs) is
d = d0 prod f^m, f = (a, b) the primitive a*kappa + b with a > 0, and the
coefficient at x^e is N_e / d.  Knop and Sahi (Invent. Math. 128, 1997)
prove d_alpha E_alpha integral, d_alpha = prod over the boxes s of alpha
of (a(s) + 1) alpha + l(s) + 1 with their leg for compositions.  With
alpha = 1/kappa a box gives (l(s) + 1) kappa + a(s) + 1 (_ks_denominator)
and N = d_alpha zeta_alpha is in Z[kappa][x]; with L, P and Q as below,
d_{s_i alpha} = d_alpha Q / L (tests/test_jack.py checks both on every
small composition).  So the solve divides each kappa S by its pivot
factor exactly, and the x-basis step is N' = (L s_i N - kappa N) / P over
d_alpha Q / L.  Each division is by _divide_out or an integer divmod, and
a remainder raises SolveFailure.  build_module divides out of
zeta_lambda, once (cancel_common), each factor C of d_lambda that
divides all of N and is no step's L or P.  A step from N = N_alpha / C
then still divides exactly: P N'_alpha = C (L s_i N - kappa N) for the
integral N'_alpha = d_{s_i alpha} zeta_{s_i alpha}, and C is primitive
and prime to P, so C | N'_alpha by Gauss's lemma.  So every x-basis
JackPoly is over d_alpha or over d_alpha / C, and zeta_den gives the den
of zeta_alpha in either basis from alpha alone: a cache entry stores
only N.  The reduced factored form of each coefficient (JackPoly.coeffs)
is built only where it is printed or compared; denominator_factors is
read off N by a witness scan, and specialize divides out only the factor
with root kappa0.

The solve.  zeta_x finds N_beta row by row in down-set order.  With i
the pivot of beta, the least index at which xi(beta) differs from
xi(alpha), the U_i eigen-equation at x^beta is (xi_i(alpha) - xi_i(beta))
N_beta = kappa S_beta, S_beta the sum over the solved gamma of
[x^beta] K_i x^gamma N_gamma.  So a solved beta sends K_i x^beta only to
later rows of pivot i, and the prefix lemma says which terms can reach
one (_row_terms):

- A row b2 has pivot i only if b2_k = alpha_k for every k < i, because
  the constant term of xi_k(b2) is b2_k + 1.
- A term of K_i x^beta differs from beta in position i and in at most one
  other position j: it comes from a pair difference of x_i x^beta in
  positions i and j, or from the swap (j, i) with j < i.  Let
  D = {k < i : beta_k != alpha_k}.
- If |D| >= 2, some k in D is not j, and b2_k = beta_k != alpha_k: no
  term reaches a pivot-i row.  D only grows with i, so the same holds for
  every larger i, and the loop over the increasing i stops.
- If D = {k}, then j = k.  The pair difference with a = beta_i + 1 and
  b = beta_k puts a + b - 1 - u at k for u from min(a, b) to max(a, b) - 1,
  so it reaches b2_k = alpha_k at the one u = a + b - 1 - alpha_k, if that
  lies in the range.  The swap (k, i) puts beta_i at k, so it reaches one
  only when beta_i = alpha_k.  The two may land on the same b2 and merge.
- If D is empty, a term with j < i moves beta_j = alpha_j, unless it is
  x^beta itself (u = beta_i, or the swap with beta_j = beta_i), which is
  never a target.  So only the pair differences with j > i are made, by
  the one kernel over that range of j.
- The ranks must agree too, so each term made still passes the pivot test.

Each pending S_beta is held as one integer S_beta(X), X = 2**B, with a
bound M on its coefficients: a contribution k N_gamma adds |k| max
|N_gamma| to M.  While M < X / 2 every coefficient lies strictly between
-X/2 and X/2, so S_beta's coefficients are the balanced base-X digits of
S_beta(X) (_unpack), by induction from the lowest: each is the residue
of the rest modulo X in [-X/2, X/2).  Before an update would take a
bound to X / 2, B is widened and every pending sum re-packed from its
exact digits (_widened).  A wrong digit could only make a pivot division
inexact or fail the eigen check: a refusal, never a wrong zeta.

Certificates.  A solved zeta, a cache load (cli._load_entry), movert_step,
movelt_step and every step in basis p are certified by their N - 1
eigen-equations (JackPoly._assert_eigen).  The adjacent step in basis x,
the one build_module takes, derives zeta' = N' / d' from a certified
zeta = N / d = zeta_alpha with alpha_i > alpha_{i+1}.  It is certified by
its lead N'_{s_i alpha} = d' and the intertwiner identity
(_assert_intertwined)

    P N' = L s_i N - kappa N,

where L = xi_i(alpha) - xi_{i+1}(alpha) = d_r kappa + delta,
P = L - kappa and Q = L + kappa.  Proof that these certify
zeta' = zeta_{s_i alpha}:

- The Cherednik operators satisfy s_i U_i - U_{i+1} s_i = kappa, and
  s_i U_j = U_j s_i for j not in {i, i+1} (tests/test_operators.py checks
  both over Q(kappa)).  Conjugating the first by s_i gives
  U_i s_i - s_i U_{i+1} = kappa.
- Let a = kappa / L and g = s_i zeta - a zeta.  Since aL = kappa,

      U_{i+1} g = s_i U_i zeta - kappa zeta - a xi_{i+1} zeta
                = xi_i s_i zeta - a xi_i zeta = xi_i g,
      U_i g     = s_i U_{i+1} zeta + kappa zeta - a xi_i zeta
                = xi_{i+1} s_i zeta - a xi_{i+1} zeta = xi_{i+1} g,

  and U_j g = xi_j g for every other j.  Swapping alpha_i > alpha_{i+1}
  swaps their ranks, so g has the spectrum of s_i alpha.
- At generic kappa distinct compositions have distinct spectra, and the
  zeta_beta of degree |alpha| are a basis of eigenvectors, so that joint
  eigenspace is the line of zeta_{s_i alpha}.
- L s_i N - kappa N = d L g, so the identity gives zeta' = c zeta_{s_i
  alpha} for a scalar c, the coefficient of zeta' at x^{s_i alpha}, which
  the lead makes 1.  So zeta' has the shape of zeta_{s_i alpha} too, and
  its support is not scanned.

So zeta' = zeta_{s_i alpha} with no eigen-equation of its own and no K_i
term.  The identity is checked Kronecker-packed, as the eigen check is.
No memo is kept across calls apart from the zeta memo (_ZETA_CACHE) that
clear_caches empties.
"""

from fractions import Fraction
from itertools import islice
from math import factorial, gcd, prod

from . import combinatorics as comb
from .exactarith import (KP_ONE, KappaPoly, KappaRatio, PoleError, _at_root,
                         _axpy, _divide_out, _times, kappa_linear, rat_to_str,
                         ratio_str)
from .multipoly import (MultiPoly, apply_perm, coeff, mp_zero, perm_terms,
                        poly_add, poly_scale, poly_sub, support_order,
                        word_apply)
from .operators import (OperatorContext, _pair_difference_terms,
                        cherednik_k_terms, dunkl, swap_terms)


class NotDecreasingAt(ValueError):
    def __init__(self, i, msg=None):
        self.i = i
        super().__init__(msg or "entry %d is not greater than its successor" % i)


class PreconditionViolation(comb.UsageError, ValueError):
    pass


class FormulaMismatch(Exception):
    def __init__(self, msg, lhs=None, rhs=None, at=None):
        super().__init__(msg)
        self.lhs = lhs
        self.rhs = rhs
        self.at = at


class AmbientTooSmall(comb.UsageError, ValueError):
    pass


class SolveFailure(ArithmeticError):
    pass


# -------------------------------------------------------------- integer forms

def _split(a, b):
    """(g, f) with a*kappa + b = g * f: f the primitive factor with a
    positive leading coefficient, or f None and g = b when a is 0."""
    if not a:
        return b, None
    g = gcd(a, b) if a > 0 else -gcd(a, b)
    return g, (a // g, b // g)


def _rescaled(den, ups, downs):
    """The denominator den times the linear factors ups over those in
    downs, int pairs (a, b) for a*kappa + b; SolveFailure when one of
    downs does not divide it."""
    d0, top = den[0], dict(den[1])
    for (a, b), up in [(f, 1) for f in ups] + [(f, 0) for f in downs]:
        g, f = _split(a, b)
        if not up and (d0 % g or f and not top.get(f)):
            raise SolveFailure("%d*k + %d does not divide the denominator"
                               % (a, b))
        d0 = d0 * g if up else d0 // g
        if f:
            top[f] = top.get(f, 0) + (1 if up else -1)
    return d0, tuple(sorted((f, m) for f, m in top.items() if m))


def _ks_denominator(alpha):
    """d_alpha, the product over the boxes (i, j) of alpha of
    (l + 1) kappa + a + 1 with a = alpha_i - j and l the number of k > i
    with j <= alpha_k <= alpha_i and of k < i with j <= alpha_k + 1 <=
    alpha_i."""
    boxes = [(sum(j <= ak <= ai for ak in alpha[i + 1:])
              + sum(j <= ak + 1 <= ai for ak in alpha[:i]) + 1, ai - j + 1)
             for i, ai in enumerate(alpha) for j in range(1, ai + 1)]
    return _rescaled((1, ()), boxes, [])


def _times_all(num, pairs):
    """num times every a*kappa + b in pairs."""
    for a, b in pairs:
        num = _times(num, a, b) if a else [b * x for x in num]
    return num


def _den_expansion(facs, d0=1):
    """d0 * prod f^m over the factor tuple facs, as a Z[kappa] int list;
    its leading coefficient is d0 * prod a^m."""
    return _times_all([d0], [f for f, m in facs for _ in range(m)])


def _divided(num, a, b):
    """num / (a*kappa + b) in Z[kappa], by an integer divmod and
    _divide_out; SolveFailure when it does not divide."""
    g, f = _split(a, b)
    exact = True
    if g != 1:
        num, rest = zip(*(divmod(x, g) for x in num))
        num, exact = list(num), not any(rest)
    if exact and f:
        num, exact = _divide_out(num, *f, 1)
    if not exact:
        raise SolveFailure("%d*k + %d does not divide a numerator" % (a, b))
    return num


def _reduced(num, d0, top):
    """The factored form of num / (d0 * prod f^m over top), num nonzero
    and d0 a nonzero int: each factor is divided out of num as often as
    its root is a root of num, and d0 is cancelled against the content."""
    for f, m in top.items():
        num, gone = _divide_out(num, *f, m)
        top[f] = m - gone
    g = gcd(d0, *num) if d0 > 0 else -gcd(d0, *num)
    return ([x // g for x in num], d0 // g,
            tuple(sorted((f, m) for f, m in top.items() if m)))


def _norm(num):
    """The 1-norm of a Z[kappa] int list: the sum of |coefficients|."""
    return sum(map(abs, num))


def _shift_bits(big_f, alpha):
    """B such that every coefficient of the eigen residual of F = big_f
    (see JackPoly._assert_eigen) is below 2**B in absolute value.

    With H the largest |coefficient| of F, T its number of terms and d the
    largest of |alpha| and the degrees of its support, a residual
    coefficient is (e_i + 1 - b_i) h - a_i h' + sum_g k_g h_g with every h
    at most H, |e_i + 1 - b_i| <= d and 0 <= a_i < N.  K_i x^g has mass at
    most (N-1)(d+2): (N-1) pair differences of at most d+1 unit terms and
    at most N-1 transpositions.  So the residual is at most
    H (d + N + T N (d+2)) < 2**(B-1)."""
    n = len(alpha)
    d = max([sum(alpha)] + [sum(e) for e in big_f])
    h = max((abs(x) for num in big_f.values() for x in num), default=0)
    return (h * (d + n + len(big_f) * n * (d + 2))).bit_length() + 1


def _pack(num, bits):
    """num(2**bits), by Horner with shifts."""
    acc = 0
    for x in reversed(num):
        acc = (acc << bits) + x
    return acc


# ------------------------------------------------------------------ JackPoly

def factors_json(factors):
    """The JSON list of (factor, multiplicity) denominator factors."""
    return [{"factor": fac.to_json(), "multiplicity": mult}
            for fac, mult in factors]


class JackPoly:
    """A simultaneous Cherednik eigenvector tagged with its composition.

    basis "x": coefficient of x^alpha is 1 and the rest of the support is
    strictly below alpha in the triangle order.  basis "p": the same
    polynomial rescaled so its p-expansion is monic at p_alpha.  It is
    held as its integer form nums over den (module docstring).
    """

    __slots__ = ("alpha", "n", "basis", "nums", "den", "_coeffs",
                 "_factors", "_poly")

    def __init__(self, alpha, n, basis, nums, den, check=True):
        if basis not in ("x", "p"):
            raise ValueError("basis must be 'x' or 'p', got %r" % (basis,))
        self.alpha = comb.pad(alpha, n)
        self.n = n
        self.basis = basis
        self.nums = nums
        self.den = den
        self._coeffs = self._factors = self._poly = None
        if check:
            self.assert_shape()
            self._assert_eigen()

    @property
    def coeffs(self):
        """{e: the reduced factored form of the coefficient at x^e}."""
        if self._coeffs is None:
            d0, facs = self.den
            self._coeffs = {e: _reduced(num, d0, dict(facs))
                            for e, num in self.nums.items()}
        return self._coeffs

    @property
    def denominator_factors(self):
        """The factors kappa + c of the reduced denominators with their
        largest multiplicities, ordered by c: M less the least multiplicity
        in the numerators for f^M in den, scanned from the last numerator
        until a witness that f does not divide."""
        if self._factors is None:
            roots = {}
            for f, m in self.den[1]:
                least = m
                for num in reversed(self.nums.values()):
                    least = _divide_out(num, *f, least)[1]
                    if not least:
                        break
                if m > least:
                    roots[Fraction(f[1], f[0])] = m - least
            self._factors = [(kappa_linear(1, c), roots[c])
                             for c in sorted(roots)]
        return self._factors

    @property
    def poly(self):
        """The Q(kappa) MultiPoly of coeffs, built when first read."""
        if self._poly is None:
            dens, terms = {}, {}
            for e, (num, d0, facs) in self.coeffs.items():
                got = dens.get(facs)
                if got is None:
                    den = _den_expansion(facs)
                    got = dens[facs] = KappaPoly(
                        [Fraction(x, den[-1]) for x in den]), den[-1]
                den, lead = got
                # the form is reduced, so num over the monic den is too
                terms[e] = KappaRatio(KappaPoly(
                    [Fraction(x, d0 * lead) for x in num]), den,
                    _canonical=True)
            self._poly = MultiPoly(self.n, terms, _clean=True)
        return self._poly

    def _assert_eigen(self):
        """Assert U_i f = xi_i f for every i, exactly, by one big-integer
        multiply-add per term of K_i, for i < N only.

        U_N is implied once f is homogeneous of degree d = |alpha|, which is
        checked first.  Summed over i, the pair differences of K_i and K_j
        give 1 + (ij) for each pair i < j, and -sum_{j<i} (j,i) takes the
        transpositions back, so sum_i K_i = C(N,2) Id; and
        sum_i U_i^0 = N + d on degree d.  So sum_i U_i = N + d + kappa*C(N,2)
        on f.  The same holds for sum_i xi_i(alpha) = sum_i (alpha_i + 1) +
        kappa * sum_i (N - r(alpha, i)), the ranks a permutation of 1..N.
        Hence U_N f = xi_N f follows from the other N - 1 equations.

        The integer form F = nums is f times the nonzero den.  With
        U_i = U_i^0 + kappa*K_i, U_i^0 x^e = (e_i + 1) x^e and
        xi_i = a_i*kappa + b_i, the identity holds iff the residual
        R = (U_i^0 - b_i - a_i*kappa) F + kappa*K_i F is 0.  It is checked
        at kappa = X = 2**B (Kronecker substitution): with P_g = F_g(X),
        K_i applied once to the packed polynomial sum_g P_g x^g by
        cherednik_k_terms, and k_g the coefficient of x^e in K_i x^g,

            R_e(X) = (e_i + 1 - b_i) P_e + X (sum_g k_g P_g - a_i P_e).

        The check is exact, not modular.  Every coefficient of R_e lies
        below X in absolute value (_shift_bits).  If R_e != 0 and r_j is
        its lowest nonzero coefficient, then R_e(X) = r_j X^j modulo
        X^(j+1) with 0 < |r_j| < X, so X^(j+1) does not divide R_e(X) and
        R_e(X) != 0.  Hence R_e(X) = 0 iff R_e = 0.
        """
        n = self.n
        big_f = self.nums
        weight = comb.comp_weight(self.alpha)
        if any(sum(e) != weight for e in big_f):
            raise SolveFailure("zeta_%s is not homogeneous" % (self.alpha,))
        bits = _shift_bits(big_f, self.alpha)
        packed = {e: _pack(num, bits) for e, num in big_f.items()}
        spec = comb.spectral_vector(self.alpha)
        for i in range(1, n):
            a, b = spec[i - 1]
            acc = {}
            cherednik_k_terms(n, i, packed, acc)
            if any((e[i - 1] + 1 - b) * p + ((acc.pop(e, 0) - a * p) << bits)
                   for e, p in packed.items()) or acc:
                raise SolveFailure(
                    "U_%d eigen-equation fails for alpha=%s"
                    % (i, self.alpha))

    def _assert_lead(self):
        """Assert nums[alpha] / den is 1 in basis x and p_to_x_factor(alpha)
        = prod tops / prod bottoms in basis p."""
        d0, facs = self.den
        got, want = self.nums.get(self.alpha), _den_expansion(facs, d0)
        if got and self.basis == "p":
            tops, bottoms = p_to_x_factors(self.alpha)
            got, want = _times_all(got, bottoms), _times_all(want, tops)
        if got != want:
            raise SolveFailure("coefficient of zeta_%s at its own x^alpha "
                               "is not %s" % (self.alpha, "1" if self.basis
                                              == "x" else "p_to_x_factor"))

    def assert_shape(self):
        """Assert the support is alpha and exponents strictly below it, with
        1 at x^alpha in basis x and p_to_x_factor(alpha) in basis p."""
        self._assert_lead()
        weight = comb.comp_weight(self.alpha)
        for e in self.nums:
            if e != self.alpha and not (
                    sum(e) == weight and comb.triangle_greater(self.alpha, e)):
                raise SolveFailure("support %s not below %s" % (e, self.alpha))

    def specialize(self, kappa0):
        """The MultiPoly at kappa = kappa0 = p/q in lowest terms.

        f0 = q*kappa - p, the one primitive factor with root kappa0, is
        divided out of every numerator as often as it divides den, or
        PoleError.  A numerator n of degree s then takes the value
        q^(T-s) _at_root(n, q, -p) / D, with T the degree of den less f0
        and D = d0 * prod (a*p + b*q)^m over the other factors."""
        kappa0 = Fraction(kappa0)
        p, q = kappa0.numerator, kappa0.denominator
        d0, facs = self.den
        pole = dict(facs).get((q, -p), 0)
        at = d0 * prod((a * p + b * q) ** m for (a, b), m in facs
                       if (a, b) != (q, -p))
        deg = sum(m for _, m in facs) - pole
        terms = {}
        for e, num in self.nums.items():
            if pole:
                num, m = _divide_out(num, q, -p, pole)
                if m < pole:
                    raise PoleError("denominator factor %s vanishes at "
                                    "kappa=%s" % (kappa_linear(q, -p).monic(),
                                                  rat_to_str(kappa0)),
                                    at=kappa0)
            v = _at_root(num, q, -p)
            if v:
                s = deg - len(num) + 1
                terms[e] = (Fraction(v * q ** s, at) if s >= 0 else
                            Fraction(v, at * q ** -s))
        return MultiPoly(self.n, terms, field=kappa0, _clean=True)

    def to_json(self):
        """The JSON of .poly with alpha, basis and denominator factors,
        written from coeffs: each distinct factor tuple is expanded once
        to its monic denominator (_den_expansion, leading coefficient
        lead), and each numerator is num / (d0 * lead)."""
        dens, terms = {}, []
        for e in support_order(self.coeffs):
            num, d0, facs = self.coeffs[e]
            got = dens.get(facs)
            if got is None:
                den = _den_expansion(facs)
                got = dens[facs] = [ratio_str(x, den[-1])
                                    for x in den], den[-1]
            den, lead = got
            terms.append({"exp": list(e), "coeff": {
                "num": [ratio_str(x, d0 * lead) for x in num],
                "den": list(den)}})
        return {"N": self.n, "field": "Q(k)", "terms": terms,
                "alpha": list(self.alpha), "basis": self.basis,
                "denominator_factors": factors_json(self.denominator_factors)}

    def __repr__(self):
        return "JackPoly(alpha=%s, n=%d, basis=%r)" % (
            self.alpha, self.n, self.basis)


# ------------------------------------------------------------- construction

_ZETA_CACHE = {}


def clear_caches():
    """Empty every module-level memo: each call after this starts cold."""
    _ZETA_CACHE.clear()


def _ambient(alpha, n):
    """alpha as an int tuple padded to n entries."""
    alpha = tuple(int(a) for a in alpha)
    if comb.comp_length(alpha) > n:
        raise AmbientTooSmall(
            "composition %s does not fit in %d variables" % (alpha, n))
    return comb.pad(alpha, n)


def _pivot(alpha, spec_a, beta):
    """(i, a, b): i the pivot of the row beta != alpha, found by comparing
    rank and value index by index, and xi_i(alpha) - xi_i(beta) =
    a*kappa + b, xi(alpha) = spec_a."""
    for i0, (x, y) in enumerate(zip(alpha, beta)):
        r = sum(z > y for z in beta) + sum(z == y for z in beta[:i0 + 1])
        if x != y or spec_a[i0][0] != len(beta) - r:
            return i0 + 1, spec_a[i0][0] - len(beta) + r, x - y


def _row_terms(alpha, beta, used, pivots):
    """{b2: k} for the terms k x^b2 of K_i x^beta, i in the increasing
    used, that lie on a row b2 != beta with pivot i: only those the prefix
    lemma (module docstring) lets reach such a row are made."""
    n = len(alpha)
    first, second = ([k for k, (x, y) in enumerate(zip(alpha, beta)) if x != y]
                     + [n, n])[:2]
    out = {}
    for i in used:
        i0 = i - 1
        if i0 > second:
            break
        terms = {}
        if i0 <= first:
            _pair_difference_terms({beta: 1}, i0, 1, terms, range(i, n))
        else:
            a, b, want = beta[i0] + 1, beta[first], alpha[first]
            u = a + b - 1 - want
            e = list(beta)
            if min(a, b) <= u < max(a, b):
                e[i0], e[first] = u, want
                terms[tuple(e)] = 1 if a > b else -1
            if beta[i0] == want:
                e[i0], e[first] = b, want
                e = tuple(e)
                terms[e] = terms.get(e, 0) - 1
        for b2, k in terms.items():
            if k and b2 != beta and pivots.get(b2, (0,))[0] == i:
                out[b2] = k
    return out


def _unpack(acc, bits):
    """The balanced base-2**bits digits of acc, low first: the int list
    num with _pack(num, bits) = acc and every |digit| <= 2**(bits-1)."""
    half, mask, num = 1 << (bits - 1), (1 << bits) - 1, []
    while acc:
        x = acc & mask
        if x >= half:
            x -= 1 << bits
        num.append(x)
        acc = (acc - x) >> bits
    return num


def _widened(pending, bits, bound):
    """A width above bound's bits, every pending sum re-packed to it from
    its exact digits at the width bits."""
    wide = max(2 * bits, bound.bit_length() + 1)
    for entry in pending.values():
        entry[0] = _pack(_unpack(entry[0], bits), wide)
    return wide


# the initial width of the packed pending sums of zeta_x
_PACK_BITS = 64


def zeta_x(alpha, n):
    """The x-monic simultaneous eigenvector for composition alpha.

    Triangular solve over the down-set of alpha: the coefficient at a lower
    beta is kappa * sum_gamma c_gamma [x^beta] K_i x^gamma over
    xi_i(alpha) - xi_i(beta), i the pivot of beta, the least index where
    the spectra differ.  It runs on the integer form N over d_alpha
    (module docstring).  Each solved gamma adds its terms on later rows
    of the same pivot (_row_terms, by the prefix lemma) to one packed
    integer per row, with a bound on its digits that widens the packing
    before they could overflow; then the shape and every eigen-equation
    are asserted on N.
    """
    alpha = _ambient(alpha, n)
    key = (alpha, n, "x")
    got = _ZETA_CACHE.get(key)
    if got is not None:
        return got

    dset = comb.down_set(alpha)
    spec_a = comb.spectral_vector(alpha)
    pivots = {beta: _pivot(alpha, spec_a, beta) for beta in dset[1:]}
    used = sorted({p[0] for p in pivots.values()})
    # pending[beta]: [S(2**bits), the bound] for the sum S of the solved
    # gammas' contributions.  K_i x^gamma lies triangle-below gamma, so
    # all of them arrive before beta is reached in down-set order.
    den = _ks_denominator(alpha)
    bits = _PACK_BITS
    pending = {}
    nums = {}
    for beta in dset:
        if beta == alpha:
            num = _den_expansion(den[1], den[0])
        else:
            acc = pending.pop(beta, (0,))[0]
            if not acc:
                continue
            num = _divided([0] + _unpack(acc, bits), *pivots[beta][1:])
        nums[beta] = num
        h, packed = max(map(abs, num)), _pack(num, bits)
        for b2, k in _row_terms(alpha, beta, used, pivots).items():
            entry = pending.setdefault(b2, [0, 0])
            entry[1] += abs(k) * h
            if entry[1] >= 1 << (bits - 1):
                bits = _widened(pending, bits, entry[1])
                packed = _pack(num, bits)
            entry[0] += k * packed

    zp = JackPoly(alpha, n, "x", nums, den)
    _ZETA_CACHE[key] = zp
    return zp


def cancel_common(zeta, steps):
    """zeta with each factor f of den that divides every numerator divided
    out of them and of den, as often as it does, unless f is a factor of
    the L or P of one of the steps (alpha, i); the integer part stays
    (module docstring).  Each f is divided out in place, last entry first,
    by the power that every entry so far admits; a lower one multiplies
    the earlier entries back.  So only one quotient is held at a time."""
    keep = {_split(*pair)[1] for alpha, i in steps
            for pair in _intertwiner(alpha, i, i + 1)[:2]}
    nums, (d0, facs) = dict(zeta.nums), zeta.den
    left = []
    for f, m in facs:
        k = 0 if f in keep else m
        for done, e in enumerate(reversed(nums)):
            if not k:
                break
            quo, j = _divide_out(nums[e], *f, k)
            if j < k:
                for e2 in islice(reversed(nums), done):
                    nums[e2] = _times_all(nums[e2], [f] * (k - j))
                k = j
            nums[e] = quo
        if m > k:
            left.append((f, m - k))
    return JackPoly(zeta.alpha, zeta.n, zeta.basis, nums, (d0, tuple(left)),
                    check=False)


def p_to_x_factors(alpha):
    """The linear factors of p_to_x_factor(alpha) as (numerators,
    denominators), int pairs (a, b) for a*kappa + b: the hook lengths
    h(lam, kappa+1) over h(lam, 1), and the E-factors of sign +1 and -1."""
    hooks = [(leg, arm + 1) for leg, arm in comb.hooks(comb.sort_desc(alpha))]
    (pn, pd), (mn, md) = comb.e_factors(alpha, 1), comb.e_factors(alpha, -1)
    return [(a + 1, b) for a, b in hooks] + pn + mn, hooks + pd + md


def p_to_x_factor(alpha):
    """Scalar carrying zeta^x to the p-monic normalization."""
    return KappaRatio.from_factors(*p_to_x_factors(alpha))


def zeta_den(alpha, basis):
    """The den of zeta_alpha in basis: d_alpha (_ks_denominator) in basis
    x, and d_alpha times the bottoms of p_to_x_factors(alpha) in basis p."""
    den = _ks_denominator(alpha)
    if basis == "p":
        den = _rescaled(den, p_to_x_factors(alpha)[1], [])
    return den


def zeta_p(alpha, n):
    """The p-monic eigenvector: zeta_x times the hook/E factor, its
    numerators times the factor's numerators over zeta_den(alpha, "p").
    The scalar is nonzero, so the eigen-equations certified on zeta_x hold
    here too and are not checked again."""
    alpha = _ambient(alpha, n)
    key = (alpha, n, "p")
    got = _ZETA_CACHE.get(key)
    if got is not None:
        return got
    tops = p_to_x_factors(alpha)[0]
    zx = zeta_x(alpha, n)
    zp = JackPoly(alpha, n, "p", {e: _times_all(num, tops)
                                  for e, num in zx.nums.items()},
                  zeta_den(alpha, "p"), check=False)
    _ZETA_CACHE[key] = zp
    return zp


# ----------------------------------------------------------- step formulas

def z2sz_step(zeta, i):
    """Adjacent-transposition step from zeta_alpha to zeta_{(i,i+1)alpha},
    valid when alpha_i > alpha_{i+1}."""
    alpha, n = zeta.alpha, zeta.n
    if not 1 <= i < n:
        raise NotDecreasingAt(i, "position %d has no successor in %d" % (i, n))
    if alpha[i - 1] <= alpha[i]:
        raise NotDecreasingAt(i)
    return _step(zeta, i, i + 1, [])


def _intertwiner(alpha, i, j):
    """(L, P, Q) as int pairs (a, b) for a*kappa + b:
    L = xi_i(alpha) - xi_j(alpha) = d_r kappa + delta with
    d_r = r(alpha, j) - r(alpha, i) and delta = alpha_i - alpha_j,
    P = L - kappa and Q = L + kappa."""
    (a1, b1), (a2, b2) = (comb.spectral_vector(alpha)[k - 1] for k in (i, j))
    d, delta = a1 - a2, b1 - b2
    return (d, delta), (d - 1, delta), (d + 1, delta)


def _step(zeta, i, j, swaps):
    """zeta_{t alpha} = (t - a (1 + sum of the swaps)) zeta, t = (i,j), over
    1 - a^2 in basis x, or over 1 in basis p: the Knop-Sahi intertwiner,
    a = kappa / L.  With S = L tN - kappa (N + sum_w wN), the step in basis
    p is S over d L, certified by its shape and eigen-equations.  In basis
    x it is adjacent with no swaps: N' = S / P exactly, over d Q / L,
    certified by _assert_intertwined (module docstring)."""
    alpha, n = zeta.alpha, zeta.n
    ell, p, q = _intertwiner(alpha, i, j)
    intertwined = zeta.basis == "x"
    nums = zeta.nums
    t = comb.transposition(n, i, j)
    acc = {e: _times(num, *ell) for e, num in perm_terms(t, nums).items()}
    for terms in [nums] + [perm_terms(comb.transposition(n, u, v), nums)
                           for u, v in swaps]:
        for e, num in terms.items():
            _axpy(acc.setdefault(e, []), [0] + num, -1)
    out = {}
    for e, s in acc.items():
        while s and not s[-1]:
            s.pop()
        if s:
            out[e] = _divided(s, *p) if intertwined else s
    jp = JackPoly(comb.perm_on_comp(t, alpha), n, zeta.basis, out,
                  _rescaled(zeta.den, [q], [ell]) if intertwined
                  else _rescaled(zeta.den, [ell], []),
                  check=not intertwined)
    if intertwined:
        _assert_intertwined(zeta, jp, i)
    return jp


def _assert_intertwined(zeta, child, i):
    """Assert that child has coefficient 1 at x^{s_i alpha} and that
    P N' = L s_i N - kappa N for the integer forms N of zeta and N' of
    child, which certifies child = zeta_{s_i alpha} (module docstring).

    A coefficient of a product is at most the product of the factors'
    1-norms, so each coefficient of the residual P N'_e - L N_{s_i e} +
    kappa N_e is at most |P| g + (|L| + 1) f, f and g the largest 1-norms
    of the N_e and of the N'_e.  It lies below X = 2**B for B the bit
    length of that bound, so the residual is 0 iff it is 0 at X, as in
    JackPoly._assert_eigen."""
    child._assert_lead()
    ell, p, _ = _intertwiner(zeta.alpha, i, i + 1)
    f = max(map(_norm, zeta.nums.values()))
    g = max(map(_norm, child.nums.values()))
    bits = (_norm(p) * g + (_norm(ell) + 1) * f).bit_length()
    packed = {e: _pack(num, bits) for e, num in zeta.nums.items()}
    ell, p = (ell[0] << bits) + ell[1], (p[0] << bits) + p[1]
    rhs = {e: -(v << bits) for e, v in packed.items()}
    swap_terms({e: ell * v for e, v in packed.items()}, i, i + 1, rhs)
    if any(p * _pack(num, bits) != rhs.pop(e, 0)
           for e, num in child.nums.items()) or rhs:
        raise SolveFailure("zeta_%s is not the intertwiner image of zeta_%s"
                           % (child.alpha, zeta.alpha))


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


def movert_step(zeta, i, s):
    """Move a larger entry right across a block of equal smaller entries:
    alpha_i = a > b = alpha_{i+1} = ... = alpha_{i+s}.  p-monic only."""
    _check_window(zeta, i, s, "movert_step")
    _check_block(zeta.alpha, i + 1, i + s + 1, zeta.alpha[i + s - 1])
    return _step(zeta, i, i + s, [(i, i + j) for j in range(1, s)])


def movelt_step(zeta, i, s):
    """Move a smaller entry left across a block of equal larger entries:
    alpha_i = ... = alpha_{i+s-1} = b > a = alpha_{i+s}.  p-monic only."""
    _check_window(zeta, i, s, "movelt_step")
    _check_block(zeta.alpha, i + 1, i + s, zeta.alpha[i - 1])
    return _step(zeta, i, i + s, [(i + j, i + s) for j in range(1, s)])


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
    out = JackPoly(at, n, "p", perm_terms(comb.invert(comb.theta_perm(n, m)),
                                          zt.nums), zt.den, check=False)
    ctx = OperatorContext(n)
    lhs = dunkl(ctx, m, zeta.poly)
    rhs = poly_scale(out.poly, scalar)
    if lhs != rhs:
        raise FormulaMismatch(
            "D_%d zeta_%s does not match the cycle formula" % (m, alpha),
            lhs=lhs, rhs=rhs)
    for i in range(m + 1, n + 1):
        if dunkl(ctx, i, zeta.poly):
            raise FormulaMismatch(
                "D_%d zeta_%s expected to vanish" % (i, alpha),
                lhs=dunkl(ctx, i, zeta.poly), rhs=mp_zero(n))
    return scalar, out


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
            cur = poly_sub(apply_perm(t, cur),
                           poly_scale(word_apply(word, cur), bracket))
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
    return coeff(z.poly, exp) == KappaRatio.from_factors(
        [(0, factorial(wt))] + [(1, 0)] * wt,
        [(leg + 1, arm + 1) for leg, arm in comb.hooks(lam)])
