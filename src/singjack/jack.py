"""Nonsymmetric Jack polynomials over the generic parameter field.

zeta_x is a triangular joint-eigenvector solve against the Cherednik
operators; the step formulas derive zeta_{t alpha} from zeta_alpha by the
Knop-Sahi intertwiner, summed by the solve's kernel (_combined).  All
arithmetic is exact.

A JackPoly keeps factored coefficients, a Z[kappa] numerator over an
integer times linear factors.  The solve, the steps, the eigen, shape
and intertwiner checks, the denominator profile, specialization and the
JSON (to_json, and from_json, which reads coefficient strings with int())
run on them; the Q(kappa) MultiPoly is built only when .poly is read, by
dm_formula, bigdiff_verify, ks_coefficient_check, the inputs of p_expand
and tests.

Certificates.  A solved zeta, a cache load (from_json), movert_step,
movelt_step and every step in basis p are certified by their N - 1
eigen-equations (JackPoly._assert_eigen).  The adjacent step in basis x,
the one build_module takes, derives zeta' from a certified
zeta = zeta_alpha with alpha_i > alpha_{i+1}.  It is certified by its
coefficient 1 at x^{s_i alpha} and the intertwiner identity
(_assert_intertwined)

    P Q zeta' = L (L s_i zeta - kappa zeta),

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
  swaps their ranks, so xi(s_i alpha) is xi(alpha) with entries i and
  i + 1 swapped: g has the spectrum of s_i alpha.
- At generic kappa distinct compositions have distinct spectra, and the
  zeta_beta of degree |alpha| are a basis of eigenvectors, so that joint
  eigenspace is the line of zeta_{s_i alpha}.
- The identity says zeta' = L^2 g / (P Q) = g / (1 - a^2), so
  zeta' = c zeta_{s_i alpha} for a scalar c.  zeta_{s_i alpha} has
  coefficient 1 at x^{s_i alpha}, so c is the coefficient of zeta' there,
  which is asserted to be 1.  So zeta' also has the shape of
  zeta_{s_i alpha}, and its support is not scanned.

So zeta' = zeta_{s_i alpha} with no eigen-equation of its own and no K_i
term.  The check runs on the cleared integer forms, Kronecker-packed as
the eigen check is.  No memo is kept across calls apart from the zeta
and p-basis memos that clear_caches empties.
"""

from fractions import Fraction
from math import factorial, gcd, lcm

from . import combinatorics as comb
from .exactarith import (
    KP_ONE,
    KP_ZERO,
    KappaPoly,
    KappaRatio,
    KR_ZERO,
    PoleError,
    _at_root,
    _axpy,
    _divide_out,
    _int_form,
    _times,
    kappa_linear,
    rat_to_str,
    ratio_str,
)
from .multipoly import (
    FieldMismatch,
    MultiPoly,
    apply_perm,
    coeff,
    expand_in_basis,
    mp_zero,
    perm_terms,
    poly_add,
    poly_scale,
    poly_sub,
    support_order,
    word_apply,
)
from .operators import (OperatorContext, cherednik_k_terms, dunkl,
                        swap_terms)


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


# ----------------------------------------------------- factored coefficients

# A coefficient is held factored, as (num, d0, facs): num / (d0 * prod f^m)
# with num in Z[kappa] as an int list, d0 a positive int and facs a sorted
# tuple of (f, m), f = (a, b) the primitive factor a*kappa + b with a > 0.
# It is reduced: num is nonzero and coprime to every f, and d0 is coprime
# to the content of num.  So equal values have equal forms.

_ONE = ([1], 1, ())


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


def _combined(groups, tops, bottoms):
    """The factored form of (sum of groups) * prod(tops) / prod(bottoms),
    or None when the sum vanishes; groups maps (d0, facs) to a Z[kappa]
    numerator, and tops and bottoms list nonzero int pairs (a, b) standing
    for a*kappa + b.  The sum is taken over the lcm of the denominators,
    each numerator times the factors its facs lack, and then reduced
    (_reduced): every linear factor is known, so no gcd is taken."""
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
        if total:
            _axpy(total, num, d0 // gd)
        else:
            total = [d0 // gd * x for x in num]
    while total and not total[-1]:
        total.pop()
    if not total:
        return None
    for a, b in tops:
        total = _times(total, a, b) if a else [b * x for x in total]
    for a, b in bottoms:
        g = b if not a else gcd(a, b) if a > 0 else -gcd(a, b)
        d0 *= g
        if a:
            top[a // g, b // g] = top.get((a // g, b // g), 0) + 1
    return _reduced(total, d0, top)


def _factored_terms(items, roots):
    """The factored forms {e: (num, d0, facs)} of the coefficients given as
    (e, (num, dn), (den, dd)), each (num/dn) / (den/dd) with num and den
    in Z[kappa] as int lists and dn, dd positive ints.

    Each distinct den is divided once by the primitive linear factors in
    roots with _divide_out.  SolveFailure when an exponent repeats, a
    coefficient is zero, its denominator is zero, not monic or not fully
    factored by roots, or a factor's root is a root of its numerator.  So
    the forms have the coefficients' values, and the coefficients as
    given are canonical."""
    split = {}
    out = {}
    for e, (num, dn), (den, dd) in items:
        if e in out:
            raise SolveFailure("x^%s has two coefficients" % (e,))
        if not num or not den or den[-1] != dd:
            raise SolveFailure("coefficient of x^%s is not in canonical "
                               "form" % (e,))
        den = tuple(den)
        got = split.get(den)
        if got is None:
            rest, facs = list(den), []
            for f in roots:
                rest, m = _divide_out(rest, *f, len(rest))
                if m:
                    facs.append((f, m))
            if len(rest) > 1:
                raise SolveFailure("denominator factor %s is not among the "
                                   "candidates" % KappaPoly(rest).monic())
            got = split[den] = rest[0], tuple(sorted(facs))
        const, facs = got
        out[e] = _reduced([x * dd for x in num], dn * const, dict(facs))
        if out[e][2] != facs:
            raise SolveFailure("coefficient of x^%s is not reduced" % (e,))
    return out


def _den_expansion(facs):
    """prod f^m over the factor tuple facs, as a Z[kappa] int list; its
    leading coefficient is prod a^m."""
    den = [1]
    for f, m in facs:
        for _ in range(m):
            den = _times(den, *f)
    return den


def _rationals(strs):
    """(ints, d), d > 0 the lcm of the denominators, with the rationals
    written "p" or "p/q" in strs equal to ints / d; trailing zeros are
    dropped.  Read by int(), with no Fraction; ValueError on another
    form."""
    ps, qs = [], []
    for s in strs:
        p, slash, q = s.partition("/")
        q = int(q) if slash else 1
        if q <= 0:
            raise ValueError("%r is not p/q with q > 0" % (s,))
        ps.append(int(p))
        qs.append(q)
    d = lcm(*qs)
    ints = [p * (d // q) for p, q in zip(ps, qs)]
    while ints and not ints[-1]:
        ints.pop()
    return ints, d


def _profile(coeffs):
    """{f: the largest multiplicity of f over the factored coeffs}."""
    top = {}
    for facs in {c[2] for c in coeffs.values()}:
        for f, m in facs:
            if m > top.get(f, 0):
                top[f] = m
    return top


def denominator_profile(coeffs):
    """The denominator factors kappa + c of the factored coeffs, each with
    its largest multiplicity in one coefficient, ordered by c."""
    roots = {Fraction(b, a): m for (a, b), m in _profile(coeffs).items()}
    return [(kappa_linear(1, c), roots[c]) for c in sorted(roots)]


def _cofactors(coeffs):
    """(L, C, q) for the factored coeffs: L the lcm of the d0, C = L*D as
    a Z[kappa] int list with D = prod f^M_f over the profile, and q
    mapping each factor tuple facs of coeffs to prod f^(M_f - m_f), the
    cofactor of its denominator in D, as an int list."""
    top = _profile(coeffs)
    big_l = lcm(*(d0 for _, d0, _ in coeffs.values()))
    cofactor = {}
    for facs in {c[2] for c in coeffs.values()}:
        have = dict(facs)
        q = [1]
        for f, m in top.items():
            for _ in range(m - have.get(f, 0)):
                q = _times(q, *f)
        cofactor[facs] = q
    scale = [big_l * x for x in _den_expansion(tuple(top.items()))]
    return big_l, scale, cofactor


def _cleared(coeffs):
    """F = C*f as {exponent: Z[kappa] int list, low degree first}, C = L*D
    of _cofactors.

    F_e = (L/d0_e) num_e prod f^(M_f - m_{e,f}) with no division, and C is
    a nonzero element of Z[kappa]."""
    big_l, _, cofactor = _cofactors(coeffs)
    out = {}
    for e, (num, d0, facs) in coeffs.items():
        q = cofactor[facs]
        scale = big_l // d0
        prod = [0] * (len(num) + len(q) - 1)
        for s, x in enumerate(num):
            if x:
                x *= scale
                for t, y in enumerate(q):
                    prod[s + t] += x * y
        out[e] = prod
    return out


def _packed_cleared(coeffs):
    """The cleared form F = C*f of _cleared, left unexpanded, for Kronecker
    packing: (C, h, pack), with C = L*D as an int list, h at least the
    1-norm of every F_e, and pack(bits) = {e: F_e(2**bits)}.

    F_e = (L/d0_e) num_e q_e with q_e the cofactor of _cofactors, so F_e(X)
    is (L/d0_e) num_e(X) q_e(X), each q_e packed once per factor tuple, and
    the 1-norm is submultiplicative: |F_e| <= (L/d0_e) |num_e| |q_e|."""
    big_l, scale, cofactor = _cofactors(coeffs)
    norms = {facs: _norm(q) for facs, q in cofactor.items()}
    h = max(big_l // d0 * _norm(num) * norms[facs]
            for num, d0, facs in coeffs.values())

    def pack(bits):
        at = {facs: _pack(q, bits) for facs, q in cofactor.items()}
        return {e: big_l // d0 * _pack(num, bits) * at[facs]
                for e, (num, d0, facs) in coeffs.items()}
    return scale, h, pack


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
    polynomial rescaled so its p-expansion is monic at p_alpha.
    coeffs maps each exponent to its factored coefficient (num, d0, facs);
    the step formulas, the eigen check, the shape check and specialize run
    on it, and the Q(kappa) MultiPoly .poly is built from it when first
    read.
    denominator_factors lists (kappa + c, multiplicity) pairs, as
    denominator_profile reads them off coeffs.
    """

    __slots__ = ("alpha", "n", "basis", "coeffs", "denominator_factors",
                 "_poly")

    def __init__(self, alpha, n, basis, coeffs, check=True):
        if basis not in ("x", "p"):
            raise ValueError("basis must be 'x' or 'p', got %r" % (basis,))
        self.alpha = comb.pad(alpha, n)
        self.n = n
        self.basis = basis
        self.coeffs = coeffs
        self.denominator_factors = denominator_profile(coeffs)
        self._poly = None
        if check:
            self.assert_shape()
            self._assert_eigen()

    @classmethod
    def from_poly(cls, alpha, n, basis, poly, candidates, check=True):
        """The JackPoly of a canonical Q(kappa) MultiPoly whose denominators
        the linear candidates (KappaPolys; the others are ignored) factor
        (see _factored_terms)."""
        OperatorContext(n).check(poly)
        roots = set()
        for fac in candidates:
            if fac.degree == 1:
                # kappa + c = (a*kappa + b) / a, primitive
                c = fac.monic().coeffs[0]
                roots.add((c.denominator, c.numerator))
        items = ((e, _int_form(c.num), _int_form(c.den))
                 for e, c in poly.terms.items())
        jp = cls(alpha, n, basis, _factored_terms(items, roots), check)
        jp._poly = poly
        return jp

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

        F = L*D*f (see _cleared) is f times a nonzero element of Q[kappa].
        With U_i = U_i^0 + kappa*K_i, U_i^0 x^e = (e_i + 1) x^e and
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
        big_f = _cleared(self.coeffs)
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

    def assert_shape(self):
        """Assert the support is alpha and exponents strictly below it, with
        1 at x^alpha in basis x and p_to_x_factor(alpha) in basis p."""
        lead = self.coeffs.get(self.alpha)
        want = _ONE if self.basis == "x" else _combined(
            {(1, ()): [1]}, *p_to_x_factors(self.alpha))
        if lead != want:
            raise SolveFailure("coefficient at x^alpha is %r, not %r"
                               % (lead, want))
        weight = comb.comp_weight(self.alpha)
        for e in self.coeffs:
            if e != self.alpha and not (
                    sum(e) == weight and comb.triangle_greater(self.alpha, e)):
                raise SolveFailure("support %s not below %s" % (e, self.alpha))

    def specialize(self, kappa0):
        """The MultiPoly at kappa = kappa0, from the factored form.

        With kappa0 = p/q in lowest terms, a coefficient num/(d0 prod f^m)
        with s = deg num and M = sum of the m takes the value
        q^(M-s) _at_root(num, q, -p) / (d0 prod (a*p + b*q)^m), each factor
        a*kappa + b evaluated once.  PoleError if a factor vanishes."""
        kappa0 = Fraction(kappa0)
        p, q = kappa0.numerator, kappa0.denominator
        at = {(a, b): a * p + b * q for a, b in _profile(self.coeffs)}
        for f, v in at.items():
            if not v:
                raise PoleError("denominator factor %s vanishes at kappa=%s"
                                % (kappa_linear(*f).monic(),
                                   rat_to_str(kappa0)), at=kappa0)
        dens = {}
        terms = {}
        for e, (num, d0, facs) in self.coeffs.items():
            v = _at_root(num, q, -p)
            if v:
                if facs not in dens:
                    den = 1
                    for f, m in facs:
                        den *= at[f] ** m
                    dens[facs] = den, sum(m for _, m in facs)
                den, deg = dens[facs]
                s = deg - len(num) + 1
                terms[e] = (Fraction(v * q ** s, d0 * den) if s >= 0 else
                            Fraction(v, d0 * den * q ** -s))
        return MultiPoly(self.n, terms, field=kappa0, _clean=True)

    def degree(self):
        return comb.comp_weight(self.alpha)

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

    @classmethod
    def from_json(cls, obj):
        """The JackPoly stored as obj, read with int() and no gcd.

        Each coefficient string is read by _rationals and each distinct
        den list is factored once by the stored denominator factors
        (_factored_terms); the constructor then checks the shape and the
        eigen-equations, and the stored factors must be the ones read off
        the coefficients.  SolveFailure on a zero, repeated, non-canonical
        or non-reduced term, on a failed shape or eigen check or on other
        stored factors; ValueError on an exponent that is not N entries of
        at least 0."""
        if obj["field"] != "Q(k)":
            raise FieldMismatch("field %r is not Q(k)" % (obj["field"],))
        n = obj["N"]
        roots = set()
        for d in obj["denominator_factors"]:
            ints, _ = _rationals(d["factor"])
            if len(ints) == 2:
                b, a = ints
                g = gcd(a, b) if a > 0 else -gcd(a, b)
                roots.add((a // g, b // g))
        dens, items = {}, []
        for t in obj["terms"]:
            e = tuple(map(int, t["exp"]))
            if len(e) != n or min(e, default=0) < 0:
                raise ValueError("exponent %s is not %d entries of at "
                                 "least 0" % (t["exp"], n))
            c = t["coeff"]
            key = tuple(c["den"])
            den = dens.get(key)
            if den is None:
                den = dens[key] = _rationals(key)
            items.append((e, _rationals(c["num"]), den))
        jp = cls(obj["alpha"], n, obj["basis"], _factored_terms(items, roots))
        if obj["denominator_factors"] != factors_json(jp.denominator_factors):
            raise SolveFailure("stored denominator factors %s are not those "
                               "of the coefficients"
                               % obj["denominator_factors"])
        return jp

    def __repr__(self):
        return "JackPoly(alpha=%s, n=%d, basis=%r)" % (
            self.alpha, self.n, self.basis)


# ------------------------------------------------------------- construction

_ZETA_CACHE = {}


def clear_caches():
    """Empty every module-level memo: each call after this starts cold."""
    _ZETA_CACHE.clear()
    _PBASIS_CACHE.clear()


def _ambient(alpha, n):
    """alpha as an int tuple padded to n entries."""
    alpha = tuple(int(a) for a in alpha)
    if comb.comp_length(alpha) > n:
        raise AmbientTooSmall(
            "composition %s does not fit in %d variables" % (alpha, n))
    return comb.pad(alpha, n)


def zeta_x(alpha, n):
    """The x-monic simultaneous eigenvector for composition alpha.

    Triangular solve over the down-set of alpha: the coefficient at a lower
    beta is kappa * sum_gamma c_gamma [x^beta] K_i x^gamma over
    xi_i(alpha) - xi_i(beta), i the least index where the spectra differ.
    It runs over Z[kappa] with the linear denominators known (_combined),
    with no polynomial gcd, and its factored coefficients are the
    JackPoly's; then every eigen-equation is asserted on them.
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
        c = _ONE if beta == alpha else (
            groups and _combined(groups, [(1, 0)], [pivots[beta][1:]]))
        if not c:
            continue
        coeffs[beta] = num, d0, facs = c
        for i in used:
            k_terms = {}
            cherednik_k_terms(n, i, {beta: 1}, k_terms)
            for b2, k in k_terms.items():
                if b2 != beta and pivots.get(b2, (0,))[0] == i:
                    _axpy(pending.setdefault(b2, {}).setdefault(
                        (d0, facs), []), num, k)

    zp = JackPoly(alpha, n, "x", coeffs)
    _ZETA_CACHE[key] = zp
    return zp


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


def zeta_p(alpha, n):
    """The p-monic eigenvector: zeta_x rescaled by the hook/E factor, each
    factored coefficient times its numerators over its denominators
    (_combined), with no gcd.  The scalar is nonzero, so the
    eigen-equations certified on zeta_x hold here too and are not checked
    again."""
    alpha = _ambient(alpha, n)
    key = (alpha, n, "p")
    got = _ZETA_CACHE.get(key)
    if got is not None:
        return got
    tops, bottoms = p_to_x_factors(alpha)
    zp = JackPoly(alpha, n, "p", {
        e: _combined({(d0, facs): num}, tops, bottoms)
        for e, (num, d0, facs) in zeta_x(alpha, n).coeffs.items()},
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
    return _step(zeta, i, i + 1, [])


def _step(zeta, i, j, swaps):
    """zeta_{t alpha} = (t - a (1 + sum of the swaps)) zeta, t = (i,j), over
    1 - a^2 in basis x: the Knop-Sahi intertwiner, a = kappa / L with
    L = d_r kappa + delta, d_r = r(alpha, j) - r(alpha, i) > 0 and
    delta = alpha_i - alpha_j > 0.  The coefficient at x^e is
    [L c_{te} - kappa (c_e + sum_w c_{we})] times L over
    ((d_r - 1)kappa + delta)((d_r + 1)kappa + delta), which is L^2 (1 - a^2),
    in basis x, or over L in basis p, summed by _combined with its linear
    factors known.  The adjacent step in basis x with no swaps, the one
    build_module takes, is certified by its coefficient 1 at x^{t alpha}
    and the intertwiner identity (_assert_intertwined); every other step
    by its shape and its eigen-equations."""
    alpha, n = zeta.alpha, zeta.n
    d_r = comb.rank(alpha, j) - comb.rank(alpha, i)
    delta = alpha[i - 1] - alpha[j - 1]
    if zeta.basis == "x":
        tops, bottoms = [(d_r, delta)], [(d_r - 1, delta), (d_r + 1, delta)]
    else:
        tops, bottoms = [], [(d_r, delta)]
    t = comb.transposition(n, i, j)
    pending = {}
    for k, terms in [(1, perm_terms(t, zeta.coeffs)), (-1, zeta.coeffs)] + [
            (-1, perm_terms(comb.transposition(n, u, v), zeta.coeffs))
            for u, v in swaps]:
        for e, (num, d0, facs) in terms.items():
            add = (_times(num, d_r, delta) if k > 0
                   else [0] + [-x for x in num])
            groups = pending.setdefault(e, {})
            got = groups.get((d0, facs))
            if got is None:
                groups[d0, facs] = add
            else:
                _axpy(got, add, 1)
    coeffs = {}
    for e, groups in pending.items():
        c = _combined(groups, tops, bottoms)
        if c:
            coeffs[e] = c
    intertwined = zeta.basis == "x" and j == i + 1 and not swaps
    jp = JackPoly(comb.perm_on_comp(t, alpha), n, zeta.basis, coeffs,
                  check=not intertwined)
    if intertwined:
        _assert_intertwined(zeta, jp, i)
    return jp


def _assert_intertwined(zeta, child, i):
    """Assert that child has coefficient 1 at x^{s_i alpha} and that
    P Q child = L (L s_i zeta - kappa zeta) exactly, with
    L = xi_i(alpha) - xi_{i+1}(alpha) read off the spectral vector of
    zeta = zeta_alpha, P = L - kappa and Q = L + kappa.  With zeta a
    certified zeta_alpha and alpha_i > alpha_{i+1}, this certifies
    child = zeta_{s_i alpha} (see the module docstring).

    With F = C zeta and G = C' child the cleared forms (_packed_cleared),
    the identity times C C' reads, at x^e,

        R_e = C P Q G_e - C' L (L F_{s_i e} - kappa F_e) = 0.

    Each coefficient of a product of polynomials is at most the product
    of their 1-norms |.|, so every coefficient of R_e is at most
    |C| |P| |Q| g + |C'| |L| (|L| + 1) f, with f and g bounds on the
    1-norm of each coefficient of F and of G.  B is the bit length of that
    bound, so every coefficient of R_e lies below X = 2**B in absolute
    value, and R_e(X) = 0 iff R_e = 0, as in JackPoly._assert_eigen.  Both
    sides are divided by the gcd of their packed scalars C P Q and C' L,
    which changes no zero; each term then costs two small multiplies."""
    if child.coeffs.get(child.alpha) != _ONE:
        raise SolveFailure("coefficient of zeta_%s at its own x^alpha is "
                           "not 1" % (child.alpha,))
    (a1, b1), (a2, b2) = comb.spectral_vector(zeta.alpha)[i - 1:i + 1]
    d, delta = a1 - a2, b1 - b2
    ell, p, q = [delta, d], [delta, d - 1], [delta, d + 1]
    scale_f, f, pack_f = _packed_cleared(zeta.coeffs)
    scale_g, g, pack_g = _packed_cleared(child.coeffs)
    bits = (_norm(scale_f) * _norm(p) * _norm(q) * g
            + _norm(scale_g) * _norm(ell) * (_norm(ell) + 1) * f
            ).bit_length()
    left = _pack(scale_f, bits) * _pack(p, bits) * _pack(q, bits)
    ell = _pack(ell, bits)
    right = _pack(scale_g, bits) * ell
    common = gcd(left, right)
    left, right = left // common, right // common
    packed = pack_f(bits)
    rhs = {e: -(v << bits) for e, v in packed.items()}
    swap_terms({e: ell * v for e, v in packed.items()}, i, i + 1, rhs)
    if any(left * v != right * rhs.pop(e, 0)
           for e, v in pack_g(bits).items()) or rhs:
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
                                          zt.coeffs), check=False)
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
