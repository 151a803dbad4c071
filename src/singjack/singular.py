"""Modules of simultaneously annihilated polynomials.

For a resolved label (m, n, N) with kappa0 = -m/n the module is spanned
by the specializations of zeta^x_{w.lam} where w.lam runs over the
reverse lattice permutations of lam.  Construction checks, for every
element: annihilation by all Dunkl operators, absence of poles at
kappa0, and Murphy eigenvalues equal to the tableau contents.  Adjacent
transpositions act by exact seminormal matrices.
"""

from datetime import datetime, timezone
from fractions import Fraction
from math import factorial

from . import combinatorics as comb
from . import jack
from . import multipoly as mp
from . import operators as ops
from .combinatorics import ParameterViolation
from .exactarith import (PoleError, kappa_linear, rat_to_str,
                         root_multiplicity)
from .multipoly import ExpansionFailure


class GcdConditionViolated(Exception):
    pass


class PoleAtSingularValue(Exception):
    def __init__(self, alpha, kappa0, factors):
        self.alpha = tuple(alpha)
        self.kappa0 = kappa0
        self.factors = factors
        Exception.__init__(
            self, "zeta^x_%s has a pole at kappa0=%s (factors %s)"
            % (self.alpha, kappa0, factors))


class NotAnnihilated(Exception):
    def __init__(self, i, w):
        self.i = i
        self.w = tuple(w)
        Exception.__init__(
            self, "Dunkl operator %d does not kill the element of w=%s"
            % (i, self.w))


def _syt_count(tau):
    # hook length formula on the diagram of tau
    tau = tuple(tau)
    n = sum(tau)
    cols = [sum(1 for r in tau if r > c) for c in range(tau[0])] if tau else []
    prod = 1
    for i, row in enumerate(tau):
        for j in range(row):
            prod *= (row - j) + (cols[j] - i) - 1
    return factorial(n) // prod


class BasisElement:
    """One module element: permutation, rearranged weight, tableau, and
    the specialized polynomial."""

    __slots__ = ("w", "sigma", "tableau", "zeta", "denominator_factors",
                 "certificates")

    def __init__(self, w, sigma, tableau, zeta, denominator_factors):
        self.w = tuple(w)
        self.sigma = tuple(sigma)
        self.tableau = tableau
        self.zeta = zeta
        self.denominator_factors = denominator_factors
        self.certificates = {}


class SingularModule:
    def __init__(self, label, elements):
        self.label = label
        self.elements = list(elements)
        self.n = label.N
        self.kappa0 = label.kappa0

    @property
    def certificates(self):
        return {e.sigma: dict(e.certificates) for e in self.elements}

    def to_json(self, include_timestamp=True, mats=None):
        """The module report; mats are its seminormal_matrices, built here
        unless the caller already has them."""
        if mats is None:
            mats = seminormal_matrices(self)
        spectra = murphy_spectra(self)
        out = {
            "label": self.label.to_json(),
            "degree": comb.comp_weight(self.label.lam),
            "omega_eigenvalue": rat_to_str(
                comb.omega_eigenvalue(self.label.tau)),
            "dimension": len(self.elements),
            "e_tau": [list(e.sigma) for e in self.elements],
            "basis": [
                {
                    "w": list(e.w),
                    "wlambda": list(e.sigma),
                    "tableau": [list(r) for r in e.tableau.rows()],
                    "zeta": dict(
                        alpha=list(e.sigma), basis="x",
                        denominator_factors=[
                            {"factor": fac.to_json(), "multiplicity": mult}
                            for fac, mult in e.denominator_factors],
                        **e.zeta.to_json()),
                    "murphy_spectrum": spectra["spectra"][i],
                    "certificates": dict(e.certificates),
                }
                for i, e in enumerate(self.elements)
            ],
            "seminormal": seminormal_json(mats),
            "murphy_spectra_ok": spectra["ok"],
        }
        if include_timestamp:
            out["timestamp"] = datetime.now(timezone.utc).isoformat()
        return out


def verify_singular(f):
    """True iff the nonconstant specialized polynomial f is killed by
    every Dunkl operator of its ambient."""
    if f.field is None:
        raise mp.FieldMismatch("verify_singular needs a specialized polynomial")
    if f.is_zero() or f.degree() < 1:
        raise ParameterViolation("verify_singular needs positive degree")
    ctx = ops.OperatorContext(f.n, f.field)
    return all(ops.dunkl(ctx, i, f).is_zero() for i in range(1, f.n + 1))


def _murphy_ok(ctx, element, kappa0):
    n = ctx.n
    f = element.zeta
    t = element.tableau
    sigma = element.sigma
    for j in range(1, n + 1):
        c = t.eta(j)
        # tableau entry j sits at polynomial position i = n + 1 - j
        i = n + 1 - j
        spectral = n - comb.rank(sigma, i) + Fraction(sigma[i - 1]) / kappa0
        if spectral != c:
            return False
        if ops.murphy(ctx, j, f) != mp.poly_scale(f, Fraction(c)):
            return False
    return True


def build_module(m, n, N):
    """Construct and certify the span of the zeta^x_{w.lam} at kappa0.

    Builds each generic polynomial first, specializes, then checks
    annihilation and Murphy eigenvalues element by element.  The jack
    memos serve one module: they are emptied when this returns or raises.
    """
    label = comb.resolve_label(m, n, N)
    if label.family == "two_part":
        rem = N + 1 - n
        if label.d * rem >= n:
            raise GcdConditionViolated(
                "gcd(%d,%d)=%d >= %d/%d" % (m, n, label.d, n, rem))
    kappa0 = label.kappa0
    sigmas = comb.rlp_enumerate(label.lam)
    if len(sigmas) != _syt_count(label.tau):
        raise RuntimeError(
            "internal: %d rearrangements vs %d standard tableaux"
            % (len(sigmas), _syt_count(label.tau)))
    ctx = ops.OperatorContext(N, kappa0)
    elements = []
    try:
        for sigma in sigmas:
            w, tab = comb.tableau_from_rlp(label.lam, sigma)
            jp = jack.zeta_x(sigma, N)
            try:
                f = mp.specialize(jp.poly, kappa0)
            except PoleError:
                raise PoleAtSingularValue(sigma, kappa0,
                                          jp.denominator_factors)
            el = BasisElement(w, sigma, tab, f, jp.denominator_factors)
            el.certificates["pole_free"] = True
            for i in range(1, N + 1):
                if not ops.dunkl(ctx, i, f).is_zero():
                    raise NotAnnihilated(i, w)
            el.certificates["annihilated"] = True
            if not _murphy_ok(ctx, el, kappa0):
                raise jack.FormulaMismatch(
                    "Murphy spectrum of w=%s disagrees with tableau contents"
                    % (w,))
            el.certificates["murphy_spectrum_ok"] = True
            elements.append(el)
    finally:
        jack.clear_caches()
    return SingularModule(label, elements)


# ------------------------------------------------------------- linear algebra

def basis_rank(module):
    """The dimension of the module; ExpansionFailure if its basis is
    linearly dependent."""
    basis = [el.zeta for el in module.elements]
    mp.expand_in_basis(basis, [])
    return len(basis)


def seminormal_matrices(module):
    """Row-convention matrices of the adjacent transpositions: row j
    holds the basis coefficients of (p,p+1) applied to basis element j."""
    n = module.n
    basis = [el.zeta for el in module.elements]
    images = [mp.apply_perm(comb.transposition(n, p, p + 1), f)
              for p in range(1, n) for f in basis]
    rows = mp.expand_in_basis(basis, images)
    k = len(basis)
    return {p: rows[(p - 1) * k:p * k] for p in range(1, n)}


def seminormal_json(mats):
    """The seminormal matrices as the reports print them."""
    return {"s%d" % p: [[rat_to_str(v) for v in row] for row in mat]
            for p, mat in mats.items()}


def murphy_rule_matrices(module):
    """The matrices predicted from the tableaux alone: +1 when the
    swapped entries share a row, -1 when they share a column, and the
    [[a, 1-a^2], [1, -a]] block on each remaining pair, ordered with the
    row-ordered tableau first and a = 1/(eta_{i+1} - eta_i) on it."""
    n = module.n
    k = len(module.elements)
    index = {e.tableau: i for i, e in enumerate(module.elements)}
    out = {}
    for p in range(1, n):
        i = n - p  # tableau entries swapped by (p, p+1)
        mat = [[Fraction(0)] * k for _ in range(k)]
        for a, el in enumerate(module.elements):
            t = el.tableau
            if t.rw(i) == t.rw(i + 1):
                mat[a][a] = Fraction(1)
                continue
            if t.cm(i) == t.cm(i + 1):
                mat[a][a] = Fraction(-1)
                continue
            other = t.swap_values(i, i + 1)
            if other not in index:
                raise ExpansionFailure(
                    "partner tableau of %s missing from the basis"
                    % (t.rows(),))
            b = index[other]
            if t.rw(i) < t.rw(i + 1):
                aa = Fraction(1, t.eta(i + 1) - t.eta(i))
                mat[a][a] = aa
                mat[a][b] = 1 - aa * aa
            else:
                aa = Fraction(1, other.eta(i + 1) - other.eta(i))
                mat[a][b] = Fraction(1)
                mat[a][a] = -aa
        out[p] = mat
    return out


def seminormal_check(module, real=None):
    """Realized matrices match the tableau prediction, square to the
    identity, and satisfy the braid relations.  real defaults to
    seminormal_matrices(module)."""
    if real is None:
        real = seminormal_matrices(module)
    pred = murphy_rule_matrices(module)
    if real != pred:
        return False
    k = len(module.elements)
    ident = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]

    def mul(a, b):
        return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(k)]
                for i in range(k)]

    for p, mat in real.items():
        if mul(mat, mat) != ident:
            return False
    for p in range(1, module.n - 1):
        a, b = real[p], real[p + 1]
        if mul(mul(a, b), a) != mul(mul(b, a), b):
            return False
    return True


def _tableau_contents(module):
    return [[el.tableau.eta(j) for j in range(1, module.n + 1)]
            for el in module.elements]


def murphy_spectrum_check(module):
    """Eigenvalues of every Murphy element on every basis element equal
    the contents of its tableau, recomputed here."""
    ctx = ops.OperatorContext(module.n, module.kappa0)
    return {"ok": all(_murphy_ok(ctx, el, module.kappa0)
                      for el in module.elements),
            "spectra": _tableau_contents(module)}


def murphy_spectra(module):
    """The tableau contents of every basis element, with the Murphy
    certificates that build_module established for them."""
    return {"ok": all(el.certificates.get("murphy_spectrum_ok", False)
                      for el in module.elements),
            "spectra": _tableau_contents(module)}


def isotype_check(module):
    """Central element eigenvalue, the degree law, and invariance of each
    element under transpositions of adjacent equal entries of its weight."""
    tau_omega = comb.omega_eigenvalue(module.label.tau)
    deg = Fraction(comb.comp_weight(module.label.lam))
    if deg != -module.kappa0 * tau_omega:
        return False
    ctx = ops.OperatorContext(module.n, module.kappa0)
    for el in module.elements:
        if ops.omega_central(ctx, el.zeta) != mp.poly_scale(el.zeta, tau_omega):
            return False
        for p in range(1, module.n):
            if el.sigma[p - 1] == el.sigma[p]:
                w = comb.transposition(module.n, p, p + 1)
                if mp.apply_perm(w, el.zeta) != el.zeta:
                    return False
    return True


def cherednik_closure_check(module, p, g):
    """Product rule D_i(p*g) = p*D_i(g) + g*d_i(p) + kappa0 * sum over
    j != i of ((i,j)g) * (p - (i,j)p)/(x_i - x_j), both sides expanded
    independently."""
    n = module.n
    kappa0 = module.kappa0
    ctx = ops.OperatorContext(n, kappa0)
    ctx.check(p)
    ctx.check(g)
    for i in range(1, n + 1):
        lhs = ops.dunkl(ctx, i, mp.poly_mul(p, g))
        rhs = mp.poly_add(mp.poly_mul(p, ops.dunkl(ctx, i, g)),
                          mp.poly_mul(g, mp.partial(i, p)))
        for j in range(1, n + 1):
            if j == i:
                continue
            w = comb.transposition(n, i, j)
            term = mp.poly_mul(mp.apply_perm(w, g),
                               mp.divided_difference(i, j, p))
            rhs = mp.poly_add(rhs, mp.poly_scale(term, kappa0))
        if lhs != rhs:
            return False
    return True


# --------------------------------------------------------------- pole reports

def pole_analysis(lam, k, label):
    """Report on lam - epsilon at its (k+1)-st point of decrease: hook
    zero multiplicity at kappa0, pole-freeness at ambient N, and critical
    partner searches at ambient N and N + l - k."""
    N = label.N
    lam = comb.pad(lam, N)
    if lam != comb.pad(label.lam, N):
        raise ParameterViolation("lam %s does not match the label's %s"
                                 % (lam, label.lam))
    points = [i for i in range(1, N + 1)
              if lam[i - 1] > (lam[i] if i < N else 0)]
    l = len(points) - 1
    if not 0 <= k <= l:
        raise ParameterViolation("need 0 <= k <= %d, got %d" % (l, k))
    lamk = comb.comp_sub(lam, comb.epsilon(points[k], N))
    hook = comb.hook_product(comb.sort_desc(lamk), kappa_linear(1, 1))
    mult = root_multiplicity(hook, label.kappa0)
    jp = jack.zeta_x(lamk, N)
    try:
        mp.specialize(jp.poly, label.kappa0)
        pole_free = True
    except PoleError:
        pole_free = False
    m1, n1 = label.m1, label.n1
    within = comb.find_critical_partners(lamk, m1, n1, max_len=N)
    ext = N + l - k
    extended = comb.find_critical_partners(lamk, m1, n1, max_len=ext)
    constructed = None
    if label.family == "multi" and k < l:
        pr = label.params
        constructed = comb.critical_partner(
            pr["mu"], pr["s"], pr["l"], pr["rho"], m1, k)
    return {
        "lambda": list(lam),
        "k": k,
        "l": l,
        "lambda_k": list(lamk),
        "kappa0": rat_to_str(label.kappa0),
        "hook_zero_multiplicity": mult,
        "expected_multiplicity": 1 if k < l else 0,
        "pole_free_at_ambient": pole_free,
        "ambient": N,
        "partners_within_ambient": [list(b) for b in within],
        "extended_ambient": ext,
        "partners_extended": [list(b) for b in extended],
        "constructed_partner": list(constructed) if constructed else None,
        "constructed_found": (constructed in extended
                              if constructed is not None else None),
    }
