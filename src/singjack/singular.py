"""Modules of simultaneously annihilated polynomials.

For a resolved label (m, n, N) with kappa0 = -m/n the module is spanned
by the specializations of zeta^x_{w.lam} where w.lam runs over the
reverse lattice permutations of lam.  zeta^x_lam is built once, on its
Knop-Sahi integer form, by the raising route of jack.zeta_x, certified
link by link by intertwiner identities and its lead; each later
sigma is jack.z2sz_step of its parent, sigma with its first ascent
swapped back, which rlp_enumerate lists earlier, certified by its lead
and the intertwiner identity that its exact division proves (see the
jack module docstring).  Each element f_a is checked pole-free at
kappa0, and the spectral values of its weight against its tableau
contents (_weight_spectrum_ok).

The module is then certified over Z, on the integer forms F_a = L_a f_a
with L_a > 0 the lcm of the coefficient denominators (scaling changes
no kernel and no eigen-equation), and kappa0 = p/q in lowest terms:

1. _certify_action: the f_a are nonzero with distinct tableau content
   vectors, and (p,p+1) f_a = sum_b M_p[a][b] f_b for the matrices M_p
   of murphy_rule_matrices.
2. _certify_spectra: tableau entry j sits at position N+1-j, so
   M = M_{N-j} is the matrix of s_j = (j,j+1) in tableau labels, where
   the omega_j of murphy_terms is the Jucys-Murphy element
   sum_{i<j} (i,j): omega_1 = 0 and omega_{j+1} = s_j omega_j s_j + s_j.
   By linearity alone the rows give omega_j f_a = sum_b X_j[a][b] f_b
   with X_1 = 0 and X_{j+1} = M X_j M + M, and each X_j is checked to be
   diagonal with entries eta_j(T_a).  Nonzero joint eigenvectors with
   distinct spectra are independent, so the rows are the matrices of the
   action on the span V.  Neither step assumed independence.
3. Annihilation, in build_module: the joint Dunkl kernel K is
   S_N-invariant (w D_i w^-1 = D_{w(i)}), so K meet V is a sum of joint
   omega-eigenlines C f_a, closed along every edge a -> b with
   M_p[a][b] != 0.  If every element is reachable from a0, q D_i F_a0 = 0
   for every i puts V in K; otherwise q D_1 F_a = 0 for every a does, as
   D_i = w D_1 w^-1 with w(1) = i.  _dunkl_route picks the way.

The report reads the other facts off these certificates (isotype_check,
seminormal_check):

- The central element.  murphy_terms sums every transposition once over
  j, so omega = sum_{i<j} (1 - (i,j)) = C(N,2) - sum_j omega_j, which
  acts on f_a by C(N,2) - sum_j c_j(T_a) = tau(omega).
- Invariance under adjacent equal entries.  If sigma_p = sigma_{p+1},
  the two positions have consecutive ranks, so the spectral identity of
  the weight gives c(N-p+1) = c(N-p) + 1.  In a standard tableau the only
  cell of content c(N-p) + 1 that may receive N-p+1 lies directly right
  of N-p, so the certified row of (p,p+1) is the diagonal +1.
- Squares and braids.  Matrices of an action on a span with a basis
  form a representation of S_N.

verify_singular (the Fraction Dunkl operators) and murphy_spectrum_check
(each omega_j F = c_j F on the polynomials) stay as independent paths.
"""

import gc
from collections import Counter
from datetime import datetime, timezone
from fractions import Fraction
from itertools import product
from math import factorial, lcm, prod

from . import combinatorics as comb
from . import jack
from . import multipoly as mp
from . import operators as ops
from .combinatorics import ParameterViolation
from .exactarith import (PoleError, kappa_linear, rat_to_str,
                         root_multiplicity)
from .multipoly import _accumulate


class ExpansionFailure(Exception):
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
    """The hook length formula: |tau|! / prod over nodes of leg + arm + 1."""
    return factorial(sum(tau)) // prod(leg + arm + 1
                                       for leg, arm in comb.hooks(tau))


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
        self.seminormal = None  # set by build_module once certified

    def to_json(self, include_timestamp=True):
        """The module report, with its certified seminormal matrices."""
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
                        denominator_factors=jack.factors_json(
                            e.denominator_factors),
                        **e.zeta.to_json()),
                    "murphy_spectrum": spectra["spectra"][i],
                    "certificates": dict(e.certificates),
                }
                for i, e in enumerate(self.elements)
            ],
            "seminormal": seminormal_json(self.seminormal),
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


def _weight_spectrum_ok(element, kappa0):
    """Whether n - r(sigma, i) + sigma_i/kappa0, the spectral value of the
    weight sigma at each i, is the content of tableau entry n + 1 - i."""
    sigma = element.sigma
    n = len(sigma)
    return all(n - comb.rank(sigma, i) + Fraction(sigma[i - 1]) / kappa0
               == element.tableau.eta(n + 1 - i) for i in range(1, n + 1))


def _murphy_ok(element, kappa0, big_f):
    """Whether omega_j big_f = c_j big_f for every j, c_j the tableau
    contents, on the integer form big_f of the element, and the spectral
    identity of its weight holds."""
    n = len(element.sigma)
    contents = [element.tableau.eta(j) for j in range(1, n + 1)]
    return _weight_spectrum_ok(element, kappa0) and all(
        ops.murphy_terms(n, j, big_f) == {e: c * v for e, v in big_f.items()
                                          if c}
        for j, c in enumerate(contents, 1))


def build_module(m, n, N):
    """Construct and certify the span of the zeta^x_{w.lam} at kappa0.

    Builds zeta^x_lam as N = d_lam zeta over the Knop-Sahi denominator by
    the raising route (jack.zeta_x), certified link by link, and divides
    out once each factor of d_lam that divides all of N and is no step's
    L or P (jack.cancel_common).  Each later sigma is N' = (L s_i N - kappa N) / P
    over d Q / L, one division per term, exact by the Knop-Sahi theorem
    and Gauss's lemma, which with its digits bounded proves the identity
    P N' = L s_i N - kappa N that certifies N' with its lead (see the jack
    module docstring).  Then it specializes each element,
    dividing out only the factor of kappa0, and certifies the module over
    Z in the order of the module docstring: the action rows, the Murphy
    spectra read off them, and the Dunkl operators, all of them on one
    element or D_1 on each (_dunkl_route).  The jack memo is emptied once
    cancel_common has returned, so that no second copy of zeta_lambda
    outlives it, and when this raises.
    """
    label = comb.resolve_label(m, n, N)
    kappa0 = label.kappa0
    sigmas = comb.rlp_enumerate(label.lam)
    if len(sigmas) != _syt_count(label.tau):
        raise RuntimeError(
            "internal: %d rearrangements vs %d standard tableaux"
            % (len(sigmas), _syt_count(label.tau)))
    # sigma's parent is sigma with its first ascent i swapped back; moving
    # a larger entry left keeps the lattice condition.  A parent is kept
    # only until its last child is stepped.
    steps = []
    for sigma in sigmas:
        i = next((i for i in range(1, N) if sigma[i - 1] < sigma[i]), 0)
        steps.append((i, comb.perm_on_comp(comb.transposition(N, i, i + 1),
                                           sigma) if i else None))
    children = Counter(parent for _, parent in steps)
    elements, forms, zetas = [], [], {}
    # The route and the steps allocate millions of small lists, tuples and
    # dicts that form no reference cycles, so reference counting frees
    # them all; the cyclic collector's full passes over them took a
    # quarter of build_module (2,4,7).  It is paused for the loop.
    collecting = gc.isenabled()
    gc.disable()
    try:
        for sigma, (i, parent) in zip(sigmas, steps):
            w, tab = comb.tableau_from_rlp(label.lam, sigma)
            if i:
                jp = jack.z2sz_step(zetas[parent], i)
                children[parent] -= 1
                if not children[parent]:
                    del zetas[parent]
            else:
                jp = jack.cancel_common(jack.zeta_x(sigma, N), [
                    (par, k) for k, par in steps if k])
                # the memo would hold the uncancelled zeta_lambda through
                # every step
                jack.clear_caches()
            if children[sigma]:
                zetas[sigma] = jp
            try:
                f = jp.specialize(kappa0)
            except PoleError:
                raise PoleAtSingularValue(sigma, kappa0,
                                          jp.denominator_factors)
            el = BasisElement(w, sigma, tab, f, jp.denominator_factors)
            el.certificates["pole_free"] = True
            if not _weight_spectrum_ok(el, kappa0):
                raise jack.FormulaMismatch(
                    "Murphy spectrum of w=%s disagrees with tableau contents"
                    % (w,))
            elements.append(el)
            forms.append(mp.integer_terms(f.terms))
    finally:
        jack.clear_caches()
        if collecting:
            gc.enable()
    module = SingularModule(label, elements)
    scale, forms = zip(*forms)
    module.seminormal = _certify_action(module, forms, scale)
    _certify_spectra(module)
    p, q = kappa0.numerator, kappa0.denominator
    route = _dunkl_route(module.seminormal, list(map(len, forms)), N)
    for a, i in product(*route):
        if ops.dunkl_terms(N, i, forms[a], p, q):
            raise NotAnnihilated(i, elements[a].w)
    for el in elements:
        el.certificates["annihilated"] = True
        el.certificates["murphy_spectrum_ok"] = True
    return module


def _certify_action(module, forms, scale):
    """murphy_rule_matrices(module), each row certified on the elements
    f_a, with integer forms F_a = L_a f_a in forms and L_a in scale;
    ExpansionFailure otherwise.

    Row a of M_p holds at most two nonzero entries.  A lone +-1 on the
    diagonal is certified by one lookup per term (_swap_is), any other
    row by the identity over Z, c_b = M_p[a][b] L_a / L_b and d the lcm
    of their denominators,

        d (p,p+1) F_a = sum_b (d c_b) F_b,

    which is L_a d times (p,p+1) f_a = sum_b M_p[a][b] f_b."""
    if not all(forms) or len(
            set(map(tuple, _tableau_contents(module)))) < len(forms):
        raise ExpansionFailure("module elements are zero or share a "
                               "content vector")
    mats = murphy_rule_matrices(module)
    for p, mat in mats.items():
        for a, row in enumerate(mat):
            coef = {b: v * scale[a] / scale[b] for b, v in enumerate(row) if v}
            if list(coef) == [a] and abs(coef[a]) == 1:
                residual = not _swap_is(forms[a], p, int(coef[a]))
            else:
                d = lcm(*(c.denominator for c in coef.values()))
                residual = {}
                ops.swap_terms({e: d * x for e, x in forms[a].items()},
                               p, p + 1, residual, True)
                for b, c in coef.items():
                    c = c.numerator * (d // c.denominator)
                    for e, x in forms[b].items():
                        _accumulate(residual, e, c * x)
            if residual:
                raise ExpansionFailure(
                    "(%d,%d) does not act on the element of w=%s by the "
                    "predicted row" % (p, p + 1, module.elements[a].w))
    return mats


def _swap_is(terms, p, sign):
    """Whether (p,p+1) F = sign F: F at each e with entries p, p+1
    swapped is sign times F at e."""
    get, i = terms.get, p - 1
    return all(get(e[:i] + (e[i + 1], e[i]) + e[i + 2:]) == sign * x
               for e, x in terms.items())


def _certify_spectra(module):
    """FormulaMismatch unless each X_j of the recursion is diagonal with
    entries eta_j(T_a) (module docstring, step 2).  X_j is diagonal once
    checked, so each row of X_{j+1} takes at most four products."""
    n, tabs = module.n, [el.tableau for el in module.elements]
    x = [{} for _ in tabs]  # omega_1 = 0
    for j in range(1, n + 1):
        diag = [t.eta(j) for t in tabs]
        if x != [{a: c} if c else {} for a, c in enumerate(diag)]:
            raise jack.FormulaMismatch(
                "omega_%d does not act on the certified matrices by the "
                "tableau contents" % j)
        mat, x = module.seminormal.get(n - j, ()), []
        for row in mat:
            x.append({})
            for b, v in enumerate(row):
                if v:
                    _accumulate(x[-1], b, v)
                    for c, u in enumerate(mat[b] if diag[b] else ()):
                        if u:
                            _accumulate(x[-1], c, v * diag[b] * u)


def _dunkl_route(mats, sizes, n):
    """(elements, operators) for the checks q D_i F_a = 0: a0, the element
    with the fewest terms, under D_1..D_n when the nonzero entries of the
    matrices reach every element from a0 and n |F_a0| < sum_a |F_a|;
    otherwise every element under D_1 (module docstring, step 3)."""
    a0 = min(range(len(sizes)), key=sizes.__getitem__)
    reached, size = {a0}, 0
    while len(reached) > size:
        size = len(reached)
        reached |= {b for mat in mats.values() for a in reached
                    for b, v in enumerate(mat[a]) if v}
    if len(reached) == len(sizes) and n * sizes[a0] < sum(sizes):
        return [a0], range(1, n + 1)
    return range(len(sizes)), [1]


# ---------------------------------------------------- seminormal representation

def seminormal_matrices(module):
    """Row-convention matrices of the adjacent transpositions: row j
    holds the basis coefficients of (p,p+1) applied to basis element j,
    as build_module certified them (see _certify_action)."""
    return module.seminormal


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
    """Whether real, by default module.seminormal, is the certified action,
    which squares to 1 and satisfies the braids (module docstring)."""
    return module.seminormal is not None and (real is None
                                              or real == module.seminormal)


def _tableau_contents(module):
    return [[el.tableau.eta(j) for j in range(1, module.n + 1)]
            for el in module.elements]


def murphy_spectrum_check(module):
    """Eigenvalues of every Murphy element on every basis element equal
    the contents of its tableau, recomputed here."""
    return {"ok": all(_murphy_ok(el, module.kappa0,
                                mp.integer_terms(el.zeta.terms)[1])
                      for el in module.elements),
            "spectra": _tableau_contents(module)}


def murphy_spectra(module):
    """The tableau contents of every basis element, with the Murphy
    certificates that build_module established for them."""
    return {"ok": all(el.certificates.get("murphy_spectrum_ok", False)
                      for el in module.elements),
            "spectra": _tableau_contents(module)}


def isotype_check(module):
    """The degree law, and the central element's eigenvalue and the
    invariance of each element under transpositions of adjacent equal
    entries of its weight, read off the certificates of build_module:
    the Murphy spectra give the first, and they with the certified +1
    rows of the action give the second (see the module docstring)."""
    tau_omega = comb.omega_eigenvalue(module.label.tau)
    deg = Fraction(comb.comp_weight(module.label.lam))
    if deg != -module.kappa0 * tau_omega or not murphy_spectra(module)["ok"]:
        return False
    return seminormal_check(module) and all(
        module.seminormal[p][a][a] == 1
        for a, el in enumerate(module.elements)
        for p in range(1, module.n) if el.sigma[p - 1] == el.sigma[p])


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
        jp.specialize(label.kappa0)
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
