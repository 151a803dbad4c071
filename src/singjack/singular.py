"""Modules of simultaneously annihilated polynomials.

For a resolved label (m, n, N) with kappa0 = -m/n the module is spanned
by the specializations of zeta^x_{w.lam} where w.lam runs over the
reverse lattice permutations of lam.  zeta^x_lam is solved once, on its
Knop-Sahi integer form, and checked by its eigen-equations; each later
sigma is jack.z2sz_step of its parent, sigma with its first ascent
swapped back, which rlp_enumerate lists earlier, certified by its lead
and the intertwiner identity (see the jack module docstring).
Construction checks, for every element: absence of poles at kappa0,
annihilation by D_1, and Murphy eigenvalues equal to the tableau
contents; then, for the module, that each adjacent transposition acts by
the seminormal matrix that murphy_rule_matrices predicts.

The kappa0 certificates run over Z.  Scaling a polynomial by a nonzero
integer changes no kernel and no eigen-equation, so each check takes the
integer form F = L*f of a specialized element f, with L > 0 the lcm of
its coefficient denominators.  With kappa0 = p/q in lowest terms,
annihilation asks q*D_1 F = 0, the Murphy check asks omega_j F = c_j F,
and the action asks each row identity of _certify_action.  The matrices
so certified are the seminormal matrices: the elements are nonzero with
pairwise distinct Murphy content vectors, hence independent, so each row
is the only expansion of its image.  The span is then S_N-invariant, and
since w D_1 w^-1 = D_{w(1)}, D_i f = w D_1 (w^-1 f) = 0 for every element
f and every i: D_1 on the whole span gives every D_i.

These certificates are the only ones; the report reads the other facts
off them (isotype_check, seminormal_check), by these implications.

- The central element.  murphy_terms sums every transposition once over
  j, so omega = sum_{i<j} (1 - (i,j)) = C(N,2) - sum_j omega_j.  An
  element with omega_j F = c_j(T) F for every j therefore has
  omega F = (C(N,2) - sum_j c_j(T)) F, and the contents of a tableau T of
  shape tau sum to C(N,2) - tau(omega).
- Invariance under adjacent equal entries.  If sigma_p = sigma_{p+1},
  the two positions have consecutive ranks, so _murphy_ok's spectral
  identity gives c(N-p+1) = c(N-p) + 1.  In a standard tableau the only
  cell of content c(N-p) + 1 that may receive N-p+1 lies directly right
  of N-p, so the two entries share a row and the certified row of
  (p,p+1) is the diagonal +1: (p,p+1) f = f.
- Squares and braids.  The certified matrices are the action of the
  permutations of the variables restricted to an invariant span with a
  basis, so they form a representation of S_N: s_p^2 = 1 and
  s_p s_{p+1} s_p = s_{p+1} s_p s_{p+1}.

verify_singular keeps the Fraction Dunkl operators as the reference
path.
"""

import gc
from collections import Counter
from datetime import datetime, timezone
from fractions import Fraction
from math import factorial, lcm, prod

from . import combinatorics as comb
from . import jack
from . import multipoly as mp
from . import operators as ops
from .combinatorics import ParameterViolation, UsageError
from .exactarith import (PoleError, kappa_linear, rat_to_str,
                         root_multiplicity)
from .multipoly import _accumulate


class GcdConditionViolated(UsageError):
    pass


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


def _eigen_ok(image, terms, c):
    """Whether image == c * terms, for terms free of zero coefficients."""
    return image == ({e: c * v for e, v in terms.items()} if c else {})


def _murphy_ok(element, kappa0, big_f):
    """Whether the integer form big_f of the element has, for every Murphy
    element omega_j, the tableau content c_j as its eigenvalue, and the
    spectral value of its weight agrees."""
    n = len(element.sigma)
    t = element.tableau
    sigma = element.sigma
    for j in range(1, n + 1):
        c = t.eta(j)
        # tableau entry j sits at polynomial position i = n + 1 - j
        i = n + 1 - j
        spectral = n - comb.rank(sigma, i) + Fraction(sigma[i - 1]) / kappa0
        if spectral != c:
            return False
        if not _eigen_ok(ops.murphy_terms(n, j, big_f), big_f, c):
            return False
    return True


def build_module(m, n, N):
    """Construct and certify the span of the zeta^x_{w.lam} at kappa0.

    Solves zeta^x_lam as N = d_lam zeta over the Knop-Sahi denominator,
    certified by its eigen-equations, and divides out once each factor of
    d_lam that divides all of N and is no step's L or P
    (jack.cancel_common).  Each later sigma is N' = (L s_i N - kappa N) / P
    over d Q / L, one division per term, exact by the Knop-Sahi theorem
    and Gauss's lemma, certified by P N' = L s_i N - kappa N and its lead
    (see the jack module docstring).  Then it specializes, dividing out only the factor
    of kappa0, checks annihilation by D_1 and Murphy eigenvalues element
    by element, over Z, and last the action of the adjacent
    transpositions (_certify_action).  The jack memo is emptied once
    cancel_common has returned, so that no second copy of zeta_lambda
    outlives it, and when this raises.
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
    p, q = kappa0.numerator, kappa0.denominator
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
    # The solve and the steps allocate millions of small lists, tuples and
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
            big_f = mp.integer_terms(f.terms)
            # D_1 alone: the invariance certified below gives every D_i
            if ops.dunkl_terms(N, 1, big_f, p, q):
                raise NotAnnihilated(1, w)
            el.certificates["annihilated"] = True
            if not _murphy_ok(el, kappa0, big_f):
                raise jack.FormulaMismatch(
                    "Murphy spectrum of w=%s disagrees with tableau contents"
                    % (w,))
            el.certificates["murphy_spectrum_ok"] = True
            elements.append(el)
            forms.append(big_f)
    finally:
        jack.clear_caches()
        if collecting:
            gc.enable()
    module = SingularModule(label, elements)
    module.seminormal = _certify_action(module, forms)
    return module


def _certify_action(module, forms):
    """murphy_rule_matrices(module), certified as the matrices of the
    adjacent transpositions on the elements f_a, with integer forms
    F_a = L_a f_a in forms; ExpansionFailure otherwise.

    Row a of M_p holds at most two nonzero entries.  It is certified by
    the identity over Z, c_b = M_p[a][b] L_a / L_b and d the lcm of their
    denominators,

        d (p,p+1) F_a = sum_b (d c_b) F_b,

    which is L_a d times (p,p+1) f_a = sum_b M_p[a][b] f_b."""
    if not all(forms) or len(
            set(map(tuple, _tableau_contents(module)))) < len(forms):
        raise ExpansionFailure("module elements are zero or share a "
                               "content vector")
    scale = [lcm(*(c.denominator for c in el.zeta.terms.values()))
             for el in module.elements]
    mats = murphy_rule_matrices(module)
    for p, mat in mats.items():
        for a, row in enumerate(mat):
            coef = {b: v * scale[a] / scale[b] for b, v in enumerate(row) if v}
            d = lcm(*(c.denominator for c in coef.values()))
            out = {}
            ops.swap_terms({e: d * x for e, x in forms[a].items()},
                           p, p + 1, out, True)
            for b, c in coef.items():
                c = c.numerator * (d // c.denominator)
                for e, x in forms[b].items():
                    _accumulate(out, e, c * x)
            if out:
                raise ExpansionFailure(
                    "(%d,%d) does not act on the element of w=%s by the "
                    "predicted row" % (p, p + 1, module.elements[a].w))
    return mats


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
    """Whether real, by default module.seminormal, is the action of the
    adjacent transpositions that _certify_action certified, so that it
    follows the tableau prediction, squares to the identity and satisfies
    the braid relations (see the module docstring)."""
    if real is None:
        real = module.seminormal
    return real is not None and real == module.seminormal


def _tableau_contents(module):
    return [[el.tableau.eta(j) for j in range(1, module.n + 1)]
            for el in module.elements]


def murphy_spectrum_check(module):
    """Eigenvalues of every Murphy element on every basis element equal
    the contents of its tableau, recomputed here."""
    return {"ok": all(_murphy_ok(el, module.kappa0,
                                mp.integer_terms(el.zeta.terms))
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
