"""Module construction, certification, and representation structure."""

import functools
import gc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from singjack import cli
from singjack import combinatorics as comb
from singjack import jack
from singjack import multipoly as mp
from singjack import operators as ops
from singjack import singular
from singjack.combinatorics import ParameterViolation

import reference as ref


HALF = Fraction(1, 2)
THIRD = Fraction(1, 3)


def module_133():
    return singular.build_module(1, 3, 3)


def test_build_133_basis_polynomials():
    mod = module_133()
    assert mod.kappa0 == -THIRD
    assert mod.label.tau == (2, 1)
    assert mod.label.lam == (1, 0, 0)
    assert [e.sigma for e in mod.elements] == [(1, 0, 0), (0, 1, 0)]
    k0 = -THIRD
    za = (ref.x_var(3, 1, field=k0)
          + mp.poly_scale(ref.x_var(3, 2, field=k0), -HALF)
          + mp.poly_scale(ref.x_var(3, 3, field=k0), -HALF))
    zb = ref.x_var(3, 2, field=k0) - ref.x_var(3, 3, field=k0)
    assert mod.elements[0].zeta == za
    assert mod.elements[1].zeta == zb


def test_certificates_all_true():
    mod = module_133()
    for el in mod.elements:
        assert el.certificates == {"pole_free": True, "annihilated": True,
                                   "murphy_spectrum_ok": True}


def test_verify_singular():
    mod = module_133()
    for el in mod.elements:
        assert singular.verify_singular(el.zeta)
    bad = ref.x_var(3, 1, field=-THIRD)
    assert not singular.verify_singular(bad)
    with pytest.raises(mp.FieldMismatch):
        singular.verify_singular(ref.x_var(3, 1))
    with pytest.raises(ParameterViolation):
        singular.verify_singular(ref.mp_const(3, 5, field=-THIRD))
    with pytest.raises(ParameterViolation):
        singular.verify_singular(mp.mp_zero(3, field=-THIRD))


def test_seminormal_matrices_133():
    mats = singular.seminormal_matrices(module_133())
    assert mats[1] == [[-HALF, Fraction(3, 4)], [1, HALF]]
    assert mats[2] == [[1, 0], [0, -1]]


def test_murphy_rule_prediction_matches():
    mod = module_133()
    assert singular.murphy_rule_matrices(mod) == \
        singular.seminormal_matrices(mod)
    assert singular.seminormal_check(mod)


def test_murphy_spectra_are_tableau_contents():
    mod = module_133()
    got = singular.murphy_spectrum_check(mod)
    assert got["ok"]
    # spectra follow tableau contents; the leading element carries the
    # contents of the row-reading filling
    for el, spec in zip(mod.elements, got["spectra"]):
        assert spec == [el.tableau.eta(j) for j in (1, 2, 3)]
    assert got["spectra"][0] != got["spectra"][1]


def test_isotype_and_degree_law():
    mod = module_133()
    assert singular.isotype_check(mod)
    tau_omega = comb.omega_eigenvalue(mod.label.tau)
    assert Fraction(comb.comp_weight(mod.label.lam)) == \
        -mod.kappa0 * tau_omega


def test_dimension_counts_standard_tableaux():
    mod = singular.build_module(1, 4, 5)
    assert len(mod.elements) == singular._syt_count(mod.label.tau)
    # Gauss-Jordan over the elements raises if they are dependent
    assert ref.expand_in_basis([el.zeta for el in mod.elements], []) == []


def test_expand_rejects_outside_span():
    mod = module_133()
    with pytest.raises(singular.ExpansionFailure):
        ref.expand_in_basis([el.zeta for el in mod.elements],
                            [ref.x_var(3, 1, field=-THIRD)])


def test_module_json_shape_and_determinism():
    mod = module_133()
    a = mod.to_json(include_timestamp=False)
    b = mod.to_json(include_timestamp=False)
    assert a == b
    assert "timestamp" not in a
    assert "timestamp" in mod.to_json()
    assert a["dimension"] == 2
    assert a["degree"] == 1
    assert a["omega_eigenvalue"] == "3"
    assert a["seminormal"]["s1"] == [["-1/2", "3/4"], ["1", "1/2"]]
    assert a["seminormal"]["s2"] == [["1", "0"], ["0", "-1"]]
    assert a["murphy_spectra_ok"] is True
    assert [row["wlambda"] for row in a["basis"]] == [[1, 0, 0], [0, 1, 0]]


def test_pole_analysis_124():
    label = comb.resolve_label(1, 2, 4)
    assert label.lam == (3, 2, 1, 0)
    for k in (0, 1, 2):
        rep = singular.pole_analysis(label.lam, k, label)
        assert rep["l"] == 2
        assert rep["hook_zero_multiplicity"] == rep["expected_multiplicity"]
        assert rep["expected_multiplicity"] == (1 if k < 2 else 0)
        assert rep["pole_free_at_ambient"]
        assert rep["partners_within_ambient"] == []
    r0 = singular.pole_analysis(label.lam, 0, label)
    assert r0["lambda_k"] == [2, 2, 1, 0]
    assert r0["extended_ambient"] == 6
    assert r0["partners_extended"] == [[0, 0, 2, 1, 1, 1]]
    assert r0["constructed_partner"] == [0, 0, 2, 1, 1, 1]
    assert r0["constructed_found"] is True
    r2 = singular.pole_analysis(label.lam, 2, label)
    assert r2["partners_extended"] == []
    assert r2["constructed_partner"] is None
    with pytest.raises(ParameterViolation):
        singular.pole_analysis(label.lam, 3, label)
    with pytest.raises(ParameterViolation):
        singular.pole_analysis((3, 2, 2, 0), 0, label)


def test_syt_count_hook_lengths():
    assert singular._syt_count((2, 1)) == 2
    assert singular._syt_count((2, 2)) == 2
    assert singular._syt_count((3, 1, 1)) == 6
    assert singular._syt_count((5,)) == 1
    for N in range(1, 8):
        for tau in comb.partitions_of(N):
            assert singular._syt_count(tau) == len(ref.syt_enumerate(tau))


def test_staircase_126():
    # lambda = (5,4,3,2,1,0), a down-set of 2932 compositions
    mod = singular.build_module(1, 2, 6)
    assert mod.label.lam == (5, 4, 3, 2, 1, 0)
    assert len(mod.elements) == 1
    el, = mod.elements
    assert el.certificates == {"pole_free": True, "annihilated": True,
                               "murphy_spectrum_ok": True}
    assert el.denominator_factors
    assert all(fac.degree == 1 and fac.coeffs[1] == 1 and mult >= 1
               for fac, mult in el.denominator_factors)


def test_build_module_empties_the_jack_memos(monkeypatch):
    memos = [val for name, val in vars(jack).items() if name.endswith("_CACHE")]
    jack.zeta_p((2, 0, 1), 3)
    singular.build_module(1, 2, 4)
    assert not any(memos)
    filled = []

    def cancel_fails(zeta, steps):
        filled.append(bool(jack._ZETA_CACHE))
        raise jack.SolveFailure("planted")

    monkeypatch.setattr(jack, "cancel_common", cancel_fails)
    with pytest.raises(jack.SolveFailure):
        singular.build_module(1, 2, 4)
    assert filled == [True]
    assert not any(memos)


def test_build_module_steps_with_no_memo_copy_of_zeta_lambda(monkeypatch):
    # once cancel_common has returned, the memo's uncancelled zeta_lambda
    # is a second copy that no step reads
    held = []
    step = jack.z2sz_step

    def spy(zeta, i):
        held.append(len(jack._ZETA_CACHE))
        return step(zeta, i)

    monkeypatch.setattr(jack, "z2sz_step", spy)
    singular.build_module(2, 3, 4)
    assert held and not any(held)


def test_build_module_restores_the_cycle_collector(monkeypatch):
    # the collector is paused for the route and the steps only, and comes
    # back on after a failure too; a caller that paused it keeps it paused
    singular.build_module(1, 2, 4)
    assert gc.isenabled()
    monkeypatch.setattr(singular, "_weight_spectrum_ok", lambda *args: False)
    with pytest.raises(jack.FormulaMismatch):
        singular.build_module(1, 2, 4)
    assert gc.isenabled()
    gc.disable()
    try:
        with pytest.raises(jack.FormulaMismatch):
            singular.build_module(1, 2, 4)
        assert not gc.isenabled()
    finally:
        gc.enable()


# ------------------------------------------- the kappa0 certificates over Z

def test_kappa0_certificates_run_on_integer_forms(monkeypatch):
    seen = {}
    for name in ("dunkl_terms", "murphy_terms"):
        def spy(*args, _name=name, _real=getattr(ops, name)):
            terms = next(a for a in args if isinstance(a, dict))
            seen.setdefault(_name, set()).update(map(type, terms.values()))
            return _real(*args)
        monkeypatch.setattr(ops, name, spy)
    mod = singular.build_module(2, 3, 4)
    assert singular.isotype_check(mod)
    # the build reads the Murphy spectra off the certified matrices; only
    # the independent recheck applies the Murphy elements to polynomials
    assert seen == {"dunkl_terms": {int}}
    assert singular.murphy_spectrum_check(mod)["ok"]
    # omega is read off the Murphy certificates: the runtime has no omega
    assert not hasattr(ops, "omega_terms")
    assert seen == {"dunkl_terms": {int}, "murphy_terms": {int}}


def test_symmetric_term_added_is_not_annihilated(monkeypatch, capsys):
    specialize = jack.JackPoly.specialize

    def with_power_sum(jp, kappa0):
        g = specialize(jp, kappa0)
        d = g.degree()
        for i in range(g.n):
            g = g + mp.monomial(g.n, [d * (k == i) for k in range(g.n)],
                                field=g.field)
        return g

    monkeypatch.setattr(jack.JackPoly, "specialize", with_power_sum)
    # the power sum is fixed by every transposition, so the action rows,
    # certified first, refuse the elements
    for m, n, N in ((1, 3, 3), (2, 3, 4)):
        with pytest.raises(singular.ExpansionFailure):
            singular.build_module(m, n, N)
    capsys.readouterr()
    assert cli.main(["verify", "--m", "2", "--n", "3", "--N", "4"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and "falsified:" in err
    # with the predicted matrices taken on trust, the Dunkl check alone
    # refuses them
    _trust_the_predicted_matrices(monkeypatch)
    for m, n, N in ((1, 3, 3), (2, 3, 4)):
        with pytest.raises(singular.NotAnnihilated):
            singular.build_module(m, n, N)


def _trust_the_predicted_matrices(monkeypatch):
    """Take murphy_rule_matrices as the action, with no row checked and no
    Murphy recursion run, so that only the Dunkl check can refuse."""
    monkeypatch.setattr(singular, "_certify_action",
                        lambda module, forms, scale:
                        singular.murphy_rule_matrices(module))
    monkeypatch.setattr(singular, "_certify_spectra", lambda module: None)


def test_swapped_elements_fail_the_murphy_check(monkeypatch):
    mod = module_133()
    assert singular.murphy_spectrum_check(mod)["ok"]
    a, b = mod.elements
    a.zeta, b.zeta = b.zeta, a.zeta
    assert not singular.murphy_spectrum_check(mod)["ok"]
    # both are singular and each weight keeps its tableau, so in the build
    # the action rows refuse them: (2,3) fixes the first tableau's element
    # and negates the second's
    _swap_the_elements_of_133(monkeypatch)
    with pytest.raises(singular.ExpansionFailure):
        singular.build_module(1, 3, 3)


def _swap_the_elements_of_133(monkeypatch):
    """Build each element of (1,3,3) as the other: the route to lambda
    gives zeta_(0,1,0), and the step from it, which the walk takes to
    reach (0,1,0), gives zeta_(1,0,0)."""
    swap = {(1, 0, 0): (0, 1, 0), (0, 1, 0): (1, 0, 0)}
    zeta_x = jack.zeta_x
    monkeypatch.setattr(jack, "zeta_x", lambda sigma, N: zeta_x(
        swap[tuple(sigma)], N))
    monkeypatch.setattr(jack, "z2sz_step", lambda zeta, i: zeta_x(
        swap[zeta.alpha], zeta.n))


def _power_of_e1(n, d, kappa0):
    """(x_1 + ... + x_n)^d over the field kappa0."""
    e1 = mp.mp_zero(n, field=kappa0)
    for i in range(1, n + 1):
        e1 = e1 + ref.x_var(n, i, field=kappa0)
    power = ref.mp_const(n, 1, field=kappa0)
    for _ in range(d):
        power = power * e1
    return power


def test_weight_off_its_tableau_fails_the_spectral_identity(monkeypatch):
    # each weight gets the polynomial and the tableau of the other, so D_1,
    # the Murphy eigen-equations and the action rows all hold; only the
    # spectral values of the weight can refuse the pairs
    swap = {(1, 0, 0): (0, 1, 0), (0, 1, 0): (1, 0, 0)}
    tableau_from_rlp = comb.tableau_from_rlp
    _swap_the_elements_of_133(monkeypatch)
    monkeypatch.setattr(comb, "tableau_from_rlp", lambda lam, sigma:
                        tableau_from_rlp(lam, swap[tuple(sigma)]))
    with pytest.raises(jack.FormulaMismatch):
        singular.build_module(1, 3, 3)


@pytest.mark.parametrize("mnN, contents", [((1, 2, 2), [0, -1]),
                                            ((1, 3, 3), [0, 1, -1])])
def test_element_off_its_last_content_fails_the_murphy_check(monkeypatch,
                                                             mnN, contents):
    # x_1 + ... + x_N stands in for the first element; being symmetric it
    # has contents (0, 1, ..., N-1), which differ from the element's in
    # the last entry only, so in the polynomial recheck only the
    # eigen-equation of omega_N refuses it
    mod = singular.build_module(*mnN)
    first = mod.elements[0]
    n = mnN[2]
    assert [first.tableau.eta(j) for j in range(1, n + 1)] == contents
    e1 = mp.integer_terms(_power_of_e1(n, 1, mod.kappa0).terms)[1]
    assert [ops.murphy_terms(n, j, e1) == {e: c * v for e, v in e1.items()
                                           if c}
            for j, c in enumerate(contents, 1)] == [True] * (n - 1) + [False]
    first.zeta = _power_of_e1(n, 1, mod.kappa0)
    assert not singular.murphy_spectrum_check(mod)["ok"]
    # in the build, with D switched off, the action rows refuse it first:
    # the first tableau's row of (1,2) is not the +1 that e1 satisfies
    specialize = jack.JackPoly.specialize

    def e1(jp, kappa0):
        if jp.alpha != first.sigma:
            return specialize(jp, kappa0)
        return _power_of_e1(jp.n, 1, kappa0)

    monkeypatch.setattr(jack.JackPoly, "specialize", e1)
    monkeypatch.setattr(ops, "dunkl_terms", lambda *args: {})
    with pytest.raises(singular.ExpansionFailure):
        singular.build_module(*mnN)


def test_element_off_a_unit_row_fails_the_action_rows(monkeypatch):
    # the staircase (1,2,3) has dimension 1, so every predicted row is a
    # single +-1, checked by the lookup pass; with D switched off, only
    # that pass refuses x_1^3 in place of its element
    monkeypatch.setattr(jack.JackPoly, "specialize", lambda jp, kappa0:
                        mp.monomial(3, (3, 0, 0), field=kappa0))
    monkeypatch.setattr(ops, "dunkl_terms", lambda *args: {})
    looked_up = []
    swap_is = singular._swap_is
    monkeypatch.setattr(singular, "_swap_is", lambda *args: looked_up.append(
        swap_is(*args)) or looked_up[-1])
    with pytest.raises(singular.ExpansionFailure):
        singular.build_module(1, 2, 3)
    assert looked_up[-1] is False


@pytest.mark.parametrize("p", [1, 2, 3])
def test_altered_matrix_fails_the_murphy_recursion(monkeypatch, p):
    # the rows hold, then one entry of a certified matrix changes before
    # the Murphy spectra are read off the matrices
    certify = singular._certify_action

    def altered(module, forms, scale):
        mats = certify(module, forms, scale)
        mats[p][0][0] += 1
        return mats

    monkeypatch.setattr(singular, "_certify_action", altered)
    with pytest.raises(jack.FormulaMismatch):
        singular.build_module(2, 3, 4)


def test_one_element_route_applies_every_dunkl_operator(monkeypatch, capsys):
    # (1,3,5) is certified by D_1..D_5 on its smallest element alone; an
    # element killed by D_1 but not by D_5 is refused there
    mod = _module((1, 3, 5))
    sizes = [len(el.zeta.terms) for el in mod.elements]
    a0 = sizes.index(min(sizes))
    elements, operators = singular._dunkl_route(mod.seminormal, sizes, 5)
    assert (list(elements), list(operators)) == ([a0], [1, 2, 3, 4, 5])
    dunkl_terms = ops.dunkl_terms
    monkeypatch.setattr(ops, "dunkl_terms", lambda n, i, terms, p, q:
                        {(0,) * n: 1} if i == n
                        else dunkl_terms(n, i, terms, p, q))
    with pytest.raises(singular.NotAnnihilated) as refused:
        singular.build_module(1, 3, 5)
    assert (refused.value.i, refused.value.w) == (5, mod.elements[a0].w)
    capsys.readouterr()
    assert cli.main(["verify", "--m", "1", "--n", "3", "--N", "5"]) == 4
    out, err = capsys.readouterr()
    assert out == "" and "falsified:" in err


def test_dunkl_route_needs_a_connected_graph_and_fewer_terms():
    half = Fraction(1, 2)
    block = {1: [[half, 1 - half * half], [Fraction(1), -half]]}
    # connected, and 2 * 3 < 3 + 10: every D_i on the smaller element
    elements, operators = singular._dunkl_route(block, [10, 3], 2)
    assert (list(elements), list(operators)) == ([1], [1, 2])
    # no edge joins the two elements: D_1 on every element
    apart = {1: [[Fraction(1), 0], [0, Fraction(-1)]]}
    elements, operators = singular._dunkl_route(apart, [10, 3], 2)
    assert (list(elements), list(operators)) == ([0, 1], [1])
    # connected, but 3 * 5 >= 5 + 8 terms: D_1 on every element
    block3 = {1: block[1], 2: apart[1]}
    elements, operators = singular._dunkl_route(block3, [8, 5], 3)
    assert (list(elements), list(operators)) == ([0, 1], [1])


@pytest.mark.parametrize("mnN", [(1, 3, 3), (2, 3, 4)])
def test_symmetric_element_fails_the_isotype_check(monkeypatch, capsys, mnN):
    # (x_1 + ... + x_N)^d has the module's degree and is fixed by every
    # transposition; put in at build time for one sigma, it is refused there,
    # by the action rows, before any report reads the certificates
    specialize = jack.JackPoly.specialize
    last = comb.rlp_enumerate(comb.resolve_label(*mnN).lam)[-1]

    def symmetric(jp, kappa0):
        g = specialize(jp, kappa0)
        return g if jp.alpha != last else _power_of_e1(g.n, g.degree(), kappa0)

    monkeypatch.setattr(jack.JackPoly, "specialize", symmetric)
    with pytest.raises(singular.ExpansionFailure):
        singular.build_module(*mnN)
    capsys.readouterr()
    argv = ["verify", "--m", str(mnN[0]), "--n", str(mnN[1]),
            "--N", str(mnN[2])]
    assert cli.main(argv) == 4
    out, err = capsys.readouterr()
    assert out == "" and "falsified:" in err


def _fraction_relations(mats):
    """(squares, braids): the relations checked by Fraction products."""
    def mul(a, b):
        return [[sum(a[i][t] * b[t][j] for t in range(len(b)))
                 for j in range(len(b))] for i in range(len(a))]

    squares = all(mul(a, a) == [[int(i == j) for j in range(len(a))]
                                for i in range(len(a))]
                  for a in mats.values())
    braids = all(mul(mul(mats[p], mats[p + 1]), mats[p])
                 == mul(mul(mats[p + 1], mats[p]), mats[p + 1])
                 for p in range(1, len(mats)))
    return squares, braids


@pytest.mark.parametrize("tamper, broken", [
    # every matrix doubled: the braids still hold, the squares do not
    (lambda p, v: 2 * v, (False, True)),
    # s_1 negated: the squares still hold, the braids do not
    (lambda p, v: -v if p == 1 else v, (True, False)),
], ids=["doubled", "s1_negated"])
def test_tampered_matrices_fail_the_seminormal_check(tamper, broken):
    mod = singular.build_module(2, 3, 4)
    mats = singular.seminormal_matrices(mod)
    assert singular.seminormal_check(mod, mats)
    bad = {p: [[tamper(p, v) for v in row] for row in mat]
           for p, mat in mats.items()}
    assert _fraction_relations(bad) == broken
    assert not singular.seminormal_check(mod, bad)


@functools.cache
def _seminormal_sets():
    return tuple(singular.seminormal_matrices(singular.build_module(*mnN))
                 for mnN in ((1, 3, 3), (2, 3, 4), (1, 3, 4)))


def test_certified_matrices_satisfy_the_relations():
    for mats in _seminormal_sets():
        assert _fraction_relations(mats) == (True, True)


# ------------------------------------------------ the certified S_N action

def _assert_action_and_annihilation(mod):
    """The certified matrices equal the Gauss-Jordan expansion of the
    transposition images in the basis, and every Dunkl operator, not only
    D_1, kills every element."""
    n, k = mod.n, len(mod.elements)
    basis = [el.zeta for el in mod.elements]
    images = [mp.apply_perm(comb.transposition(n, p, p + 1), f)
              for p in range(1, n) for f in basis]
    rows = ref.expand_in_basis(basis, images)
    assert singular.seminormal_matrices(mod) == \
        {p: rows[(p - 1) * k:p * k] for p in range(1, n)}
    p, q = mod.kappa0.numerator, mod.kappa0.denominator
    for f in basis:
        big_f = mp.integer_terms(f.terms)[1]
        for i in range(1, n + 1):
            assert not ops.dunkl_terms(n, i, big_f, p, q)


def _assert_isotype_and_relations(mod):
    """The facts the report reads off the certificates, re-checked with
    the Fraction operators: omega acts by tau(omega), every element is
    fixed by the transpositions of adjacent equal entries of its weight,
    and the certified matrices square to the identity and satisfy the
    braid relations."""
    n = mod.n
    ctx = ops.OperatorContext(n, mod.kappa0)
    tau_omega = comb.omega_eigenvalue(mod.label.tau)
    for el in mod.elements:
        f = el.zeta
        assert ref.omega_central(ctx, f) == mp.poly_scale(f, tau_omega)
        for p in range(1, n):
            if el.sigma[p - 1] == el.sigma[p]:
                assert mp.apply_perm(comb.transposition(n, p, p + 1), f) == f
    assert _fraction_relations(singular.seminormal_matrices(mod)) == \
        (True, True)


_FAST = [(1, 3, 3), (2, 3, 4), (1, 3, 4), (3, 4, 4), (1, 3, 5), (4, 3, 4),
         (7, 2, 3), (2, 4, 5), (1, 2, 4)]


@functools.cache
def _module(mnN):
    return singular.build_module(*mnN)


@pytest.mark.parametrize("mnN", _FAST)
def test_certified_action_matches_gauss_jordan_and_every_dunkl(mnN):
    _assert_action_and_annihilation(_module(mnN))


@pytest.mark.parametrize("mnN", _FAST)
def test_implied_facts_hold_by_the_fraction_operators(mnN):
    _assert_isotype_and_relations(_module(mnN))


def test_omega_eigenvalue_is_pairs_less_the_content_sum():
    for mnN in _FAST:
        mod = _module(mnN)
        n = mod.n
        for el in mod.elements:
            contents = sum(el.tableau.eta(j) for j in range(1, n + 1))
            assert comb.omega_eigenvalue(mod.label.tau) == \
                n * (n - 1) // 2 - contents


def test_equal_entries_share_a_row_and_a_certified_unit_row():
    pairs = 0
    for mnN in _FAST:
        mod = _module(mnN)
        n, k = mod.n, len(mod.elements)
        for a, el in enumerate(mod.elements):
            t = el.tableau
            for p in range(1, n):
                if el.sigma[p - 1] == el.sigma[p]:
                    i = n - p  # tableau entries swapped by (p, p+1)
                    assert t.eta(i + 1) == t.eta(i) + 1
                    assert (t.rw(i + 1), t.cm(i + 1)) == (t.rw(i), t.cm(i) + 1)
                    assert mod.seminormal[p][a] == [int(b == a)
                                                    for b in range(k)]
                    pairs += 1
    assert pairs


# ---------------------------------------- one raising route, then the steps

def _first_ascent_parent(sigma):
    """(i, s_i sigma) for the first ascent sigma_i < sigma_{i+1}."""
    i = next(i for i in range(1, len(sigma)) if sigma[i - 1] < sigma[i])
    return i, comb.perm_on_comp(comb.transposition(len(sigma), i, i + 1),
                                sigma)


def _assert_steps_meet_the_raising_route(mnN):
    """Every element after the first, stepped from its first-ascent
    parent, has the factored coefficients and the denominator factors of
    its own raising route (jack.zeta_x), so two independent chains meet;
    the forms are canonical, so equal values compare equal."""
    N = mnN[2]
    try:
        for sigma in comb.rlp_enumerate(comb.resolve_label(*mnN).lam)[1:]:
            i, parent = _first_ascent_parent(sigma)
            got = jack.z2sz_step(jack.zeta_x(parent, N), i)
            want = jack.zeta_x(sigma, N)
            assert got.alpha == want.alpha
            assert got.coeffs == want.coeffs
            assert got.denominator_factors == want.denominator_factors
    finally:
        jack.clear_caches()


@pytest.mark.parametrize("mnN", _FAST)
def test_the_step_reproduces_the_solve(mnN):
    _assert_steps_meet_the_raising_route(mnN)


def test_every_rlp_after_lambda_steps_from_an_earlier_one():
    # the walk of build_module: lambda first, then each sigma from s_i sigma
    # at its first ascent i, which must already be built
    count = 0
    for N in range(2, 9):
        for n in range(2, N + 1):
            for m in range(1, 3 * n):
                try:
                    lam = comb.resolve_label(m, n, N).lam
                except ParameterViolation:
                    continue
                sigmas = comb.rlp_enumerate(lam)
                assert sigmas[0] == lam
                for k, sigma in enumerate(sigmas[1:], 1):
                    assert _first_ascent_parent(sigma)[1] in sigmas[:k]
                count += len(sigmas)
    assert count == 2946


@pytest.mark.parametrize("mnN, ks_degree, degree", [((4, 3, 4), 8, 5),
                                                     ((7, 3, 4), 14, 9)])
def test_steps_from_the_cancelled_lambda_reproduce_the_solve(
        monkeypatch, mnN, ks_degree, degree):
    # d_lambda is not tight here, so build_module steps from a zeta_lambda
    # over a smaller denominator (jack.cancel_common); each stepped element
    # is still the routed one, with the reference denominator profile
    from test_jack import _reference_profile
    N = mnN[2]
    lam = jack.zeta_x(comb.resolve_label(*mnN).lam, N)
    assert sum(m for _, m in lam.den[1]) == ks_degree
    assert sum(m for _, m in lam.denominator_factors) == degree
    stepped = []
    step = jack.z2sz_step
    monkeypatch.setattr(jack, "z2sz_step", lambda zeta, i: stepped.append(
        (zeta, step(zeta, i))) or stepped[-1][1])
    mod = singular.build_module(*mnN)
    monkeypatch.undo()
    assert len(mod.elements) == 2 and len(stepped) == 1
    for parent, jp in stepped:
        assert sum(m for _, m in parent.den[1]) < ks_degree
        want = jack.zeta_x(jp.alpha, N)
        assert jp.coeffs == want.coeffs
        assert jp.denominator_factors == _reference_profile(jp.poly)
    jack.clear_caches()


@pytest.mark.parametrize("mnN", [(2, 5, 6), (1, 3, 5)])
def test_build_module_solves_lambda_only(monkeypatch, mnN):
    calls = []
    zeta_x = jack.zeta_x

    def spy(alpha, n):
        calls.append((tuple(alpha), n))
        return zeta_x(alpha, n)

    monkeypatch.setattr(jack, "zeta_x", spy)
    mod = singular.build_module(*mnN)
    assert calls == [(mod.label.lam, mnN[2])]


@pytest.mark.parametrize("mnN", [(1, 3, 3), (2, 3, 4)])
def test_doubled_element_fails_the_action_rows(monkeypatch, capsys, mnN):
    # 2f is still killed by D_1 and still a Murphy eigenvector, so only the
    # rows of the predicted matrices can refuse it
    specialize = jack.JackPoly.specialize
    first = comb.rlp_enumerate(comb.resolve_label(*mnN).lam)[0]

    def doubled(jp, kappa0):
        g = specialize(jp, kappa0)
        return mp.poly_scale(g, 2) if jp.alpha == first else g

    monkeypatch.setattr(jack.JackPoly, "specialize", doubled)
    with pytest.raises(singular.ExpansionFailure):
        singular.build_module(*mnN)
    capsys.readouterr()
    argv = ["verify", "--m", str(mnN[0]), "--n", str(mnN[1]),
            "--N", str(mnN[2])]
    assert cli.main(argv) == 4
    out, err = capsys.readouterr()
    assert out == "" and "falsified:" in err


@st.composite
def _terms_and_alpha(draw):
    n = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, 3)] * n)
    terms = draw(st.dictionaries(exps, st.integers(-9, 9).filter(bool),
                                 max_size=6))
    return n, terms, draw(exps)


@settings(max_examples=80, deadline=None)
@given(_terms_and_alpha())
def test_cherednik_k_terms_sum_to_pairs_times_identity(case):
    # sum_i K_i = C(N,2) Id and sum_i xi_i(alpha) = N + |alpha| +
    # kappa C(N,2): why the eigen check may skip U_N
    n, terms, alpha = case
    pairs = n * (n - 1) // 2
    out = {}
    for i in range(1, n + 1):
        ops.cherednik_k_terms(n, i, terms, out)
    assert out == ({e: pairs * c for e, c in terms.items()} if pairs else {})
    spec = comb.spectral_vector(alpha)
    assert (sum(a for a, _ in spec), sum(b for _, b in spec)) == \
        (pairs, n + sum(alpha))


@settings(max_examples=80, deadline=None)
@given(_terms_and_alpha())
def test_omega_is_pairs_less_the_murphy_sum(case):
    # every transposition occurs once among the Murphy elements, which is
    # why the omega eigenvalue follows from the Murphy certificates
    n, terms, _ = case
    out = {e: n * (n - 1) // 2 * c for e, c in terms.items()} if n > 1 else {}
    for j in range(1, n + 1):
        for e, c in ops.murphy_terms(n, j, terms).items():
            mp._accumulate(out, e, c, sub=True)
    assert ref.omega_terms(n, terms) == out


def test_zero_element_is_refused(monkeypatch):
    # in the dimension-1 staircase every predicted row is +-1 on the
    # diagonal, so a zero element would pass every row identity
    monkeypatch.setattr(jack.JackPoly, "specialize",
                        lambda jp, kappa0: mp.mp_zero(jp.n, field=kappa0))
    with pytest.raises(singular.ExpansionFailure):
        singular.build_module(1, 2, 4)
