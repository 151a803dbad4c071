"""Module construction, certification, and representation structure."""

from fractions import Fraction

import pytest

from singjack import combinatorics as comb
from singjack import jack
from singjack import multipoly as mp
from singjack import singular
from singjack.combinatorics import ParameterViolation


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
    za = (mp.x_var(3, 1, field=k0)
          + mp.poly_scale(mp.x_var(3, 2, field=k0), -HALF)
          + mp.poly_scale(mp.x_var(3, 3, field=k0), -HALF))
    zb = mp.x_var(3, 2, field=k0) - mp.x_var(3, 3, field=k0)
    assert mod.elements[0].zeta == za
    assert mod.elements[1].zeta == zb


def test_certificates_all_true():
    mod = module_133()
    for sigma, certs in mod.certificates.items():
        assert certs == {"pole_free": True, "annihilated": True,
                         "murphy_spectrum_ok": True}


def test_verify_singular():
    mod = module_133()
    for el in mod.elements:
        assert singular.verify_singular(el.zeta)
    bad = mp.x_var(3, 1, field=-THIRD)
    assert not singular.verify_singular(bad)
    with pytest.raises(mp.FieldMismatch):
        singular.verify_singular(mp.x_var(3, 1))
    with pytest.raises(ParameterViolation):
        singular.verify_singular(mp.mp_const(3, 5, field=-THIRD))
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
    assert singular.basis_rank(mod) == len(mod.elements)


def test_expand_rejects_outside_span():
    mod = module_133()
    with pytest.raises(singular.ExpansionFailure):
        mp.expand_in_basis([el.zeta for el in mod.elements],
                           [mp.x_var(3, 1, field=-THIRD)])


def test_cherednik_closure():
    mod = module_133()
    k0 = mod.kappa0
    e1 = (mp.x_var(3, 1, field=k0) + mp.x_var(3, 2, field=k0)
          + mp.x_var(3, 3, field=k0))
    g = mod.elements[0].zeta
    assert singular.cherednik_closure_check(mod, e1, g)
    p = mp.monomial(3, (2, 1, 0), field=k0) + mp.x_var(3, 3, field=k0)
    assert singular.cherednik_closure_check(mod, p, g)
    with pytest.raises(mp.FieldMismatch):
        singular.cherednik_closure_check(mod, mp.x_var(3, 1), g)


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

    def murphy_fails(*args):
        filled.append(bool(jack._KTERMS_CACHE) and bool(jack._ZETA_CACHE))
        return False

    monkeypatch.setattr(singular, "_murphy_ok", murphy_fails)
    with pytest.raises(jack.FormulaMismatch):
        singular.build_module(1, 2, 4)
    assert filled == [True]
    assert not any(memos)
