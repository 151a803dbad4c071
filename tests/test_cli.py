"""End-to-end runs of the command line, in process."""

import json
import os
from fractions import Fraction

import pytest

from singjack import cli
from singjack import combinatorics as comb
from singjack import multipoly as mp
from singjack import singular
from singjack.exactarith import KappaPoly, ZeroPolynomial, kappa_linear


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_label_resolution(capsys):
    code, out, err = run(capsys, "label", "--m", "2", "--n", "6",
                         "--N", "10")
    assert code == 0
    obj = json.loads(out)
    assert obj["family"] == "multi"
    assert obj["kappa0"] == "-1/3"
    assert obj["tau"] == [5, 2, 2, 1]
    assert obj["lambda"] == [4, 3, 3, 2, 2, 0, 0, 0, 0, 0]
    assert "family=multi" in err


def test_label_hook_isotype(capsys):
    code, out, _ = run(capsys, "label", "--m", "3", "--n", "6",
                       "--N", "10")
    assert code == 0
    obj = json.loads(out)
    assert obj["family"] == "multi"
    assert obj["tau"] == [5, 1, 1, 1, 1, 1]
    assert obj["lambda"] == [7, 6, 5, 4, 3, 0, 0, 0, 0, 0]


def test_label_two_part(capsys):
    code, out, _ = run(capsys, "label", "--m", "5", "--n", "6",
                       "--N", "10")
    assert code == 0
    obj = json.loads(out)
    assert obj["family"] == "two_part"
    assert obj["tau"] == [5, 5]


def test_label_rejects_bad_parameters(capsys):
    code, _, err = run(capsys, "label", "--m", "2", "--n", "2", "--N", "5")
    assert code == 2
    assert "error:" in err


def test_zeta_generic(capsys):
    code, out, _ = run(capsys, "zeta", "--alpha", "1,0", "--N", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["field"] == "Q(k)"
    assert obj["alpha"] == [1, 0]
    assert obj["basis"] == "x"
    assert {tuple(t["exp"]): json.dumps(t["coeff"]) for t in obj["terms"]} \
        == {(1, 0): '{"num": ["1"], "den": ["1"]}',
            (0, 1): '{"num": ["0", "1"], "den": ["1", "1"]}'}
    assert obj["denominator_factors"] == [
        {"factor": ["1", "1"], "multiplicity": 1}]


def test_zeta_specialized(capsys):
    code, out, _ = run(capsys, "zeta", "--alpha", "1,0", "--N", "2",
                       "--kappa", "-1/2")
    assert code == 0
    obj = json.loads(out)
    assert obj["kappa0"] == "-1/2"
    assert obj["field"] == "Q@-1/2"
    assert {tuple(t["exp"]): t["coeff"] for t in obj["terms"]} == {
        (1, 0): "1", (0, 1): "-1"}


def test_zeta_pole_exit(capsys):
    code, out, err = run(capsys, "zeta", "--alpha", "1,0", "--N", "2",
                         "--kappa", "-1")
    assert code == 3
    assert out == ""
    assert "k + 1" in err


def test_zeta_usage_errors(capsys):
    code, _, _ = run(capsys, "zeta", "--alpha", "1,0,2", "--N", "2")
    assert code == 2
    code, _, _ = run(capsys, "zeta", "--alpha", "1,,2", "--N", "3")
    assert code == 2
    code, _, _ = run(capsys, "zeta", "--alpha", "1,0", "--N", "2",
                     "--kappa", "x")
    assert code == 2


def test_verify_with_oracle_and_report(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, err = run(capsys, "verify", "--m", "1", "--n", "3",
                         "--N", "3", "--oracle", "--report", str(path))
    assert code == 0
    obj = json.loads(out)
    assert obj["dimension"] == 2
    assert obj["isotype_ok"] and obj["seminormal_ok"]
    assert obj["murphy_spectra_ok"]
    assert obj["kernel"]["comparison"]["equal_to_module"]
    assert obj["seminormal"]["s1"] == [["-1/2", "3/4"], ["1", "1/2"]]
    ondisk = json.loads(path.read_text())
    assert ondisk == obj
    assert "all certificates hold" in err


def test_verify_report_to_a_missing_directory_is_a_usage_error(capsys,
                                                              tmp_path):
    path = tmp_path / "missing" / "report.json"
    code, _, err = run(capsys, "verify", "--m", "1", "--n", "3",
                       "--N", "3", "--report", str(path))
    assert code == 2
    assert "error: cannot write --report" in err
    assert "internal error" not in err


def test_verify_oracle_certifies_module_344(capsys):
    code, out, err = run(capsys, "verify", "--m", "3", "--n", "4",
                         "--N", "4", "--oracle")
    assert code == 0
    comparison = json.loads(out)["kernel"]["comparison"]
    assert comparison["equal_to_module"]
    assert all(comparison["per_element"])
    assert "all certificates hold" in err


def test_verify_determinism_modulo_timestamp(capsys):
    code1, out1, _ = run(capsys, "verify", "--m", "1", "--n", "3", "--N", "3")
    code2, out2, _ = run(capsys, "verify", "--m", "1", "--n", "3", "--N", "3")
    assert code1 == code2 == 0
    a, b = json.loads(out1), json.loads(out2)
    a.pop("timestamp")
    b.pop("timestamp")
    assert a == b


def test_zeta_determinism_byte_identical(capsys):
    _, out1, _ = run(capsys, "zeta", "--alpha", "2,0,1", "--N", "3")
    _, out2, _ = run(capsys, "zeta", "--alpha", "2,0,1", "--N", "3")
    assert out1 == out2


def test_critical_check(capsys):
    code, out, _ = run(capsys, "critical", "--lambda", "2,2,1,0",
                       "--beta", "0,0,2,1,1,1", "--m", "1", "--n", "2")
    assert code == 0
    assert json.loads(out)["is_critical_pair"] is True


def test_critical_search(capsys):
    code, out, _ = run(capsys, "critical", "--lambda", "2,2,1,0",
                       "--m", "1", "--n", "2", "--search",
                       "--max-len", "6")
    assert code == 0
    obj = json.loads(out)
    assert obj["partners"] == [[0, 0, 2, 1, 1, 1]]
    code, out, _ = run(capsys, "critical", "--lambda", "2,2,1,0",
                       "--m", "1", "--n", "2", "--search")
    assert code == 0
    assert json.loads(out)["partners"] == []


def test_critical_usage_errors(capsys):
    # mismatched weights
    code, _, _ = run(capsys, "critical", "--lambda", "2,2,1,0",
                     "--beta", "1,1", "--m", "1", "--n", "2")
    assert code == 2
    # neither mode
    code, _, _ = run(capsys, "critical", "--lambda", "2,2,1,0",
                     "--m", "1", "--n", "2")
    assert code == 2
    # both modes
    code, _, _ = run(capsys, "critical", "--lambda", "2,2,1,0",
                     "--beta", "0,0,2,1,1,1", "--m", "1", "--n", "2",
                     "--search")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["--m", "1", "--n", "0", "--beta", "1,1,1"],
    ["--m", "1", "--n", "0", "--search"],
    ["--m", "-1", "--n", "2", "--search"],
    ["--m", "0", "--n", "1", "--search"],
])
def test_critical_refuses_nonpositive_m_or_n(capsys, argv):
    code, out, err = run(capsys, "critical", "--lambda", "2,1", *argv)
    assert (code, out) == (2, "")
    assert "error:" in err


def test_search_budget_exit(capsys, monkeypatch):
    def tripped(*a, **k):
        raise comb.SearchBudgetExceeded(123)

    monkeypatch.setattr(comb, "find_critical_partners", tripped)
    code, _, err = run(capsys, "critical", "--lambda", "2,2,1,0",
                       "--m", "1", "--n", "2", "--search")
    assert code == 5
    assert "budget:" in err


def _inexact_division():
    with pytest.raises(ValueError, match="inexact polynomial division") as e:
        KappaPoly((1,)).exact_div(kappa_linear(1, 0))
    return e.value


@pytest.mark.parametrize("fault", [
    mp.FieldMismatch("polynomial field None, context kappa -1/2"),
    ZeroPolynomial("root multiplicity of the zero polynomial"),
    _inexact_division(),
])
def test_internal_faults_exit_6(capsys, monkeypatch, fault):
    # ValueErrors raised inside the program are not usage errors
    def build_module(*args):
        raise fault

    monkeypatch.setattr(singular, "build_module", build_module)
    code, out, err = run(capsys, "verify", "--m", "1", "--n", "2",
                         "--N", "4")
    assert code == cli.EXIT_INTERNAL == 6
    assert out == ""
    assert err.startswith("internal error: %s: " % type(fault).__name__)


def test_internal_consistency_check_exits_6(capsys, monkeypatch):
    rlp = comb.rlp_enumerate
    monkeypatch.setattr(comb, "rlp_enumerate", lambda lam: rlp(lam)[1:])
    code, out, err = run(capsys, "verify", "--m", "1", "--n", "3",
                         "--N", "3")
    assert code == 6
    assert out == "" and err.startswith("internal error: RuntimeError: ")


def test_repn_sign_isotype(capsys):
    code, out, _ = run(capsys, "repn", "--m", "1", "--n", "2", "--N", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["dimension"] == 1
    assert obj["seminormal"] == {"s1": [["-1"]], "s2": [["-1"]]}
    assert obj["seminormal_ok"] and obj["murphy_spectra_ok"]


def test_repn_134(capsys):
    code, out, _ = run(capsys, "repn", "--m", "1", "--n", "3", "--N", "4")
    assert code == 0
    obj = json.loads(out)
    assert obj["label"]["tau"] == [2, 2]
    assert obj["dimension"] == 2
    assert set(obj["seminormal"]) == {"s1", "s2", "s3"}
    assert len(obj["murphy_spectra"]) == 2


def test_cache_round_trip(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SINGJACK_CACHE_DIR", str(tmp_path))
    _, out1, _ = run(capsys, "zeta", "--alpha", "2,0,1", "--N", "3")
    files = list(tmp_path.glob("*.json"))
    assert len(files) == 1
    code, out2, _ = run(capsys, "zeta", "--alpha", "2,0,1", "--N", "3")
    assert code == 0 and out1 == out2


def test_unusable_cache_dir_is_a_usage_error(capsys, tmp_path, monkeypatch):
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    monkeypatch.setenv("SINGJACK_CACHE_DIR", str(not_a_dir))
    code, out, err = run(capsys, "zeta", "--alpha", "1,0", "--N", "2")
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot use SINGJACK_CACHE_DIR: ")


def test_cache_write_does_not_collide_on_a_shared_temp_name(
        capsys, tmp_path, monkeypatch):
    # a stale or concurrent writer holding path + ".tmp" must not block
    # another writer of the same entry
    monkeypatch.setenv("SINGJACK_CACHE_DIR", str(tmp_path))
    path = tmp_path / (cli._cache_key((2, 0, 1), 3, "x") + ".json")
    (tmp_path / (path.name + ".tmp")).mkdir()
    code, out, _ = run(capsys, "zeta", "--alpha", "2,0,1", "--N", "3")
    assert code == 0
    assert json.loads(path.read_text()) == json.loads(out)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [path.name, path.name + ".tmp"])


def test_cache_tampered_coefficient_is_refused(capsys, tmp_path,
                                               monkeypatch):
    monkeypatch.setenv("SINGJACK_CACHE_DIR", str(tmp_path))
    run(capsys, "zeta", "--alpha", "1,0", "--N", "2")
    path = tmp_path / (cli._cache_key((1, 0), 2, "x") + ".json")
    obj = json.loads(path.read_text())
    for t in obj["terms"]:
        if t["exp"] == [0, 1]:
            t["coeff"] = {"num": ["0", "1"], "den": ["2", "1"]}
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "zeta", "--alpha", "1,0", "--N", "2")
    assert (code, out) == (4, "")
    assert "falsified:" in err


def test_cache_tampered_denominator_is_refused(capsys, tmp_path,
                                               monkeypatch):
    # the eigen check clears denominators read from the coefficients,
    # not from the stored denominator_factors, which stay untouched here
    monkeypatch.setenv("SINGJACK_CACHE_DIR", str(tmp_path))
    code, good, _ = run(capsys, "zeta", "--alpha", "2,0,1", "--N", "3")
    assert code == 0
    path = tmp_path / (cli._cache_key((2, 0, 1), 3, "x") + ".json")
    obj = json.loads(path.read_text())
    factors = obj["denominator_factors"]
    edited = next(t for t in obj["terms"] if t["coeff"]["den"] != ["1"])
    edited["coeff"]["den"] = ["3"] + edited["coeff"]["den"][1:]
    path.write_text(json.dumps(obj))
    assert json.loads(path.read_text())["denominator_factors"] == factors
    code, out, err = run(capsys, "zeta", "--alpha", "2,0,1", "--N", "3")
    assert (code, out) == (4, "")
    assert "falsified:" in err


def _cached_entry(capsys, tmp_path, monkeypatch, alpha, n, basis="x"):
    monkeypatch.setenv("SINGJACK_CACHE_DIR", str(tmp_path))
    code, out, _ = run(capsys, "zeta", "--alpha",
                       ",".join(map(str, alpha)), "--N", str(n),
                       "--basis", basis)
    assert code == 0
    return tmp_path / (cli._cache_key(alpha, n, basis) + ".json"), out


def _refused(capsys, alpha, basis):
    code, out, err = run(capsys, "zeta", "--alpha", ",".join(map(str, alpha)),
                         "--N", str(len(alpha)), "--basis", basis)
    return code == 4 and out == "" and "falsified:" in err


def test_cache_edited_leading_coefficient_is_refused(capsys, tmp_path,
                                                     monkeypatch):
    # once served as "coeff": "5" with exit 0
    path, _ = _cached_entry(capsys, tmp_path, monkeypatch, (2, 0, 1), 3)
    obj = json.loads(path.read_text())
    lead = next(t for t in obj["terms"] if t["exp"] == [2, 0, 1])
    lead["coeff"] = {"num": ["5"], "den": ["1"]}
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "zeta", "--alpha", "2,0,1", "--N", "3",
                         "--kappa", "-1/3")
    assert code == 4
    assert out == ""
    assert "falsified:" in err


def test_cache_load_checks_the_key_and_the_support(capsys, tmp_path,
                                                   monkeypatch):
    path, _ = _cached_entry(capsys, tmp_path, monkeypatch, (2, 0, 1), 3)
    good = json.loads(path.read_text())
    above = dict(good, terms=good["terms"] + [
        {"exp": [3, 0, 0], "coeff": {"num": ["1"], "den": ["1"]}}])
    other_degree = dict(good, terms=good["terms"] + [
        {"exp": [0, 0, 1], "coeff": {"num": ["1"], "den": ["1"]}}])
    for bad in (dict(good, alpha=[1, 0, 2]), dict(good, basis="p"), above,
                other_degree):
        path.write_text(json.dumps(bad))
        code, out, err = run(capsys, "zeta", "--alpha", "2,0,1", "--N", "3")
        assert (code, out) == (4, "")
        assert "falsified:" in err
    # another key's entry stored under this key's name
    other, _ = _cached_entry(capsys, tmp_path, monkeypatch, (1, 0, 2), 3)
    path.write_text(other.read_text())
    code, _, err = run(capsys, "zeta", "--alpha", "2,0,1", "--N", "3")
    assert code == 4 and "falsified:" in err


def test_cache_unreadable_entry_is_recomputed(capsys, tmp_path,
                                              monkeypatch):
    path, fresh = _cached_entry(capsys, tmp_path, monkeypatch, (2, 0, 1), 3)
    text = path.read_text()
    missing = json.loads(text)
    del missing["denominator_factors"]
    for broken in (text[:len(text) // 2], "", json.dumps(missing)):
        path.write_text(broken)
        code, out, err = run(capsys, "zeta", "--alpha", "2,0,1", "--N", "3")
        assert code == 0
        assert out == fresh
        assert "recomputing" in err
        assert json.loads(path.read_text()) == json.loads(fresh)


def test_cache_stored_denominator_factors_are_checked(capsys, tmp_path,
                                                      monkeypatch):
    path, fresh = _cached_entry(capsys, tmp_path, monkeypatch, (0, 3, 0), 3)
    obj = json.loads(path.read_text())
    assert [d["multiplicity"] for d in obj["denominator_factors"]] == [1, 1]
    for factors in (obj["denominator_factors"][:1],
                    [dict(d, multiplicity=2)
                     for d in obj["denominator_factors"]]):
        path.write_text(json.dumps(dict(obj, denominator_factors=factors)))
        code, out, err = run(capsys, "zeta", "--alpha", "0,3,0", "--N", "3")
        assert (code, out) == (4, "")
        assert "falsified:" in err


def test_cache_edited_coefficient_below_the_lead_is_refused(capsys, tmp_path,
                                                            monkeypatch):
    # once served with exit 0: of the load checks, only the eigen check
    # sees this edit
    path, _ = _cached_entry(capsys, tmp_path, monkeypatch, (2, 0, 1), 3)
    obj = json.loads(path.read_text())
    edited = next(t for t in obj["terms"] if t["exp"] == [1, 1, 1])
    edited["coeff"] = {"num": ["5"], "den": ["1"]}
    path.write_text(json.dumps(obj))
    assert _refused(capsys, (2, 0, 1), "x")


def test_cache_rescaled_p_entry_is_refused(capsys, tmp_path, monkeypatch):
    # once served with every coefficient doubled, with exit 0: the eigen
    # check and the denominator factors cannot see a constant scalar
    path, _ = _cached_entry(capsys, tmp_path, monkeypatch, (2, 0, 1), 3, "p")
    obj = json.loads(path.read_text())
    for t in obj["terms"]:
        t["coeff"]["num"] = [str(2 * Fraction(c)) for c in t["coeff"]["num"]]
    path.write_text(json.dumps(obj))
    assert _refused(capsys, (2, 0, 1), "p")


@pytest.mark.parametrize("basis", ["x", "p"])
def test_cache_swapped_alpha_or_basis_is_refused(capsys, tmp_path,
                                                 monkeypatch, basis):
    alpha = (2, 0, 1)
    keys = [(a, b) for a in comb.rearrangements(alpha, 3) for b in "xp"]
    entries = {(a, b): _cached_entry(capsys, tmp_path, monkeypatch, a, 3,
                                     b)[0].read_text()
               for a, b in keys}
    path = tmp_path / (cli._cache_key(alpha, 3, basis) + ".json")
    for key in keys:
        if key == (alpha, basis):
            continue
        # another key's entry, as stored and with its key edited to match
        other = json.loads(entries[key])
        for bad in (other, dict(other, alpha=list(alpha), basis=basis)):
            path.write_text(json.dumps(bad))
            assert _refused(capsys, alpha, basis), (key, bad["basis"])
        # this key's entry with the stored alpha and basis of the other
        path.write_text(json.dumps(dict(json.loads(entries[(alpha, basis)]),
                                        alpha=list(key[0]), basis=key[1])))
        assert _refused(capsys, alpha, basis), key
