"""End-to-end runs of the command line, in process."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from singjack import cli
from singjack import exactarith
from singjack import combinatorics as comb
from singjack import jack
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


def test_verify_report_file_holds_the_stdout_bytes(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--m", "2", "--n", "3",
                       "--N", "4", "--report", str(path))
    assert code == 0
    assert out.endswith("}\n")
    assert path.read_bytes() == out[:-1].encode()


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


def test_critical_cap_bounds_the_parts_of_a_partner(capsys):
    search = ("critical", "--lambda", "2,2,1,0", "--m", "1", "--n", "2",
              "--search", "--max-len", "6")
    for cap, partners in (("2", [[0, 0, 2, 1, 1, 1]]), ("1", []),
                          ("0", [])):
        code, out, _ = run(capsys, *search, "--cap", cap)
        assert code == 0
        assert json.loads(out)["partners"] == partners
    code, out, err = run(capsys, *search, "--cap", "-3")
    assert (code, out) == (2, "")
    assert "error:" in err
    with pytest.raises(SystemExit):
        cli.main(["critical", "--help"])
    helptext = " ".join(capsys.readouterr().out.split())
    assert "largest part allowed in a partner" in helptext


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


def test_zeta_reads_and_writes_no_cache_dir(capsys, tmp_path, monkeypatch):
    # zeta keeps nothing on disk: SINGJACK_CACHE_DIR naming a regular file
    # changes neither the printed bytes nor the file
    argv = ("zeta", "--alpha", "2,0,1", "--N", "3", "--basis", "p")
    monkeypatch.delenv("SINGJACK_CACHE_DIR", raising=False)
    want = run(capsys, *argv)
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    monkeypatch.setenv("SINGJACK_CACHE_DIR", str(not_a_dir))
    assert want[0] == 0 and run(capsys, *argv) == want
    assert list(tmp_path.iterdir()) == [not_a_dir]
    assert not_a_dir.read_text() == ""


def test_zeta_empties_the_jack_memos(capsys, monkeypatch):
    memos = [val for name, val in vars(jack).items() if name.endswith("_CACHE")]
    jack.zeta_p((2, 0, 1), 3)
    code, _, _ = run(capsys, "zeta", "--alpha", "2,0,1", "--N", "3",
                     "--basis", "p")
    assert code == 0
    assert not any(memos)
    filled = []
    zeta_x = jack.zeta_x

    def zeta_x_fails(alpha, n):
        zeta_x(alpha, n)
        filled.append(bool(jack._ZETA_CACHE))
        raise jack.SolveFailure("injected")

    monkeypatch.setattr(jack, "zeta_x", zeta_x_fails)
    code, _, _ = run(capsys, "zeta", "--alpha", "1,0,1", "--N", "3")
    assert code == 4 and filled == [True]
    assert not any(memos)


def test_usage_errors_share_one_base():
    # the classes that exit 2, and no others
    def subclasses(cls):
        return {c for s in cls.__subclasses__() for c in {s} | subclasses(s)}

    assert subclasses(comb.UsageError) == {
        comb.ParameterViolation, comb.DegreeMismatch, comb.ShapeViolation,
        comb.IndexOutOfRange, comb.ZeroComposition, jack.AmbientTooSmall,
        jack.PreconditionViolation}


def _spy(calls, name, real):
    def wrapped(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)
    return wrapped


_ZETA_KEYS = (((2, 0, 1), "x"), ((2, 0, 1), "p"), ((3, 0, 1, 1), "x"),
              ((0, 3, 0), "p"))


def _zeta(capsys, alpha, basis, *kappa):
    return run(capsys, "zeta", "--alpha", ",".join(map(str, alpha)),
               "--N", str(len(alpha)), "--basis", basis, *kappa)


def test_a_zeta_request_stays_off_q_kappa(capsys, monkeypatch):
    # zeta builds, prints and specializes on the integer form: no .poly
    # and no poly_gcd, in either basis, generic or at a kappa
    calls = []
    monkeypatch.setattr(jack.JackPoly, "poly", property(
        _spy(calls, "poly", jack.JackPoly.poly.fget)))
    monkeypatch.setattr(exactarith, "poly_gcd",
                        _spy(calls, "poly_gcd", exactarith.poly_gcd))
    for alpha, basis in _ZETA_KEYS:
        for kappa in ([], ["--kappa", "-1/2"]):
            assert _zeta(capsys, alpha, basis, *kappa)[0] == 0
    assert calls == []


def test_a_kappa_request_reduces_no_coefficient(capsys, monkeypatch):
    # specialize works on the numerators: a --kappa request reduces no
    # coefficient
    calls = []
    monkeypatch.setattr(jack, "_reduced", _spy(calls, "_reduced",
                                               jack._reduced))
    for alpha, basis in _ZETA_KEYS:
        assert _zeta(capsys, alpha, basis, "--kappa", "-1/2")[0] == 0
    assert calls == []


# --------------------------------------------------- the indent-1 writer

_JSON_LEAVES = (st.none() | st.booleans() | st.integers()
                | st.integers(-2**70, 2**70) | st.text())


@settings(max_examples=300, deadline=None)
@given(st.recursive(_JSON_LEAVES, lambda inner: (
    st.lists(inner, max_size=4) | st.tuples(inner, inner)
    | st.lists(st.integers(), max_size=4) | st.lists(st.text(), max_size=4)
    | st.dictionaries(st.text(), inner, max_size=4)), max_leaves=25))
@example([[], {}, [[]], {"": {}}, [True, 1, "1"], {"é": ["ü\n", " "]}])
def test_the_writer_matches_json_dumps_indent_1(obj):
    # nested empty containers, bools, None, ints and non-ASCII strings,
    # as lists, tuples and dicts of any depth
    assert cli._dumps(obj) == json.dumps(obj, indent=1)


def test_the_writer_matches_json_dumps_on_a_report():
    report = singular.build_module(2, 5, 6).to_json()
    assert cli._dumps(report) == json.dumps(report, indent=1)
    # a value or key of another type is refused, never written differently
    for obj in ({"kappa": Fraction(1, 2)}, [0.5], {1: 0}):
        with pytest.raises(TypeError):
            cli._dumps(obj)
