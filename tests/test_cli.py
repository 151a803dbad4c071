"""End-to-end runs of the command line, in process."""

import json
import os
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


def test_failed_cache_write_leaves_no_temp_file(capsys, tmp_path,
                                                monkeypatch):
    monkeypatch.setenv("SINGJACK_CACHE_DIR", str(tmp_path))
    (tmp_path / (cli._cache_key((1, 0), 2, "x") + ".json")).mkdir()
    code, out, err = run(capsys, "zeta", "--alpha", "1,0", "--N", "2")
    assert (code, out) == (2, "")
    assert "error: cannot use SINGJACK_CACHE_DIR: " in err
    assert not list(tmp_path.glob("*.tmp"))


def test_zeta_empties_the_jack_memos(capsys, tmp_path, monkeypatch):
    memos = [val for name, val in vars(jack).items() if name.endswith("_CACHE")]
    jack.zeta_p((2, 0, 1), 3)
    # a miss without a cache, then a miss and a hit with one
    for cdir in (None, tmp_path, tmp_path):
        if cdir:
            monkeypatch.setenv("SINGJACK_CACHE_DIR", str(cdir))
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
        comb.IndexOutOfRange, comb.ZeroComposition,
        singular.GcdConditionViolated, jack.AmbientTooSmall,
        jack.PreconditionViolation}


def test_cache_write_does_not_collide_on_a_shared_temp_name(
        capsys, tmp_path, monkeypatch):
    # a stale or concurrent writer holding path + ".tmp" must not block
    # another writer of the same entry
    monkeypatch.setenv("SINGJACK_CACHE_DIR", str(tmp_path))
    path = tmp_path / (cli._cache_key((2, 0, 1), 3, "x") + ".json")
    (tmp_path / (path.name + ".tmp")).mkdir()
    code, _, _ = run(capsys, "zeta", "--alpha", "2,0,1", "--N", "3")
    assert code == 0
    assert json.loads(path.read_text())["nums"] == [
        [list(e), num] for e, num in jack.zeta_x((2, 0, 1), 3).nums.items()]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [path.name, path.name + ".tmp"])


def _cached_entry(capsys, tmp_path, monkeypatch, alpha, n, basis="x"):
    # a fresh entry, written over any edited one
    monkeypatch.setenv("SINGJACK_CACHE_DIR", str(tmp_path))
    path = tmp_path / (cli._cache_key(alpha, n, basis) + ".json")
    path.unlink(missing_ok=True)
    code, out, _ = run(capsys, "zeta", "--alpha",
                       ",".join(map(str, alpha)), "--N", str(n),
                       "--basis", basis)
    assert code == 0
    return path, out


def _refused(capsys, alpha, basis, *kappa, why=""):
    code, out, err = run(capsys, "zeta", "--alpha", ",".join(map(str, alpha)),
                         "--N", str(len(alpha)), "--basis", basis, *kappa)
    return code == 4 and out == "" and "falsified:" in err and why in err


def _edit_refused(capsys, tmp_path, monkeypatch, alpha, basis, edit, *kappa,
                  why=""):
    """Whether zeta exits 4 with empty stdout, and why on stderr, on this
    key's cache entry once edit(pairs) has changed its [exponent,
    numerator] pairs."""
    path, _ = _cached_entry(capsys, tmp_path, monkeypatch, alpha, len(alpha),
                            basis)
    obj = json.loads(path.read_text())
    edit(obj["nums"])
    path.write_text(json.dumps(obj))
    return _refused(capsys, alpha, basis, *kappa, why=why)


def _at(exp, change):
    """The edit that applies change to the numerator at exp."""
    def edit(pairs):
        pair = next(p for p in pairs if p[0] == exp)
        pair[1] = change(pair[1])
    return edit


def _plus_one(num):
    return [num[0] + 1] + num[1:]


def _replaced(change):
    """The edit that replaces the pairs by change(pairs)."""
    def edit(pairs):
        pairs[:] = change(pairs)
    return edit


def test_cache_tampered_coefficient_is_refused(capsys, tmp_path,
                                               monkeypatch):
    for basis in "xp":
        assert _edit_refused(capsys, tmp_path, monkeypatch, (1, 0), basis,
                             _at([0, 1], _plus_one))


def test_cache_tampered_denominator_is_refused(capsys, tmp_path,
                                               monkeypatch):
    # the den is computed from alpha, so an entry written over another
    # den has every numerator rescaled: by 2 or by k + 1, a factor of d
    def rescaled(pairs, by):
        for pair in pairs:
            pair[1] = exactarith._times(pair[1], *by)
    for basis in "xp":
        for by in ((0, 2), (1, 1)):
            assert _edit_refused(capsys, tmp_path, monkeypatch, (2, 0, 1),
                                 basis, lambda p, _by=by: rescaled(p, _by))


def test_cache_edited_leading_coefficient_is_refused(capsys, tmp_path,
                                                     monkeypatch):
    # once served as "coeff": "5" with exit 0
    for basis in "xp":
        for change in (lambda num: [5], _plus_one):
            assert _edit_refused(capsys, tmp_path, monkeypatch, (2, 0, 1),
                                 basis, _at([2, 0, 1], change),
                                 "--kappa", "-1/3")


def test_cache_load_checks_the_key_and_the_support(capsys, tmp_path,
                                                   monkeypatch):
    # exponents above alpha or of another degree fail the shape; negative
    # or of the wrong length, they are not canonical; another key's entry
    # stored under this key's name
    for basis in "xp":
        for exp, why in (([3, 0, 0], "not below"), ([0, 0, 1], "not below"),
                         ([4, -1, 0], "canonical"),
                         ([2, 0, 1, 0], "canonical"), ([3, 0], "canonical")):
            assert _edit_refused(capsys, tmp_path, monkeypatch, (2, 0, 1),
                                 basis, lambda p, _e=exp: p.append([_e, [1]]),
                                 why=why)
        path, _ = _cached_entry(capsys, tmp_path, monkeypatch, (2, 0, 1), 3,
                                basis)
        other, _ = _cached_entry(capsys, tmp_path, monkeypatch, (1, 0, 2), 3,
                                 basis)
        path.write_text(other.read_text())
        assert _refused(capsys, (2, 0, 1), basis)


def test_cache_unreadable_entry_is_recomputed(capsys, tmp_path,
                                              monkeypatch):
    path, fresh = _cached_entry(capsys, tmp_path, monkeypatch, (2, 0, 1), 3)
    text = path.read_text()
    missing = json.loads(text)
    del missing["nums"]
    for broken in (text[:len(text) // 2], "", json.dumps(missing)):
        path.write_text(broken)
        code, out, err = run(capsys, "zeta", "--alpha", "2,0,1", "--N", "3")
        assert code == 0
        assert out == fresh
        assert "recomputing" in err
        assert path.read_text() == text


def test_cache_edited_coefficient_below_the_lead_is_refused(capsys, tmp_path,
                                                            monkeypatch):
    # once served with exit 0: of the load checks, only the eigen check
    # sees this edit
    for basis in "xp":
        assert _edit_refused(capsys, tmp_path, monkeypatch, (2, 0, 1), basis,
                             _at([1, 1, 1], _plus_one))


@pytest.mark.parametrize("basis", ["x", "p"])
def test_cache_unreduced_coefficient_is_refused(capsys, tmp_path,
                                                monkeypatch, basis):
    # the same value written with a trailing zero: not canonical
    assert _edit_refused(capsys, tmp_path, monkeypatch, (2, 0, 1), basis,
                         _at([1, 1, 1], lambda num: num + [0]))


@pytest.mark.parametrize("basis", ["x", "p"])
def test_cache_float_or_bool_entry_is_refused(capsys, tmp_path, monkeypatch,
                                              basis):
    # json reads 1.0 as a float and true as a bool, and both compare equal
    # to 1; neither is an entry the writer makes
    for change in (lambda e, num: [e, [float(x) for x in num]],
                   lambda e, num: [[float(x) for x in e], num],
                   lambda e, num: [e, num[:-1] + [True]],
                   lambda e, num: [[bool(x) for x in e], num]):
        assert _edit_refused(capsys, tmp_path, monkeypatch, (1, 0, 1), basis,
                             _replaced(lambda p, _c=change: [_c(*p[0])]
                                       + p[1:]))


def test_cache_rescaled_p_entry_is_refused(capsys, tmp_path, monkeypatch):
    # once served with every coefficient doubled, with exit 0: the eigen
    # check cannot see a constant scalar, the lead check does
    def doubled(pairs):
        for pair in pairs:
            pair[1] = [2 * x for x in pair[1]]
    assert _edit_refused(capsys, tmp_path, monkeypatch, (2, 0, 1), "p",
                         doubled)


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


@pytest.mark.parametrize("basis", ["x", "p"])
def test_cache_zero_term_or_repeated_exponent_is_refused(capsys, tmp_path,
                                                         monkeypatch, basis):
    # a reader into a dict would drop the zero term and all but the last
    # copy of an exponent before any load check saw them
    zero = [[0, 0, 3], []]
    for change in (lambda p: [[p[-1][0], [5]]] + p + [zero],
                   lambda p: [[p[-1][0], [5]]] + p,
                   lambda p: p + p[-1:],
                   lambda p: p + [zero],
                   lambda p: p + [[[0, 0, 3], [0]]],
                   lambda p: p[:-1] + [[p[-1][0], p[-1][1] + [0]]]):
        assert _edit_refused(capsys, tmp_path, monkeypatch, (2, 0, 1), basis,
                             _replaced(change))


def _spy(calls, name, real):
    def wrapped(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)
    return wrapped


def test_a_cache_hit_stays_off_q_kappa(capsys, tmp_path, monkeypatch):
    # a hit reads and prints the entry on the integer form: no .poly and
    # no poly_gcd
    calls = []
    for alpha, basis in (((2, 0, 1), "x"), ((2, 0, 1), "p"),
                         ((3, 0, 1, 1), "x"), ((0, 3, 0), "p")):
        _, fresh = _cached_entry(capsys, tmp_path, monkeypatch, alpha,
                                 len(alpha), basis)
        with monkeypatch.context() as m:
            m.setattr(jack.JackPoly, "poly", property(
                _spy(calls, "poly", jack.JackPoly.poly.fget)))
            m.setattr(exactarith, "poly_gcd",
                      _spy(calls, "poly_gcd", exactarith.poly_gcd))
            for kappa in ([], ["--kappa", "-1/2"]):
                code, out, err = run(
                    capsys, "zeta", "--alpha", ",".join(map(str, alpha)),
                    "--N", str(len(alpha)), "--basis", basis, *kappa)
                assert code == 0 and "recomputing" not in err
                if not kappa:
                    assert out == fresh
        assert calls == []


def test_a_kappa_request_reduces_no_coefficient(capsys, tmp_path,
                                                monkeypatch):
    # the entry is written and read as numerators, and specialize works on
    # them: a --kappa miss and hit reduce no coefficient
    monkeypatch.setenv("SINGJACK_CACHE_DIR", str(tmp_path))
    calls = []
    monkeypatch.setattr(jack, "_reduced", _spy(calls, "_reduced",
                                               jack._reduced))
    for alpha, basis in (((2, 0, 1), "x"), ((2, 0, 1), "p"),
                         ((0, 3, 0), "p")):
        argv = ["zeta", "--alpha", ",".join(map(str, alpha)), "--N",
                str(len(alpha)), "--basis", basis, "--kappa", "-1/2"]
        miss = run(capsys, *argv)
        hit = run(capsys, *argv)
        assert miss[0] == 0 and miss[:2] == hit[:2]
        assert "recomputing" not in hit[2]
    assert len(list(tmp_path.glob("*.json"))) == 3
    assert calls == []


def test_every_small_entry_reloads_as_solved(tmp_path, monkeypatch):
    # the 209 compositions with N <= 4 and weight <= 5, both bases: the
    # reloaded entry has the solved nums and den and prints the same bytes
    monkeypatch.setenv("SINGJACK_CACHE_DIR", str(tmp_path))
    keys = [(alpha, n) for n in range(1, 5) for d in range(6)
            for alpha in comb.compositions_of(d, n)]
    assert len(keys) == 209
    for alpha, n in keys:
        for basis, build in (("x", jack.zeta_x), ("p", jack.zeta_p)):
            cli.cached_zeta(alpha, n, basis)
            path = tmp_path / (cli._cache_key(alpha, n, basis) + ".json")
            loaded = cli._load_entry(str(path), alpha, n, basis)
            solved = build(alpha, n)
            assert loaded.nums == solved.nums and loaded.den == solved.den
            assert cli._dumps(loaded.to_json()) == cli._dumps(
                solved.to_json())
            jack.clear_caches()


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
