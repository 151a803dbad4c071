"""Command-line entry points.

Machine-readable JSON goes to stdout, human-readable summaries to
stderr.  Exit codes: 0 success, 2 usage or parameter problems, 3 pole at
the requested value, 4 a falsified certificate, 5 search budget
exhausted, 6 an internal fault: any other exception, noted on stderr as
"internal error:".  Set SINGJACK_CACHE_DIR to reuse constructed
polynomials across runs; every load checks the entry's key, its shape and
normalization, the eigen-equations and the denominator factors.
"""

import argparse
import functools
import hashlib
import json
import os
import sys
import tempfile
from fractions import Fraction

from . import __version__
from . import combinatorics as comb
from . import jack
from . import multipoly as mp
from . import oracle
from . import singular
from .combinatorics import (DegreeMismatch, IndexOutOfRange,
                            ParameterViolation, SearchBudgetExceeded,
                            ShapeViolation, ZeroComposition)
from .exactarith import PoleError, rat_to_str

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_POLE = 3
EXIT_CERT = 4
EXIT_BUDGET = 5
EXIT_INTERNAL = 6

_USAGE_ERRORS = (ParameterViolation, DegreeMismatch, ShapeViolation,
                 IndexOutOfRange, ZeroComposition,
                 singular.GcdConditionViolated, jack.AmbientTooSmall,
                 jack.PreconditionViolation)
_CERT_ERRORS = (singular.NotAnnihilated, singular.ExpansionFailure,
                jack.FormulaMismatch, jack.SolveFailure,
                oracle.KernelInvariantError)


def _emit(obj):
    json.dump(obj, sys.stdout, indent=1)
    sys.stdout.write("\n")


def _note(*parts):
    print(*parts, file=sys.stderr)


def _parse_comp(text, flag):
    try:
        parts = tuple(int(t) for t in text.split(","))
    except (ValueError, AttributeError):
        raise ParameterViolation("%s expects comma-separated integers, got %r"
                                 % (flag, text))
    if not parts or any(p < 0 for p in parts):
        raise ParameterViolation("%s entries must be nonnegative" % flag)
    return parts


def _parse_kappa(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParameterViolation("--kappa expects p/q, got %r" % (text,))


# ------------------------------------------------------------------- caching

CACHE_TAG = "singjack-%s" % __version__


def _cache_key(alpha, n, basis):
    payload = json.dumps(
        {"alpha": list(alpha), "N": n, "basis": basis, "version": CACHE_TAG},
        sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _load_entry(path, alpha, n, basis):
    """The cache entry at path, certified for the request.

    Checked in order: the stored alpha, N, basis and field, the shape and
    normalization (assert_shape), the eigen-equations, and the stored
    denominator factors, which must equal those recomputed from the
    coefficients.  A failed check raises SolveFailure; an entry that
    cannot be read or parsed is None, a miss."""
    try:
        with open(path) as fh:
            obj = json.load(fh)
        jp = jack.JackPoly.from_json(obj, check=False)
    except (OSError, ValueError, KeyError, TypeError, AttributeError,
            ZeroDivisionError) as e:
        _note("cache: unreadable entry %s (%s: %s), recomputing"
              % (path, type(e).__name__, e))
        return None
    if (obj["alpha"], obj["N"], obj["basis"], jp.poly.field) != (
            list(comb.pad(alpha, n)), n, basis, None):
        raise jack.SolveFailure("cache entry %s is not zeta_%s of %s, N=%d"
                                % (path, basis, alpha, n))
    jp.assert_shape()
    jp._assert_eigen()
    stored = jp.denominator_factors
    if jack.denominator_profile(jp.poly, [fac for fac, _ in stored]) != stored:
        raise jack.SolveFailure(
            "stored denominator factors of %s are wrong" % path)
    return jp


def cached_zeta(alpha, n, basis="x"):
    """zeta in the requested basis, via SINGJACK_CACHE_DIR when set."""
    cdir = os.environ.get("SINGJACK_CACHE_DIR")
    path = None
    if cdir:
        path = os.path.join(cdir, _cache_key(alpha, n, basis) + ".json")
        if os.path.exists(path):
            jp = _load_entry(path, alpha, n, basis)
            if jp is not None:
                return jp
    jp = jack.zeta_x(alpha, n) if basis == "x" else jack.zeta_p(alpha, n)
    if path:
        try:
            os.makedirs(cdir, exist_ok=True)
            fd, tmp = tempfile.mkstemp(dir=cdir, suffix=".tmp")
            with os.fdopen(fd, "w") as fh:
                json.dump(jp.to_json(), fh, indent=1)
            os.replace(tmp, path)
        except OSError as e:
            raise ParameterViolation("cannot use SINGJACK_CACHE_DIR: %s" % e)
    return jp


# ------------------------------------------------------------------ commands

def cmd_label(args):
    label = comb.resolve_label(args.m, args.n, args.N)
    _note("label (%d,%d,%d): family=%s kappa0=%s tau=%s lambda=%s"
          % (args.m, args.n, args.N, label.family,
             rat_to_str(label.kappa0), label.tau, label.lam))
    _emit(label.to_json())
    return EXIT_OK


def cmd_zeta(args):
    alpha = _parse_comp(args.alpha, "--alpha")
    if len(alpha) > args.N:
        raise ParameterViolation("len(alpha)=%d exceeds N=%d"
                                 % (len(alpha), args.N))
    jp = cached_zeta(alpha, args.N, args.basis)
    if args.kappa is None:
        _note("zeta_%s at alpha=%s N=%d: %d terms, generic kappa"
              % (args.basis, alpha, args.N, len(jp.poly.terms)))
        _emit(jp.to_json())
        return EXIT_OK
    kappa0 = _parse_kappa(args.kappa)
    try:
        f = mp.specialize(jp.poly, kappa0)
    except PoleError:
        bad = [str(fac) for fac, _ in jp.denominator_factors
               if fac.eval_at(kappa0) == 0]
        _note("pole at kappa=%s: vanishing denominator factor(s) %s"
              % (rat_to_str(kappa0), ", ".join(bad)))
        return EXIT_POLE
    out = dict(alpha=list(alpha), basis=args.basis,
               kappa0=rat_to_str(kappa0), **f.to_json())
    _note("zeta_%s at alpha=%s N=%d kappa=%s: %d terms"
          % (args.basis, alpha, args.N, rat_to_str(kappa0),
             len(f.terms)))
    _emit(out)
    return EXIT_OK


def cmd_verify(args):
    module = singular.build_module(args.m, args.n, args.N)
    mats = singular.seminormal_matrices(module)
    report = module.to_json(mats=mats)
    report["isotype_ok"] = singular.isotype_check(module)
    report["seminormal_ok"] = singular.seminormal_check(module, mats)
    failing = [name for name, ok in
               [("isotype", report["isotype_ok"]),
                ("seminormal", report["seminormal_ok"])] if not ok]
    if args.oracle:
        degree = comb.comp_weight(module.label.lam)
        kern = oracle.joint_kernel(args.N, degree, module.kappa0,
                                   [el.zeta for el in module.elements])
        comparison = oracle.compare_with_module(kern, module)
        report["kernel"] = kern.to_json(include_timestamp=False)
        if not comparison["contains_module"]:
            failing.append("kernel_containment")
        _note("kernel dimension %d, module dimension %d, contains=%s equal=%s"
              % (comparison["kernel_dimension"],
                 comparison["module_dimension"],
                 comparison["contains_module"],
                 comparison["equal_to_module"]))
    for el in module.elements:
        _note("  w=%s wlambda=%s certificates=%s"
              % (el.w, el.sigma, el.certificates))
    if args.report:
        try:
            with open(args.report, "w") as fh:
                json.dump(report, fh, indent=1)
        except OSError as e:
            raise ParameterViolation("cannot write --report: %s" % e)
        _note("report written to", args.report)
    _emit(report)
    if failing:
        _note("falsified:", ", ".join(failing))
        return EXIT_CERT
    _note("all certificates hold for (%d,%d,%d), dimension %d"
          % (args.m, args.n, args.N, len(module.elements)))
    return EXIT_OK


def cmd_critical(args):
    lam = _parse_comp(args.lam, "--lambda")
    if args.beta is not None and args.search:
        raise ParameterViolation("--beta and --search are exclusive")
    if args.beta is not None:
        beta = _parse_comp(args.beta, "--beta")
        ok = comb.is_critical_pair(lam, beta, args.m, args.n)
        _note("critical pair check (%s, %s) at (m,n)=(%d,%d): %s"
              % (lam, beta, args.m, args.n, ok))
        _emit({"lambda": list(lam), "beta": list(beta),
               "m": args.m, "n": args.n, "is_critical_pair": ok})
        return EXIT_OK
    if not args.search:
        raise ParameterViolation("need --beta or --search")
    max_len = args.max_len if args.max_len is not None else len(lam)
    partners = comb.find_critical_partners(
        lam, args.m, args.n, max_len, value_cap=args.cap)
    _note("%d partner(s) of %s within length %d" % (len(partners), lam,
                                                    max_len))
    _emit({"lambda": list(lam), "m": args.m, "n": args.n,
           "max_len": max_len, "value_cap": args.cap,
           "partners": [list(b) for b in partners]})
    return EXIT_OK


def cmd_repn(args):
    module = singular.build_module(args.m, args.n, args.N)
    mats = singular.seminormal_matrices(module)
    ok = singular.seminormal_check(module, mats)
    spectra = singular.murphy_spectra(module)
    out = {
        "label": module.label.to_json(),
        "dimension": len(module.elements),
        "e_tau": [list(e.sigma) for e in module.elements],
        "tableaux": [[list(r) for r in e.tableau.rows()]
                     for e in module.elements],
        "seminormal": singular.seminormal_json(mats),
        "murphy_spectra": spectra["spectra"],
        "murphy_spectra_ok": spectra["ok"],
        "seminormal_ok": ok,
    }
    for p, mat in mats.items():
        _note("(%d,%d):" % (p, p + 1),
              "; ".join(" ".join(rat_to_str(v) for v in row) for row in mat))
    _emit(out)
    if not (ok and spectra["ok"]):
        _note("falsified: seminormal or Murphy spectra")
        return EXIT_CERT
    return EXIT_OK


# ------------------------------------------------------------------- parsing

@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="singjack",
        description="Exact construction and certification of singular "
                    "polynomials for the symmetric group.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("label", help="resolve (m, n, N) to isotype and weight")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("zeta", help="construct a Jack polynomial")
    p.add_argument("--alpha", required=True,
                   help="composition, comma-separated")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--kappa", help="specialize at this rational")
    p.add_argument("--basis", choices=("x", "p"), default="x")
    p.set_defaults(func=cmd_zeta)

    p = sub.add_parser("verify", help="build and certify a singular module")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--oracle", action="store_true",
                   help="compare against the brute-force joint kernel")
    p.add_argument("--report", help="also write the JSON report here")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("critical", help="check or search critical pairs")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--beta")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--search", action="store_true")
    p.add_argument("--max-len", type=int)
    p.add_argument("--cap", type=int)
    p.set_defaults(func=cmd_critical)

    p = sub.add_parser("repn", help="seminormal matrices and Murphy spectra")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.set_defaults(func=cmd_repn)

    return parser


def _glue_values(argv):
    # lets "--kappa -1/2" survive argparse's option detection
    out = []
    it = iter(argv)
    for a in it:
        if a == "--kappa":
            v = next(it, None)
            out.append(a if v is None else "%s=%s" % (a, v))
        else:
            out.append(a)
    return out


def main(argv=None):
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_glue_values(argv))
    try:
        return args.func(args)
    except _USAGE_ERRORS as e:
        _note("error:", e)
        return EXIT_USAGE
    except (PoleError, singular.PoleAtSingularValue) as e:
        _note("pole:", e)
        return EXIT_POLE
    except _CERT_ERRORS as e:
        _note("falsified:", e)
        return EXIT_CERT
    except SearchBudgetExceeded as e:
        _note("budget:", e)
        return EXIT_BUDGET
    except Exception as e:
        import traceback  # kept off the start-up path: only faults need it
        _note("internal error: %s: %s" % (type(e).__name__, e))
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
