"""Command-line entry points.

Machine-readable JSON goes to stdout, human-readable summaries to
stderr.  Exit codes: 0 success, 2 usage or parameter problems, 3 pole at
the requested value, 4 a falsified certificate, 5 search budget
exhausted, 6 an internal fault: any other exception, noted on stderr as
"internal error:".  The command line is the only input: nothing is
read from or written to disk apart from --report.
"""

import argparse
import functools
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from . import combinatorics as comb
from . import jack
from . import oracle
from . import singular
from .combinatorics import (ParameterViolation, SearchBudgetExceeded,
                            UsageError)
from .exactarith import PoleError, rat_to_str

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_POLE = 3
EXIT_CERT = 4
EXIT_BUDGET = 5
EXIT_INTERNAL = 6

_CERT_ERRORS = (singular.NotAnnihilated, singular.ExpansionFailure,
                jack.FormulaMismatch, jack.SolveFailure,
                oracle.KernelInvariantError)


def _dumps(obj):
    """json.dumps(obj, indent=1), byte for byte, for the JSON the program
    writes: dicts with str keys, lists, tuples, str, int, bool and None;
    anything else raises TypeError.  json runs its pure-Python encoder
    whenever indent is set; here a list of plain ints or of plain strings,
    which is most of a report, is written by str or
    encode_basestring_ascii and one str.join."""
    out = []
    _write(obj, "\n", out)
    return "".join(out)


def _write(obj, nl, out):
    # nl is the newline and indent of the line obj starts on
    if isinstance(obj, str):
        out.append(_quote(obj))
    elif obj is None or obj is True or obj is False:
        out.append(_SCALARS[obj])
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + " "
        if all(type(x) is int for x in obj):
            out.append("[" + inner + ("," + inner).join(map(str, obj))
                       + nl + "]")
        elif all(type(x) is str for x in obj):
            out.append("[" + inner + ("," + inner).join(map(_quote, obj))
                       + nl + "]")
        else:
            out.append("[" + inner)
            for k, x in enumerate(obj):
                if k:
                    out.append("," + inner)
                _write(x, inner, out)
            out.append(nl + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + " "
        sep = "{" + inner
        for key, x in obj.items():
            if not isinstance(key, str):
                raise TypeError("key %r is not a str" % (key,))
            out.append(sep + _quote(key) + ": ")
            _write(x, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    else:
        raise TypeError("Object of type %s is not JSON serializable"
                        % type(obj).__name__)


_SCALARS = {None: "null", True: "true", False: "false"}


def _emit(obj):
    sys.stdout.write(_dumps(obj) + "\n")


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
    build = jack.zeta_x if args.basis == "x" else jack.zeta_p
    try:
        jp = build(alpha, args.N)
    finally:
        # the memo serves this one request
        jack.clear_caches()
    if args.kappa is None:
        _note("zeta_%s at alpha=%s N=%d: %d terms, generic kappa"
              % (args.basis, alpha, args.N, len(jp.coeffs)))
        _emit(jp.to_json())
        return EXIT_OK
    kappa0 = _parse_kappa(args.kappa)
    try:
        f = jp.specialize(kappa0)
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
    report = module.to_json()
    report["isotype_ok"] = singular.isotype_check(module)
    report["seminormal_ok"] = singular.seminormal_check(module)
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
        _note("kernel dimension %d by %s, module dimension %d, "
              "contains=%s equal=%s"
              % (comparison["kernel_dimension"], kern.method,
                 comparison["module_dimension"],
                 comparison["contains_module"],
                 comparison["equal_to_module"]))
    for el in module.elements:
        _note("  w=%s wlambda=%s certificates=%s"
              % (el.w, el.sigma, el.certificates))
    text = _dumps(report)
    if args.report:
        try:
            with open(args.report, "w") as fh:
                fh.write(text)
        except OSError as e:
            raise ParameterViolation("cannot write --report: %s" % e)
        _note("report written to", args.report)
    sys.stdout.write(text + "\n")
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
    p.add_argument("--cap", type=int,
                   help="largest part allowed in a partner (default: the "
                        "largest part of lambda)")
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
    except UsageError as e:
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
