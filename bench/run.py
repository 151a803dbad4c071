"""singjack benchmark harness.

Drives the program as a user does, through ``singjack.cli.main(argv)``
with stdout and stderr captured, in a closed loop: one client, one
thread, the next operation starts when the previous one has returned.
Every operation starts with the in-process memo caches empty, as a fresh
CLI invocation does.

    python3 bench/run.py --workload verify_ladder --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` the layers are wrapped in span
shims (bench/spans.py) and the object holds the per-layer metrics
instead.  Every output is checked against bench/reference.json and
against invariants the harness computes itself.  A record of the run
goes to bench/out/.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from math import factorial
from time import perf_counter

import spans

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
REFERENCE = os.path.join(BENCH, "reference.json")

# Each verify workload is three cases: a pass short enough that a run holds
# several, and a middle case long enough (seconds) that the per-pass median
# averages over the machine's speed swings.
#
# Generic Q(kappa) arithmetic dominates, mostly the eigen self-check of
# every module element.  Both label families: the staircases (1,2,4) and
# (1,2,5) stress coefficient growth, the two-part module (2,5,6), with 9
# elements, stresses per-element certification and the seminormal report.
LADDER = [(1, 2, 4), (2, 5, 6), (1, 2, 5)]
# The brute-force joint kernel carries most of the time.  (2,4,5) is left
# out because the oracle fails it (see test_bench.py).
ORACLE = [(1, 3, 5), (4, 3, 4), (7, 2, 3)]
# zeta_requests draws from these compositions, each in both bases.
ZETA_POOL = ([(a, b, c) for d in range(1, 6) for a in range(d + 1)
              for b in range(d + 1 - a) for c in [d - a - b]]
             + [(a, b, c, e) for d in range(1, 4) for a in range(d + 1)
                for b in range(d + 1 - a) for c in range(d + 1 - a - b)
                for e in [d - a - b - c]])
KAPPAS = [None, "-1/2", "-1/3", "-2/3", "-1/4"]
HITS_PER_MISS = 2
SETUP_PROBES = 5
# The machine probe runs every PROBE_EVERY_S of a pass, between operations.
PROBE_EVERY_S = 0.5
SMOKE_OPS = 2

WORKLOADS = ("verify_ladder", "verify_oracle", "zeta_requests")

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("op_p50_s", "s"),
              ("op_p90_s", "s"), ("peak_rss_mb", "MB")]


def verify_argv(case, oracle):
    m, n, N = case
    return (["verify"] + (["--oracle"] if oracle else [])
            + ["--m", str(m), "--n", str(n), "--N", str(N)])


def zeta_argv(alpha, basis, kappa):
    argv = ["zeta", "--alpha", ",".join(map(str, alpha)),
            "--N", str(len(alpha)), "--basis", basis]
    return argv + (["--kappa", kappa] if kappa else [])


def zeta_pass(rng):
    """One pass of zeta requests: every pool key once as a miss, in a
    seeded order, interleaved with HITS_PER_MISS times as many requests for
    keys already requested in the pass.  Each request draws its kappa."""
    keys = [(alpha, basis) for alpha in ZETA_POOL for basis in "xp"]
    rng.shuffle(keys)
    seen = []
    ops = []
    misses_left = len(keys)
    hits_left = HITS_PER_MISS * len(keys)
    while misses_left or hits_left:
        if not seen or rng.random() * (misses_left + hits_left) < misses_left:
            key = keys[len(seen)]
            seen.append(key)
            misses_left -= 1
            kind = "miss"
        else:
            key = rng.choice(seen)
            hits_left -= 1
            kind = "hit"
        ops.append((kind, zeta_argv(key[0], key[1], rng.choice(KAPPAS))))
    return ops


def pass_maker(workload, seed):
    """Function returning the operations of pass i, as (kind, argv)."""
    if workload == "verify_ladder":
        ops = [("verify", verify_argv(c, False)) for c in LADDER]
        return lambda i: ops
    if workload == "verify_oracle":
        ops = [("verify", verify_argv(c, True)) for c in ORACLE]
        return lambda i: ops
    rng = random.Random(seed)
    made = []

    def make(i):
        while len(made) <= i:
            made.append(zeta_pass(rng))
        return made[i]
    return make


def all_reference_argvs():
    """Every argv any workload can issue, for bench/record_reference.py."""
    out = [verify_argv(c, False) for c in LADDER]
    out += [verify_argv(c, True) for c in ORACLE]
    out += [zeta_argv(a, b, k) for a in ZETA_POOL for b in "xp"
            for k in KAPPAS]
    return out


# ---------------------------------------------------------------- set-up

class Setup:
    """What a run needs before its first operation."""

    def __init__(self, workload, seed):
        if SRC not in sys.path:
            sys.path.insert(0, SRC)
        from singjack import cli, jack
        self.cli = cli
        self.jack = jack
        self.passes = pass_maker(workload, seed)
        self.passes(0)
        with open(REFERENCE) as fh:
            self.reference = json.load(fh)["ops"]
        os.makedirs(OUT, exist_ok=True)
        self.cache_root = tempfile.mkdtemp(prefix="cache-", dir=OUT)

    def close(self):
        shutil.rmtree(self.cache_root, ignore_errors=True)


def probe_setup(workload, seed):
    """Seconds from starting a fresh interpreter to the end of its set-up."""
    code = ("import sys; sys.path.insert(0, %r); import run; "
            "run.Setup(%r, %d).close()" % (BENCH, workload, seed))
    t0 = perf_counter()
    # no timeout: with one, wait() polls in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", code], check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


def machine_probe():
    """Seconds for a fixed pure-Python Fraction loop, the kind of work the
    program does.  It does not touch singjack: it shows how fast the machine
    ran at that moment, so a run on a busy machine can be told apart."""
    t0 = perf_counter()
    s = Fraction(0)
    for i in range(1, 4000):
        s += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    return perf_counter() - t0


# ------------------------------------------------------------ correctness

def digest(stdout):
    """sha256 of the stdout JSON with its timestamp removed ("" if none)."""
    if not stdout.strip():
        return hashlib.sha256(b"").hexdigest()
    obj = json.loads(stdout)
    if isinstance(obj, dict):
        obj.pop("timestamp", None)
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def syt_count(shape):
    """Standard Young tableaux of a partition, by the hook length formula."""
    shape = [r for r in shape if r]
    cols = [sum(1 for r in shape if r > c) for c in range(shape[0])]
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= (row - j - 1) + (cols[j] - i - 1) + 1
    return factorial(sum(shape)) // hooks


def verify_problems(report, oracle):
    """Invariants of a verify report that the harness checks itself."""
    problems = []
    want = syt_count(report["label"]["tau"])
    if report["dimension"] != want or len(report["basis"]) != want:
        problems.append("dimension %d, SYT count of tau %d"
                        % (report["dimension"], want))
    for el in report["basis"]:
        if not el["certificates"] or not all(el["certificates"].values()):
            problems.append("certificate false at %s" % (el["wlambda"],))
    for key in ("isotype_ok", "seminormal_ok", "murphy_spectra_ok"):
        if report.get(key) is not True:
            problems.append("%s is not true" % key)
    if oracle:
        cmp = report.get("kernel", {}).get("comparison", {})
        if cmp.get("equal_to_module") is not True:
            problems.append("equal_to_module is not true")
    return problems


def check(argv, code, stdout, reference):
    """Problems with one operation's outcome; empty when it is correct."""
    key = " ".join(argv)
    if key not in reference:
        return ["no reference for %s" % key]
    want_code, want_digest = reference[key]
    problems = []
    if code != want_code:
        problems.append("exit %r, expected %r" % (code, want_code))
    try:
        got = digest(stdout)
    except ValueError as e:
        return problems + ["stdout is not JSON: %s" % e]
    if got != want_digest:
        problems.append("stdout digest differs from the reference")
    if argv[0] == "verify" and stdout.strip():
        try:
            problems += verify_problems(json.loads(stdout),
                                        "--oracle" in argv)
        except (KeyError, TypeError, AttributeError) as e:
            problems.append("verify report lacks %s" % e)
    return problems


# ------------------------------------------------------------------ runs

def call(main, argv):
    """Run the CLI once; (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        except Exception as e:  # counted as a failed operation
            code = "raised %s: %s" % (type(e).__name__, e)
        dt = perf_counter() - t0
    return code, out.getvalue(), dt


def run(workload, seed, seconds, trace, smoke=False, reference=None):
    """Measure one workload; returns (result line, record)."""
    load_start = os.getloadavg()
    os.environ.pop("SINGJACK_CACHE_DIR", None)
    setup = Setup(workload, seed)
    if reference is None:
        reference = setup.reference
    tracer = None
    if trace:
        tracer = spans.Tracer()
        tracer.install()
    main = setup.cli.main
    t_run = perf_counter()
    passes = []
    failures = []
    probes = []
    op_id = 0
    try:
        while True:
            ops = setup.passes(len(passes))
            if smoke:
                ops = ops[:SMOKE_OPS]
            if workload == "zeta_requests":
                os.environ["SINGJACK_CACHE_DIR"] = tempfile.mkdtemp(
                    dir=setup.cache_root)
            lats, kinds, sizes, first = [], [], [], op_id
            speed = [machine_probe()]
            last_probe = perf_counter()
            for kind, argv in ops:
                setup.jack.clear_caches()
                gc.collect()
                if tracer:
                    tracer.current_op = op_id
                code, stdout, dt = call(main, argv)
                if tracer:
                    sizes.append(spans.size_metrics(tracer.take_results()))
                problems = check(argv, code, stdout, reference)
                if problems:
                    failures.append({"argv": argv, "problems": problems})
                lats.append(dt)
                kinds.append(kind)
                op_id += 1
                # set-up probes run between operations, spread over the
                # run, so that they see the machine the timed work saw
                if (not trace and len(probes) < SETUP_PROBES and
                        perf_counter() - t_run
                        >= len(probes) * seconds / SETUP_PROBES):
                    probes.append(probe_setup(workload, seed))
                if perf_counter() - last_probe >= PROBE_EVERY_S:
                    speed.append(machine_probe())
                    last_probe = perf_counter()
            speed.append(machine_probe())
            if workload == "zeta_requests":
                shutil.rmtree(os.environ.pop("SINGJACK_CACHE_DIR"))
            passes.append({"ops": [a for _, a in ops], "kinds": kinds,
                           "latency_s": lats, "first_op": first,
                           "sizes": sizes, "probe_s": speed})
            if smoke or perf_counter() - t_run >= seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()
        setup.close()
    attempted = sum(len(p["latency_s"]) for p in passes)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "smoke": smoke, "environment": environment(),
        "loadavg_start": load_start, "passes": len(passes),
        "attempted": attempted, "failed": len(failures),
        "fail_frac": len(failures) / attempted, "failures": failures[:20],
        "latency_s": [p["latency_s"] for p in passes],
        "machine_probe_s": [p["probe_s"] for p in passes],
    }
    if tracer:
        metrics = layer_metrics(tracer, passes, record)
        units = {name: unit for name, unit, _ in spans.PER_LAYER}
        tracer.write(os.path.join(OUT, "spans-%s.tsv.gz" % workload))
    else:
        while len(probes) < SETUP_PROBES:
            probes.append(probe_setup(workload, seed))
        metrics = e2e_metrics(passes)
        metrics["setup_s"] = statistics.median(probes)
        metrics["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        record["setup_probes_s"] = probes
        record["extra"] = extra_stats(passes)
        units = dict(END_TO_END)
    record["loadavg_end"] = os.getloadavg()
    record["metrics"] = metrics
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }
    return result, record


def e2e_metrics(passes):
    """The timed end-to-end metrics of the passes, each the median over
    passes: the pass's summed latency, and its 50th and 90th percentile."""
    lats = [p["latency_s"] for p in passes]
    return {"wall_s": statistics.median(sum(x) for x in lats),
            "op_p50_s": statistics.median(statistics.median(x) for x in lats),
            "op_p90_s": statistics.median(
                statistics.quantiles(x, n=10, method="inclusive")[-1]
                for x in lats)}


def extra_stats(passes):
    """Figures kept out of the gated metrics, each as [value, samples]:
    the slowest operation of a pass (median over passes), and on the zeta
    stream the median latency of cache misses and of cache hits."""
    out = {"op_max_s": [statistics.median(max(p["latency_s"])
                                          for p in passes), len(passes)]}
    by_kind = {}
    for p in passes:
        for kind, dt in zip(p["kinds"], p["latency_s"]):
            by_kind.setdefault(kind, []).append(dt)
    for kind in ("miss", "hit"):
        if by_kind.get(kind):
            out["%s_p50_s" % kind] = [statistics.median(by_kind[kind]),
                                      len(by_kind[kind])]
    return out


def layer_metrics(tracer, passes, record):
    """Median over passes of each per-layer metric of the pass."""
    per_op = spans.per_op_metrics(tracer)
    per_pass = []
    for p in passes:
        ids = range(p["first_op"], p["first_op"] + len(p["latency_s"]))
        ms = [per_op.get(i, {}) for i in ids]
        total = spans.combine(ms + p["sizes"])
        total["trace.wall_s"] = sum(p["latency_s"])
        per_pass.append(total)
    record["per_op_first_pass"] = [
        {"argv": argv, "metrics": {k: v for k, v in
                                   spans.combine([per_op.get(i, {}), s]).items()
                                   if v}}
        for argv, i, s in zip(passes[0]["ops"],
                              range(len(passes[0]["ops"])),
                              passes[0]["sizes"])]
    record["trace_missing_targets"] = tracer.missing
    untraced = os.path.join(OUT, "%s-seed%d-trace0.json"
                            % (record["workload"], record["seed"]))
    metrics = {name: statistics.median(m[name] for m in per_pass)
               for name in spans.METRIC_NAMES}
    if os.path.exists(untraced):
        with open(untraced) as fh:
            base = json.load(fh)["metrics"]["wall_s"]
        record["trace_overhead_frac"] = metrics["trace.wall_s"] / base - 1
    return metrics


def environment():
    """Python version, core count, commit and a digest of the sources."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "singjack")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "git_commit": git_commit(),
            "source_sha256": h.hexdigest()}


def git_commit():
    """HEAD of the checkout, read from .git without running git; None
    outside a git repository."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head) as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    path = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(path):
        with open(path) as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one pass of %d operations, for the self-test"
                        % SMOKE_OPS)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "singjack")):
        print("error: no singjack sources under %s" % SRC, file=sys.stderr)
        return 2
    result, record = run(args.workload, args.seed, args.seconds,
                         bool(args.trace), smoke=args.smoke)
    path = os.path.join(OUT, "%s-seed%d-trace%d%s.json" % (
        args.workload, args.seed, args.trace, "-smoke" if args.smoke else ""))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print("%s seed=%d trace=%d passes=%d attempted=%d failed=%d record=%s"
          % (args.workload, args.seed, args.trace, record["passes"],
             record["attempted"], record["failed"],
             os.path.relpath(path, ROOT)))
    print("machine probe median %.4f s (higher means a busier machine)"
          % statistics.median(m for p in record["machine_probe_s"]
                              for m in p))
    if record.get("extra"):
        print("ungated (value, samples):", json.dumps(record["extra"]))
    if "trace_overhead_frac" in record:
        print("trace overhead vs untraced wall_s: %+.1f%%"
              % (100 * record["trace_overhead_frac"]))
    for f in record["failures"][:5]:
        print("FAILED %s: %s" % (" ".join(f["argv"]), "; ".join(f["problems"])))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
