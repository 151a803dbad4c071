"""Outside-in span tracing of the singjack layers.

The tracer wraps public functions of each module in shims that record a
span (name, start, end, parent span, operation id).  A shim is installed
in every singjack namespace that binds the original function object, so a
caller that imported the function by name (``jack`` binds ``cherednik``
and ``dunkl`` from ``operators``) is traced too.  Spans live in flat
arrays while the run lasts; the per-layer metrics are computed from them
afterwards, and the spans are written out when the run ends.
"""

import gzip
import importlib
from array import array
from time import perf_counter

# (span name, attribute path in the module the name starts with).  Each is
# a public entry point of its layer, except jack.eigen_check, which is the
# self-check JackPoly runs on construction and has no public name.
TARGETS = [
    ("exactarith.poly_gcd", "poly_gcd"),
    ("combinatorics.down_set", "down_set"),
    ("combinatorics.rlp_enumerate", "rlp_enumerate"),
    ("multipoly.specialize", "specialize"),
    ("multipoly.from_json", "MultiPoly.from_json"),
    ("operators.cherednik", "cherednik"),
    ("operators.dunkl", "dunkl"),
    ("operators.murphy", "murphy"),
    ("jack.zeta_x", "zeta_x"),
    ("jack.zeta_p", "zeta_p"),
    ("jack.eigen_check", "JackPoly._assert_eigen"),
    ("singular.build_module", "build_module"),
    ("singular.to_json", "SingularModule.to_json"),
    ("singular.murphy_check", "murphy_spectrum_check"),
    ("singular.seminormal_matrices", "seminormal_matrices"),
    ("singular.isotype_check", "isotype_check"),
    ("singular.seminormal_check", "seminormal_check"),
    ("oracle.dunkl_matrix", "dunkl_matrix"),
    ("oracle.joint_kernel", "joint_kernel"),
    ("oracle.compare_with_module", "compare_with_module"),
    ("cli.cached_zeta", "cached_zeta"),
    ("cli.main", "main"),
]

# Spans whose return values size_metrics() reads.
KEEP_RESULTS = {"jack.zeta_x", "oracle.joint_kernel", "combinatorics.down_set"}


# Per-layer metrics in the order they are printed: (name, unit, better).
# README.md maps each to the end-to-end metric and workload it should move.
PER_LAYER = [
    ("exactarith.poly_gcd.calls", "count", "lower"),
    ("exactarith.poly_gcd.self_s", "s", "lower"),
    ("combinatorics.down_set.calls", "count", "lower"),
    ("combinatorics.down_set.s", "s", "lower"),
    ("combinatorics.down_set.size", "count", "lower"),
    ("combinatorics.rlp_enumerate.s", "s", "lower"),
    ("multipoly.specialize.calls", "count", "lower"),
    ("multipoly.specialize.s", "s", "lower"),
    ("multipoly.from_json.s", "s", "lower"),
    ("operators.cherednik.calls", "count", "lower"),
    ("operators.cherednik.self_s", "s", "lower"),
    ("operators.dunkl.calls", "count", "lower"),
    ("operators.dunkl.self_s", "s", "lower"),
    ("operators.murphy.calls", "count", "lower"),
    ("operators.murphy.s", "s", "lower"),
    ("jack.zeta_x.calls", "count", "lower"),
    ("jack.zeta_x.s", "s", "lower"),
    ("jack.zeta_p.s", "s", "lower"),
    ("jack.eigen_check.calls", "count", "lower"),
    ("jack.eigen_check.s", "s", "lower"),
    ("jack.solve.self_s", "s", "lower"),
    ("jack.terms.sum", "count", "lower"),
    ("jack.kappa_degree.max", "count", "lower"),
    ("jack.coeff_bits.max", "bits", "lower"),
    ("singular.build_module.s", "s", "lower"),
    ("singular.annihilation.s", "s", "lower"),
    ("singular.murphy_check.s", "s", "lower"),
    ("singular.seminormal_matrices.calls", "count", "lower"),
    ("singular.seminormal_matrices.s", "s", "lower"),
    ("singular.to_json.s", "s", "lower"),
    ("singular.isotype_check.s", "s", "lower"),
    ("singular.seminormal_check.s", "s", "lower"),
    ("oracle.dunkl_matrix.s", "s", "lower"),
    ("oracle.joint_kernel.self_s", "s", "lower"),
    ("oracle.compare_with_module.s", "s", "lower"),
    ("oracle.columns", "count", "lower"),
    ("oracle.kernel_dim", "count", "higher"),
    ("cli.cached_zeta.s", "s", "lower"),
    ("cli.cache.hits", "count", "higher"),
    ("cli.cache.misses", "count", "lower"),
    ("cli.cache.hit_ratio", "ratio", "higher"),
    ("cli.main.s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
]
METRIC_NAMES = [m[0] for m in PER_LAYER]


def _resolve(modname, path):
    """(owner, attribute name, attribute) for a dotted path, or None."""
    owner = importlib.import_module(modname)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    raw = vars(owner)[attr]
    return owner, attr, raw


class Tracer:
    """Records spans of the wrapped functions into flat arrays."""

    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.name_ix = array("i")
        self.parent = array("l")
        self.op = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_op = -1
        self.missing = []
        self.results = {}  # span name -> returned objects of the current op
        self._undo = []

    def _shim(self, ix, fn, keep_result):
        name_ix, parent, op, start, end = (self.name_ix, self.parent,
                                           self.op, self.start, self.end)
        stack = self.stack
        tracer = self
        kept = self.results.setdefault(self.names[ix], []) if keep_result \
            else None

        def shim(*args, **kwargs):
            sid = len(start)
            name_ix.append(ix)
            parent.append(stack[-1])
            op.append(tracer.current_op)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[sid] = t0
                end[sid] = t1
            if kept is not None:
                kept.append(out)
            return out

        return shim

    def install(self):
        """Wrap every target; a target the code no longer has is listed in
        self.missing and its metrics read 0."""
        mods = [importlib.import_module("singjack." + m) for m in
                {name.split(".")[0] for name, _ in TARGETS}]
        for ix, (name, path) in enumerate(TARGETS):
            got = _resolve("singjack." + name.split(".")[0], path)
            if got is None:
                self.missing.append(name)
                continue
            owner, attr, raw = got
            if isinstance(raw, classmethod):
                shim = classmethod(self._shim(ix, raw.__func__, False))
            else:
                shim = self._shim(ix, raw, name in KEEP_RESULTS)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, shim)
            if "." in path:
                continue
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is raw and mod is not owner:
                        self._undo.append((mod, key, raw))
                        setattr(mod, key, shim)

    def uninstall(self):
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo = []

    def take_results(self):
        """Objects returned by the kept spans since the last call."""
        out = {k: list(v) for k, v in self.results.items()}
        for v in self.results.values():
            v.clear()
        return out

    def write(self, path):
        """Spans as tab-separated lines: id, parent, op, name, start, end."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tparent\top\tname\tstart\tend\n")
            for sid in range(len(self.start)):
                fh.write("%d\t%d\t%d\t%s\t%.9f\t%.9f\n" % (
                    sid, self.parent[sid], self.op[sid],
                    self.names[self.name_ix[sid]], self.start[sid],
                    self.end[sid]))


def per_op_metrics(tracer):
    """Per-layer metrics of every traced operation, keyed by operation id.

    ``.calls`` counts spans, ``.s`` sums their durations and ``.self_s``
    sums their durations minus the time covered by their child spans.
    Derived from the span tree: ``singular.annihilation.s`` is the Dunkl
    operator time spent directly in build_module, ``jack.solve.self_s`` is
    zeta_x without the eigen self-check it runs, and a cache hit is a
    cached_zeta span that loaded a MultiPoly.
    """
    names = tracer.names
    ix = {n: i for i, n in enumerate(names)}
    name_ix, parent, op = tracer.name_ix, tracer.parent, tracer.op
    nspans = len(tracer.start)
    dur = [tracer.end[s] - tracer.start[s] for s in range(nspans)]
    child = [0.0] * nspans
    for s in range(nspans):
        if parent[s] >= 0:
            child[parent[s]] += dur[s]
    loaded = set()
    for s in range(nspans):
        if name_ix[s] == ix["multipoly.from_json"]:
            a = parent[s]
            while a >= 0 and name_ix[a] != ix["cli.cached_zeta"]:
                a = parent[a]
            loaded.add(a)
    acc = {}
    for s in range(nspans):
        o = op[s]
        m = acc.get(o)
        if m is None:
            m = acc[o] = dict.fromkeys(METRIC_NAMES, 0)
        i = name_ix[s]
        name = names[i]
        d = dur[s]
        m[name + ".calls"] = m.get(name + ".calls", 0) + 1
        m[name + ".s"] = m.get(name + ".s", 0.0) + d
        m[name + ".self_s"] = m.get(name + ".self_s", 0.0) + d - child[s]
        p = name_ix[parent[s]] if parent[s] >= 0 else -1
        if i == ix["operators.dunkl"] and p == ix["singular.build_module"]:
            m["singular.annihilation.s"] += d
        if i == ix["jack.zeta_x"]:
            m["jack.solve.self_s"] += d
        if i == ix["jack.eigen_check"] and p == ix["jack.zeta_x"]:
            m["jack.solve.self_s"] -= d
        if i == ix["cli.cached_zeta"]:
            key = "cli.cache.hits" if s in loaded else "cli.cache.misses"
            m[key] += 1
    return acc


def size_metrics(results):
    """Counters read from the objects the kept spans returned."""
    terms = 0
    kdeg = 0
    bits = 0
    for jp in results.get("jack.zeta_x", []):
        terms += len(jp.poly.terms)
        for c in jp.poly.terms.values():
            for kp in (c.num, c.den):
                kdeg = max(kdeg, kp.degree)
                for q in kp.coeffs:
                    bits = max(bits, q.numerator.bit_length(),
                               q.denominator.bit_length())
    size = sum(len(d) for d in results.get("combinatorics.down_set", []))
    cols = dim = 0
    for rep in results.get("oracle.joint_kernel", []):
        cols += len(rep.monomials)
        dim += rep.dimension
    return {"jack.terms.sum": terms, "jack.kappa_degree.max": kdeg,
            "jack.coeff_bits.max": bits, "combinatorics.down_set.size": size,
            "oracle.columns": cols, "oracle.kernel_dim": dim}


def combine(per_op):
    """Sum per-operation metrics into one set; ``.max`` entries take the
    maximum and the hit ratio is recomputed from the sums."""
    out = dict.fromkeys(METRIC_NAMES, 0)
    for m in per_op:
        for k, v in m.items():
            if k.endswith(".max"):
                out[k] = max(out.get(k, 0), v)
            else:
                out[k] = out.get(k, 0) + v
    hits, misses = out["cli.cache.hits"], out["cli.cache.misses"]
    out["cli.cache.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    return out
