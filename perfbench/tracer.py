"""Span tracer that wraps homocat's public functions from outside the package.

The modules import each other with ``from .x import y``, so a function is
bound in several module namespaces (``minimize`` in ``complexes``, ``cli``,
``diagonalize`` and more).  ``Tracer.install`` therefore replaces every
``homocat.*`` binding that is the original object, not only the one in the
defining module.  A function that no longer exists is recorded as absent.

Spans (name, start, end, parent) are kept in flat arrays and written out at
the end.  Self time is a span's duration minus its child spans.  Work the
tracer itself does to compute counters (input sizes, repeat detection) is
timed separately as bookkeeping and excluded from every layer's self time.
"""

import json
import sys
import time
from array import array

# (module, function) pairs wrapped in the traced run.  "matmul" is
# Matrix.__mul__.  Functions of LOWER modules report calls and self time,
# those of UPPER modules (the check entry points) self and inclusive time, and
# the rest all three.
LAYERS = (
    ("exactlinalg", ("rref", "solve", "kernel", "matmul", "snf", "hnf")),
    ("modulecat", ("decompose", "hom_basis")),
    ("complexes", ("minimize", "solve_null_homotopy", "homotopy_inverse",
                   "tensor", "tensor_maps", "split_complex", "equivalent",
                   "homology")),
    ("convolutions", ("tot",)),
    ("interpolation", ("build_P", "build_Cab", "build_Cba",
                       "periodicity_map", "verify_eigenaction")),
    ("diagonalize", ("verify_orthogonality", "verify_idempotence",
                     "verify_decomposition_of_identity",
                     "tightness_spot_check")),
    ("eigen", ("check_PD1", "check_PD3_capped")),
    ("obstructions", ("self_obstruction_certificate",
                      "secondary_certificate", "cones_commute_equivalence")),
)
LOWER = {"exactlinalg"}
UPPER = {"interpolation", "diagonalize", "eigen", "obstructions"}
ATTRIBUTE_PATHS = {("exactlinalg", "matmul"): ("Matrix", "__mul__")}

# Counters recorded at a layer boundary, with their unit and direction.
COUNTERS = (
    ("exactlinalg.rref.entries", "count", "lower"),
    ("exactlinalg.rref.max_entries", "count", "lower"),
    ("exactlinalg.solve.unsolvable", "count", "lower"),
    ("exactlinalg.snf.max_entries", "count", "lower"),
    ("complexes.minimize.dim_in", "count", "lower"),
    ("complexes.minimize.dim_out", "count", "lower"),
    ("complexes.minimize.repeat_frac", "frac", "lower"),
)
TRACE_METRICS = (
    ("cli.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.bookkeeping_s", "s", "lower"),
    ("trace.coverage_frac", "frac", "higher"),
    ("trace.reconcile_err_frac", "frac", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.absent_fns", "count", "lower"),
)


def function_metrics():
    """(name, unit, better) for every wrapped function's metrics."""
    out = []
    for module, fns in LAYERS:
        for fn in fns:
            base = f"{module}.{fn}"
            if module not in UPPER:
                out.append((base + ".calls", "count", "lower"))
            out.append((base + ".self_s", "s", "lower"))
            if module not in LOWER:
                out.append((base + ".incl_s", "s", "lower"))
    return out


def metric_specs(check_ids):
    """Every per-layer metric of a traced run, in report order."""
    checks = [(f"cli.check.{cid}.s", "s", "lower") for cid in check_ids]
    return function_metrics() + list(COUNTERS) + checks + list(TRACE_METRICS)


def _entries(m):
    return getattr(m, "rows", 0) * getattr(m, "cols", 0)


class Tracer:
    ROOT = -1

    def __init__(self):
        self.names = []
        self.name_index = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [self.ROOT]
        self.child = [0.0]
        self.calls, self.self_s, self.incl_s, self.depth = [], [], [], []
        self.counters = {name: 0 for name, _, _ in COUNTERS}
        self.minimize_inputs = set()
        self.bookkeeping_s = 0.0
        self.absent = []

    # -- wrapping ------------------------------------------------------------
    def _index(self, name):
        if name not in self.name_index:
            self.name_index[name] = len(self.names)
            self.names.append(name)
            for acc in (self.calls, self.self_s, self.incl_s, self.depth):
                acc.append(0)
        return self.name_index[name]

    def _bookkeep(self, hook, *args):
        t0 = time.perf_counter()
        hook(*args)
        d = time.perf_counter() - t0
        self.bookkeeping_s += d
        self.child[-1] += d

    def wrap(self, name, fn, pre=None, post=None):
        """Return fn wrapped in a span named ``name``."""
        idx = self._index(name)
        clock = time.perf_counter
        stack, child = self.stack, self.child
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        calls, self_s, incl_s, depth = (self.calls, self.self_s,
                                        self.incl_s, self.depth)

        def traced(*args, **kwargs):
            if pre is not None:
                self._bookkeep(pre, args)
            sid = len(span_name)
            span_name.append(idx)
            span_parent.append(stack[-1])
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(sid)
            child.append(0.0)
            depth[idx] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                d = t1 - t0
                stack.pop()
                nested = child.pop()
                child[-1] += d
                calls[idx] += 1
                self_s[idx] += d - nested
                depth[idx] -= 1
                if depth[idx] == 0:  # recursion counts once inclusively
                    incl_s[idx] += d
                span_start[sid] = t0
                span_end[sid] = t1
            if post is not None:
                self._bookkeep(post, args, result)
            return result

        return traced

    def install(self):
        """Wrap every LAYERS function in every homocat module that binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if (n == "homocat" or n.startswith("homocat."))
                   and m is not None]
        hooks = {
            "exactlinalg.rref": (self._pre_rref, None),
            "exactlinalg.solve": (None, self._post_solve),
            "exactlinalg.snf": (self._pre_snf, None),
            "complexes.minimize": (self._pre_minimize, self._post_minimize),
        }
        for module, fns in LAYERS:
            owner = sys.modules.get(f"homocat.{module}")
            for fn in fns:
                name = f"{module}.{fn}"
                self._index(name)
                path = ATTRIBUTE_PATHS.get((module, fn), (fn,))
                holder = owner
                for part in path[:-1]:
                    holder = getattr(holder, part, None)
                orig = getattr(holder, path[-1], None)
                if not callable(orig):
                    self.absent.append(name)
                    continue
                wrapper = self.wrap(name, orig, *hooks.get(name, (None, None)))
                if len(path) > 1:
                    setattr(holder, path[-1], wrapper)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)

    # -- counters ------------------------------------------------------------
    def _pre_rref(self, args):
        n = _entries(args[0]) if args else 0
        c = self.counters
        c["exactlinalg.rref.entries"] += n
        c["exactlinalg.rref.max_entries"] = max(
            c["exactlinalg.rref.max_entries"], n)

    def _post_solve(self, args, result):
        if result is None:
            self.counters["exactlinalg.solve.unsolvable"] += 1

    def _pre_snf(self, args):
        n = _entries(args[0]) if args else 0
        c = self.counters
        c["exactlinalg.snf.max_entries"] = max(
            c["exactlinalg.snf.max_entries"], n)

    def _pre_minimize(self, args):
        if not args:
            return
        c = args[0]
        self.counters["complexes.minimize.dim_in"] += c.total_dim()
        key = hash(c)  # Complex hashes its terms and differentials
        if key in self.minimize_inputs:
            self.counters["complexes.minimize.repeat_frac"] += 1
        self.minimize_inputs.add(key)

    def _post_minimize(self, args, result):
        minimal = getattr(result, "minimal", None)
        if minimal is not None:
            self.counters["complexes.minimize.dim_out"] += minimal.total_dim()

    # -- results -------------------------------------------------------------
    def metrics(self, wall_s, check_ids):
        """Per-layer metrics for a traced interval of ``wall_s`` seconds."""
        values = {}
        layer_self = 0.0
        for module, fns in LAYERS:
            for fn in fns:
                idx = self.name_index[f"{module}.{fn}"]
                base = f"{module}.{fn}"
                values[base + ".calls"] = self.calls[idx]
                values[base + ".self_s"] = self.self_s[idx]
                values[base + ".incl_s"] = self.incl_s[idx]
                layer_self += self.self_s[idx]
        for cid in check_ids:
            idx = self.name_index.get(f"cli.check.{cid}")
            values[f"cli.check.{cid}.s"] = \
                self.incl_s[idx] if idx is not None else 0.0
        counters = dict(self.counters)
        calls = values["complexes.minimize.calls"]
        counters["complexes.minimize.repeat_frac"] = \
            counters["complexes.minimize.repeat_frac"] / calls if calls else 0.0
        values.update(counters)
        # cli self time: the checks' own code plus time in no span at all.
        check_self = sum(self.self_s[i] for n, i in self.name_index.items()
                         if n.startswith("cli.check."))
        top_level = sum(self.span_end[s] - self.span_start[s]
                        for s in range(len(self.span_name))
                        if self.span_parent[s] == self.ROOT)
        cli_self = check_self + wall_s - top_level
        values["cli.self_s"] = cli_self
        values["trace.wall_s"] = wall_s
        values["trace.bookkeeping_s"] = self.bookkeeping_s
        values["trace.coverage_frac"] = layer_self / wall_s
        total = layer_self + cli_self + self.bookkeeping_s
        values["trace.reconcile_err_frac"] = abs(total - wall_s) / wall_s
        values["trace.spans"] = len(self.span_name)
        values["trace.absent_fns"] = len(self.absent)
        return values

    def write(self, stem):
        """Write the spans as ``stem.json`` (names, format) + ``stem.bin``."""
        with open(stem + ".bin", "wb") as fh:
            for arr in (self.span_name, self.span_parent,
                        self.span_start, self.span_end):
                arr.tofile(fh)
        with open(stem + ".json", "w") as fh:
            json.dump({"names": self.names, "absent": self.absent,
                       "spans": len(self.span_name),
                       "layout": [["name", "i"], ["parent", "q"],
                                  ["start", "d"], ["end", "d"]],
                       "root_parent": self.ROOT}, fh, indent=1)
