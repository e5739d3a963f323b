"""Span tracer for the benchmark's traced runs.

The tracer wraps public functions of the ``fdtc`` package from the
outside: it replaces each function in every ``fdtc.*`` module namespace
that holds it (``fdtc.cli.standard_triangulation`` as well as
``fdtc.surface.standard_triangulation``) and each traced method on its
class.  Nothing under ``src/`` changes.

Every call of a wrapped function becomes a span (name, start ns, end ns,
parent span id, op id).  Spans are kept in memory as flat integer arrays
and written out when the run ends.  Self time (span time minus the time
of its child spans) and the layer counters are accumulated while the
spans close, so reading the per-layer metrics needs no second pass.
"""

from __future__ import annotations

import array
import functools
import importlib
import json
import sys
import time

# (module, attribute path) of every traced public function
TRACED = (
    ("surface", "standard_triangulation"),
    ("curves", "compare_at_base"),
    ("curves", "enumerate_arcs"),
    ("curves", "boundary_drag"),
    ("engine", "twist_encoding"),
    ("engine", "boundary_twist_encoding"),
    ("engine", "half_twist_encoding"),
    ("engine", "shorten_curve"),
    ("engine", "encoding_from_probe_images"),
    ("engine", "pair_curve_weights"),
    ("engine", "Encoding.forward"),
    ("mcg", "MappingClassWord.encoding"),
    ("mcg", "MappingClassWord.power"),
    ("mcg", "MappingClassWord.apply"),
    ("fdtc", "fdtc_exact"),
    ("fdtc", "key_lemma_interval"),
    ("fdtc", "unique_bounded_denominator"),
    ("foliation", "validate_graph"),
    ("foliation", "transverse_ot_disc_check"),
    ("foliation", "multi_point_bounds"),
    ("foliation", "aggregate_bounds"),
    ("topology", "irreducibility_verdict"),
    ("topology", "atoroidality_verdict"),
    ("topology", "geometry_verdict"),
    ("topology", "stabilization_obstruction"),
    ("cli", "parse_problem"),
    ("cli", "run"),
    ("cli", "emit_report"),
)

# entry points of generator compilation, and the searches they reach only
# on a cache miss
COMPILE_ENTRIES = frozenset((
    "engine.twist_encoding", "engine.boundary_twist_encoding",
    "engine.half_twist_encoding",
))
COMPILE_MISSES = frozenset((
    "engine.shorten_curve", "engine.encoding_from_probe_images",
    "engine.pair_curve_weights",
))

# metrics summed over several traced functions
GROUPS = {
    "foliation.bounds": ("foliation.multi_point_bounds",
                         "foliation.aggregate_bounds"),
    "topology.verdicts": ("topology.irreducibility_verdict",
                          "topology.atoroidality_verdict",
                          "topology.geometry_verdict",
                          "topology.stabilization_obstruction"),
}

# the layer metrics reported as <name>.calls and <name>.self_s
CALLS_AND_SELF = (
    "surface.standard_triangulation",
    "curves.compare_at_base", "curves.enumerate_arcs", "curves.boundary_drag",
    "engine.twist_encoding", "engine.shorten_curve",
    "engine.encoding_from_probe_images", "engine.half_twist_encoding",
    "engine.Encoding.forward",
    "mcg.MappingClassWord.encoding", "mcg.MappingClassWord.power",
    "mcg.MappingClassWord.apply",
    "fdtc.fdtc_exact", "fdtc.key_lemma_interval",
    "fdtc.unique_bounded_denominator",
)
SELF_ONLY = (
    "foliation.validate_graph", "foliation.transverse_ot_disc_check",
    "foliation.bounds", "topology.verdicts",
    "cli.parse_problem", "cli.run", "cli.emit_report",
)
COUNTERS = ("steps", "max_bits", "n_max", "exact", "exact_intervals",
            "entries", "misses", "letters", "interval_compares")


def per_layer_units() -> dict:
    """Metric name -> unit for every per-layer metric the tracer yields,
    plus the tracing-overhead figures the harness adds."""
    units = {}
    for name in CALLS_AND_SELF:
        units[name + ".calls"] = "count"
        units[name + ".self_s"] = "s"
    for name in SELF_ONLY:
        units[name + ".self_s"] = "s"
    units.update({
        "curves.max_coord_bits": "bits",
        "engine.compile_hit_ratio": "ratio",
        "engine.steps_replayed": "count",
        "engine.ns_per_step": "ns",
        "mcg.letters_compiled": "count",
        "fdtc.intervals_per_exact": "ratio",
        "fdtc.compares_per_interval": "ratio",
        "fdtc.exact_ratio": "ratio",
        "fdtc.N_max": "count",
        "trace.ops_per_s_untraced": "1/s",
        "trace.ops_per_s_traced": "1/s",
        "trace.overhead_ratio": "ratio",
    })
    return units


class Tracer:
    """Records spans of the wrapped functions while installed.

    ``op`` is the id of the benchmark operation in progress; the harness
    sets it before each op so that spans of one op share it."""

    def __init__(self):
        self.op = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one entry per span, in the order spans open
        self.span_name = array.array("q")
        self.span_start = array.array("q")
        self.span_end = array.array("q")
        self.span_parent = array.array("q")
        self.span_op = array.array("q")
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack: list = []  # [span id, name, child ns] per open span
        self._patches: list = []  # (owner, attribute, original, wrapper)

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every function in TRACED, in every loaded fdtc module that
        refers to it.  The wrappers are made on the first call; later
        calls put the same wrappers back."""
        if not self._patches:
            self._patches = self._find_patches()
        for owner, attr, _, wrapped in self._patches:
            setattr(owner, attr, wrapped)

    def _find_patches(self):
        for mod_name, _ in TRACED:
            importlib.import_module("fdtc." + mod_name)
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "fdtc" or k.startswith("fdtc."))]
        patches = []
        for mod_name, path in TRACED:
            owner = sys.modules["fdtc." + mod_name]
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self._wrap("%s.%s" % (mod_name, path), original)
            if cls_path:
                patches.append((owner, attr, original, wrapped))
                continue
            for mod in modules:
                for key, value in vars(mod).items():
                    if value is original:
                        patches.append((mod, key, original, wrapped))
        return patches

    def uninstall(self):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- spans -------------------------------------------------------------

    def _wrap(self, name, fn):
        name_id = self._name_ids.setdefault(name, len(self._name_ids))
        if name_id == len(self.names):
            self.names.append(name)
        observe = _OBSERVERS.get(name)
        tracer = self
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            sid = len(tracer.span_name)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(parent[0] if parent else -1)
            tracer.span_op.append(tracer.op)
            frame = [sid, name, 0]
            stack.append(frame)
            t0 = clock()
            tracer.span_start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                tracer.span_end.append(t1)
                tracer._close(name, t1 - t0, frame[2], parent)
            if observe is not None:
                observe(tracer.counters, args, kwargs, result,
                        parent[1] if parent else None)
            return result

        return traced

    def _close(self, name, dur, child_ns, parent):
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_ns[name] = self.self_ns.get(name, 0) + dur - child_ns
        if parent is not None:
            parent[2] += dur
        if name in COMPILE_ENTRIES:
            if parent is None or parent[1] not in COMPILE_ENTRIES:
                self.counters["entries"] += 1
            if parent is not None and parent[1] == "mcg.MappingClassWord.encoding":
                self.counters["letters"] += 1
        elif name in COMPILE_MISSES:
            self.counters["misses"] += 1

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Mergeable totals: calls and self time per span name, and the
        raw counters."""
        return {"calls": dict(self.calls), "self_ns": dict(self.self_ns),
                "counters": dict(self.counters)}

    def write_spans(self, path):
        """Write the spans as one JSON header line followed by the five
        int64 arrays (name id, start ns, end ns, parent id, op id)."""
        with open(path, "wb") as fh:
            fh.write((json.dumps({"names": self.names,
                                  "count": len(self.span_name),
                                  "fields": ["name", "start_ns", "end_ns",
                                             "parent", "op"]})
                      + "\n").encode())
            for arr in (self.span_name, self.span_start, self.span_end,
                        self.span_parent, self.span_op):
                arr.tofile(fh)


def _observe_forward(counters, args, kwargs, result, parent):
    counters["steps"] += len(args[0].steps)


def _observe_apply(counters, args, kwargs, result, parent):
    bits = max((w.bit_length() for w in result.weights), default=0)
    if bits > counters["max_bits"]:
        counters["max_bits"] = bits


def _observe_key_lemma(counters, args, kwargs, result, parent):
    n = kwargs["N"] if "N" in kwargs else args[3]
    if n > counters["n_max"]:
        counters["n_max"] = n
    if parent == "fdtc.fdtc_exact":
        counters["exact_intervals"] += 1


def _observe_exact(counters, args, kwargs, result, parent):
    if result.value is not None:
        counters["exact"] += 1


def _observe_compare(counters, args, kwargs, result, parent):
    if parent == "fdtc.key_lemma_interval":
        counters["interval_compares"] += 1


_OBSERVERS = {
    "engine.Encoding.forward": _observe_forward,
    "mcg.MappingClassWord.apply": _observe_apply,
    "fdtc.key_lemma_interval": _observe_key_lemma,
    "fdtc.fdtc_exact": _observe_exact,
    "curves.compare_at_base": _observe_compare,
}


def merge(total: dict, part: dict):
    """Add one summary() into another (used for the CLI children)."""
    for key in ("calls", "self_ns"):
        for name, v in part[key].items():
            total[key][name] = total[key].get(name, 0) + v
    for name, v in part["counters"].items():
        if name in ("max_bits", "n_max"):
            total["counters"][name] = max(total["counters"][name], v)
        else:
            total["counters"][name] += v


def empty_summary() -> dict:
    return {"calls": {}, "self_ns": {}, "counters": dict.fromkeys(COUNTERS, 0)}


def layer_metrics(summary: dict) -> dict:
    """The per-layer metric values from a (merged) summary."""
    calls, self_ns, cnt = summary["calls"], summary["self_ns"], summary["counters"]

    def c(name):
        return calls.get(name, 0)

    def s(name):
        members = GROUPS.get(name, (name,))
        return sum(self_ns.get(m, 0) for m in members) / 1e9

    out = {}
    for name in CALLS_AND_SELF:
        out[name + ".calls"] = c(name)
        out[name + ".self_s"] = s(name)
    for name in SELF_ONLY:
        out[name + ".self_s"] = s(name)
    entries = cnt["entries"]
    exact_calls = c("fdtc.fdtc_exact")
    intervals = c("fdtc.key_lemma_interval")
    exact_intervals = cnt["exact_intervals"]
    out.update({
        "curves.max_coord_bits": cnt["max_bits"],
        "engine.compile_hit_ratio":
            1 - cnt["misses"] / entries if entries else 1.0,
        "engine.steps_replayed": cnt["steps"],
        "engine.ns_per_step":
            self_ns.get("engine.Encoding.forward", 0) / cnt["steps"]
            if cnt["steps"] else 0.0,
        "mcg.letters_compiled": cnt["letters"],
        "fdtc.intervals_per_exact":
            exact_intervals / exact_calls if exact_calls else 0.0,
        "fdtc.compares_per_interval":
            cnt["interval_compares"] / intervals if intervals else 0.0,
        "fdtc.exact_ratio": cnt["exact"] / exact_calls if exact_calls else 0.0,
        "fdtc.N_max": cnt["n_max"],
    })
    return out


def self_time_shares(summary: dict) -> list:
    """(share of total self time, span name), largest first."""
    total = sum(summary["self_ns"].values()) or 1
    return sorted(((v / total, k) for k, v in summary["self_ns"].items()),
                  reverse=True)


def read_spans(path):
    """(names, [name, start, end, parent, op] arrays) from write_spans."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        arrays = []
        for _ in header["fields"]:
            arr = array.array("q")
            arr.fromfile(fh, header["count"])
            arrays.append(arr)
    return header["names"], arrays


def merge_span_files(paths, out_path):
    """Concatenate span files into one, renumbering name and span ids."""
    merged = Tracer()
    for path in paths:
        names, (name, start, end, parent, op) = read_spans(path)
        ids = [merged._name_ids.setdefault(n, len(merged._name_ids))
               for n in names]
        for n in names:
            if n not in merged.names:
                merged.names.append(n)
        base = len(merged.span_name)
        merged.span_name.extend(ids[i] for i in name)
        merged.span_start.extend(start)
        merged.span_end.extend(end)
        merged.span_parent.extend(p + base if p >= 0 else -1 for p in parent)
        merged.span_op.extend(op)
    merged.write_spans(out_path)
