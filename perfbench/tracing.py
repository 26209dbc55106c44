"""Spans around the public functions of p7c4, recorded from outside the library.

`Tracer.install` replaces every function listed in `TRACED` by a wrapper that
records one span per call: name, start, end, parent span and op id. The
wrapper is bound wherever a `p7c4.*` module holds the function, as a module
attribute or as a value of a module-level dict (`cli._COLORERS`,
`verify._COLORER`), because `coloring`, `verify` and `cli` import names
directly. Spans live in flat arrays until the run ends; the per-layer
metrics are computed from them afterwards.
"""

from __future__ import annotations

import gzip
import importlib
import sys
import time
from array import array
from collections import Counter

# (module, function, span name); None means "<module>.<function>"
TRACED = (
    ("graphs", "max_clique_size", None),
    ("graphs", "induced_subgraph", None),
    ("graphs", "find_isomorphism", None),
    ("graphs", "exact_chromatic_number", None),
    ("graphs", "parse_graph6", None),
    ("graphs", "write_graph6", None),
    ("enumerate", "canonical_form", None),
    ("enumerate", "p7c4_free_graphs", None),
    ("enumerate", "class_members", None),
    ("patterns", "find_induced_pattern", "patterns.<pattern>"),
    ("patterns", "class_membership", None),
    ("structure", "find_clique_cutset", None),
    ("structure", "decompose_into_atoms", None),
    ("structure", "recognize_clique_blowup", None),
    ("structure", "find_bisimplicial", None),
    ("structure", "recognize_fixed", None),
    ("coloring", "color_diamond_class", "coloring.color"),
    ("coloring", "color_kite_class", "coloring.color"),
    ("coloring", "color_gem_class", "coloring.color"),
    ("coloring", "validate_certificate", None),
    ("verify", "check_theorem", None),
    ("hole_lab", "all_seven_holes", None),
    ("hole_lab", "partition_around_hole", None),
    ("cli", "cli_main", None),
)

# the per-layer metrics, in the order BENCHMARK.json lists them
CALLS_SELF = (
    "enumerate.canonical_form",
    "patterns.P7", "patterns.C4", "patterns.diamond", "patterns.kite", "patterns.gem",
    "structure.find_clique_cutset",
    "structure.recognize_clique_blowup", "structure.find_bisimplicial", "structure.recognize_fixed",
    "graphs.max_clique_size", "graphs.induced_subgraph", "graphs.find_isomorphism",
)
TOTAL = (
    "enumerate.p7c4_free_graphs", "enumerate.class_members",
    "patterns.class_membership", "structure.decompose_into_atoms",
    "coloring.color", "verify.check_theorem",
)
SELF_ONLY = (
    "graphs.exact_chromatic_number", "graphs.parse_graph6", "graphs.write_graph6",
    "coloring.validate_certificate",
    "hole_lab.all_seven_holes", "hole_lab.partition_around_hole",
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.current = -1
        self.op_id = -1
        self.hits: Counter[int] = Counter()
        self.free_sizes: dict[int, int] = {}
        self.trace_steps = 0
        self.nonvacuous = 0
        self.holes = 0
        self._restore: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def install(self) -> None:
        mods = [importlib.import_module(f"p7c4.{m}") for m in sorted({m for m, _, _ in TRACED})]
        for mod_name, fn_name, span in TRACED:
            fn = getattr(importlib.import_module(f"p7c4.{mod_name}"), fn_name)
            wrapper = self._wrap(fn, span or f"{mod_name}.{fn_name}")
            for mod in [sys.modules["p7c4"], *mods]:
                for key, value in list(vars(mod).items()):
                    if key.startswith("__"):
                        continue
                    if value is fn:
                        self._restore.append((mod, key, fn))
                        setattr(mod, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in value.items():
                            if v is fn:
                                self._restore.append((value, k, fn))
                                value[k] = wrapper

    def stop(self) -> None:
        """Put the original functions back, so output checks run untraced."""
        for holder, key, fn in reversed(self._restore):
            if isinstance(holder, dict):
                holder[key] = fn
            else:
                setattr(holder, key, fn)
        self._restore.clear()

    def _wrap(self, fn, span: str):
        names, parents, ops, starts, ends = self.name, self.parent, self.op, self.start, self.end
        perf = time.perf_counter
        tracer = self
        if span == "patterns.<pattern>":
            ids: dict[str, int] = {}

            def span_id(args, kwargs):
                pattern = args[1] if len(args) > 1 else kwargs["pattern"]
                if pattern not in ids:
                    ids[pattern] = self._id(f"patterns.{pattern}")
                return ids[pattern]
        else:
            nid = self._id(span)

            def span_id(args, kwargs):
                return nid
        after = self._after(span)

        def wrapper(*args, **kwargs):
            i = len(starts)
            sid = span_id(args, kwargs)
            names.append(sid)
            parents.append(tracer.current)
            ops.append(tracer.op_id)
            ends.append(0.0)
            tracer.current = i
            starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf()
                tracer.current = parents[i]
            if after is not None:
                after(sid, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        return wrapper

    def _after(self, span: str):
        """Counts taken at the boundary, for the ratios among the layer metrics."""
        if span in ("patterns.<pattern>", "structure.find_clique_cutset"):
            def after(sid, args, result):
                if result is not None:
                    self.hits[sid] += 1
        elif span == "enumerate.p7c4_free_graphs":
            def after(sid, args, result):
                self.free_sizes[args[0]] = len(result)
        elif span == "coloring.color":
            def after(sid, args, result):
                self.trace_steps += len(result.trace)
        elif span == "verify.check_theorem":
            def after(sid, args, result):
                self.nonvacuous += result["status"] != "vacuous"
        elif span == "hole_lab.all_seven_holes":
            def after(sid, args, result):
                self.holes += len(result)
        else:
            after = None
        return after

    def layer_times(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: calls, self time and total time.

        Self time is a span's duration minus the time its child spans cover.
        Total time adds only the outermost span of a name, so a recursive
        call (p7c4_free_graphs(n) calls p7c4_free_graphs(n-1)) counts once.
        """
        n = len(self.start)
        child = array("d", bytes(8 * n))
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        total_s: Counter = Counter()
        for i in range(n):
            name = self.names[names[i]]
            dur = ends[i] - starts[i]
            calls[name] += 1
            self_s[name] += dur - child[i]
            p = parents[i]
            while p >= 0 and names[p] != names[i]:
                p = parents[p]
            if p < 0:
                total_s[name] += dur
        return calls, self_s, total_s

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric this tracer can give; layers the workload
        never reached read 0."""
        calls, self_s, total_s = self.layer_times()
        out: dict[str, float] = {}
        for name in CALLS_SELF:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in TOTAL:
            out[f"{name}.total_s"] = total_s[name]
        for name in SELF_ONLY:
            out[f"{name}.self_s"] = self_s[name]
        out["verify.check_theorem.calls"] = calls["verify.check_theorem"]
        searches = sum(c for name, c in calls.items() if name.startswith("patterns.") and name != "patterns.class_membership")
        found = sum(self.hits[sid] for sid, name in enumerate(self.names)
                    if name.startswith("patterns.") and name != "patterns.class_membership")
        cutsets = self.hits[self._ids["structure.find_clique_cutset"]]
        out["enumerate.kept_ratio"] = _ratio(sum(self.free_sizes.values()), calls["enumerate.canonical_form"])
        out["patterns.hit_ratio"] = _ratio(found, searches)
        out["structure.cutset_hit_ratio"] = _ratio(cutsets, calls["structure.find_clique_cutset"])
        out["coloring.trace_steps"] = self.trace_steps
        out["verify.nonvacuous_ratio"] = _ratio(self.nonvacuous, calls["verify.check_theorem"])
        out["hole_lab.holes"] = self.holes
        return out

    def write(self, path) -> int:
        """Write the spans as gzipped TSV (name, start, end, parent, op); returns the span count."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\top\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name[i]]}\t{self.start[i]:.9f}\t{self.end[i]:.9f}"
                         f"\t{self.parent[i]}\t{self.op[i]}\n")
        return len(self.start)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
