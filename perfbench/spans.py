"""Span recorder for the traced run, and the per-layer metrics drawn from it.

``install`` wraps each layer function listed in ``LAYERS`` and rebinds the
wrapper in every ``normal7`` module that holds the function: ``from m import
f`` copies the binding, so wrapping ``m.f`` alone would miss callers in
other modules.  Each call made while the recorder is enabled becomes a span
(name, start, end, parent span, operation id), kept in memory and written
out at the end.  A few wrappers also record counts at the same boundary.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

LAYERS: Dict[str, Tuple[str, ...]] = {
    "graph_core": ("parse_graph6", "remove_vertices"),
    "cuts_reductions": (
        "find_bridges",
        "find_2_edge_cuts",
        "find_nontrivial_3_edge_cuts",
        "two_cut_reduction",
        "three_cut_reduction",
        "ladder_containing",
    ),
    "flows_trees": ("nz_z23_flow", "flow_two_edges_equal", "verify_flow"),
    "matching": ("perfect_matching_through", "contract_two_factor", "lift_flow"),
    "normal7_pipeline": (
        "normal7_coloring",
        "color_degree13_graph",
        "color_pendant_block",
        "flow_edge_poor",
        "flow_two_adjacent_rich",
        "build_glue_forest",
        "graph_fingerprint",
    ),
    "coloring_solver": ("is_normal", "coloring_from_flow", "exact_chi_n", "enumerate_normal_colorings"),
    "certify": ("run_claim",),
    "cli": ("census_line",),
}
# entry points whose second parameter is the CertificateStep trace list
TRACED_ENTRY_POINTS = ("normal7_coloring", "color_degree13_graph", "color_pendant_block")
CUT_FINDERS = ("find_2_edge_cuts", "find_nontrivial_3_edge_cuts")
OP_SPAN = "op"  # the benchmark's own span around one operation


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for none
    op: int


class Recorder:
    """Spans and counters of one process; disabled until ``enabled`` is set."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.op))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [[s.name, s.start, s.end, s.parent, s.op] for s in self.spans]
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op"], "spans": rows}))


def _count_trace(rec: Recorder, steps: list) -> None:
    for step in steps:
        rec.counts[f"normal7_pipeline.case.{step.tag.name}"] += 1


def _after(rec: Recorder, name: str, args: tuple, result: object) -> None:
    """Counters taken at a layer boundary from the call's arguments and result."""
    if name in CUT_FINDERS:
        rec.counts[f"cuts_reductions.{name}.cuts_returned"] += len(result)
        rec.counts["cuts_reductions.calls_with_cut"] += bool(result)
    elif name == "perfect_matching_through":
        key = "matching.perfect_matching_through.max_n"
        rec.counts[key] = max(rec.counts[key], args[0].num_vertices)
    elif name == "exact_chi_n":
        rec.counts["coloring_solver.exact_chi_n.nodes"] += result.nodes_explored
    elif name == "run_claim":
        rec.counts["certify.run_claim.universe"] += result.universe


def _wrap(rec: Recorder, name: str, fn: Callable) -> Callable:
    takes_trace = name in TRACED_ENTRY_POINTS
    if takes_trace and list(inspect.signature(fn).parameters)[1:2] != ["trace"]:
        raise RuntimeError(f"{name} no longer takes trace as its second parameter")

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.enabled:
            return fn(*args, **kwargs)
        owned = None
        if takes_trace:
            # supply a trace list where the caller gave none, and count the
            # case tags it collects; nested calls share the outer list
            if len(args) >= 2:
                if args[1] is None:
                    owned = []
                    args = (args[0], owned) + args[2:]
            elif kwargs.get("trace") is None:
                owned = kwargs["trace"] = []
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
            if owned is not None:
                _count_trace(rec, owned)
        _after(rec, name, args, result)
        return result

    return wrapper


def install(rec: Recorder) -> Callable[[], None]:
    """Wrap every layer function wherever it is bound; return the undo."""
    rebound: List[Tuple[object, str, Callable]] = []
    modules = [m for k, m in sorted(sys.modules.items()) if k == "normal7" or k.startswith("normal7.")]
    for mod_name, names in LAYERS.items():
        home = sys.modules[f"normal7.{mod_name}"]
        for name in names:
            original = getattr(home, name)
            wrapper = _wrap(rec, name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        rebound.append((mod, attr, original))

    def uninstall() -> None:
        for mod, attr, original in rebound:
            setattr(mod, attr, original)

    return uninstall


# -- arithmetic on spans ---------------------------------------------------------


def covered(start: float, end: float, intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    reach = start
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, end)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the part its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - covered(s.start, s.end, children.get(i, ()))
        for i, s in enumerate(spans)
    ]


def per_layer_names() -> List[str]:
    """Every per-layer metric name, in report order."""
    from normal7.normal7_pipeline import CaseTag

    names = []
    for mod, fns in LAYERS.items():
        for fn in fns:
            names += [f"{mod}.{fn}.calls", f"{mod}.{fn}.self_s"]
    names += [f"{mod}.self_s" for mod in LAYERS]
    names += [f"cuts_reductions.{fn}.cuts_returned" for fn in CUT_FINDERS]
    names += [
        "cuts_reductions.first_cut_share",
        "matching.perfect_matching_through.max_n",
        "coloring_solver.exact_chi_n.nodes",
        "coloring_solver.exact_chi_n.nodes_per_s",
        "certify.run_claim.universe",
    ]
    names += [f"normal7_pipeline.case.{tag.name}" for tag in CaseTag]
    names += [
        "trace.unattributed_s",
        "trace.ops_per_s_traced",
        "trace.ops_per_s_untraced",
        "trace.overhead_ratio",
    ]
    return names


def unit_of(name: str) -> str:
    if "per_s" in name:
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("share", "ratio")):
        return "ratio"
    if name.endswith("max_n"):
        return "vertices"
    return "count"


def layer_metrics(rec: Recorder, rounds: int) -> Dict[str, float]:
    """Per-layer metrics per traced round (totals divided by ``rounds``),
    except the ratios and the maximum, which are taken over all of them."""
    module_of = {fn: mod for mod, fns in LAYERS.items() for fn in fns}
    calls: Dict[str, int] = defaultdict(int)
    self_s: Dict[str, float] = defaultdict(float)
    inclusive: Dict[str, float] = defaultdict(float)
    for s, own in zip(rec.spans, self_times(rec.spans)):
        calls[s.name] += 1
        self_s[s.name] += own
        inclusive[s.name] += s.end - s.start
    out: Dict[str, float] = {}
    for fn, mod in module_of.items():
        out[f"{mod}.{fn}.calls"] = calls[fn] / rounds
        out[f"{mod}.{fn}.self_s"] = self_s[fn] / rounds
    for mod, fns in LAYERS.items():
        out[f"{mod}.self_s"] = sum(self_s[fn] for fn in fns) / rounds
    c = rec.counts
    for fn in CUT_FINDERS:
        out[f"cuts_reductions.{fn}.cuts_returned"] = c[f"cuts_reductions.{fn}.cuts_returned"] / rounds
    returned = sum(c[f"cuts_reductions.{fn}.cuts_returned"] for fn in CUT_FINDERS)
    out["cuts_reductions.first_cut_share"] = c["cuts_reductions.calls_with_cut"] / returned if returned else 0.0
    out["matching.perfect_matching_through.max_n"] = c["matching.perfect_matching_through.max_n"]
    nodes = c["coloring_solver.exact_chi_n.nodes"]
    out["coloring_solver.exact_chi_n.nodes"] = nodes / rounds
    exact_s = inclusive["exact_chi_n"]
    out["coloring_solver.exact_chi_n.nodes_per_s"] = nodes / exact_s if exact_s else 0.0
    out["certify.run_claim.universe"] = c["certify.run_claim.universe"] / rounds
    for name in per_layer_names():
        if name.startswith("normal7_pipeline.case."):
            out[name] = c[name] / rounds
    out["trace.unattributed_s"] = self_s[OP_SPAN] / rounds
    return out
