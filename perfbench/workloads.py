"""The benchmark's three workloads: their inputs, the calls, the output checks.

A workload is a list of rounds, and a round is a list of operations, each one
call into the library's public API.  Inputs come only from the workload name
and the seed; ``digest`` fingerprints them so that runs on two commits can be
shown to use identical graphs.  The checks re-verify every output with code
of the benchmark's own and, besides, with the library's stand-alone
checkers (``is_normal``, ``verify_flow``, ``flow_edge_status``).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from normal7 import certify, cli, coloring_solver, flows_trees, normal7_pipeline
from normal7.graph_core import PseudoGraph

from perfbench import generators as gen

CENSUS_FILE = Path("data") / "cubic_connected_le14.g6"
EXACT_UP_TO = 12  # census_line's exact solver runs for n <= this
# input sets drawn per run for the generated workloads; later rounds cycle
# through them
ROUNDS_DRAWN = 6
BRIDGELESS_SIZES = (40, 80, 80, 160)
# two trees of the largest size per round, so that largest_n_ms has as many
# samples as a run allows; their times differ by a fifth from graph to graph
GADGET_HUBS = (50, 100, 200, 200)

LabeledEdge = Tuple[int, int, int]


@dataclass(frozen=True)
class Op:
    """One call: ``kind`` picks the entry point, ``size`` is the n the size
    metrics group by, ``edges`` the (eid, u, v) list the checks use."""

    kind: str  # census_line | claim | color | flow_edge_poor | flow_two_adjacent_rich
    label: str
    size: int
    graph: Optional[PseudoGraph] = None
    text: str = ""  # graph6 line or claim name
    edges: Tuple[LabeledEdge, ...] = ()
    marked: Tuple[int, ...] = ()  # edges whose flow status is pinned


@dataclass(frozen=True)
class Workload:
    name: str
    rounds: List[List[Op]]
    largest: str  # label of the operations largest_n_ms reports
    ladder: Tuple[str, ...]  # labels of the time_exponent size ladder


def _graph_op(kind: str, label: str, g: PseudoGraph, marked: Sequence[int] = ()) -> Op:
    return Op(kind, label, g.num_vertices, graph=g, edges=tuple(g.edges()), marked=tuple(marked))


def _edges_graph(label: str, built: Tuple[int, List[gen.Edge]], rng: random.Random) -> Op:
    n, edges = built
    if not gen.is_simple_cubic(n, edges):
        raise RuntimeError(f"generator produced a non-cubic {label}")
    return _graph_op("color", label, gen.relabeled(n, edges, rng))


def decode_graph6(line: str) -> Tuple[int, List[gen.Edge]]:
    """Vertex count and edges of a short graph6 line (n < 63)."""
    n = ord(line[0]) - 63
    bits = "".join(format(ord(c) - 63, "06b") for c in line[1:])
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return n, [p for p, b in zip(pairs, bits) if b == "1"]


def _census(root: Path) -> Workload:
    lines = [ln.strip() for ln in (root / CENSUS_FILE).read_text("ascii").splitlines() if ln.strip()]
    ops = []
    for line in lines:
        n, edges = decode_graph6(line)
        labeled = tuple((i, u, v) for i, (u, v) in enumerate(edges))
        ops.append(Op("census_line", f"census_n{n}", n, text=line, edges=labeled))
    ops += [Op("claim", f"claim:{c}", 0, text=c) for c in sorted(certify.CLAIMS)]
    largest = max(op.size for op in ops)
    return Workload("census", [ops], f"census_n{largest}", ())


def _bridgeless_sweep(seed: int) -> Workload:
    # Every run colors the same graphs, drawn from a fixed stream; the seed
    # draws their vertex labelling and edge order.  The library's time on a
    # 160-vertex graph varies by a quarter from graph to graph, and a run
    # has room for five or six of them, so fresh graphs per seed moved
    # largest_n_ms by a fifth from seed to seed.
    rounds = []
    for r in range(ROUNDS_DRAWN):
        shapes = random.Random(f"bridgeless_sweep/{r}")
        rng = random.Random(f"bridgeless_sweep/{seed}/{r}")
        rounds.append([
            _graph_op("color", f"bridgeless_n{n}", gen.relabeled(n, gen.pairing_cubic(n, shapes), rng))
            for n in BRIDGELESS_SIZES
        ])
    ladder = tuple(f"bridgeless_n{n}" for n in sorted(set(BRIDGELESS_SIZES)))
    return Workload("bridgeless_sweep", rounds, ladder[-1], ladder)


def _structured(seed: int) -> Workload:
    rounds = []
    for r in range(ROUNDS_DRAWN):
        rng = random.Random(f"structured/{seed}/{r}")
        ops = [_edges_graph(f"gadget_tree_h{h}", gen.gadget_tree(h, rng), rng) for h in GADGET_HUBS]
        ops.append(_edges_graph("piece_tree", gen.piece_tree(6, 16, rng), rng))
        ops += [_edges_graph("ladder_chain", gen.ladder_chain(4, rng), rng) for _ in range(2)]
        # the six pinned flows take about as long as the 100-hub tree, and
        # fewer than half the operations run faster, so the median operation
        # is one of these seven and not a piece tree, whose time varies most
        for _ in range(3):
            sc = gen.star_chain(3, 10, rng)
            ops.append(_graph_op("color", "star_chain", sc.graph))
            ops.append(_graph_op("flow_edge_poor", "star_chain", sc.graph, (sc.poor_edge,)))
            ops.append(_graph_op("flow_two_adjacent_rich", "star_chain", sc.graph, sc.rich_pair))
        rounds.append(ops)
    ladder = tuple(f"gadget_tree_h{h}" for h in sorted(set(GADGET_HUBS)))
    return Workload("structured", rounds, ladder[-1], ladder)


def build(name: str, seed: int, root: Path) -> Workload:
    if name == "census":
        return _census(root)
    if name == "bridgeless_sweep":
        return _bridgeless_sweep(seed)
    if name == "structured":
        return _structured(seed)
    raise ValueError(f"unknown workload {name!r}")


def digest(w: Workload) -> str:
    h = hashlib.sha256()
    for r, ops in enumerate(w.rounds):
        for op in ops:
            h.update(f"{r}|{op.kind}|{op.label}|{op.size}|{op.text}|{op.edges}|{op.marked}\n".encode())
    return h.hexdigest()[:16]


# -- calls -----------------------------------------------------------------------


def call(op: Op) -> object:
    """Run one operation.  Entry points are looked up on their modules at call
    time, so the traced run's rebound wrappers are the ones called."""
    if op.kind == "census_line":
        return cli.census_line(op.text, exact_up_to=EXACT_UP_TO, budget=None)
    if op.kind == "claim":
        return certify.run_claim(op.text)
    if op.kind == "color":
        return normal7_pipeline.normal7_coloring(op.graph)
    if op.kind == "flow_edge_poor":
        return normal7_pipeline.flow_edge_poor(op.graph, *op.marked)
    if op.kind == "flow_two_adjacent_rich":
        return normal7_pipeline.flow_two_adjacent_rich(op.graph, *op.marked)
    raise ValueError(f"unknown operation kind {op.kind!r}")


# -- checks ----------------------------------------------------------------------


def coloring_problem(edges: Sequence[LabeledEdge], colors: Dict[int, int]) -> Optional[str]:
    """Why ``colors`` is not a normal coloring with at most 7 colors, or None.

    Normal: proper, and at every edge the colors at its two endpoints make
    3 distinct values (poor) or 5 (rich)."""
    if set(colors) != {eid for eid, _, _ in edges}:
        return "coloring does not cover exactly the edge set"
    if any(not 1 <= c <= 7 for c in colors.values()):
        return "color outside 1..7"
    at: Dict[int, List[int]] = {}
    for eid, u, v in edges:
        at.setdefault(u, []).append(colors[eid])
        at.setdefault(v, []).append(colors[eid])
    if any(len(set(cs)) != len(cs) for cs in at.values()):
        return "coloring is not proper"
    for eid, u, v in edges:
        if len(set(at[u]) | set(at[v])) not in (3, 5):
            return f"edge {eid} is neither poor nor rich"
    return None


def flow_problem(edges: Sequence[LabeledEdge], values: Dict[int, int], pinned: Dict[int, str]) -> Optional[str]:
    """Why ``values`` is not a nowhere-zero Z_2^3 flow giving each pinned
    edge its status, or None.  A loop's two incidences cancel."""
    if set(values) != {eid for eid, _, _ in edges}:
        return "flow does not cover exactly the edge set"
    if any(not 1 <= x <= 7 for x in values.values()):
        return "flow value outside Z_2^3 minus zero"
    acc: Dict[int, int] = {}
    sets: Dict[int, set] = {}
    for eid, u, v in edges:
        for w in (u, v):
            acc[w] = acc.get(w, 0) ^ values[eid]
            sets.setdefault(w, set()).add(values[eid])
    if any(acc.values()):
        return "flow is not conserved"
    ends = {eid: (u, v) for eid, u, v in edges}
    for eid, want in pinned.items():
        u, v = ends[eid]
        size = len(sets[u] | sets[v])
        got = {3: "poor", 5: "rich"}.get(size, "neither")
        if got != want:
            return f"edge {eid} is {got}, wanted {want}"
    return None


def check(op: Op, out: object) -> Optional[str]:
    """Why the output of ``op`` is wrong, or None when it verifies."""
    if op.kind == "census_line":
        rec = out
        if "error" in rec:
            return f"census error: {rec['error']}"
        if rec["verified"] is not True or rec["n"] != op.size:
            return "census record not verified"
        if not 1 <= rec["colors_used"] <= 7:
            return f"census record uses {rec['colors_used']} colors"
        if rec["bridges"] != len(gen.bridges(op.size, [(u, v) for _, u, v in op.edges])):
            return "census bridge count disagrees"
        chi = rec["exact_chi"]
        if op.size <= EXACT_UP_TO:
            if chi is None:
                return "exact result inconclusive"
            if not 3 <= chi <= rec["colors_used"]:
                return f"exact chi {chi} outside 3..{rec['colors_used']}"
        return None
    if op.kind == "claim":
        if out.verdict != certify.HOLDS or out.universe < 1:
            return f"claim verdict {out.verdict}"
        return None
    if op.kind == "color":
        if len(set(out.colors.values())) > 7 or not coloring_solver.is_normal(out)[0]:
            return "is_normal rejects the coloring"
        return coloring_problem(op.edges, out.colors)
    status = "poor" if op.kind == "flow_edge_poor" else "rich"
    verdict = flows_trees.verify_flow(out)
    if not (verdict.conserving and verdict.nowhere_zero):
        return "verify_flow rejects the flow"
    if any(flows_trees.flow_edge_status(out, e) != status for e in op.marked):
        return f"flow_edge_status: a pinned edge is not {status}"
    return flow_problem(op.edges, out.values, {e: status for e in op.marked})
