"""Cut-heavy probes: time normal7_coloring on the graph families whose
2- and 3-edge-cuts or pendant edges grow with n, and check every coloring
with is_normal; time nz_z23_flow on the necklace, and check every flow with
verify_flow.

  * necklace: a diamond necklace, L copies of K4 minus an edge joined in a
    ring by L edges (n = 4L).  Simple, cubic and bridgeless; every pair of
    ring edges is a 2-edge-cut.
  * ring_block: a truncated prism ring, C_L x K2 with every vertex replaced
    by a triangle, with one ring edge subdivided and a near-K4 block (K4
    with one edge subdivided) hung by a bridge from the new vertex
    (n = 6L + 6).  The ring is 3-edge-connected with 2L nontrivial
    3-edge-cuts; normal7_coloring runs ManyPendant_t1 and then the
    3-edge-connected pendant-block case on it.
  * necklace_flow: nz_z23_flow on the diamond necklace, whose 2-cut
    recursion splits it at one pair of ring edges per level.
  * pendant_ring: C_L x K2 with every rung subdivided and a near-K4 block
    hung by a bridge from each subdivision vertex (n = 8L).  The ring's
    piece has L pendant edges, which color_degree13_graph merges two at a
    time, about L / 2 Merge levels, down to ManyPendant_t1 (L odd) or
    ManyPendant_t2 (L even).

Run from the repository root (it takes about a minute on one core):

    python3 tools/cut_probes.py

Each family runs STEPS sizes; each size's L doubles, less one, from the
family's first L.  Prints one row per size: the family, n, the best of
REPEAT run times (the check excluded) and the log-log slope against the
previous size.  Exits 1 when a result fails its check.
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

from normal7.coloring_solver import is_normal
from normal7.flows_trees import nz_z23_flow, verify_flow
from normal7.graph_core import PseudoGraph
from normal7.normal7_pipeline import normal7_coloring

Edge = Tuple[int, int]


def diamond_necklace(length: int) -> PseudoGraph:
    """L diamonds in a ring; diamond i has the degree-2 vertices 4i and
    4i + 1, and 4i + 1 is joined to the next diamond's 4i + 4."""
    edges: List[Edge] = []
    for i in range(length):
        a, b, c, d = range(4 * i, 4 * i + 4)
        edges += [(a, c), (a, d), (b, c), (b, d), (c, d), (b, (a + 4) % (4 * length))]
    return PseudoGraph.from_edges(4 * length, edges)


def truncated_prism_ring_edges(length: int) -> List[Edge]:
    """C_L x K2 with every vertex replaced by a triangle; the triangle of
    prism vertex p is 3p, 3p + 1, 3p + 2, whose corners 3p, 3p + 1 and
    3p + 2 take the previous ring edge, the next ring edge and the spoke."""
    edges: List[Edge] = []
    for p in range(2 * length):
        edges += [(3 * p, 3 * p + 1), (3 * p + 1, 3 * p + 2), (3 * p + 2, 3 * p)]
    for side in (0, length):
        for i in range(length):
            p, q = side + i, side + (i + 1) % length
            edges.append((3 * p + 1, 3 * q))
    for i in range(length):
        edges.append((3 * i + 2, 3 * (i + length) + 2))
    return edges


def bridged_block_edges(s: int, first: int) -> List[Edge]:
    """A near-K4 block on first, ..., first + 4 bridged to vertex s: K4 on
    a, b, c, d with the edge c-d subdivided at t, and t bridged to s."""
    a, b, c, d, t = range(first, first + 5)
    return [(a, b), (a, c), (a, d), (b, c), (b, d), (c, t), (t, d), (s, t)]


def ring_with_block(length: int) -> PseudoGraph:
    """The truncated prism ring with its first ring edge subdivided at s and
    a near-K4 block bridged to s."""
    edges = truncated_prism_ring_edges(length)
    n = 6 * length
    u, v = edges[6 * length]
    edges[6 * length] = (u, n)
    edges.append((n, v))
    edges += bridged_block_edges(n, n + 1)
    return PseudoGraph.from_edges(n + 6, edges)


def pendant_ring(length: int) -> PseudoGraph:
    """C_L x K2 on the cycles 0..L-1 and L..2L-1, rung i subdivided at
    2L + i, and a near-K4 block on 3L + 5i, ..., 3L + 5i + 4 bridged to
    2L + i."""
    edges: List[Edge] = []
    for i in range(length):
        j = (i + 1) % length
        s = 2 * length + i
        edges += [(i, j), (length + i, length + j), (i, s), (s, length + i)]
        edges += bridged_block_edges(s, 3 * length + 5 * i)
    return PseudoGraph.from_edges(8 * length, edges)


def _normal(coloring) -> bool:
    return is_normal(coloring)[0]


def _nowhere_zero(flow) -> bool:
    check = verify_flow(flow)
    return check.conserving and check.nowhere_zero


# family -> (graph of parameter L, the first L, the timed call, its check)
Probe = Tuple[Callable[[int], PseudoGraph], int, Callable[[PseudoGraph], Any], Callable[[Any], bool]]
FAMILIES: Dict[str, Probe] = {
    "necklace": (diamond_necklace, 9, normal7_coloring, _normal),
    "necklace_flow": (diamond_necklace, 9, nz_z23_flow, _nowhere_zero),
    "pendant_ring": (pendant_ring, 63, normal7_coloring, _normal),
    "ring_block": (ring_with_block, 14, normal7_coloring, _normal),
}
STEPS = 4  # sizes per family
REPEAT = 3  # runs timed per size


def probe(family: str, length: int) -> Tuple[int, float, bool]:
    """(n, best seconds over REPEAT runs, whether the check accepts)."""
    build, _, run, check = FAMILIES[family]
    g = build(length)
    best = math.inf
    for _ in range(REPEAT):
        start = time.perf_counter()
        result = run(g)
        best = min(best, time.perf_counter() - start)
    return g.num_vertices, best, check(result)


def main() -> int:
    failures = 0
    print(f"{'family':<13} {'n':>6} {'seconds':>9} {'slope':>6}  check")
    for family, (_, first, _, _) in sorted(FAMILIES.items()):
        previous = None
        for step in range(STEPS):
            n, seconds, ok = probe(family, (first - 1) * 2**step + 1)
            failures += not ok
            slope = "" if previous is None else f"{math.log(seconds / previous[1]) / math.log(n / previous[0]):.2f}"
            print(f"{family:<13} {n:>6} {seconds:>9.3f} {slope:>6}  {'ok' if ok else 'FAIL'}", flush=True)
            previous = (n, seconds)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
