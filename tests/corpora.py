"""Shared deterministic graph builders for the test suite."""

from __future__ import annotations

import random
from itertools import combinations
from pathlib import Path
from typing import Iterable, List, Tuple

from normal7.certify import gadget_block_edges
from normal7.graph_core import PseudoGraph, parse_graph6

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def k4() -> PseudoGraph:
    return PseudoGraph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def k33() -> PseudoGraph:
    return PseudoGraph.from_edges(
        6, [(u, v) for u in (0, 1, 2) for v in (3, 4, 5)]
    )


def petersen() -> PseudoGraph:
    outer = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]
    inner = [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]
    spokes = [(i, i + 5) for i in range(5)]
    return PseudoGraph.from_edges(10, outer + inner + spokes)


def prism() -> PseudoGraph:
    return PseudoGraph.from_edges(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
    )


def prism_ring(length: int) -> PseudoGraph:
    """C_length x K2: two cycles joined by a spoke at every position."""
    ring = [(i, (i + 1) % length) for i in range(length)]
    edges = ring + [(u + length, v + length) for u, v in ring]
    edges += [(i, i + length) for i in range(length)]
    return PseudoGraph.from_edges(2 * length, edges)


def gadget_tree(hubs: int, seed: int) -> PseudoGraph:
    """A seeded random tree of degree-3 hubs whose free slots are bridges to
    the degree-2 vertex of a near-K4 block: hubs + 2 blocks, n = 6 hubs + 10."""
    rng = random.Random(seed)
    deg = [0] * hubs
    edges = []
    for h in range(1, hubs):
        p = rng.choice([p for p in range(h) if deg[p] < 3])
        edges.append((p, h))
        deg[p] += 1
        deg[h] += 1
    n = hubs
    for h in range(hubs):
        for _ in range(3 - deg[h]):
            edges += gadget_block_edges(n) + [(h, n)]
            n += 5
    return PseudoGraph.from_edges(n, edges)


def disjoint_union(*graphs: PseudoGraph) -> PseudoGraph:
    edges, offset = [], 0
    for g in graphs:
        edges += [(u + offset, v + offset) for _, u, v in g.edges()]
        offset += g.num_vertices
    return PseudoGraph.from_edges(offset, edges)


def theta_graph() -> PseudoGraph:
    """Two vertices joined by three parallel edges."""
    return PseudoGraph.from_edges(2, [(0, 1), (0, 1), (0, 1)])


def fig6_graph() -> PseudoGraph:
    """Cubic graph with exactly two 2-edge-cuts (eids {5,6} and {8,9}) whose
    maximal ladder has m=2 and rung eid 7."""
    return PseudoGraph.from_edges(
        10,
        [
            (0, 5), (0, 1), (0, 6), (5, 6), (5, 1),
            (1, 2), (6, 7), (2, 7), (2, 3), (7, 8),
            (3, 4), (3, 9), (8, 4), (8, 9), (4, 9),
        ],
    )


def long_ladder_graph() -> PseudoGraph:
    """Cubic, simple: an m=3 ladder on rails 0-1-2-3 and 4-5-6-7 with rungs
    (1,5),(2,6), capped at both ends by K4-minus-an-edge blocks."""
    return PseudoGraph.from_edges(
        12,
        [
            (0, 1), (1, 2), (2, 3),
            (4, 5), (5, 6), (6, 7),
            (1, 5), (2, 6),
            (0, 8), (0, 9), (4, 8), (4, 9), (8, 9),
            (3, 10), (3, 11), (7, 10), (7, 11), (10, 11),
        ],
    )


def diamond_lobe_pair(m: int) -> PseudoGraph:
    """Two K4-minus-an-edge lobes joined by a ladder with m rail pairs and
    m-1 rungs; cubic, simple, 8 + 2(m-1) vertices."""
    assert m >= 1
    lobe_a = [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    u = [0] + [4 + 2 * i for i in range(m)]
    v = [1] + [5 + 2 * i for i in range(m)]
    rails = [(u[i], u[i + 1]) for i in range(m)] + [(v[i], v[i + 1]) for i in range(m)]
    rungs = [(u[i], v[i]) for i in range(1, m)]
    a, b = u[m], v[m]
    lobe_b = [(a, a + 2), (a, a + 3), (b, a + 2), (b, a + 3), (a + 2, a + 3)]
    return PseudoGraph.from_edges(8 + 2 * (m - 1), lobe_a + rails + rungs + lobe_b)


def doubled_edge_cubic() -> PseudoGraph:
    """Cubic, connected, bridgeless, with exactly one parallel pair (0,1)."""
    return PseudoGraph.from_edges(
        6,
        [(0, 1), (0, 1), (0, 2), (1, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)],
    )


def subdivided_k4_edges(base: int, s: int) -> List[Tuple[int, int]]:
    """K4 on base..base+3 with one edge rerouted through s (degree 2 at s)."""
    return [
        (base, base + 1), (base, base + 2), (base, base + 3),
        (base + 1, base + 2), (base + 1, base + 3),
        (base + 2, s), (s, base + 3),
    ]


def three_bridge_star() -> PseudoGraph:
    """A degree-3 center whose three bridges each end in a subdivided-K4 lobe."""
    edges: List[Tuple[int, int]] = []
    for base in (1, 6, 11):
        edges.extend(subdivided_k4_edges(base, base + 4))
        edges.append((0, base + 4))
    return PseudoGraph.from_edges(16, edges)


def two_bridge_chain() -> PseudoGraph:
    """Lobe - bridge - (K4 minus an edge) - bridge - lobe; two bridges."""
    edges = subdivided_k4_edges(0, 4) + subdivided_k4_edges(9, 13)
    edges += [(5, 7), (5, 8), (6, 7), (6, 8), (7, 8)]
    edges += [(4, 5), (6, 13)]
    return PseudoGraph.from_edges(14, edges)


def doubled_cycle(n: int) -> PseudoGraph:
    """Cycle on n vertices with every edge doubled; 4-regular, 4-edge-connected."""
    edges = []
    for i in range(n):
        edges.append((i, (i + 1) % n))
        edges.append((i, (i + 1) % n))
    return PseudoGraph.from_edges(n, edges)


def k5() -> PseudoGraph:
    return PseudoGraph.from_edges(5, list(combinations(range(5), 2)))


def k6() -> PseudoGraph:
    return PseudoGraph.from_edges(6, list(combinations(range(6), 2)))


def octahedron() -> PseudoGraph:
    return PseudoGraph.from_edges(
        6,
        [
            (0, 1), (0, 2), (0, 3), (0, 4),
            (1, 2), (2, 3), (3, 4), (4, 1),
            (5, 1), (5, 2), (5, 3), (5, 4),
        ],
    )


def with_loop_at(g: PseudoGraph, v: int, count: int = 1) -> PseudoGraph:
    h = g.copy()
    for _ in range(count):
        h.add_edge(v, v)
    return h


def is_k_edge_connected(g: PseudoGraph, k: int) -> bool:
    """Brute force: no removal of fewer than k non-loop edges disconnects g."""
    if not g.is_connected():
        return False
    non_loops = [e for e in g.edge_ids() if not g.is_loop(e)]
    for size in range(1, k):
        for cut in combinations(non_loops, size):
            h = g.copy()
            for e in cut:
                h.remove_edge(e)
            if not h.is_connected():
                return False
    return True


def four_ec_pseudographs_small() -> List[Tuple[str, PseudoGraph]]:
    """4-edge-connected pseudographs on at most 8 vertices, loops included."""
    out: List[Tuple[str, PseudoGraph]] = []
    for n in range(2, 9):
        out.append((f"doubled_cycle_{n}", doubled_cycle(n)))
    out.append(("k5", k5()))
    out.append(("k6", k6()))
    out.append(("octahedron", octahedron()))
    out.append(("doubled_cycle_3_loop", with_loop_at(doubled_cycle(3), 0)))
    out.append(("doubled_cycle_4_loops", with_loop_at(with_loop_at(doubled_cycle(4), 1), 3)))
    out.append(("k5_loop", with_loop_at(k5(), 2)))
    for name, g in out:
        assert is_k_edge_connected(g, 4), name
    return out


def random_simple_graph(rng: random.Random, n: int, p: float) -> PseudoGraph:
    g = PseudoGraph(n)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                g.add_edge(u, v)
    return g


def random_pseudograph(rng: random.Random, n: int, m: int) -> PseudoGraph:
    g = PseudoGraph(n)
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n)
        g.add_edge(u, v)
    return g


def corpus_graphs() -> Iterable[Tuple[int, PseudoGraph]]:
    """Yield (line number, graph) for the shipped connected cubic census."""
    path = DATA_DIR / "cubic_connected_le14.g6"
    with open(path, "r", encoding="ascii") as fh:
        for i, line in enumerate(fh):
            line = line.strip()
            if line:
                yield i, parse_graph6(line)


def cubic_census_upto(max_n: int) -> List[PseudoGraph]:
    return [g for _, g in corpus_graphs() if g.num_vertices <= max_n]
