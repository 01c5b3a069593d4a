"""Seeded graph families for the benchmark, with its own structural checks.

Every family is a pure function of a ``random.Random``: the same seed gives
the same edge lists in the same order.  Graphs reach the library only through
``PseudoGraph.from_edges`` and ``star_product``.  The structural checks here
(simplicity, degrees, bridges, 3-edge-connectivity) work on plain edge lists
and share no code with the library, so a generated input is vetted
independently of the code under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Dict, List, Sequence, Set, Tuple

from normal7.certify import gadget_block_edges
from normal7.cuts_reductions import star_product
from normal7.graph_core import PseudoGraph

Edge = Tuple[int, int]


# -- checks on edge lists --------------------------------------------------------


def is_simple_cubic(n: int, edges: Sequence[Edge]) -> bool:
    deg = [0] * n
    seen: Set[Edge] = set()
    for u, v in edges:
        key = (min(u, v), max(u, v))
        if u == v or key in seen:
            return False
        seen.add(key)
        deg[u] += 1
        deg[v] += 1
    return all(d == 3 for d in deg)


def _adjacency(n: int, edges: Sequence[Edge], skip: int = -1) -> List[List[Tuple[int, int]]]:
    adj: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        if i != skip:
            adj[u].append((v, i))
            adj[v].append((u, i))
    return adj


def component_sizes(n: int, edges: Sequence[Edge], removed: Set[int] = frozenset()) -> List[int]:
    """Vertex counts of the components left after deleting edges ``removed``."""
    adj = _adjacency(n, edges)
    seen = [False] * n
    sizes = []
    for s in range(n):
        if seen[s]:
            continue
        seen[s] = True
        stack = [s]
        size = 0
        while stack:
            v = stack.pop()
            size += 1
            for w, i in adj[v]:
                if i not in removed and not seen[w]:
                    seen[w] = True
                    stack.append(w)
        sizes.append(size)
    return sizes


def bridges(n: int, edges: Sequence[Edge], skip: int = -1) -> List[int]:
    """Indices of the bridges of the multigraph (edge ``skip`` left out)."""
    adj = _adjacency(n, edges, skip)
    disc = [-1] * n
    low = [0] * n
    out: List[int] = []
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        # frames: (vertex, index of the tree edge that entered it, next slot)
        stack = [(root, -1, 0)]
        while stack:
            v, via, k = stack[-1]
            if k < len(adj[v]):
                stack[-1] = (v, via, k + 1)
                w, i = adj[v][k]
                if i == via:
                    continue
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    stack.append((w, i, 0))
                else:
                    low[v] = min(low[v], disc[w])
                continue
            stack.pop()
            if stack:
                p = stack[-1][0]
                low[p] = min(low[p], low[v])
                if low[v] > disc[p]:
                    out.append(via)
    return sorted(out)


def is_three_edge_connected(n: int, edges: Sequence[Edge]) -> bool:
    """Connected, and no one or two edges disconnect it: {e, f} is a 2-cut
    exactly when f is a bridge of the graph without e."""
    if len(component_sizes(n, edges)) != 1 or bridges(n, edges):
        return False
    return all(not bridges(n, edges, skip=i) for i in range(len(edges)))


def is_cyclically_four_edge_connected(n: int, edges: Sequence[Edge]) -> bool:
    """3-edge-connected cubic, and every 3-edge-cut isolates one vertex.  In
    a 3-edge-connected graph removing three edges leaves at most two parts,
    so a triple is a nontrivial cut when it leaves two parts of >= 2 vertices."""
    if not is_three_edge_connected(n, edges):
        return False
    for triple in combinations(range(len(edges)), 3):
        sizes = component_sizes(n, edges, set(triple))
        if len(sizes) == 2 and min(sizes) >= 2:
            return False
    return True


# -- building blocks -----------------------------------------------------------------


def relabeled(n: int, edges: Sequence[Edge], rng: random.Random) -> PseudoGraph:
    """The graph under a random vertex labelling and edge order."""
    perm = list(range(n))
    rng.shuffle(perm)
    out = [(perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u]) for u, v in edges]
    rng.shuffle(out)
    return PseudoGraph.from_edges(n, out)


def pairing_cubic(n: int, rng: random.Random, cyclic4: bool = False) -> List[Edge]:
    """Pairing-model random cubic graph on n vertices, redrawn until it is
    simple, connected and bridgeless (cyclically 4-edge-connected if asked)."""
    if n < 4 or n % 2:
        raise ValueError("a simple cubic graph needs an even n >= 4")
    points = [v for v in range(n) for _ in range(3)]
    while True:
        rng.shuffle(points)
        edges = [(points[i], points[i + 1]) for i in range(0, 3 * n, 2)]
        if not is_simple_cubic(n, edges) or len(component_sizes(n, edges)) != 1:
            continue
        if cyclic4 and is_cyclically_four_edge_connected(n, edges):
            return edges
        if not cyclic4 and not bridges(n, edges):
            return edges


def subdivide(edges: List[Edge], idx: int, s: int) -> None:
    """Replace edge idx by the path u - s - v (s is a fresh vertex)."""
    u, v = edges[idx]
    edges[idx] = (u, s)
    edges.append((s, v))


def ladder_unit(m: int) -> List[Edge]:
    """Two K4-minus-an-edge lobes joined by a ladder with m rail pairs and
    m - 1 rungs: cubic and simple on 8 + 2(m - 1) vertices.  The rail pairs
    are its 2-edge-cuts."""
    lobe_a = [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    u = [0] + [4 + 2 * i for i in range(m)]
    v = [1] + [5 + 2 * i for i in range(m)]
    rails = [(u[i], u[i + 1]) for i in range(m)] + [(v[i], v[i + 1]) for i in range(m)]
    rungs = [(u[i], v[i]) for i in range(1, m)]
    a, b = u[m], v[m]
    lobe_b = [(a, a + 2), (a, a + 3), (b, a + 2), (b, a + 3), (a + 2, a + 3)]
    return lobe_a + rails + rungs + lobe_b


# -- families --------------------------------------------------------------------


def gadget_tree(hubs: int, rng: random.Random) -> Tuple[int, List[Edge]]:
    """Random tree of degree-3 hubs; each free hub slot is a bridge to the
    degree-2 vertex of a near-K4 block.  n = 6 * hubs + 10, and all 2 * hubs
    + 1 hub edges are bridges."""
    deg = [0] * hubs
    edges: List[Edge] = []
    for h in range(1, hubs):
        p = rng.choice([p for p in range(h) if deg[p] < 3])
        edges.append((p, h))
        deg[p] += 1
        deg[h] += 1
    n = hubs
    for h in range(hubs):
        for _ in range(3 - deg[h]):
            edges += gadget_block_edges(n)
            edges.append((h, n))
            n += 5
    return n, edges


def _join_by_bridges(parts: List[List[Edge]], sizes: List[int], links: List[Tuple[int, int, int, int]]) -> Tuple[int, List[Edge]]:
    """Disjoint union of the parts, plus for each link (i, ei, j, ej) a bridge
    between fresh vertices subdividing edge ei of part i and ej of part j."""
    offsets = [0]
    for size in sizes:
        offsets.append(offsets[-1] + size)
    edges: List[Edge] = []
    where: Dict[Tuple[int, int], int] = {}
    for i, part in enumerate(parts):
        for k, (u, v) in enumerate(part):
            where[(i, k)] = len(edges)
            edges.append((u + offsets[i], v + offsets[i]))
    n = offsets[-1]
    for i, ei, j, ej in links:
        subdivide(edges, where[(i, ei)], n)
        subdivide(edges, where[(j, ej)], n + 1)
        edges.append((n, n + 1))
        n += 2
    return n, edges


def piece_tree(pieces: int, piece_n: int, rng: random.Random) -> Tuple[int, List[Edge]]:
    """Random bridgeless cubic pieces joined into a tree: each tree edge is
    a bridge between subdivision vertices on two pieces.  The pieces - 1
    tree edges are exactly the bridges."""
    parts = [pairing_cubic(piece_n, rng) for _ in range(pieces)]
    free = [rng.sample(range(len(p)), len(p)) for p in parts]
    links = []
    for i in range(1, pieces):
        j = rng.randrange(i)
        links.append((i, free[i].pop(), j, free[j].pop()))
    return _join_by_bridges(parts, [piece_n] * pieces, links)


def ladder_chain(units: int, rng: random.Random) -> Tuple[int, List[Edge]]:
    """Ladder units (ladder_unit with 2..5 rail pairs) in a path, consecutive
    units joined by a bridge; the attachment edges are random, so the end
    units' pendant blocks land on rungs, rails and lobes alike."""
    ms = [rng.randint(2, 5) for _ in range(units)]
    parts = [ladder_unit(m) for m in ms]
    free = [rng.sample(range(len(p)), len(p)) for p in parts]
    links = [(i, free[i].pop(), i + 1, free[i + 1].pop()) for i in range(units - 1)]
    return _join_by_bridges(parts, [8 + 2 * (m - 1) for m in ms], links)


@dataclass(frozen=True)
class StarChain:
    graph: PseudoGraph
    joins: Tuple[int, ...]  # edge ids of every star-product join
    poor_edge: int  # a join edge, for flow_edge_poor
    rich_pair: Tuple[int, int]  # two adjacent edges, for flow_two_adjacent_rich


def star_chain(pieces: int, piece_n: int, rng: random.Random) -> StarChain:
    """Star products of cyclically 4-edge-connected random cubic pieces in a
    path: each product deletes a vertex on either side and joins the three
    stubs, so the join triples are nontrivial 3-edge-cuts of a
    3-edge-connected graph, and the pieces add no others."""
    g = relabeled(piece_n, pairing_cubic(piece_n, rng, cyclic4=True), rng)
    joins: List[int] = []
    last = set(g.vertices())  # vertices of the newest piece
    for _ in range(1, pieces):
        h = relabeled(piece_n, pairing_cubic(piece_n, rng, cyclic4=True), rng)
        on_joins = {v for e in joins for v in g.endpoints(e)}
        u = rng.choice(sorted(last - on_joins))
        sp = star_product(g, u, h, rng.randrange(piece_n))
        joins = [sp.emap1[e] for e in joins] + list(sp.joins)
        g = sp.graph
        last = set(sp.vmap2.values())
    e = rng.choice(joins)
    f = rng.choice([d for d in g.incident(rng.choice(g.endpoints(e))) if d != e])
    return StarChain(g, tuple(joins), e, (e, f))
