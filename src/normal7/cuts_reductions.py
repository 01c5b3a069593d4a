"""Edge connectivity, small edge cuts, cut reductions and ladders.

Small cuts come from one exact cycle-space labelling (Pritchard & Thurimella,
"Fast computation of small cuts via cycle space sampling", TALG 2011, with
big-int labels in place of random ones).  Each edge is labelled by the set
of fundamental cycles through it, built in O(m) XORs over a search forest.
A set of edges is an edge cut exactly when its labels XOR to 0: bridges are
the edges labelled 0, 2-edge-cuts are pairs inside a group of equal labels,
and 3-edge-cut candidates come from a pair-XOR lookup in O(m^2).
two_cut_pairs builds no sides; nontrivial_3_edge_cuts searches a
candidate's sides only when its iteration reaches it, so a caller that
takes the least cut pays for no later one.  The find_* lists search once
per cut for its sides, and a reduction handed an EdgeCut reuses them.

The labelling is computed once per graph state.  cycle_space_labels keeps
one slot: the last graph it labelled, that graph's mutation counter, and the
labels and chords.  While the same graph object reports the same counter,
every bridge, 2-cut, 3-cut-candidate and connectivity question reads that
entry; labelling another graph replaces it.  The result is shared, so
callers only read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from normal7.graph_core import PseudoGraph, remove_vertices, verify_or_raise


@dataclass(frozen=True)
class EdgeCut:
    """An edge cut with its two vertex sides; side_a contains vertex 0."""

    edges: frozenset
    side_a: frozenset
    side_b: frozenset

    @property
    def pair(self) -> Tuple[int, ...]:
        return tuple(sorted(self.edges))


@dataclass
class ReductionPiece:
    """One side of a cut reduction, as a fresh graph plus correspondences."""

    graph: PseudoGraph
    vmap: Dict[int, int]  # original vertex -> piece vertex
    emap: Dict[int, int]  # original eid -> piece eid, non-cut edges only
    arising: Tuple[int, ...]  # piece eids of arising edges, aligned with cut
    nu: Optional[int] = None  # hub vertex of a 3-cut reduction


@dataclass
class ReductionTrace:
    """Everything needed to splice a reduction back into the original graph."""

    cut: Tuple[int, ...]  # sorted original cut eids
    cut_endpoints: Tuple[Tuple[int, int], ...]  # original endpoint tuples
    n: int  # original vertex count
    pieces: Tuple[ReductionPiece, ReductionPiece] = field(default=None)  # type: ignore[assignment]


# the last labelling computed: (graph, its mutation counter, labels, chords)
_last_labelling: Optional[Tuple[PseudoGraph, int, Dict[int, int], List[int]]] = None


def cycle_space_labels(g: PseudoGraph) -> Tuple[Dict[int, int], List[int]]:
    """Per-edge cycle-space label, plus the chords in bit order.

    Memoized in one slot keyed by the graph object and its mutation counter
    (graph_core.PseudoGraph.mutations): asking again about an unchanged
    graph returns the same dict and list without a pass, so callers must
    not modify them.  Labelling another graph replaces the slot.

    A search forest is grown from each unvisited vertex in ascending order.
    Every edge outside the forest (a chord; loops included) gets the next
    bit, in ascending edge id order, and the label of an edge is the set of
    fundamental cycles through it: a chord carries its own bit, and a tree
    edge carries the bits of the chords whose tree path crosses it.  A loop
    toggles its bit twice at its vertex, so it is its own fundamental cycle.

    An edge set F is an edge cut exactly when the labels of F XOR to 0, so
    bridges are the edges labelled 0 and a 2-edge-cut of a connected graph
    is a pair of equal labels.  Cost: O(m) big-int XORs.
    """
    global _last_labelling
    last = _last_labelling
    if last is not None and last[0] is g and last[1] == g.mutations:
        return last[2], last[3]
    labels, chords = _label_cycle_space(g)
    _last_labelling = (g, g.mutations, labels, chords)
    return labels, chords


def _label_cycle_space(g: PseudoGraph) -> Tuple[Dict[int, int], List[int]]:
    """The pass behind cycle_space_labels, without the memo."""
    edges = list(g.edges())
    adj: List[List[Tuple[int, int]]] = [[] for _ in g.vertices()]
    for eid, u, v in edges:
        adj[u].append((eid, v))
        adj[v].append((eid, u))
    up_edge = [-1] * g.num_vertices  # tree edge to the parent, -1 at a root
    parent = [-1] * g.num_vertices
    order: List[int] = []  # vertices in discovery order; parents come first
    seen = [False] * g.num_vertices
    for root in g.vertices():
        if seen[root]:
            continue
        seen[root] = True
        order.append(root)
        stack = [root]
        while stack:
            v = stack.pop()
            for eid, w in adj[v]:
                if not seen[w]:
                    seen[w] = True
                    parent[w], up_edge[w] = v, eid
                    order.append(w)
                    stack.append(w)
    tree = set(up_edge)  # the -1 of the roots matches no edge
    acc = [0] * g.num_vertices  # XOR of the chord bits toggled at each vertex
    labels: Dict[int, int] = {}
    chords: List[int] = []
    for eid, u, v in edges:
        if eid in tree:
            continue
        bit = 1 << len(chords)
        chords.append(eid)
        labels[eid] = bit
        acc[u] ^= bit
        acc[v] ^= bit
    for v in reversed(order):
        if up_edge[v] != -1:
            labels[up_edge[v]] = acc[v]
            acc[parent[v]] ^= acc[v]
    return labels, chords


def find_bridges(g: PseudoGraph) -> List[int]:
    """All bridge edge ids, sorted.  Parallel edges and loops are never bridges."""
    labels, _ = cycle_space_labels(g)
    return sorted(e for e, label in labels.items() if label == 0)


def require_bridgeless_cubic(g: PseudoGraph, who: str) -> None:
    """Raise ValueError naming who unless g is cubic and bridgeless."""
    if not g.is_cubic():
        raise ValueError(f"{who} requires a cubic graph")
    if find_bridges(g):
        raise ValueError(f"{who} requires a bridgeless graph")


def component_count(g: PseudoGraph) -> int:
    """The number of connected components of g, read off its cycle-space
    labelling: a search forest of c trees has n - c edges, so the m - n + c
    chords count the components without a second search."""
    labels, chords = cycle_space_labels(g)
    return len(chords) - len(labels) + g.num_vertices


def _connected_labels(g: PseudoGraph) -> Dict[int, int]:
    """The labels of cycle_space_labels, or ValueError when g is
    disconnected."""
    if component_count(g) > 1:
        raise ValueError("graph must be connected")
    return cycle_space_labels(g)[0]


def _cut_from_sides(g: PseudoGraph, edges: Iterable[int], comps: List[List[int]]) -> EdgeCut:
    verify_or_raise(len(comps) == 2, f"edges {sorted(edges)} do not split the graph in two")
    side_a, side_b = comps
    if 0 in side_b:
        side_a, side_b = side_b, side_a
    return EdgeCut(frozenset(edges), frozenset(side_a), frozenset(side_b))


def _by_label(labels: Dict[int, int]) -> Dict[int, List[int]]:
    """Edge ids grouped by label, each group ascending."""
    groups: Dict[int, List[int]] = {}
    for e in sorted(labels):
        groups.setdefault(labels[e], []).append(e)
    return groups


def two_cut_pairs(g: PseudoGraph) -> List[Tuple[int, int]]:
    """Every 2-edge-cut of a connected bridgeless graph as an ascending edge
    pair, the pairs sorted; no sides are built.

    Every pair inside a group of equal labels is a cut; a loop's label is
    its own chord bit, so loops never share a group.
    """
    groups = _by_label(_connected_labels(g))
    if 0 in groups:
        raise ValueError("graph must be bridgeless")
    return sorted(pair for group in groups.values() for pair in combinations(group, 2))


def find_2_edge_cuts(g: PseudoGraph) -> List[EdgeCut]:
    """All 2-edge-cuts of a connected bridgeless graph with their sides, in
    two_cut_pairs order."""
    return [_cut_from_sides(g, pair, g.connected_components(skip=pair)) for pair in two_cut_pairs(g)]


def _three_cut_candidates(g: PseudoGraph, labels: Dict[int, int]) -> Iterator[Tuple[int, int, int]]:
    """Ascending edge triples whose labels XOR to 0, vertex stars left out,
    in sorted order: the ids and each label group are ascending.

    Every 3-edge cut other than a star is among them; O(m^2) by a pair-XOR
    lookup.  In a cubic graph three edges with a common endpoint are that
    vertex's star.
    """
    groups = _by_label(labels)
    ids = sorted(labels)
    for i, e in enumerate(ids):
        ends_e = set(g.endpoints(e))
        for f in ids[i + 1 :]:
            for h in groups.get(labels[e] ^ labels[f], ()):
                if h > f and not ends_e & set(g.endpoints(f)) & set(g.endpoints(h)):
                    yield (e, f, h)


def nontrivial_3_edge_cuts(g: PseudoGraph) -> Iterator[EdgeCut]:
    """3-edge-cuts of a connected cubic graph whose sides both have at least
    2 vertices, sorted by edge triple, found lazily: a candidate's sides are
    searched for only when the iteration reaches it.

    Only genuine cuts count: all three edges must cross between the two
    resulting components.
    """
    if not g.is_cubic():
        raise ValueError("graph must be cubic")
    for triple in _three_cut_candidates(g, _connected_labels(g)):
        comps = g.connected_components(skip=triple)
        if len(comps) != 2 or min(len(comps[0]), len(comps[1])) < 2:
            continue
        side = set(comps[0])
        if all((g.endpoints(e)[0] in side) != (g.endpoints(e)[1] in side) for e in triple):
            yield _cut_from_sides(g, triple, comps)


def find_nontrivial_3_edge_cuts(g: PseudoGraph) -> List[EdgeCut]:
    """All of nontrivial_3_edge_cuts, sorted by edge triple."""
    return list(nontrivial_3_edge_cuts(g))


def _oriented_cut_endpoints(
    g: PseudoGraph, cut: Sequence[int], side_a: Set[int]
) -> List[Tuple[int, int]]:
    """Per cut edge, its endpoints ordered (side_a endpoint, side_b endpoint)."""
    out = []
    for c in cut:
        u, v = g.endpoints(c)
        out.append((u, v) if u in side_a else (v, u))
    return out


def _normalize_cut(g: PseudoGraph, cut) -> Tuple[Tuple[int, ...], Set[int], Set[int]]:
    """(ascending cut edges, side_a, side_b): an EdgeCut's own sides, or one
    search for the sides of a bare edge collection."""
    if isinstance(cut, EdgeCut):
        return cut.pair, set(cut.side_a), set(cut.side_b)
    edges = tuple(sorted(cut))
    comps = g.connected_components(skip=edges)
    if len(comps) != 2:
        raise ValueError(f"edges {edges} are not a cut into two sides")
    ec = _cut_from_sides(g, edges, comps)
    return edges, set(ec.side_a), set(ec.side_b)


def _split_at_cut(
    g: PseudoGraph,
    cut,
    size: int,
    strict: bool,
    close: Callable[[PseudoGraph, List[int]], Tuple[Tuple[int, ...], Optional[int]]],
) -> Tuple[ReductionPiece, ReductionPiece, ReductionTrace]:
    """Remove each side of a size-edge cut in turn, close the rest by
    close(h, cut endpoints kept in h), which returns (arising edges, hub or
    None), and check that every kept vertex keeps its degree."""
    edges, side_a, side_b = _normalize_cut(g, cut)
    if len(edges) != size:
        raise ValueError(f"a {size}-cut reduction needs exactly {size} cut edges")
    if strict and len({v for c in edges for v in g.endpoints(c)}) != 2 * size:
        raise ValueError("cut edges must be vertex disjoint")
    oriented = _oriented_cut_endpoints(g, edges, side_a)
    pieces = []
    for side, slot in ((side_b, 0), (side_a, 1)):
        h, vmap, emap = remove_vertices(g, side)
        arising, nu = close(h, [vmap[pt[slot]] for pt in oriented])
        verify_or_raise(
            all(h.degree(pv) == g.degree(ov) for ov, pv in vmap.items()),
            f"a {size}-cut piece changed a vertex degree",
        )
        pieces.append(ReductionPiece(h, vmap, emap, arising, nu))
    trace = ReductionTrace(
        cut=edges,
        cut_endpoints=tuple(g.endpoints(c) for c in edges),
        n=g.num_vertices,
        pieces=(pieces[0], pieces[1]),
    )
    return pieces[0], pieces[1], trace


def two_cut_reduction(
    g: PseudoGraph, cut, strict: bool = True
) -> Tuple[ReductionPiece, ReductionPiece, ReductionTrace]:
    """Split g along a 2-edge-cut into two pieces, each closed by an arising edge.

    The arising edge of a piece joins the endpoint of the smaller cut edge to
    the endpoint of the larger one (in that order).  With strict=True the cut
    edges must be vertex disjoint; otherwise a shared endpoint turns the
    arising edge of that side into a loop.
    """
    return _split_at_cut(g, cut, 2, strict, lambda h, ends: ((h.add_edge(*ends),), None))


def three_cut_reduction(g: PseudoGraph, cut) -> Tuple[ReductionPiece, ReductionPiece, ReductionTrace]:
    """Split g along a matching 3-edge-cut; each piece gains a hub vertex.

    The hub is joined to the three cut endpoints of its side in ascending
    cut edge order, so arising edges correspond 1-1 to cut edges.
    """

    def hub(h: PseudoGraph, ends: List[int]) -> Tuple[Tuple[int, ...], int]:
        nu = h.add_vertex()
        return tuple(h.add_edge(end, nu) for end in ends), nu

    return _split_at_cut(g, cut, 3, True, hub)


def splice_reduction(trace: ReductionTrace) -> PseudoGraph:
    """Rebuild the original labeled graph from a reduction's pieces and maps."""
    labeled: List[Tuple[int, int, int]] = []
    for piece in trace.pieces:
        inv_v = {pv: ov for ov, pv in piece.vmap.items()}
        inv_e = {pe: oe for oe, pe in piece.emap.items()}
        skip = set(piece.arising)
        for pe, pu, pv in piece.graph.edges():
            if pe in skip:
                continue
            if piece.nu is not None and piece.nu in (pu, pv):
                continue
            labeled.append((inv_e[pe], inv_v[pu], inv_v[pv]))
    for eid, (u, v) in zip(trace.cut, trace.cut_endpoints):
        labeled.append((eid, u, v))
    return PseudoGraph.from_labeled_edges(trace.n, labeled)


@dataclass
class StarProduct:
    graph: PseudoGraph
    vmap1: Dict[int, int]
    vmap2: Dict[int, int]
    emap1: Dict[int, int]
    emap2: Dict[int, int]
    joins: Tuple[int, int, int]


def star_product(
    g1: PseudoGraph,
    u1: int,
    g2: PseudoGraph,
    u2: int,
    pairing: Optional[Sequence[Tuple[int, int]]] = None,
) -> StarProduct:
    """Delete a degree-3 vertex from each graph and join the stubs pairwise.

    pairing lists (edge of u1, edge of u2) couples; by default the incident
    edges of u1 and u2 are matched in ascending id order.
    """
    for g, u in ((g1, u1), (g2, u2)):
        if g.degree(u) != 3 or any(g.is_loop(e) for e in g.incident(u)):
            raise ValueError("star product needs loopless degree-3 vertices")
    if pairing is None:
        pairing = list(zip(sorted(g1.incident(u1)), sorted(g2.incident(u2))))
    pairing = list(pairing)
    if sorted(e for e, _ in pairing) != sorted(g1.incident(u1)) or sorted(
        e for _, e in pairing
    ) != sorted(g2.incident(u2)):
        raise ValueError("pairing must cover each stub edge exactly once")
    stubs1 = {e: g1.other_endpoint(e, u1) for e in g1.incident(u1)}
    stubs2 = {e: g2.other_endpoint(e, u2) for e in g2.incident(u2)}
    h1, vmap1, emap1 = remove_vertices(g1, [u1])
    h = h1
    vmap2: Dict[int, int] = {}
    emap2: Dict[int, int] = {}
    offset_of: Dict[int, int] = {}
    for v in g2.vertices():
        if v != u2:
            offset_of[v] = h.add_vertex()
    vmap2 = offset_of
    for eid, a, b in g2.edges():
        if u2 in (a, b):
            continue
        emap2[eid] = h.add_edge(vmap2[a], vmap2[b])
    joins = tuple(
        h.add_edge(vmap1[stubs1[e1]], vmap2[stubs2[e2]]) for e1, e2 in pairing
    )
    return StarProduct(h, vmap1, vmap2, emap1, emap2, joins)  # type: ignore[arg-type]


# -- ladders -------------------------------------------------------------------


@dataclass(frozen=True)
class Ladder:
    """Two induced rail paths of equal length joined by interior rungs.

    Rails hold m+1 vertices each; rungs join u_rail[i] to v_rail[i] for
    1 <= i <= m-1.  End pairs (index 0 and m) are non-adjacent.
    """

    u_rail: Tuple[int, ...]
    v_rail: Tuple[int, ...]
    u_edges: Tuple[int, ...]
    v_edges: Tuple[int, ...]
    rungs: Tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.u_edges)

    def vertices(self) -> Set[int]:
        return set(self.u_rail) | set(self.v_rail)

    def edges(self) -> Set[int]:
        return set(self.u_edges) | set(self.v_edges) | set(self.rungs)

    def rail_pair(self, i: int) -> Tuple[int, int]:
        """The i-th rail edge pair, a 2-edge-cut; 0 <= i < m."""
        return (self.u_edges[i], self.v_edges[i])


def validate_ladder(g: PseudoGraph, L: Ladder) -> bool:
    m = L.m
    if m < 1:
        return False
    if len(L.u_rail) != m + 1 or len(L.v_rail) != m + 1:
        return False
    if len(L.v_edges) != m or len(L.rungs) != m - 1:
        return False
    verts = list(L.u_rail) + list(L.v_rail)
    if len(set(verts)) != 2 * (m + 1):
        return False
    try:
        for rail, redges in ((L.u_rail, L.u_edges), (L.v_rail, L.v_edges)):
            for i in range(m):
                if set(g.endpoints(redges[i])) != {rail[i], rail[i + 1]}:
                    return False
        for i in range(1, m):
            if set(g.endpoints(L.rungs[i - 1])) != {L.u_rail[i], L.v_rail[i]}:
                return False
    except ValueError:
        return False
    if g.has_edge(L.u_rail[0], L.v_rail[0]) or g.has_edge(L.u_rail[m], L.v_rail[m]):
        return False
    vset = L.vertices()
    induced = sum(1 for _, a, b in g.edges() if a in vset and b in vset)
    if induced != 2 * m + (m - 1):
        return False
    for i in range(m):
        comps = g.connected_components(skip=L.rail_pair(i))
        if len(comps) != 2:
            return False
        low = next(c for c in comps if L.u_rail[i] in c)
        if L.v_rail[i] not in low:
            return False
        if L.u_rail[i + 1] in low or L.v_rail[i + 1] in low:
            return False
    return True


def ladder_containing(g: PseudoGraph, cut) -> Ladder:
    """The unique maximal ladder whose rail pair set contains the given 2-cut.

    Requires a connected simple cubic bridgeless graph; growth invariants are
    asserted at every step and the result is validated before return, raising
    VerificationError if it is not a ladder.
    """
    if not (g.is_cubic() and g.is_simple() and component_count(g) <= 1):
        raise ValueError("ladders are defined here for connected simple cubic graphs")
    edges, side_a, side_b = _normalize_cut(g, cut)
    if len(edges) != 2:
        raise ValueError("a ladder grows from a 2-edge-cut")
    oriented = _oriented_cut_endpoints(g, edges, side_a)
    (a1, b1), (a2, b2) = oriented

    def grow(x0: int, y0: int, into_x: int, into_y: int, known: Set[int]):
        """Extend rails outward from the pair (x0, y0); into_* are the rail
        edges by which the pair was reached.  Returns (xs, ys, xe, ye) with
        vertices and rail edges listed outward."""
        xs, ys, xe, ye = [], [], [], []
        x, y, ex, ey = x0, y0, into_x, into_y
        while True:
            rung = g.edges_between(x, y)
            if not rung:
                return xs, ys, xe, ye
            third_x = [e for e in g.incident(x) if e not in (ex, rung[0])]
            third_y = [e for e in g.incident(y) if e not in (ey, rung[0])]
            assert len(third_x) == 1 and len(third_y) == 1
            nx_, ny_ = g.other_endpoint(third_x[0], x), g.other_endpoint(third_y[0], y)
            assert nx_ != ny_ and nx_ not in known and ny_ not in known
            known.update((nx_, ny_))
            xs.append(nx_)
            ys.append(ny_)
            xe.append(third_x[0])
            ye.append(third_y[0])
            x, y, ex, ey = nx_, ny_, third_x[0], third_y[0]

    known = {a1, a2, b1, b2}
    lx, ly, lxe, lye = grow(a1, a2, edges[0], edges[1], known)
    rx, ry, rxe, rye = grow(b1, b2, edges[0], edges[1], known)
    rail1 = list(reversed(lx)) + [a1, b1] + rx
    rail2 = list(reversed(ly)) + [a2, b2] + ry
    redges1 = list(reversed(lxe)) + [edges[0]] + rxe
    redges2 = list(reversed(lye)) + [edges[1]] + rye
    if rail2[0] < rail1[0]:
        rail1, rail2, redges1, redges2 = rail2, rail1, redges2, redges1
    m = len(redges1)
    rungs = []
    for i in range(1, m):
        between = g.edges_between(rail1[i], rail2[i])
        assert len(between) == 1
        rungs.append(between[0])
    L = Ladder(tuple(rail1), tuple(rail2), tuple(redges1), tuple(redges2), tuple(rungs))
    verify_or_raise(validate_ladder(g, L), f"grown ladder {L} is not valid")
    return L
