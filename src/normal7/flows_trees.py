"""GF(2)^k flows, spanning tree packing, and constrained-flow constructions.

Group elements of Z_2^k are stored as k-bit ints; addition is xor.  The
generator convention is fixed project-wide: x = 001, y = 010, z = 100.

Every tree flow comes from one tree representation: the packer takes an
ends list (ends[eid] = (u, v), None at a hole) and a vertex count, no graph,
and returns edge-disjoint spanning trees as rooted forests (flat
parent-vertex and parent-edge lists, -1 at a root); each flow is read off
them.  A tree's parity subgraph, found by one children-first walk of its
parent pointers, has an even complement; bit i of an edge's value is set
when the edge lies outside the i-th parity subgraph.  A fundamental cycle
is the tree's own path between the ends of a non-tree edge.  The Z_2^3
flow of a 3-edge-connected graph packs three trees in its doubled graph,
written as ends straight from g: copies 2i and 2i + 1 stand for the i-th
edge.  The Z_2^2 flows that pin edges e and f pack two trees in g's ends
with holes at e and f.  Every Z_2^3 flow split at a 2- or 3-edge-cut, here
or in the pipeline, is joined by joined_at_cut: one piece's flow is renamed
by an automorphism to agree with the other's on the arising edges.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from normal7.cuts_reductions import ReductionPiece, find_2_edge_cuts, find_bridges, two_cut_reduction
from normal7.graph_core import PseudoGraph, VerificationError, solve_per_component, verify_or_raise

GF2Vector = int  # k-bit value; addition is bitwise xor

X: GF2Vector = 1
Y: GF2Vector = 2
Z: GF2Vector = 4


class PackingError(Exception):
    """No packing of edge-disjoint spanning trees exists."""


@dataclass
class GroupFlow:
    """An assignment of Z_2^k values to all edges of a graph."""

    graph: PseudoGraph
    k: int
    values: Dict[int, GF2Vector]


@dataclass(frozen=True)
class FlowCheck:
    conserving: bool
    nowhere_zero: bool


def verify_flow(flow: GroupFlow) -> FlowCheck:
    """Check conservation at every vertex; report nowhere-zero separately.

    A loop appears twice in its vertex's incidence list, so it cancels out
    of the conservation sum on its own.
    """
    g = flow.graph
    vals = flow.values
    ids = g.edge_ids()
    if set(vals) != set(ids):
        raise ValueError("flow values must cover exactly the edge set")
    limit = 1 << flow.k
    if any(not 0 <= v < limit for v in vals.values()):
        raise ValueError(f"flow values must lie in [0, {limit})")
    conserving = True
    for v in g.vertices():
        acc = 0
        for eid in g.incident(v):
            acc ^= vals[eid]
        if acc:
            conserving = False
            break
    nowhere_zero = all(vals[e] != 0 for e in ids)
    return FlowCheck(conserving, nowhere_zero)


def verified_nz_flow(flow: GroupFlow) -> GroupFlow:
    """The flow itself, once verify_flow finds it nowhere-zero and conserving."""
    check = verify_flow(flow)
    verify_or_raise(
        check.conserving and check.nowhere_zero,
        f"constructed Z_2^{flow.k} flow is not nowhere-zero conserving",
    )
    return flow


class EdgeStatus(str, enum.Enum):
    """An edge is poor when the values at its two endpoints span exactly 3
    elements, rich when they span exactly 5, and invalid otherwise."""

    POOR = "poor"
    RICH = "rich"
    INVALID = "invalid"


def values_at(g: PseudoGraph, values: Mapping[int, int], v: int) -> Set[int]:
    """Distinct values on the edges at v; a loop contributes its value once."""
    try:
        return {values[e] for e in g.incident(v)}
    except KeyError as exc:
        raise ValueError(f"edge {exc.args[0]} at vertex {v} is uncolored") from None


STATUS_BY_UNION_SIZE: Dict[int, EdgeStatus] = {3: EdgeStatus.POOR, 5: EdgeStatus.RICH}
"""The poor/rich rule for flows and colorings alike, keyed by the size of the
union of the value sets at an edge's two endpoints; any other size is
EdgeStatus.INVALID."""


def union_status(g: PseudoGraph, values: Mapping[int, int], eid: int) -> EdgeStatus:
    """The status of eid by STATUS_BY_UNION_SIZE."""
    u, v = g.endpoints(eid)
    size = len(values_at(g, values, u) | values_at(g, values, v))
    return STATUS_BY_UNION_SIZE.get(size, EdgeStatus.INVALID)


def flow_value_set(flow: GroupFlow, v: int) -> Set[GF2Vector]:
    """Distinct flow values on edges at v; a loop contributes its value once."""
    return values_at(flow.graph, flow.values, v)


def flow_edge_status(flow: GroupFlow, eid: int) -> EdgeStatus:
    """Poor, rich or invalid by the size of the two-endpoint value union."""
    return union_status(flow.graph, flow.values, eid)


# -- spanning tree packing ----------------------------------------------------


def _edge_ends(g: PseudoGraph) -> List[Optional[Tuple[int, int]]]:
    """ends[eid] = (u, v) for every edge of g; None at the holes of removed ids."""
    ends: List[Optional[Tuple[int, int]]] = []
    for eid, u, v in g.edges():
        ends += [None] * (eid - len(ends))
        ends.append((u, v))
    return ends


class _RootedForest:
    """A forest held as flat parent pointers: par[v] is v's parent vertex and
    pedge[v] the id of the edge to it, both -1 at a root.  ends maps edge
    ids to endpoints, as built by _edge_ends.

    A merge-only union-find over the trees rides along (up[v] leads towards
    the representative of v's tree), joined in link and never split, and
    read by _open_forest.  The packer only exchanges an edge for one on the
    forest path between its ends, which leaves the vertex partition of a
    forest as it was, so a tree partition that only ever merges is all the
    packer needs.  path marks its two walks in four arrays kept with the
    forest: a vertex is on a walk when its mark equals the query's stamp."""

    __slots__ = ("ends", "par", "pedge", "up", "stamp", "s_on", "t_on", "s_at", "t_at")

    def __init__(self, ends: List[Optional[Tuple[int, int]]], n: int):
        self.ends = ends
        self.par = [-1] * n
        self.pedge = [-1] * n
        self.up = list(range(n))
        self.stamp = 0
        self.s_on = [0] * n  # stamp of the last s-walk through v
        self.t_on = [0] * n
        self.s_at = [0] * n  # edges below v on that walk
        self.t_at = [0] * n

    def _find(self, v: int) -> int:
        up = self.up
        root = v
        while up[root] != root:
            root = up[root]
        while up[v] != root:
            up[v], v = root, up[v]
        return root

    def holds(self, eid: int) -> bool:
        """Whether edge eid is in this forest: the parent edge of one of its ends."""
        a, b = self.ends[eid]  # type: ignore[misc]
        pedge = self.pedge
        return pedge[a] == eid or pedge[b] == eid

    def path(self, s: int, t: int) -> Optional[List[int]]:
        """Edge ids on the forest path from t to s, in that order, or None
        when s and t lie in different trees.

        Walks up from s and t in turns; the first vertex either walk finds
        on the other's trail is their lowest common ancestor."""
        par, pedge = self.par, self.pedge
        s_on, t_on, s_at, t_at = self.s_on, self.t_on, self.s_at, self.t_at
        self.stamp = q = self.stamp + 1
        s_on[s] = t_on[t] = q
        s_at[s] = t_at[t] = 0
        s_edges: List[int] = []
        t_edges: List[int] = []
        a, b = s, t
        while True:
            if t_on[a] == q:
                return t_edges[: t_at[a]] + s_edges[::-1]
            if s_on[b] == q:
                return t_edges + s_edges[: s_at[b]][::-1]
            up_a, up_b = par[a], par[b]
            if up_a < 0 and up_b < 0:
                return None
            if up_a >= 0:
                s_edges.append(pedge[a])
                a = up_a
                s_on[a] = q
                s_at[a] = len(s_edges)
            if up_b >= 0:
                t_edges.append(pedge[b])
                b = up_b
                t_on[b] = q
                t_at[b] = len(t_edges)

    def link(self, eid: int) -> None:
        """Add edge eid: re-root the tree of one endpoint there and hang it
        under the other, and join the two trees in the union-find.  Raises
        VerificationError when both endpoints lie in one tree by the parent
        pointers, so they never close a cycle, whatever the union-find says."""
        a, b = self.ends[eid]  # type: ignore[misc]
        par, pedge = self.par, self.pedge
        child, v, e = a, par[a], pedge[a]
        par[a] = pedge[a] = -1
        while v >= 0:
            par[v], pedge[v], child, v, e = child, e, v, par[v], pedge[v]
        root = b
        while par[root] >= 0:
            root = par[root]
        if root == a:
            raise VerificationError(f"edge {eid} would close a cycle in a packed forest")
        par[a], pedge[a] = b, eid
        self.up[self._find(a)] = self._find(b)

    def cut(self, eid: int) -> None:
        """Remove tree edge eid: its lower endpoint becomes a root.  Raises
        VerificationError when eid is not an edge of this forest."""
        if not self.holds(eid):
            raise VerificationError(f"edge {eid} is not in the packed forest it leaves")
        a, b = self.ends[eid]  # type: ignore[misc]
        low = a if self.pedge[a] == eid else b
        self.par[low] = self.pedge[low] = -1

    def edges(self) -> Set[int]:
        """Ids of the forest's edges, one parent edge per non-root vertex."""
        return {e for e in self.pedge if e >= 0}

    def parity_subgraph(self, odd: Sequence[int]) -> Set[int]:
        """The edges A of this spanning tree with deg_A(v) = odd[v] (mod 2)
        at every vertex.

        Walks the parent pointers children first: once a vertex's children
        are settled, it keeps its parent edge exactly when its count is
        odd.  Every choice is forced, so A is unique within the tree."""
        par, pedge = self.par, self.pedge
        count = list(odd)
        unsettled = [0] * len(par)  # children not yet walked
        for p in par:
            if p >= 0:
                unsettled[p] += 1
        ready = [v for v, c in enumerate(unsettled) if c == 0]
        result: Set[int] = set()
        while ready:
            v = ready.pop()
            p = par[v]
            if p < 0:
                continue
            if count[v] % 2:
                result.add(pedge[v])
                count[p] += 1
            unsettled[p] -= 1
            if not unsettled[p]:
                ready.append(p)
        return result


def _open_forest(owner: List[int], trees: List[_RootedForest], x: int) -> int:
    """The first forest other than x's own in which x's ends lie in
    different trees, so that x may enter it directly, or -1.

    Reads each forest's union-find (tree.up, at every query): both finds,
    then both path compressions."""
    u, v = trees[0].ends[x]  # type: ignore[misc]
    own = owner[x]
    for i, tree in enumerate(trees):
        if i == own:
            continue
        up = tree.up
        a, b = u, v
        while up[a] != a:
            a = up[a]
        while up[b] != b:
            b = up[b]
        s, t = u, v
        while up[s] != a:
            up[s], s = a, up[s]
        while up[t] != b:
            up[t], t = b, up[t]
        if a != b:
            return i
    return -1


def _try_augment(owner: List[int], trees: List[_RootedForest], e: int) -> bool:
    """One matroid-union augmentation step: try to absorb edge e, which no
    forest holds yet.

    When e's ends lie in different trees of some forest, e enters the
    first such forest at once: no search, no exchange chain.  Otherwise
    the search runs breadth-first over exchanges: edge y may enter forest
    i directly when its endpoints lie in different trees there, or in
    place of any edge on the forest path between them.  owner[y] is y's
    forest index, or -1.  Applies the shortest exchange chain to owner and
    trees and returns True, or returns False when e cannot be absorbed.

    Each edge is tested for a direct entry when it is queued, by the
    union-find, not when it is popped: the queue is first in, first out,
    so the first queued edge that can enter some forest directly is the
    first one a pop-time test would find, and it takes the same (first
    such) forest and the same chain.  Forest paths are walked only for the
    edges popped before that edge was queued."""
    into = _open_forest(owner, trees, e)
    if into >= 0:
        owner[e] = into
        trees[into].link(e)
        return True
    ends = trees[0].ends
    parent: Dict[int, Optional[Tuple[int, int]]] = {e: None}
    queue = deque([e])
    while queue:
        y = queue.popleft()
        uy, vy = ends[y]  # type: ignore[misc]
        for i, tree in enumerate(trees):
            if owner[y] == i:
                continue
            path = tree.path(uy, vy)
            if path is None:
                raise VerificationError(f"the union-find joins two trees of packed forest {i}")
            for x in path:
                if x not in parent:
                    parent[x] = (y, i)
                    into = _open_forest(owner, trees, x)
                    if into >= 0:
                        _exchange(owner, trees, parent, x, into)
                        return True
                    queue.append(x)
    return False


def _exchange(
    owner: List[int],
    trees: List[_RootedForest],
    parent: Mapping[int, Optional[Tuple[int, int]]],
    y: int,
    into: int,
) -> None:
    """Insert y into forest into, then unwind the exchange chain: each edge
    on it moves into the forest whose path it opened."""
    chain = []  # (forest entered, edge, forest left or -1)
    x = y
    while parent[x] is not None:
        prev, j = parent[x]  # type: ignore[misc]
        chain.append((into, x, j))
        x, into = prev, j
    chain.append((into, x, -1))
    # every cut first leaves a subforest of the result, so each link then
    # joins two different trees
    for _, x, out in chain:
        if out >= 0:
            trees[out].cut(x)
    for into, x, _ in chain:
        owner[x] = into
        trees[into].link(x)


def _is_spanning_tree(ends: Sequence[Optional[Tuple[int, int]]], n: int, edges: Set[int]) -> bool:
    """Whether edges are n - 1 edges of ends that close no cycle, that is a
    spanning tree on n vertices; one union-find pass over the edges."""
    if len(edges) != n - 1:
        return False
    up = list(range(n))
    for e in edges:
        a, b = ends[e]  # type: ignore[misc]
        while up[a] != a:
            up[a] = a = up[up[a]]
        while up[b] != b:
            up[b] = b = up[up[b]]
        if a == b:
            return False
        up[a] = b
    return True


def _pack_spanning_trees(
    ends: List[Optional[Tuple[int, int]]], n: int, k: int
) -> List[_RootedForest]:
    """k edge-disjoint spanning trees of the graph on n vertices whose edge
    eid joins ends[eid] (None at a hole), as rooted forests, or PackingError.

    Callers write ends straight from their graph: nz_z23_flow's doubled
    graph, or g with holes at the edges a constrained flow sets aside.
    Matroid-union augmentation over the edges in id order (loops skipped).
    The only state is one _RootedForest per forest (flat parent-vertex and
    parent-edge lists and a union-find, over the one ends list) plus
    owner[eid], the index of the forest holding each edge, or -1.  An edge
    whose ends lie in different trees of a forest is linked there at once;
    otherwise an exchange query walks up from the two endpoints instead of
    searching the forest; a forest path is unique, so it returns the edges
    a search would.  Nothing is held twice, so no copy needs re-checking
    against another: each edge has one owner, so the forests are disjoint
    by construction; link raises VerificationError on an edge that would
    close a cycle, and cut on an edge the forest does not hold.  The
    forests are returned as they are, the one tree representation every
    flow here is built from; each is checked once, by a union-find pass
    over its edges, to be a spanning tree.  Where a forest is rooted
    depends on the order of links and cuts, but no output does: a tree's
    parity subgraph and its paths are the same from any root.

    The loop stops once k(n-1) edges are packed: every forest is then a
    spanning tree, so each later edge has its ends in one tree of every
    forest and its augmentation could only fail, after searching the whole
    exchange graph, without changing a forest.  The result is the same.
    A packing that comes up short has seen every edge, and forest 0 then
    spans each component of the graph: an edge whose ends lie in two of
    its trees enters it directly, and an exchange never splits a forest's
    vertex partition.  So forest 0 falls short exactly when the graph is
    disconnected.
    """
    trees = [_RootedForest(ends, n) for _ in range(k)]
    if n <= 1:
        return trees
    owner = [-1] * len(ends)
    packed, full = 0, k * (n - 1)
    for e, uv in enumerate(ends):
        if packed == full:
            break
        if uv is not None and uv[0] != uv[1] and _try_augment(owner, trees, e):
            packed += 1
    forests = [t.edges() for t in trees]
    if len(forests[0]) != n - 1:
        raise PackingError("graph is disconnected")
    if any(len(f) != n - 1 for f in forests):
        raise PackingError(f"no packing of {k} edge-disjoint spanning trees")
    for f in forests:
        verify_or_raise(_is_spanning_tree(ends, n, f), "a packed forest is not a spanning tree")
    return trees


def _odd_degrees(g: PseudoGraph) -> List[int]:
    """The parity vector of g's degrees, the target of every parity subgraph."""
    return [g.degree(v) % 2 for v in g.vertices()]


def _complement_values(g: PseudoGraph, parities: Sequence[Set[int]]) -> Dict[int, GF2Vector]:
    """values[e] holds generator i (x, y, z) when e lies outside parities[i].
    The complement of a parity subgraph is even, so every bit conserves."""
    return {e: sum(b for b, a in zip((X, Y, Z), parities) if e not in a) for e in g.edge_ids()}


# -- flow constructions --------------------------------------------------------


def flow_two_edges_equal(g: PseudoGraph, e: int, f: int) -> GroupFlow:
    """Nowhere-zero Z_2^2 flow with equal values on e and f.

    Works on any pseudograph in which g-e-f still packs two spanning trees
    (4-edge-connectivity is enough).  Every edge outside both trees, the
    named two among them, lies outside both parity subgraphs and so
    receives x+y; a tree edge avoids zero because the trees are disjoint.
    """
    for d in (e, f):
        g.endpoints(d)
    ends = _edge_ends(g)
    ends[e] = ends[f] = None
    odd = _odd_degrees(g)
    parities = [t.parity_subgraph(odd) for t in _pack_spanning_trees(ends, g.num_vertices, 2)]
    flow = verified_nz_flow(GroupFlow(g, 2, _complement_values(g, parities)))
    verify_or_raise(flow.values[e] == flow.values[f], f"edges {e} and {f} got different values")
    return flow


def _share_vertex(g: PseudoGraph, eids: Sequence[int]) -> bool:
    common = set(g.endpoints(eids[0]))
    for e in eids[1:]:
        common &= set(g.endpoints(e))
    return bool(common)


def flow_three_edges_distinct(g: PseudoGraph, e: int, f: int, gg: int) -> GroupFlow:
    """Nowhere-zero Z_2^2 flow with values[e] != values[f] and values[e] != values[gg].

    e, f, gg must share a vertex; f and gg may coincide, e may not equal
    either.  Loops take the free-value route; otherwise pack trees in
    g-e-f, flip the second parity subgraph along the fundamental cycle of
    e (the second tree's path between its ends, plus e) so that e drops out
    of the second even subgraph.
    """
    if e in (f, gg):
        raise ValueError("cannot separate an edge's value from itself")
    if not _share_vertex(g, (e, f, gg)):
        raise ValueError("the three edges must share a vertex")
    loops = {d for d in (e, f, gg) if g.is_loop(d)}
    if loops:
        flow = _flow_with_free_loops(g, e, f, gg, loops)
    else:
        ends = _edge_ends(g)
        ends[e] = ends[f] = None
        t1, t2 = _pack_spanning_trees(ends, g.num_vertices, 2)
        if gg != f and t2.holds(gg):  # f is not packed
            t1, t2 = t2, t1
        odd = _odd_degrees(g)
        cycle = set(t2.path(*g.endpoints(e))) | {e}  # type: ignore[arg-type]
        parities = [t1.parity_subgraph(odd), t2.parity_subgraph(odd) ^ cycle]
        flow = verified_nz_flow(GroupFlow(g, 2, _complement_values(g, parities)))
    verify_or_raise(
        flow.values[e] not in (flow.values[f], flow.values[gg]),
        f"edge {e} shares its value with edge {f} or {gg}",
    )
    return flow


def _any_nz2_flow(g: PseudoGraph) -> GroupFlow:
    non_loop_ids = [d for d in g.edge_ids() if not g.is_loop(d)]
    if non_loop_ids:
        return flow_two_edges_equal(g, non_loop_ids[0], non_loop_ids[0])
    return GroupFlow(g, 2, {d: X | Y for d in g.edge_ids()})


def _flow_with_free_loops(
    g: PseudoGraph, e: int, f: int, gg: int, loops: Set[int]
) -> GroupFlow:
    """Loop values are free, so satisfy non-loop constraints first and then
    overwrite the loop entries."""
    if e in loops:
        base = _any_nz2_flow(g)
        values = dict(base.values)
        taken = {values[f], values[gg]}
        values[e] = next(v for v in (X, Y, X | Y) if v not in taken)
    else:
        targets = [d for d in (f, gg) if d not in loops]
        if targets:
            base = flow_three_edges_distinct(g, e, targets[0], targets[-1])
        else:
            base = _any_nz2_flow(g)
        values = dict(base.values)
        for d in (f, gg):
            if d in loops:
                values[d] = next(v for v in (X, Y, X | Y) if v != values[e])
    return verified_nz_flow(GroupFlow(g, 2, values))


# -- nowhere-zero Z_2^3 flows on bridgeless graphs ------------------------------


def nz_z23_flow(g: PseudoGraph) -> GroupFlow:
    """Nowhere-zero Z_2^3 flow of a bridgeless graph (possibly disconnected).

    2-edge-cuts are split recursively and the pieces' flows joined by
    joined_at_cut; an arising loop, whose value is free, first takes the
    other piece's arising value.  On 3-edge-connected graphs, three spanning
    trees packed in the doubled graph give three complement-of-parity even
    subgraphs covering E.
    """
    if find_bridges(g):
        raise ValueError("graph has a bridge, so it admits no nowhere-zero flow")
    values = solve_per_component(g, lambda sub, _: _nz3_connected(sub))
    return verified_nz_flow(GroupFlow(g, 3, values))


def _nz3_connected(g: PseudoGraph) -> Dict[int, GF2Vector]:
    values: Dict[int, GF2Vector] = {}
    loops = [e for e, u, v in g.edges() if u == v]
    if loops:
        for e in loops:
            values[e] = X
        h = g.copy()
        for e in loops:
            h.remove_edge(e)
        if h.num_edges:
            values.update(_nz3_connected(h))
        return values
    if g.num_edges == 0:
        return values
    cuts = find_2_edge_cuts(g)
    if not cuts:
        return _nz3_three_connected(g)
    pa, pb, _ = two_cut_reduction(g, cuts[0], strict=False)
    fa = GroupFlow(pa.graph, 3, _nz3_connected(pa.graph))
    fb = GroupFlow(pb.graph, 3, _nz3_connected(pb.graph))
    # a loop's value is free: an arising loop takes the other piece's
    # arising value, so the join's first automorphism is the identity
    ea, eb = pa.arising[0], pb.arising[0]
    if pa.graph.is_loop(ea):
        fa.values[ea] = fb.values[eb]
    elif pb.graph.is_loop(eb):
        fb.values[eb] = fa.values[ea]
    return joined_at_cut(g, cuts[0].pair, pa, fa, pb, fb).values


def _nz3_three_connected(g: PseudoGraph) -> Dict[int, GF2Vector]:
    # copies 2i and 2i + 1 of the doubled graph stand for the i-th edge in id
    # order; each packed forest is a spanning tree of the doubled graph, so
    # it never holds both copies of an edge and maps onto a spanning tree of g
    ids: List[int] = []
    ends: List[Optional[Tuple[int, int]]] = []
    for eid, u, v in g.edges():
        ids.append(eid)
        ends += ((u, v), (u, v))
    odd = _odd_degrees(g)
    values = dict.fromkeys(ids, 7)
    for bit, t in zip((X, Y, Z), _pack_spanning_trees(ends, g.num_vertices, 3)):
        for c in t.parity_subgraph(odd):
            values[ids[c >> 1]] &= ~bit
    verify_or_raise(all(values.values()), "the three parity complements leave an edge at zero")
    return values


# -- automorphisms of Z_2^3 ------------------------------------------------------


@dataclass(frozen=True)
class GF2Automorphism:
    """Invertible linear map of Z_2^3, stored as images of the basis 1, 2, 4."""

    cols: Tuple[GF2Vector, GF2Vector, GF2Vector]

    def __post_init__(self):
        c1, c2, c3 = self.cols
        if c1 == 0 or c2 in (0, c1) or c3 in (0, c1, c2, c1 ^ c2):
            raise ValueError("columns are not linearly independent")

    def apply(self, v: GF2Vector) -> GF2Vector:
        acc = 0
        for bit, col in zip((1, 2, 4), self.cols):
            if v & bit:
                acc ^= col
        return acc


@lru_cache(maxsize=1)
def all_automorphisms() -> Tuple[GF2Automorphism, ...]:
    """All 168 automorphisms of Z_2^3, ordered by their basis-image triples."""
    out = []
    for c1 in range(1, 8):
        for c2 in range(1, 8):
            if c2 == c1:
                continue
            for c3 in range(1, 8):
                if c3 in (c1, c2, c1 ^ c2):
                    continue
                out.append(GF2Automorphism((c1, c2, c3)))
    return tuple(out)


def find_automorphism(
    pairs: Iterable[Tuple[GF2Vector, GF2Vector]] = (),
    set_pairs: Iterable[Tuple[Iterable[GF2Vector], Iterable[GF2Vector]]] = (),
) -> Optional[GF2Automorphism]:
    """First automorphism (in enumeration order) meeting all constraints.

    pairs are pointwise requirements A(s) = d; set_pairs require the image
    of the first set to equal the second set.
    """
    point = tuple(pairs)
    sets = tuple((frozenset(s), frozenset(d)) for s, d in set_pairs)
    for auto in all_automorphisms():
        if all(auto.apply(s) == d for s, d in point) and all(
            frozenset(auto.apply(v) for v in s) == d for s, d in sets
        ):
            return auto
    return None


def apply_automorphism(flow: GroupFlow, auto: GF2Automorphism) -> GroupFlow:
    """Rename flow values through an automorphism; k=2 flows embed into Z_2^3."""
    out = GroupFlow(flow.graph, 3, {e: auto.apply(v) for e, v in flow.values.items()})
    verify_or_raise(
        verify_flow(out).conserving == verify_flow(flow).conserving,
        "renaming the values changed whether the flow is conserved",
    )
    return out


def aligned(flow: GroupFlow, pairs=(), set_pairs=()) -> GroupFlow:
    """The flow renamed by find_automorphism(pairs, set_pairs); raises
    VerificationError when no automorphism meets the constraints."""
    auto = find_automorphism(pairs=pairs, set_pairs=set_pairs)
    verify_or_raise(auto is not None, "no value automorphism satisfies the constraints")
    return apply_automorphism(flow, auto)


# -- joining piece flows across a cut ---------------------------------------------


def joined_at_cut(
    g: PseudoGraph,
    cut: Sequence[int],
    px: ReductionPiece,
    fx: GroupFlow,
    py: ReductionPiece,
    fy: GroupFlow,
    set_pairs=(),
) -> GroupFlow:
    """The Z_2^3 flow on g joined from flows on the two pieces of a 2- or
    3-edge-cut (its edge ids ascending).

    fy is renamed by the first automorphism, in enumeration order, that maps
    its values on py's first two arising edges onto fx's (at a 3-cut the
    hubs' conservation then matches the third) and meets set_pairs.  Each
    edge of g then takes its piece's value, and each cut edge the value its
    arising edge carries in both pieces; a 2-cut piece's one arising edge
    stands for both cut edges.  Only the cut is checked here: nz_z23_flow,
    flow_edge_poor and flow_two_adjacent_rich check the whole flow once.
    """
    fy = aligned(
        fy,
        pairs=[(fy.values[b], fx.values[a]) for a, b in zip(px.arising[:2], py.arising[:2])],
        set_pairs=set_pairs,
    )
    values = {orig: fx.values[pe] for orig, pe in px.emap.items()}
    values.update((orig, fy.values[pe]) for orig, pe in py.emap.items())
    arising = list(zip(px.arising, py.arising))
    for ce, (a, b) in zip(cut, arising * len(cut) if len(arising) == 1 else arising):
        verify_or_raise(fx.values[a] == fy.values[b], "piece flows disagree on an arising edge")
        values[ce] = fx.values[a]
    return GroupFlow(g, 3, values)
