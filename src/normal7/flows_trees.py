"""GF(2)^k flows, spanning tree packing, and constrained-flow constructions.

Group elements of Z_2^k are stored as k-bit ints; addition is xor.  The
generator convention is fixed project-wide: x = 001, y = 010, z = 100.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Set, Tuple

from normal7.cuts_reductions import find_2_edge_cuts, find_bridges, two_cut_reduction
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


@dataclass(frozen=True)
class TreePair:
    t1: FrozenSet[int]
    t2: FrozenSet[int]


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


def union_status(g: PseudoGraph, values: Mapping[int, int], eid: int) -> EdgeStatus:
    """The poor/rich rule for flows and colorings alike: the size of the
    union of the value sets at the two endpoints of eid."""
    u, v = g.endpoints(eid)
    size = len(values_at(g, values, u) | values_at(g, values, v))
    if size == 3:
        return EdgeStatus.POOR
    if size == 5:
        return EdgeStatus.RICH
    return EdgeStatus.INVALID


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
    """A forest held as parent pointers: par[v] = (parent, edge id), or None
    at a root.  ends maps edge ids to endpoints, as built by _edge_ends."""

    __slots__ = ("ends", "par")

    def __init__(self, ends: List[Optional[Tuple[int, int]]], n: int):
        self.ends = ends
        self.par: List[Optional[Tuple[int, int]]] = [None] * n

    def path(self, s: int, t: int) -> Optional[List[int]]:
        """Edge ids on the forest path from t to s, in that order, or None
        when s and t lie in different trees.

        Walks up from s and t in turns; the first vertex either walk finds
        on the other's trail is their lowest common ancestor."""
        par = self.par
        s_edges: List[int] = []
        t_edges: List[int] = []
        s_seen = {s: 0}  # vertex on the s-walk -> edges below it on that walk
        t_seen = {t: 0}
        a, b = s, t
        while True:
            if a in t_seen:
                return t_edges[: t_seen[a]] + s_edges[::-1]
            if b in s_seen:
                return t_edges + s_edges[: s_seen[b]][::-1]
            up_a, up_b = par[a], par[b]
            if up_a is None and up_b is None:
                return None
            if up_a is not None:
                a, e = up_a
                s_edges.append(e)
                s_seen[a] = len(s_edges)
            if up_b is not None:
                b, e = up_b
                t_edges.append(e)
                t_seen[b] = len(t_edges)

    def link(self, eid: int) -> None:
        """Add edge eid: re-root the tree of one endpoint there and hang it
        under the other.  Raises VerificationError when both endpoints lie
        in one tree, so the parent pointers never close a cycle."""
        a, b = self.ends[eid]  # type: ignore[misc]
        par = self.par
        child, step = a, par[a]
        par[a] = None
        while step is not None:
            v, e = step
            step = par[v]
            par[v] = (child, e)
            child = v
        root = b
        while par[root] is not None:
            root = par[root][0]  # type: ignore[index]
        if root == a:
            raise VerificationError(f"edge {eid} would close a cycle in a packed forest")
        par[a] = (b, eid)

    def cut(self, eid: int) -> None:
        """Remove tree edge eid: its lower endpoint becomes a root.  Raises
        VerificationError when eid is not an edge of this forest."""
        a, b = self.ends[eid]  # type: ignore[misc]
        if self.par[a] == (b, eid):
            self.par[a] = None
        elif self.par[b] == (a, eid):
            self.par[b] = None
        else:
            raise VerificationError(f"edge {eid} is not in the packed forest it leaves")


def _try_augment(owner: List[int], trees: List[_RootedForest], e: int) -> bool:
    """One matroid-union augmentation step: try to absorb edge e.

    Breadth-first over exchanges: edge y may enter forest i directly when
    its endpoints lie in different trees there, or in place of any edge on
    the forest path between them.  owner[y] is y's forest index, or -1.
    Applies the shortest exchange chain to owner and trees and returns
    True, or returns False when e cannot be absorbed."""
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
                # Direct insertion, then unwind the exchange chain: each
                # edge on it moves into the forest whose path it opened.
                chain = []  # (forest entered, edge, forest left or -1)
                x, into = y, i
                while parent[x] is not None:
                    prev, j = parent[x]  # type: ignore[misc]
                    chain.append((into, x, j))
                    x, into = prev, j
                chain.append((into, x, -1))
                # every cut first leaves a subforest of the result, so each
                # link then joins two different trees
                for _, x, out in chain:
                    if out >= 0:
                        trees[out].cut(x)
                for into, x, _ in chain:
                    owner[x] = into
                    trees[into].link(x)
                return True
            for x in path:
                if x not in parent:
                    parent[x] = (y, i)
                    queue.append(x)
    return False


def _is_spanning_tree(g: PseudoGraph, edges: Set[int]) -> bool:
    if len(edges) != g.num_vertices - 1:
        return False
    others = [e for e in g.edge_ids() if e not in edges]
    return len(g.connected_components(skip=others)) == 1


def _pack_spanning_trees(g: PseudoGraph, k: int) -> List[Set[int]]:
    """k edge-disjoint spanning trees of g as edge-id sets, or PackingError.

    Matroid-union augmentation over the edges in id order (loops skipped).
    The only state is one _RootedForest per forest (parent pointers over
    one ends array) plus owner[eid], the index of the forest holding each
    edge, or -1.  An exchange query walks up from the two endpoints instead
    of searching the forest; a forest path is unique, so it returns the
    edges a search would.  Nothing is held twice, so no copy needs
    re-checking against another: each edge has one owner, so the forests
    are disjoint by construction; link raises VerificationError on an edge
    that would close a cycle, and cut on an edge the forest does not hold.
    The edge sets are read off owner once, at the end, and each is checked
    to be a spanning tree.
    """
    n = g.num_vertices
    if n <= 1:
        return [set() for _ in range(k)]
    if not g.is_connected():
        raise PackingError("graph is disconnected")
    ends = _edge_ends(g)
    owner = [-1] * len(ends)
    trees = [_RootedForest(ends, n) for _ in range(k)]
    for e in g.edge_ids():
        if not g.is_loop(e):
            _try_augment(owner, trees, e)
    forests: List[Set[int]] = [set() for _ in range(k)]
    for eid, i in enumerate(owner):
        if i >= 0:
            forests[i].add(eid)
    if all(len(f) == n - 1 for f in forests):
        for f in forests:
            verify_or_raise(_is_spanning_tree(g, f), "a packed forest is not a spanning tree")
        return forests
    raise PackingError(f"no packing of {k} edge-disjoint spanning trees")


def pack_two_spanning_trees(g: PseudoGraph) -> TreePair:
    """Two edge-disjoint spanning trees, or a PackingError."""
    t1, t2 = _pack_spanning_trees(g, 2)
    return TreePair(frozenset(t1), frozenset(t2))


def parity_subgraph_in_tree(g: PseudoGraph, tree: Iterable[int]) -> Set[int]:
    """The parity subgraph of g contained in the given spanning tree.

    Returns A with deg_A(v) = deg_g(v) (mod 2) for all v; leaf-stripping
    makes the choice at every step forced, so A is unique within the tree.
    """
    tset = set(tree)
    if not _is_spanning_tree(g, tset):
        raise ValueError("not a spanning tree of the graph")
    need = [g.degree(v) % 2 for v in g.vertices()]
    adj: Dict[int, List[int]] = {v: [] for v in g.vertices()}
    for eid in tset:
        u, v = g.endpoints(eid)
        adj[u].append(eid)
        adj[v].append(eid)
    removed: Set[int] = set()
    result: Set[int] = set()
    leaves = deque(v for v in g.vertices() if len(adj[v]) == 1)
    dead: Set[int] = set()
    while leaves:
        v = leaves.popleft()
        live = [e for e in adj[v] if e not in removed]
        if not live or v in dead:
            continue
        (t,) = live
        w = g.other_endpoint(t, v)
        if need[v] % 2 == 1:
            result.add(t)
            need[w] += 1
        removed.add(t)
        dead.add(v)
        if len([e for e in adj[w] if e not in removed]) == 1:
            leaves.append(w)
    for v in g.vertices():
        inc = sum(1 for e in g.incident(v) if e in result)
        assert inc % 2 == g.degree(v) % 2
    return result


# -- flow constructions --------------------------------------------------------


def flow_from_even_subgraphs(
    g: PseudoGraph, p1: Iterable[int], p2: Iterable[int]
) -> GroupFlow:
    """The Z_2^2 flow whose x-support is p1 and y-support is p2.

    Both sets must be even subgraphs and together cover every edge.
    """
    s1, s2 = set(p1), set(p2)
    ids = set(g.edge_ids())
    for s in (s1, s2):
        if not s <= ids:
            raise ValueError("even subgraph contains unknown edges")
        for v in g.vertices():
            if sum(1 for e in g.incident(v) if e in s) % 2:
                raise ValueError("subgraph is not even")
    if s1 | s2 != ids:
        raise ValueError("even subgraphs must cover every edge")
    values = {e: (X if e in s1 else 0) | (Y if e in s2 else 0) for e in ids}
    return verified_nz_flow(GroupFlow(g, 2, values))


def nz_flow_from_tree_pair(g: PseudoGraph, tp: TreePair) -> GroupFlow:
    """Nowhere-zero Z_2^2 flow from two disjoint spanning trees.

    Every edge outside both trees gets x+y; tree edges avoid zero because
    the trees are disjoint.
    """
    if tp.t1 & tp.t2:
        raise ValueError("trees must be edge-disjoint")
    a1 = parity_subgraph_in_tree(g, tp.t1)
    a2 = parity_subgraph_in_tree(g, tp.t2)
    ids = set(g.edge_ids())
    flow = flow_from_even_subgraphs(g, ids - a1, ids - a2)
    for e in ids:
        if e not in tp.t1 and e not in tp.t2:
            assert flow.values[e] == X | Y
    return flow


def flow_two_edges_equal(g: PseudoGraph, e: int, f: int) -> GroupFlow:
    """Nowhere-zero Z_2^2 flow with equal values on e and f.

    Works on any pseudograph in which g-e-f still packs two spanning trees
    (4-edge-connectivity is enough).  Both named edges end up outside both
    trees and so receive x+y.
    """
    for d in (e, f):
        g.endpoints(d)
    h = g.copy()
    h.remove_edge(e)
    if f != e:
        h.remove_edge(f)
    t1, t2 = _pack_spanning_trees(h, 2)
    flow = nz_flow_from_tree_pair(g, TreePair(frozenset(t1), frozenset(t2)))
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
    e so that e drops out of the second even subgraph.
    """
    if e in (f, gg):
        raise ValueError("cannot separate an edge's value from itself")
    if not _share_vertex(g, (e, f, gg)):
        raise ValueError("the three edges must share a vertex")
    loops = {d for d in (e, f, gg) if g.is_loop(d)}
    if loops:
        flow = _flow_with_free_loops(g, e, f, gg, loops)
    else:
        h = g.copy()
        h.remove_edge(e)
        h.remove_edge(f)
        t1, t2 = _pack_spanning_trees(h, 2)
        if gg in t2:
            t1, t2 = t2, t1
        a1 = parity_subgraph_in_tree(g, t1)
        a2 = parity_subgraph_in_tree(g, t2)
        tree = _RootedForest(_edge_ends(g), g.num_vertices)
        for x in t2:
            tree.link(x)
        cyc = set(tree.path(*g.endpoints(e)) or []) | {e}
        ids = set(g.edge_ids())
        flow = flow_from_even_subgraphs(g, ids - a1, ids - (a2 ^ cyc))
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

    2-edge-cuts are split recursively; flows on the two closed pieces are
    aligned by a group automorphism so they agree on the cut.  On
    3-edge-connected graphs, three spanning trees packed in the doubled
    graph give three complement-of-parity even subgraphs covering E.
    """
    if find_bridges(g):
        raise ValueError("graph has a bridge, so it admits no nowhere-zero flow")
    values = solve_per_component(g, lambda sub, _: _nz3_connected(sub))
    return verified_nz_flow(GroupFlow(g, 3, values))


def _nz3_connected(g: PseudoGraph) -> Dict[int, GF2Vector]:
    values: Dict[int, GF2Vector] = {}
    loops = [e for e in g.edge_ids() if g.is_loop(e)]
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
    pa, pb, trace = two_cut_reduction(g, cuts[0], strict=False)
    va = _nz3_connected(pa.graph)
    vb = _nz3_connected(pb.graph)
    ea, eb = pa.arising[0], pb.arising[0]
    a_loop = pa.graph.is_loop(ea)
    b_loop = pb.graph.is_loop(eb)
    if not a_loop and not b_loop:
        auto = automorphism_extending((vb[eb],), (va[ea],))
        vb = {eid: auto.apply(val) for eid, val in vb.items()}
        s = va[ea]
    elif a_loop and not b_loop:
        s = vb[eb]
    elif not a_loop and b_loop:
        s = va[ea]
    else:
        s = X
    for old, new in pa.emap.items():
        values[old] = va[new]
    for old, new in pb.emap.items():
        values[old] = vb[new]
    for c in trace.cut:
        values[c] = s
    return values


def _nz3_three_connected(g: PseudoGraph) -> Dict[int, GF2Vector]:
    doubled = PseudoGraph(g.num_vertices)
    copy_to_orig: Dict[int, int] = {}
    for eid, u, v in g.edges():
        for _ in range(2):
            copy_to_orig[doubled.add_edge(u, v)] = eid
    forests = _pack_spanning_trees(doubled, 3)
    trees = [{copy_to_orig[c] for c in forest} for forest in forests]
    for t in trees:  # a tree never holds both copies of an edge
        verify_or_raise(_is_spanning_tree(g, t), "a packed tree is not a spanning tree of g")
    parities = [parity_subgraph_in_tree(g, t) for t in trees]
    values: Dict[int, GF2Vector] = {}
    for e in g.edge_ids():
        val = 0
        for bit, par in zip((X, Y, Z), parities):
            if e not in par:
                val |= bit
        values[e] = val
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


def automorphism_extending(
    src: Sequence[GF2Vector], dst: Sequence[GF2Vector]
) -> GF2Automorphism:
    """The unique automorphism mapping src_i to dst_i.

    src must be linearly independent (1 to 3 vectors); shorter tuples are
    completed to a basis in a deterministic way, so the result is the first
    qualifying automorphism in the fixed enumeration order.
    """
    if len(src) != len(dst):
        raise ValueError("src and dst must have equal length")
    if not 1 <= len(src) <= 3:
        raise ValueError("need between 1 and 3 vector pairs")
    span: Set[int] = {0}
    for v in src:
        if v in span:
            raise ValueError("src vectors are linearly dependent")
        span |= {v ^ w for w in span}
    pairs = tuple(zip(src, dst))
    for auto in all_automorphisms():
        if all(auto.apply(s) == d for s, d in pairs):
            return auto
    raise ValueError("dst vectors are linearly dependent")


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
