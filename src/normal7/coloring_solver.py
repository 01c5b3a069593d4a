"""Normal edge-coloring semantics, the independent verifier, flow-to-coloring
conversion, and an exact backtracking solver for the normal chromatic index.

An edge is poor when the colors seen by its two endpoints span exactly 3
values and rich when they span exactly 5; a coloring is normal when every
non-exempt edge is poor or rich.  The union rule is applied literally at
endpoints of degree below 3, so a pendant edge hanging off a cubic vertex is
always poor.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from normal7.cuts_reductions import find_bridges
from normal7.flows_trees import (
    STATUS_BY_UNION_SIZE,
    EdgeStatus,
    GroupFlow,
    union_status,
    values_at,
)
from normal7.graph_core import PseudoGraph, induced_subgraph, verify_or_raise


class ImproperColoringError(Exception):
    """Two edges sharing an endpoint carry the same color."""


@dataclass
class EdgeColoring:
    graph: PseudoGraph
    k: int
    colors: Dict[int, int]
    exempt: frozenset = frozenset()

    def status_label(self, eid: int) -> str:
        if eid in self.exempt:
            return "exempt"
        return edge_status(self, eid).value


@dataclass
class SolverResult:
    chi: Optional[int]
    witness: Optional[EdgeColoring]
    nodes_explored: int
    timed_out: bool


@dataclass
class EnumerationResult:
    count: int
    nodes_explored: int
    timed_out: bool


def color_set(c: EdgeColoring, v: int) -> Set[int]:
    """Colors on the edges incident to v."""
    return values_at(c.graph, c.colors, v)


def edge_status(c: EdgeColoring, e: int) -> EdgeStatus:
    return union_status(c.graph, c.colors, e)


def is_normal(c: EdgeColoring) -> Tuple[bool, Dict[int, EdgeStatus]]:
    """Check properness (raising if violated) and report every edge's status.

    One scan of the edges in id order checks that each edge is colored within
    the palette 1..k, raising ValueError at the first that is not, and
    collects each vertex's color set (as a bit mask) and its number of
    edge-ends (a loop gives its vertex two ends and one color).  A vertex
    whose set is smaller than its count carries a loop or two edges of one
    color: the first such vertex is walked again to raise
    ImproperColoringError naming the loop or the clashing pair.  An edge's
    status is STATUS_BY_UNION_SIZE of the size of the union of its two
    endpoints' sets.  Exempt edges still receive a status in the report but
    do not affect the verdict.
    """
    g = c.graph
    colors = c.colors
    k = c.k
    at = [0] * g.num_vertices
    ends = [0] * g.num_vertices
    edges = list(g.edges())
    for eid, u, v in edges:
        if eid not in colors:
            raise ValueError(f"edge {eid} is uncolored")
        col = colors[eid]
        if not 1 <= col <= k:
            raise ValueError(f"color {col} outside palette 1..{k}")
        at[u] |= 1 << col
        at[v] |= 1 << col
        ends[u] += 1
        ends[v] += 1
    for v in g.vertices():
        if at[v].bit_count() == ends[v]:
            continue
        seen: Dict[int, int] = {}
        for eid in set(g.incident(v)):
            if g.is_loop(eid):
                raise ImproperColoringError(f"loop {eid} cannot be properly colored")
            col = colors[eid]
            if col in seen:
                raise ImproperColoringError(
                    f"edges {seen[col]} and {eid} share color {col} at vertex {v}"
                )
            seen[col] = eid
    invalid = EdgeStatus.INVALID
    report = {
        eid: STATUS_BY_UNION_SIZE.get((at[u] | at[v]).bit_count(), invalid)
        for eid, u, v in edges
    }
    exempt = c.exempt
    ok = all(status is not invalid for eid, status in report.items() if eid not in exempt)
    return ok, report


def require_loopless_subcubic(g: PseudoGraph) -> None:
    """Raise ValueError unless g has no loop and no vertex of degree above 3,
    the precondition of the solver and of reading a flow as a coloring."""
    degree = [0] * g.num_vertices
    for _, u, v in g.edges():
        if u == v:
            raise ValueError("graph must be loopless")
        degree[u] += 1
        degree[v] += 1
    for v, d in enumerate(degree):
        if d > 3:
            raise ValueError(f"maximum degree 3 required: vertex {v} has degree {d}")


def coloring_from_flow(f: GroupFlow) -> EdgeColoring:
    """Read a nowhere-zero Z_2^3 flow as a 7-edge-coloring.

    On a cubic graph the result is proper and every edge is poor or rich: the
    three values at a vertex are distinct (they sum to zero pairwise-unequal)
    and the five values around an edge span 3 or 5 colors.
    """
    g = f.graph
    if f.k != 3:
        raise ValueError("flow must be over Z_2^3")
    require_loopless_subcubic(g)
    for eid, val in f.values.items():
        if val == 0:
            raise ValueError(f"flow value zero on edge {eid}")
        if not 0 < val < 8:
            raise ValueError(f"value {val} on edge {eid} is not a Z_2^3 element")
    return EdgeColoring(g, 7, dict(f.values), frozenset())


def _dfs_edge_order(g: PseudoGraph) -> List[int]:
    """All edges, discovered depth-first from the first max-degree vertex.

    Consecutive edges share vertices wherever possible, which is what makes
    the neighborhood-completion pruning bite early.
    """
    order: List[int] = []
    seen: Set[int] = set()
    visited = [False] * g.num_vertices
    degs = [g.degree(v) for v in g.vertices()]
    maxd = max(degs, default=0)
    anchor = next((v for v in g.vertices() if degs[v] == maxd), None)
    roots = ([anchor] if anchor is not None else []) + list(g.vertices())
    for root in roots:
        if visited[root]:
            continue
        visited[root] = True
        stack = [(root, iter(sorted(set(g.incident(root)))))]
        while stack:
            v, it = stack[-1]
            for eid in it:
                if eid in seen:
                    continue
                seen.add(eid)
                order.append(eid)
                w = g.other_endpoint(eid, v)
                if not visited[w]:
                    visited[w] = True
                    stack.append((w, iter(sorted(set(g.incident(w))))))
                break
            else:
                stack.pop()
    return order


class _Stats:
    __slots__ = ("nodes", "timed_out")

    def __init__(self) -> None:
        self.nodes = 0
        self.timed_out = False


def _canonical_colorings(
    g: PseudoGraph, k: int, budget: Optional[int], stats: _Stats
) -> Iterator[Dict[int, int]]:
    """Yield every normal k-coloring in canonical form.

    Canonical means: the first max-degree vertex, when cubic, has its edges
    colored 1,2,3 in ascending id, and any further color j > 3 first appears
    only after all of 4..j-1 have.  Each palette-permutation class of normal
    colorings has exactly one canonical member.

    Every color tried on an edge is one search node, counted before it is
    checked and refused once the budget is spent.  A color is refused when an
    endpoint already carries it, or when some edge f of the edge's
    neighbourhood can no longer see 3 or 5 colors over its own neighbourhood
    nbhd[f] (the edge and the 2 + 2 edges at its ends, at most 5 in a loopless
    subcubic graph): all of nbhd[f] is colored and the span is not 3 or 5,
    or the span plus the uncolored edges left falls short of 3.
    """
    if k < 0:
        raise ValueError("palette size must be nonnegative")
    require_loopless_subcubic(g)
    # the first max-degree vertex, when that degree is 3
    anchor = next((v for v in g.vertices() if g.degree(v) == 3), None)
    if anchor is not None and k < 3:
        return

    order = _dfs_edge_order(g)
    if not order:
        yield {}
        return

    size = max(order) + 1
    color: List[int] = [0] * size  # 0 = uncolored
    ends: List[Tuple[int, int]] = [(0, 0)] * size
    nbhd: List[Tuple[int, ...]] = [()] * size
    for eid, u, v in g.edges():
        ends[eid] = (u, v)
        nbhd[eid] = tuple(sorted(set(g.incident(u)) | set(g.incident(v))))

    anchor_edges = sorted(set(g.incident(anchor))) if anchor is not None else []
    for col, eid in enumerate(anchor_edges, start=1):
        color[eid] = col
    max_used = len(anchor_edges)

    # One row of the flat table per edge f, at f * stride: slot 0 counts the
    # uncolored edges of nbhd[f], slot c the edges colored c, and the last
    # slot the distinct colors among them.  A search never uses more colors
    # than there are edges.
    top_color = min(k, len(order))
    stride = top_color + 2
    span = top_color + 1
    table = [0] * (size * stride)
    for f in order:
        base = f * stride
        for x in nbhd[f]:
            table[base + color[x]] += 1
        table[base + span] = sum(1 for c in range(1, top_color + 1) if table[base + c])
    rows = [tuple(f * stride for f in nbhd[e]) for e in range(size)]
    vmask = [0] * g.num_vertices  # bit c set when a colored edge at v has color c
    for e in anchor_edges:
        u, v = ends[e]
        vmask[u] |= 1 << color[e]
        vmask[v] |= 1 << color[e]
        # the anchor's edges were placed without a check; a state that fails
        # now failed when it was reached, since a refuted neighbourhood stays
        # refuted as more of it is colored
        for base in rows[e]:
            left = table[base]
            n = table[base + span]
            if (n != 3 and n != 5) if left == 0 else n + left < 3:
                return

    pending = [e for e in order if color[e] == 0]
    if not pending:
        yield {e: color[e] for e in order}
        return

    last = len(pending)
    saved_max = [0] * last  # max_used before pending[d] was colored
    cap = budget if budget is not None else sys.maxsize
    nodes = 0
    depth = 0
    col = 0  # the last color tried at this depth
    while True:
        e = pending[depth]
        u, v = ends[e]
        used = vmask[u] | vmask[v]
        row = rows[e]
        top = max_used + 1 if max_used < k else k
        placed = False
        while col < top:
            if nodes >= cap:
                stats.nodes = nodes
                stats.timed_out = True
                return
            nodes += 1
            col += 1
            if used >> col & 1:
                continue
            # a neighbour's state changes only through its own row, so each
            # is checked right after its update and only the rows already
            # updated are rolled back
            for base in row:
                left = table[base] - 1
                table[base] = left
                i = base + col
                c = table[i]
                table[i] = c + 1
                n = table[base + span]
                if not c:
                    n += 1
                    table[base + span] = n
                if (n != 3 and n != 5) if left == 0 else n + left < 3:
                    break
            else:
                placed = True
                break
            for undone in row:
                table[undone] += 1
                i = undone + col
                c = table[i] - 1
                table[i] = c
                if not c:
                    table[undone + span] -= 1
                if undone == base:
                    break
        if placed:
            color[e] = col
            vmask[u] |= 1 << col
            vmask[v] |= 1 << col
            saved_max[depth] = max_used
            if col > max_used:
                max_used = col
            depth += 1
            col = 0
            if depth < last:
                continue
            stats.nodes = nodes
            yield {e: color[e] for e in order}
        depth -= 1
        if depth < 0:
            stats.nodes = nodes
            return
        e = pending[depth]
        col = color[e]
        u, v = ends[e]
        color[e] = 0
        vmask[u] ^= 1 << col
        vmask[v] ^= 1 << col
        for base in rows[e]:
            table[base] += 1
            i = base + col
            c = table[i] - 1
            table[i] = c
            if not c:
                table[base + span] -= 1
        max_used = saved_max[depth]


def find_normal_coloring(
    g: PseudoGraph, k: int, budget: Optional[int] = None
) -> SolverResult:
    """First normal k-coloring in canonical order, or proof none exists."""
    stats = _Stats()
    for colors in _canonical_colorings(g, k, budget, stats):
        witness = EdgeColoring(g, k, colors, frozenset())
        verify_or_raise(is_normal(witness)[0], f"the solver's {k}-coloring is not normal")
        return SolverResult(k, witness, stats.nodes, False)
    return SolverResult(None, None, stats.nodes, stats.timed_out)


def _bridge_sides(g: PseudoGraph) -> List[PseudoGraph]:
    """For each bridge xy and each end x of degree 3, the side H_x: the
    component of g - xy holding x, plus xy and its end y as a leaf.  Smallest
    edge count first, ties in bridge order."""
    sides: List[PseudoGraph] = []
    for b in find_bridges(g):
        comps = g.connected_components(skip=(b,))
        x0, y0 = g.endpoints(b)
        for x, y in ((x0, y0), (y0, x0)):
            if g.degree(x) == 3:
                comp = next(c for c in comps if x in c)
                sides.append(induced_subgraph(g, comp + [y])[0])
    sides.sort(key=lambda h: h.num_edges)
    return sides


def exact_chi_n(
    g: PseudoGraph, k_max: int, budget: Optional[int] = None
) -> SolverResult:
    """Least palette size up to k_max admitting a normal coloring.

    An exact claim needs every smaller palette refuted, so a timeout at any
    level makes the whole answer inconclusive.  The budget holds per palette
    size: the bridge-side searches and the whole-graph search at one k share
    it, each getting what the ones before it left.

    On a cubic graph k = 4 is never searched: it is reached only once k = 3
    is refuted, and then it has no normal coloring either.  With 4 colors the
    two endpoints of an edge see two color triples out of 4 that share the
    edge's own color, so together at most 4 colors and no edge is rich.
    Every edge is then poor: both its endpoints see the same triple.  Along
    the edges of a component that triple never changes, so each component is
    properly 3-edge-colored, and renaming colors per component 3-edge-colors
    the whole graph, a normal 3-coloring.

    A palette k is refuted without a whole-graph search when some bridge side
    has no normal k-coloring.  Let b = xy be a bridge with deg(x) = 3 and H_x
    the component of g - b holding x, plus b and y, so y is a leaf of H_x.
    Take a normal k-coloring of g and keep the colors of H_x's edges.  It is
    proper, since H_x's incidences are a subset of g's.  An edge of H_x other
    than b has both ends in the component, whose vertices meet the same edges
    in H_x as in g, so its two endpoint color sets, and its status, are the
    same as in g.  At y the union rule sees only b's color, which x also
    sees; x sees 3 colors, so b spans exactly 3 and is poor.  Hence H_x has a
    normal k-coloring whenever g has one.  At an end x of degree 2 the edge
    b would span 2 colors, so such an end gives no side.  A side colored at
    some k stays colorable at every larger k, the same colors in a larger
    palette, so it is searched no more.  The whole-graph search that finds
    the witness is the same call as without the sides, so chi and the
    witness are the ones that search alone gives; the node total counts the
    side searches in place of the whole-graph searches they spare.
    """
    cubic = g.is_cubic()
    sides = _bridge_sides(g)
    total = 0
    for k in range(0, k_max + 1):
        if k == 4 and cubic:
            continue
        left = budget
        for h in sides + [g]:
            res = find_normal_coloring(h, k, left)
            total += res.nodes_explored
            if res.timed_out:
                return SolverResult(None, None, total, True)
            if res.chi is None:
                break  # k is refuted, by g or by one of its sides
            if h is g:
                return SolverResult(k, res.witness, total, False)
            sides.remove(h)
            if left is not None:
                left -= res.nodes_explored
    return SolverResult(None, None, total, False)


def enumerate_normal_colorings(
    g: PseudoGraph,
    k: int,
    callback: Optional[Callable[[EdgeColoring], Optional[bool]]] = None,
    budget: Optional[int] = None,
) -> EnumerationResult:
    """Visit every normal k-coloring once per palette-permutation class.

    The callback may return False to stop early; any other return keeps the
    enumeration going.
    """
    stats = _Stats()
    count = 0
    for colors in _canonical_colorings(g, k, budget, stats):
        count += 1
        if callback is not None and callback(EdgeColoring(g, k, colors, frozenset())) is False:
            break
    return EnumerationResult(count, stats.nodes, stats.timed_out)


def is_three_edge_colorable(g: PseudoGraph, budget: Optional[int] = None) -> bool:
    """Whether a loopless cubic graph is 3-edge-colorable.

    On cubic graphs proper 3-colorings and normal 3-colorings coincide: both
    endpoints of any edge see all three colors, so every edge is poor.
    """
    if not g.is_cubic():
        raise ValueError("graph must be cubic")
    res = find_normal_coloring(g, 3, budget)
    return res.chi is not None
