"""Constructive normal 7-edge-colorings of simple cubic graphs.

The entry point normal7_coloring takes any simple cubic graph and returns a
proper 7-edge-coloring in which every edge is poor or rich.  It works in
three layers, each exposed on its own:

  * flow_edge_poor / flow_two_adjacent_rich build
    nowhere-zero Z_2^3 flows on bridgeless cubic graphs whose induced
    colorings pin the status of named edges, recursing through 2- and
    3-edge-cuts down to a cyclically-4-edge-connected base solved by
    contracting the 2-factor of a perfect matching.  Each level splits at
    the least cut it finds, the least 2-cut or else the least nontrivial
    3-cut, and joins the pieces' flows through flows_trees.joined_at_cut,
    the one join of both cut sizes, which nz_z23_flow also uses.
  * color_pendant_block colors the gadget obtained from a bridgeless cubic
    graph by subdividing one edge and hanging a pendant off the new vertex;
    every edge except the pendant bridge ends up poor or rich.  The case
    split keys on how the chosen edge sits relative to maximal ladders.
  * color_degree13_graph handles graphs whose degrees are all 1 or 3 and
    whose bridges are all pendant: one loop merges pendant edges two at a
    time, with one check of the input and one of the coloring per call;
    normal7_coloring splits an arbitrary simple cubic graph at its bridges,
    colors each isomorphism class of piece once, and glues along the
    bridges with palette renamings.

A disconnected input is solved one component at a time through
graph_core.solve_per_component.  Every operation checks its result once,
where it leaves the call, with one check per kind of result: flows through
flows_trees.verified_nz_flow and the pinned edge statuses, colorings through
_verified_normal, which also returns the status report.  A failed check
raises VerificationError; for a coloring it is a PipelineVerificationError
carrying the steps so far.  Callers may pass a trace list; each case
decision appends a replayable CertificateStep.
"""

from __future__ import annotations

import enum
import hashlib
from collections import deque
from dataclasses import dataclass
from typing import Container, Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Set, Tuple

from normal7.coloring_solver import (
    EdgeColoring,
    EdgeStatus,
    ImproperColoringError,
    coloring_from_flow,
    edge_status,
    is_normal,
)
from normal7.cuts_reductions import (
    Ladder,
    ReductionPiece,
    component_count,
    find_2_edge_cuts,
    find_bridges,
    ladder_containing,
    nontrivial_3_edge_cuts,
    require_bridgeless_cubic,
    three_cut_reduction,
    two_cut_pairs,
    two_cut_reduction,
)
from normal7.flows_trees import (
    GF2Automorphism,
    GroupFlow,
    aligned,
    all_automorphisms,
    apply_automorphism,
    flow_edge_status,
    flow_three_edges_distinct,
    flow_two_edges_equal,
    joined_at_cut,
    nz_z23_flow,
    verified_nz_flow,
)
from normal7.graph_core import (
    PseudoGraph,
    VerificationError,
    attach_pendant,
    induced_subgraph,
    remove_vertices,
    solve_per_component,
    subdivide_edge,
    verify_or_raise,
)
from normal7.matching import (
    contract_two_factor,
    lift_flow,
    matched_edge_at,
    perfect_matching_through,
)


class CaseTag(enum.Enum):
    """Which construction step produced a piece of the coloring."""

    ThreeEC_Case1 = "ThreeEC_Case1"
    ThreeEC_Case2 = "ThreeEC_Case2"
    LadderAvoidsE = "LadderAvoidsE"
    InitialEdge = "InitialEdge"
    Horizontal = "Horizontal"
    Vertical = "Vertical"
    ManyPendant_t0 = "ManyPendant_t0"
    ManyPendant_t1 = "ManyPendant_t1"
    ManyPendant_t2 = "ManyPendant_t2"
    Triangle = "Triangle"
    Merge = "Merge"
    # two tags beyond the core case analysis: a parallel edge survives
    # subdivision (no ladder machinery applies), and a bridge-glue renaming
    DoubledEdge = "DoubledEdge"
    Glue = "Glue"


# identity on the palette 0..7 (0 is unused by colorings; kept so tuples index
# directly by color value)
IDENTITY_PERMUTATION: Tuple[int, ...] = tuple(range(8))


@dataclass(frozen=True)
class CertificateStep:
    """One replayable decision: the case taken, on which labeled graph, and
    the palette permutation applied to a recursively obtained coloring."""

    tag: CaseTag
    fingerprint: str
    permutation: Tuple[int, ...] = IDENTITY_PERMUTATION


class PipelineVerificationError(VerificationError):
    """An assembled coloring failed re-verification; carries the steps so far."""

    def __init__(self, message: str, trace: Sequence[CertificateStep] = ()):
        super().__init__(message)
        self.trace: Tuple[CertificateStep, ...] = tuple(trace)


def _fingerprint_prefix(g: PseudoGraph) -> hashlib._Hash:
    """SHA-256 state over g's vertex count and sorted labeled edge list; a
    fingerprint copies it and adds the marks."""
    rows = [(u, v, eid) if u < v else (v, u, eid) for eid, u, v in g.edges()]
    rows.sort()
    return hashlib.sha256("{}|{}|".format(g.num_vertices, rows).encode())


def _marked_fingerprint(prefix: hashlib._Hash, marks: Sequence[int]) -> str:
    h = prefix.copy()
    h.update(str(tuple(marks)).encode())
    return h.hexdigest()[:16]


def graph_fingerprint(g: PseudoGraph, *marks: int) -> str:
    """Short stable hash of a labeled graph plus distinguished edge ids.

    The graph's part of the hash is built once per graph: the glue steps of
    normal7_coloring share one prefix of g and add only their marks.
    """
    return _marked_fingerprint(_fingerprint_prefix(g), marks)


def _perm_of_automorphism(auto: GF2Automorphism) -> Tuple[int, ...]:
    return (0,) + tuple(auto.apply(v) for v in range(1, 8))


def _extend_palette_perm(partial: Dict[int, int]) -> Tuple[int, ...]:
    """Complete a partial injection on 1..7 to a permutation (0 fixed)."""
    if len(set(partial.values())) != len(partial):
        raise ValueError("partial renaming is not injective")
    free = iter([c for c in range(1, 8) if c not in partial.values()])
    out = [0] * 8
    for c in range(1, 8):
        out[c] = partial[c] if c in partial else next(free)
    return tuple(out)


def _record(
    steps: List[CertificateStep],
    tag: CaseTag,
    g: PseudoGraph,
    marks: Sequence[int] = (),
    perm: Optional[Tuple[int, ...]] = None,
    prefix: Optional[hashlib._Hash] = None,
) -> None:
    """Append a step; prefix, if given, is _fingerprint_prefix(g) built once
    by a caller that records many steps on the same g."""
    if prefix is None:
        fingerprint = graph_fingerprint(g, *marks)
    else:
        fingerprint = _marked_fingerprint(prefix, marks)
    steps.append(
        CertificateStep(tag, fingerprint, IDENTITY_PERMUTATION if perm is None else perm)
    )


# ---------------------------------------------------------------------------
# incidence helpers


def _others_at(g: PseudoGraph, v: int, exclude: int) -> List[int]:
    """Incident edges at v except one, ascending."""
    return sorted(d for d in g.incident(v) if d != exclude)


def _flow_values_at(flow: GroupFlow, v: int, exclude: int) -> List[int]:
    return [flow.values[d] for d in _others_at(flow.graph, v, exclude)]


def _verified_statuses(flow: GroupFlow, status: str, *marked: int) -> GroupFlow:
    """The flow, once it is nowhere-zero and conserving and every marked edge
    has the given status."""
    verified_nz_flow(flow)
    verify_or_raise(
        all(flow_edge_status(flow, d) == status for d in marked),
        f"a constructed flow fails to make its marked edges {status}",
    )
    return flow


# ---------------------------------------------------------------------------
# flows with one poor edge


def flow_edge_poor(g: PseudoGraph, e: int) -> GroupFlow:
    """Nowhere-zero Z_2^3 flow on a bridgeless cubic graph making e poor.

    Poor means the value sets at the two endpoints of e coincide, so the
    five values around e span only three distinct elements.  Parallel edges
    are allowed; bridges are not.
    """
    require_bridgeless_cubic(g, "flow_edge_poor")
    g.endpoints(e)

    def solve(sub: PseudoGraph, emap: Dict[int, int]) -> Dict[int, int]:
        if e in emap:
            return _flow_edge_poor_connected(sub, emap[e]).values
        return nz_z23_flow(sub).values

    return _verified_statuses(GroupFlow(g, 3, solve_per_component(g, solve)), "poor", e)


def _flow_edge_poor_connected(g: PseudoGraph, e: int) -> GroupFlow:
    if g.num_vertices == 2:
        # three parallel edges; any bijection onto {1,2,3} conserves and
        # makes every edge poor
        ids = g.edge_ids()
        assert len(ids) == 3
        return GroupFlow(g, 3, {d: i + 1 for i, d in enumerate(ids)})

    # split at the least 2-cut, else at the least nontrivial 3-cut.  No end
    # of a 2-cut is shared: its third edge would be a bridge
    pairs = two_cut_pairs(g)
    if pairs:
        cut = pairs[0]
        pa, pb, _ = two_cut_reduction(g, cut)
    else:
        least = next(nontrivial_3_edge_cuts(g), None)
        if least is None:
            return _poor_base(g, e)
        cut = least.pair
        pa, pb, _ = three_cut_reduction(g, least)
    assert pa.graph.num_vertices < g.num_vertices
    assert pb.graph.num_vertices < g.num_vertices
    if e in cut:
        # e's arising edge is poor in both pieces; renaming the value pair at
        # e's end in pb onto the one in pa makes e poor in g (at a 3-cut the
        # hubs' values already force it)
        k = cut.index(e) if len(cut) == 3 else 0
        a, b = pa.arising[k], pb.arising[k]
        fa = _flow_edge_poor_connected(pa.graph, a)
        fb = _flow_edge_poor_connected(pb.graph, b)
        u, v = g.endpoints(e)
        p_set = set(_flow_values_at(fa, pa.vmap[u if u in pa.vmap else v], a))
        q_set = set(_flow_values_at(fb, pb.vmap[v if v in pb.vmap else u], b))
        return joined_at_cut(g, cut, pa, fa, pb, fb, set_pairs=[(q_set, p_set)])
    px, py = (pa, pb) if e in pa.emap else (pb, pa)
    fx = _flow_edge_poor_connected(px.graph, px.emap[e])
    return joined_at_cut(g, cut, px, fx, py, nz_z23_flow(py.graph))


def _poor_base(g: PseudoGraph, e: int) -> GroupFlow:
    # cyclically 4-edge-connected base: route a perfect matching through an
    # edge adjacent to e; contracting the complementary 2-factor sends e's
    # endpoints to cycle vertices whose matching values we equalize
    u, w = g.endpoints(e)
    adjacent = sorted(
        d for vv in (u, w) for d in g.incident(vv) if d != e
    )
    gp = adjacent[0]
    matching = perfect_matching_through(g, gp)
    m_at = matched_edge_at(g, matching.edges)
    lift = contract_two_factor(g, matching)
    theta = flow_two_edges_equal(
        lift.h, lift.edge_map[m_at[u]], lift.edge_map[m_at[w]]
    )
    flow = lift_flow(lift, theta)
    assert flow_edge_status(flow, e) == "poor"
    return flow


# ---------------------------------------------------------------------------
# flows with two adjacent rich edges


def flow_two_adjacent_rich(g: PseudoGraph, e: int, f: int) -> GroupFlow:
    """Nowhere-zero Z_2^3 flow making two adjacent edges both rich.

    Requires a 3-edge-connected cubic graph on at least four vertices (such
    a graph is necessarily simple).  Rich means the value sets at an edge's
    endpoints share only the edge's own value, so five values show around it.
    """
    if e == f:
        raise ValueError("the two edges must be distinct")
    shared = set(g.endpoints(e)) & set(g.endpoints(f))
    if not shared:
        raise ValueError("the two edges must share a vertex")
    require_bridgeless_cubic(g, "flow_two_adjacent_rich")
    if component_count(g) > 1:
        raise ValueError("flow_two_adjacent_rich requires a connected graph")
    if g.num_vertices < 4:
        raise ValueError("graph too small: no flow makes an edge rich here")
    if two_cut_pairs(g):
        raise ValueError("flow_two_adjacent_rich requires 3-edge-connectivity")
    assert g.is_simple()
    assert len(shared) == 1
    return _verified_statuses(_flow_two_adjacent_rich(g, e, f), "rich", e, f)


def _flow_two_adjacent_rich(g: PseudoGraph, e: int, f: int) -> GroupFlow:
    least = next(nontrivial_3_edge_cuts(g), None)
    if least is None:
        return _rich_pair_base(g, e, f)
    cut = least.pair
    pa, pb, _ = three_cut_reduction(g, least)
    assert pa.graph.num_vertices < g.num_vertices
    assert pb.graph.num_vertices < g.num_vertices
    crossing = set(cut) & {e, f}
    # a nontrivial 3-cut in a cubic graph is a matching, so at most one of
    # two adjacent edges crosses it
    assert len(crossing) <= 1
    if not crossing:
        px, py = (pa, pb) if e in pa.emap else (pb, pa)
        assert f in px.emap
        fx = _recurse_rich_piece(px.graph, px.emap[e], px.emap[f])
        return joined_at_cut(g, cut, px, fx, py, nz_z23_flow(py.graph))
    cr = crossing.pop()
    other = f if cr == e else e
    v = (set(g.endpoints(e)) & set(g.endpoints(f))).pop()
    j = cut.index(cr)
    px, py = (pa, pb) if v in pa.vmap else (pb, pa)
    assert other in px.emap
    fx = _recurse_rich_piece(px.graph, px.arising[j], px.emap[other])
    fy = _flow_edge_poor_connected(py.graph, py.arising[j])
    flow = joined_at_cut(g, cut, px, fx, py, fy)
    assert flow_edge_status(flow, e) == "rich"
    assert flow_edge_status(flow, f) == "rich"
    return flow


def _recurse_rich_piece(h: PseudoGraph, e: int, f: int) -> GroupFlow:
    # pieces of a nontrivial 3-cut reduction of a 3-edge-connected cubic
    # graph are again 3-edge-connected with at least four vertices
    assert not find_bridges(h)
    assert not two_cut_pairs(h)
    assert h.num_vertices >= 4
    return _flow_two_adjacent_rich(h, e, f)


def _rich_pair_base(g: PseudoGraph, e: int, f: int) -> GroupFlow:
    v = (set(g.endpoints(e)) & set(g.endpoints(f))).pop()
    third = [d for d in g.incident(v) if d not in (e, f)]
    assert len(third) == 1
    gpp = third[0]
    matching = perfect_matching_through(g, gpp)
    assert e not in matching.edges and f not in matching.edges
    a = g.other_endpoint(e, v)
    b = g.other_endpoint(f, v)
    m_at = matched_edge_at(g, matching.edges)
    m_e, m_f = m_at[a], m_at[b]
    assert m_e != gpp and m_f != gpp
    lift = contract_two_factor(g, matching)
    theta = flow_three_edges_distinct(
        lift.h, lift.edge_map[gpp], lift.edge_map[m_e], lift.edge_map[m_f]
    )
    flow = lift_flow(lift, theta)
    # cycle edges carry values >= 4 while matching values stay below 4, so
    # the collision that would make e or f poor cannot occur
    assert flow_edge_status(flow, e) == "rich"
    assert flow_edge_status(flow, f) == "rich"
    return flow


def _rich_frame(h: PseudoGraph, w: int, exclude: int) -> Tuple[GroupFlow, int, int, int]:
    """(theta, x, y, z): a flow making the edges a < b at w other than exclude
    rich, read as a frame.  The far ends of a and b see {x, y} and {x, z}.

    Then a = x ^ y, b = x ^ z and exclude = y ^ z (an edge stands for its
    value), and x ^ y ^ z is the one value absent from the seven edges near
    w.  Proof: a, b and exclude are the nonzero values of a subgroup H of
    order 4.  Richness keeps the pair at a's far end off H, so it is a pair
    of the coset C = Z_2^3 - H that differs by a (conservation); the pair at
    b's far end is one that differs by b.  Those take one value from each
    pair differing by a, so the two pairs share exactly one value x.
    Conservation at a's and b's far ends and at w gives the three edge
    values.  The values near w are H's three and x, y, z; C's fourth,
    x ^ y ^ z, is absent (a coset of H sums to 0).
    """
    a, b = _others_at(h, w, exclude)
    theta = flow_two_adjacent_rich(h, a, b)
    s1 = set(_flow_values_at(theta, h.other_endpoint(a, w), a))
    s2 = set(_flow_values_at(theta, h.other_endpoint(b, w), b))
    shared = s1 & s2
    verify_or_raise(len(shared) == 1, "two rich edges' far ends share no single value")
    x = shared.pop()
    return theta, x, (s1 - {x}).pop(), (s2 - {x}).pop()


# ---------------------------------------------------------------------------
# the pendant-block gadget


@dataclass(frozen=True)
class PendantBlockInput:
    """A bridgeless cubic graph g with a marked edge e = uw, together with
    the gadget g_prime made by subdividing e at v_e and hanging a pendant
    leaf off v_e.

    half_u and half_w are the subdivision halves at u and w, and bridge is
    the pendant edge.  Subdividing e must leave g_prime simple:
    every parallel class of g is either trivial or exactly {e, partner}.
    """

    g: PseudoGraph
    e: int
    u: int
    w: int
    g_prime: PseudoGraph
    v_e: int
    half_u: int
    half_w: int
    bridge: int
    leaf: int

    @classmethod
    def from_edge(cls, g: PseudoGraph, e: int) -> "PendantBlockInput":
        require_bridgeless_cubic(g, "PendantBlockInput")
        if component_count(g) > 1:
            raise ValueError("PendantBlockInput requires a connected graph")
        u, w = g.endpoints(e)
        if u == w:
            raise ValueError("the marked edge must not be a loop")
        classes: Dict[Tuple[int, int], List[int]] = {}
        for eid in g.edge_ids():
            a, b = g.endpoints(eid)
            classes.setdefault((min(a, b), max(a, b)), []).append(eid)
        for pair_ids in classes.values():
            if len(pair_ids) > 1 and (e not in pair_ids or len(pair_ids) > 2):
                raise ValueError(
                    "subdividing the marked edge must leave a simple graph"
                )
        g1, v_e, (half_u, half_w) = subdivide_edge(g, e)
        g_prime, leaf, bridge = attach_pendant(g1, v_e)
        assert g_prime.is_simple()
        return cls(
            g=g,
            e=e,
            u=u,
            w=w,
            g_prime=g_prime,
            v_e=v_e,
            half_u=half_u,
            half_w=half_w,
            bridge=bridge,
            leaf=leaf,
        )


def _finish_block_coloring(
    block: PendantBlockInput,
    colors: Dict[int, int],
    steps: List[CertificateStep],
) -> EdgeColoring:
    return _verified_normal(block.g_prime, colors, steps, frozenset({block.bridge}))[0]


# --- case: 3-edge-connected ------------------------------------------------


def _case_three_ec(
    block: PendantBlockInput, steps: List[CertificateStep]
) -> EdgeColoring:
    g, e = block.g, block.e
    theta, x, y, z = _rich_frame(g, block.w, e)
    # the pair at u sums to y ^ z: {x ^ y, x ^ z}, {x, x ^ y ^ z} or {y, z}
    t_set = set(_flow_values_at(theta, block.u, e))
    tag = (
        CaseTag.ThreeEC_Case1
        if t_set == {x ^ y, x ^ z}
        else CaseTag.ThreeEC_Case2
    )
    _record(steps, tag, g, (e,))
    colors = {d: theta.values[d] for d in g.edge_ids() if d != e}
    colors[block.half_u] = y ^ z
    colors[block.half_w] = x ^ y ^ z
    colors[block.bridge] = x
    return _finish_block_coloring(block, colors, steps)


# --- case: e has a parallel partner ----------------------------------------


def _case_doubled_edge(
    block: PendantBlockInput, partner: int, steps: List[CertificateStep]
) -> EdgeColoring:
    g, e = block.g, block.e
    u, w = block.u, block.w
    _record(steps, CaseTag.DoubledEdge, g, (e, partner))
    t_u = [d for d in g.incident(u) if d not in (e, partner)]
    g_w = [d for d in g.incident(w) if d not in (e, partner)]
    assert len(t_u) == 1 and len(g_w) == 1
    t_u, g_w = t_u[0], g_w[0]
    p = g.other_endpoint(t_u, u)
    q = g.other_endpoint(g_w, w)
    assert p != q, "a doubled edge with shared third neighbor means a bridge"
    h0, vmap, emap = remove_vertices(g, {u, w})
    eh = h0.add_edge(vmap[p], vmap[q])
    assert h0.num_vertices < g.num_vertices
    sub = PendantBlockInput.from_edge(h0, eh)
    rec = color_pendant_block(sub, steps)
    lam = rec.colors[sub.half_u]
    mu = rec.colors[sub.half_w]
    pi = rec.colors[sub.bridge]
    colors: Dict[int, int] = {}
    for orig, loc in emap.items():
        colors[orig] = rec.colors[loc]
    colors[t_u] = lam
    colors[g_w] = mu
    colors[partner] = pi
    colors[block.half_u] = mu
    colors[block.half_w] = lam
    colors[block.bridge] = pi
    return _finish_block_coloring(block, colors, steps)


# --- ladder geometry helpers ------------------------------------------------


def _flip_ladder(lad: Ladder) -> Ladder:
    return Ladder(
        u_rail=tuple(reversed(lad.u_rail)),
        v_rail=tuple(reversed(lad.v_rail)),
        u_edges=tuple(reversed(lad.u_edges)),
        v_edges=tuple(reversed(lad.v_edges)),
        rungs=tuple(reversed(lad.rungs)),
    )


def _swap_rails(lad: Ladder) -> Ladder:
    return Ladder(
        u_rail=lad.v_rail,
        v_rail=lad.u_rail,
        u_edges=lad.v_edges,
        v_edges=lad.u_edges,
        rungs=lad.rungs,
    )


def _side_pieces(
    g: PseudoGraph, lad: Ladder
) -> Tuple[ReductionPiece, ReductionPiece]:
    """(piece containing rail start, piece containing rail end) for the two
    boundary rail cuts of a maximal ladder."""
    pa0, pb0, _ = two_cut_reduction(g, lad.rail_pair(0))
    p_g1 = pa0 if lad.u_rail[0] in pa0.vmap else pb0
    assert lad.u_rail[0] in p_g1.vmap and lad.v_rail[0] in p_g1.vmap
    pam, pbm, _ = two_cut_reduction(g, lad.rail_pair(lad.m - 1))
    p_g2 = pam if lad.u_rail[lad.m] in pam.vmap else pbm
    assert lad.u_rail[lad.m] in p_g2.vmap and lad.v_rail[lad.m] in p_g2.vmap
    return p_g1, p_g2


# --- case: some maximal ladder avoids e --------------------------------------


def _case_ladder_avoids_e(
    block: PendantBlockInput, lad: Ladder, steps: List[CertificateStep]
) -> EdgeColoring:
    g, e = block.g, block.e
    # e avoids the ladder, so its endpoints stay together once the ladder's
    # edges are gone; orient the ladder to start on their side
    side = next(c for c in g.connected_components(skip=lad.edges()) if block.u in c)
    if lad.u_rail[0] not in side:
        lad = _flip_ladder(lad)
        assert lad.u_rail[0] in side
    pa, pb, _ = two_cut_reduction(g, lad.rail_pair(0))
    p_h = pa if lad.u_rail[0] in pa.vmap else pb
    p_rest = pb if p_h is pa else pa
    assert e in p_h.emap
    assert p_h.graph.num_vertices < g.num_vertices

    sub_h = PendantBlockInput.from_edge(p_h.graph, p_h.emap[e])
    c1 = color_pendant_block(sub_h, steps)
    arising_h = p_h.arising[0]
    x = c1.colors[arising_h]
    u0_hat = p_h.vmap[lad.u_rail[0]]
    v0_hat = p_h.vmap[lad.v_rail[0]]
    t_u = sorted(
        c1.colors[d] for d in _others_at(sub_h.g_prime, u0_hat, arising_h)
    )
    t_v = sorted(
        c1.colors[d] for d in _others_at(sub_h.g_prime, v0_hat, arising_h)
    )
    status1 = edge_status(c1, arising_h)

    theta = nz_z23_flow(p_rest.graph)
    c2 = coloring_from_flow(theta)
    arising_r = p_rest.arising[0]
    u1_hat = p_rest.vmap[lad.u_rail[1]]
    v1_hat = p_rest.vmap[lad.v_rail[1]]
    s_u = sorted(c2.colors[d] for d in _others_at(p_rest.graph, u1_hat, arising_r))
    s_v = sorted(c2.colors[d] for d in _others_at(p_rest.graph, v1_hat, arising_r))
    status2 = edge_status(c2, arising_r)

    partial = {c2.colors[arising_r]: x}
    partial.update(zip(s_u, t_u))
    if status1 == EdgeStatus.RICH and status2 == EdgeStatus.RICH:
        # five distinct source values map to five distinct targets, lining
        # both rail seams up as poor edges
        partial.update(zip(s_v, t_v))
    perm = _extend_palette_perm(partial)
    _record(steps, CaseTag.LadderAvoidsE, g, (e,), perm)

    colors: Dict[int, int] = {}
    for orig, loc in p_h.emap.items():
        if orig == e:
            continue
        colors[orig] = c1.colors[loc]
    for orig, loc in p_rest.emap.items():
        colors[orig] = perm[c2.colors[loc]]
    for ce in lad.rail_pair(0):
        colors[ce] = x
    colors[block.half_u] = c1.colors[sub_h.half_u]
    colors[block.half_w] = c1.colors[sub_h.half_w]
    colors[block.bridge] = c1.colors[sub_h.bridge]
    return _finish_block_coloring(block, colors, steps)


# --- rich flows at the two ends of a ladder ----------------------------------


def _rich_end_flow(
    piece: ReductionPiece, w_orig: int
) -> Tuple[GroupFlow, int, int, int]:
    """Rich flow on a ladder-side piece at the image of end vertex w_orig.

    Returns (flow, arising value, absent value, arising edge id); the absent
    value is the unique element of 1..7 not appearing on the seven edges at
    distance <= 1 from the image of w_orig (see _rich_frame).
    """
    arising = piece.arising[0]
    theta, x, y, z = _rich_frame(piece.graph, piece.vmap[w_orig], arising)
    return theta, y ^ z, x ^ y ^ z, arising


def _align_second_end(
    theta2: GroupFlow, arising2: int, absent2: int, x: int, y: int
) -> Tuple[GroupFlow, int, GF2Automorphism]:
    """Rename theta2 so its arising edge carries x and its absent value
    avoids y; returns (renamed flow, new absent value, automorphism)."""
    arising = theta2.values[arising2]
    auto = next(
        (a for a in all_automorphisms() if a.apply(arising) == x and a.apply(absent2) != y), None
    )
    verify_or_raise(auto is not None, "no automorphism aligns the second ladder end")
    return apply_automorphism(theta2, auto), auto.apply(absent2), auto


# --- cases: e inside every maximal ladder ------------------------------------


def _horizontal_symbols(lad: Ladder, e: int) -> Tuple[Dict[int, str], Dict[int, str], int, int]:
    """Symbolic colors for a ladder whose rail edge e = u_edges[p] is
    internal (1 <= p <= m-2).  Returns (edge symbols, half symbols keyed by
    e's endpoint vertex, left junction vertex, right junction vertex)."""
    m = lad.m
    p = lad.u_edges.index(e)
    assert 1 <= p <= m - 2
    sym: Dict[int, str] = {}
    for j in range(m):
        if j == p:
            continue
        if j < p:
            sym[lad.u_edges[j]] = "x" if (p - j) % 2 == 1 else "y"
        else:
            sym[lad.u_edges[j]] = "x" if (j - p) % 2 == 1 else "z"
    for j in range(m):
        if j <= p:
            sym[lad.v_edges[j]] = "x" if (p - j) % 2 == 0 else "y"
        else:
            sym[lad.v_edges[j]] = "z" if (j - p) % 2 == 1 else "x"
    for i in range(1, m):
        sym[lad.rungs[i - 1]] = "xy" if i <= p else "xz"
    halves = {lad.u_rail[p]: "y", lad.u_rail[p + 1]: "z"}
    # the junction vertex carrying symbol y sits where rail edge 0 reads y;
    # the rails are anti-phased so exactly one end of each boundary does
    w_left = lad.u_rail[0] if sym[lad.u_edges[0]] == "y" else lad.v_rail[0]
    w_right = lad.u_rail[m] if sym[lad.u_edges[m - 1]] == "z" else lad.v_rail[m]
    assert sym[lad.u_edges[0] if w_left == lad.u_rail[0] else lad.v_edges[0]] == "y"
    assert (
        sym[lad.u_edges[m - 1] if w_right == lad.u_rail[m] else lad.v_edges[m - 1]]
        == "z"
    )
    return sym, halves, w_left, w_right


def _vertical_symbols(lad: Ladder, e: int) -> Tuple[Dict[int, str], Dict[int, str], int, int]:
    """Symbolic colors for a ladder whose rung e joins the rails at index q
    (1 <= q <= m-1).  Returns the same shape as _horizontal_symbols."""
    m = lad.m
    q = lad.rungs.index(e) + 1
    assert 1 <= q <= m - 1
    sym: Dict[int, str] = {}
    for j in range(m):
        if j < q:
            sym[lad.u_edges[j]] = "y" if (q - 1 - j) % 2 == 0 else "x"
            sym[lad.v_edges[j]] = "x" if (q - 1 - j) % 2 == 0 else "y"
        else:
            sym[lad.u_edges[j]] = "x" if (j - q) % 2 == 0 else "z"
            sym[lad.v_edges[j]] = "z" if (j - q) % 2 == 0 else "x"
    for i in range(1, m):
        if i == q:
            continue
        sym[lad.rungs[i - 1]] = "xy" if i < q else "xz"
    halves = {lad.u_rail[q]: "xy", lad.v_rail[q]: "xz"}
    w_left = lad.u_rail[0] if sym[lad.u_edges[0]] == "y" else lad.v_rail[0]
    w_right = lad.u_rail[m] if sym[lad.u_edges[m - 1]] == "z" else lad.v_rail[m]
    return sym, halves, w_left, w_right


def _case_ladder_template(
    block: PendantBlockInput,
    lad: Ladder,
    tag: CaseTag,
    steps: List[CertificateStep],
) -> EdgeColoring:
    g, e = block.g, block.e
    if tag is CaseTag.Horizontal:
        if e in lad.v_edges:
            lad = _swap_rails(lad)
        sym, halves, w_left, w_right = _horizontal_symbols(lad, e)
    else:
        sym, halves, w_left, w_right = _vertical_symbols(lad, e)

    p_g1, p_g2 = _side_pieces(g, lad)
    assert w_left in p_g1.vmap and w_right in p_g2.vmap
    # x flows into the ladder at the left junction; y is the unique value
    # missing near that junction, so the junction edge labeled y stays rich
    theta1, x, y, _ = _rich_end_flow(p_g1, w_left)
    theta2, _, absent2, arising2 = _rich_end_flow(p_g2, w_right)
    theta2, z, auto = _align_second_end(theta2, arising2, absent2, x, y)
    assert len({x, y, z}) == 3
    _record(steps, tag, g, (e,), _perm_of_automorphism(auto))

    lookup = {
        "x": x,
        "y": y,
        "z": z,
        "xy": x ^ y,
        "xz": x ^ z,
        "yz": y ^ z,
    }
    colors: Dict[int, int] = {}
    for orig, loc in p_g1.emap.items():
        colors[orig] = theta1.values[loc]
    for orig, loc in p_g2.emap.items():
        colors[orig] = theta2.values[loc]
    for eid, s in sym.items():
        assert eid not in colors
        colors[eid] = lookup[s]
    assert set(halves) == {block.u, block.w}
    colors[block.half_u] = lookup[halves[block.u]]
    colors[block.half_w] = lookup[halves[block.w]]
    colors[block.bridge] = lookup["yz"]
    return _finish_block_coloring(block, colors, steps)


# --- case: e is a boundary rail edge ------------------------------------------


def _case_initial_edge(
    block: PendantBlockInput, lad: Ladder, steps: List[CertificateStep]
) -> EdgeColoring:
    g, e = block.g, block.e
    if e in (lad.u_edges[0], lad.v_edges[0]) and lad.m > 1:
        lad = _flip_ladder(lad)
    if e == lad.v_edges[lad.m - 1]:
        lad = _swap_rails(lad)
    m = lad.m
    assert e == lad.u_edges[m - 1]
    _record(steps, CaseTag.InitialEdge, g, (e,))

    pa, pb, _ = two_cut_reduction(g, lad.rail_pair(m - 1))
    p_h1 = pa if lad.u_rail[m - 1] in pa.vmap else pb
    p_h2 = pb if p_h1 is pa else pa
    assert lad.u_rail[m] in p_h2.vmap

    # frame at the far endpoint of e; the arising edge carries y_f ^ z_f
    a2 = p_h2.arising[0]
    theta2, xf, yf, zf = _rich_frame(p_h2.graph, p_h2.vmap[lad.u_rail[m]], a2)
    x = yf ^ zf

    theta1 = nz_z23_flow(p_h1.graph)
    a1 = p_h1.arising[0]
    vm1_hat = p_h1.vmap[lad.v_rail[m - 1]]
    vm_hat = p_h2.vmap[lad.v_rail[m]]
    q_set = set(_flow_values_at(theta1, vm1_hat, a1))
    p_set = set(_flow_values_at(theta2, vm_hat, a2))
    theta1 = aligned(
        theta1,
        pairs=[(theta1.values[a1], x)],
        set_pairs=[(q_set, p_set)],
    )

    colors: Dict[int, int] = {}
    for orig, loc in p_h1.emap.items():
        colors[orig] = theta1.values[loc]
    for orig, loc in p_h2.emap.items():
        colors[orig] = theta2.values[loc]
    colors[lad.v_edges[m - 1]] = x
    colors[block.half_u if block.u == lad.u_rail[m - 1] else block.half_w] = x
    colors[block.half_w if block.u == lad.u_rail[m - 1] else block.half_u] = (
        xf ^ yf ^ zf
    )
    colors[block.bridge] = xf
    return _finish_block_coloring(block, colors, steps)


# --- dispatch -----------------------------------------------------------------


def color_pendant_block(
    block: PendantBlockInput,
    trace: Optional[List[CertificateStep]] = None,
) -> EdgeColoring:
    """Color the subdivide-plus-pendant gadget with at most 7 colors so that
    every edge except the pendant bridge is poor or rich.

    The pendant bridge is exempt from the status requirement (its color is
    still constrained by properness at the subdivision vertex).
    """
    steps: List[CertificateStep] = trace if trace is not None else []
    g, e = block.g, block.e
    partners = [d for d in g.edges_between(*g.endpoints(e)) if d != e]
    if partners:
        assert len(partners) == 1
        return _case_doubled_edge(block, partners[0], steps)
    cuts = find_2_edge_cuts(g)
    if not cuts:
        return _case_three_ec(block, steps)
    ladders = []
    for cut in cuts:
        lad = ladder_containing(g, cut)
        ladders.append(lad)
        if e not in lad.edges():
            return _case_ladder_avoids_e(block, lad, steps)
    # every maximal ladder contains e; they all agree on the case e falls in
    lad = ladders[0]
    if e in lad.rungs:
        return _case_ladder_template(block, lad, CaseTag.Vertical, steps)
    m = lad.m
    boundary = {lad.u_edges[0], lad.v_edges[0], lad.u_edges[m - 1], lad.v_edges[m - 1]}
    if e in boundary:
        return _case_initial_edge(block, lad, steps)
    return _case_ladder_template(block, lad, CaseTag.Horizontal, steps)


# ---------------------------------------------------------------------------
# graphs with degrees 1 and 3, all bridges pendant


def color_degree13_graph(
    g: PseudoGraph,
    trace: Optional[List[CertificateStep]] = None,
) -> EdgeColoring:
    """Normal 7-edge-coloring of a simple graph with every degree 1 or 3 and
    every bridge pendant.  No edge is exempt: pendant edges are poor by the
    size of their color neighborhood.

    The input is checked once, each component colored by _degree13_colors
    and the assembled coloring checked once.  Raises ValueError for a
    single-edge component, which admits no normal coloring at any number of
    colors.
    """
    steps: List[CertificateStep] = trace if trace is not None else []
    if not g.is_simple():
        raise ValueError("color_degree13_graph requires a simple graph")
    if any(g.degree(v) not in (1, 3) for v in g.vertices()):
        raise ValueError("every vertex degree must be 1 or 3")
    for b in find_bridges(g):
        if 1 not in map(g.degree, g.endpoints(b)):
            raise ValueError("every bridge must be a pendant edge")
    if component_count(g) > 1:
        colors = solve_per_component(g, lambda sub, _: _degree13_colors(sub, steps))
    else:
        colors = _degree13_colors(g, steps)
    return _verified_normal(g, colors, steps)[0]


def _degree13_colors(g: PseudoGraph, steps: List[CertificateStep]) -> Dict[int, int]:
    """The colors, unchecked, of a connected graph that passed
    color_degree13_graph's checks.

    Each pass of the loop is one level: a last case colors it and ends the
    loop, or a Merge deletes the leaves of two pendant edges, joins their
    attachments u and v by a new edge and goes on with the smaller graph.
    A Merge keeps the checks true, so no level repeats them: u and v are
    back at degree 3 and no other degree changes; u and v are distinct and
    not adjacent, so the new edge is neither a loop nor a parallel edge; a
    leaf lies on no cycle, so every other edge keeps its cycles, and the
    graph stays connected, so the new edge closes a cycle with a path from
    u to v and every bridge is still pendant.  Every pendant edge of a
    level is one of g's, and the new edge's color is the two merged ones'.
    The last case t = 2 joins its two pendant edges the same way, with no
    Merge step, and colors the joined cubic graph from a flow.
    """
    if g.num_vertices == 2 and len(g.edge_ids()) == 1:
        raise ValueError("a lone edge admits no normal coloring: only one color appears around it")
    # the edges of g that each edge of the current level is colored for
    held: Dict[int, Tuple[int, ...]] = {d: (d,) for d in g.edge_ids()}
    while True:
        leaves = {v for v in g.vertices() if g.degree(v) == 1}
        pendants = sorted(d for d in g.edge_ids() if set(g.endpoints(d)) & leaves)
        attach = [b if a in leaves else a for a, b in map(g.endpoints, pendants)]
        t = len(pendants)

        if t == 0:
            colors = _flow_colors(g, steps)
            break

        if t >= 2 and len(set(attach)) == 1:
            # all pendant edges share their attachment: the whole graph is a
            # 3-star, colored directly (two pendants at one vertex would make
            # its third edge a non-pendant bridge, rejected above)
            assert t == 3 and g.num_vertices == 4
            _record(steps, CaseTag.Triangle, g)
            colors = {d: i + 1 for i, d in enumerate(pendants)}
            break
        assert len(set(attach)) == t

        if t == 1:
            colors = _suppress_single_pendant(g, pendants[0], attach[0], steps)
            break

        # join two pendant edges' attachments: both of t = 2, whose joined
        # graph is cubic and colored from a flow, or else the first pair at
        # non-adjacent attachments, a Merge
        pair = (0, 1) if t == 2 else next(
            ((i, j) for i in range(t) for j in range(i + 1, t) if not g.edges_between(attach[i], attach[j])), None
        )
        if pair is None:
            # pairwise adjacent attachments in a simple cubic-ish graph force a
            # triangle with one pendant at each corner
            assert t == 3 and g.num_vertices == 6
            _record(steps, CaseTag.Triangle, g)
            tri = sorted(d for d in g.edge_ids() if d not in pendants)
            assert len(tri) == 3
            colors = {d: i + 1 for i, d in enumerate(tri)}
            for d, av in zip(pendants, attach):
                here = {colors[x] for x in g.incident(av) if x != d}
                colors[d] = ({1, 2, 3} - here).pop()
            break
        i, j = pair
        pi, pj, u, v = pendants[i], pendants[j], attach[i], attach[j]
        _record(steps, CaseTag.ManyPendant_t2 if t == 2 else CaseTag.Merge, g, (pi, pj))
        g, vmap, emap = remove_vertices(g, {g.other_endpoint(pi, u), g.other_endpoint(pj, v)})
        ne = g.add_edge(vmap[u], vmap[v])
        held = {loc: held[orig] for orig, loc in emap.items()} | {ne: held[pi] + held[pj]}
        if t == 2:
            colors = nz_z23_flow(g).values
            break
    return {d: c for loc, c in colors.items() for d in held[loc]}


def _suppress_single_pendant(
    g: PseudoGraph, pendant: int, s: int, steps: List[CertificateStep]
) -> Dict[int, int]:
    """One pendant edge: remove it and smooth its attachment vertex, color
    the resulting bridgeless cubic graph through the pendant-block gadget,
    and pull the three gadget colors back."""
    leaf = g.other_endpoint(pendant, s)
    e1, e2 = _others_at(g, s, pendant)
    p = g.other_endpoint(e1, s)
    q = g.other_endpoint(e2, s)
    assert p != q
    h0, vmap, emap = remove_vertices(g, {leaf, s})
    eh = h0.add_edge(vmap[p], vmap[q])
    assert h0.num_vertices < g.num_vertices
    _record(steps, CaseTag.ManyPendant_t1, g, (pendant,))
    sub = PendantBlockInput.from_edge(h0, eh)
    rec = color_pendant_block(sub, steps)
    colors = {orig: rec.colors[loc] for orig, loc in emap.items()}
    colors[e1] = rec.colors[sub.half_u]
    colors[e2] = rec.colors[sub.half_w]
    colors[pendant] = rec.colors[sub.bridge]
    return colors


def _verified_normal(
    g: PseudoGraph,
    colors: Dict[int, int],
    steps: List[CertificateStep],
    exempt: FrozenSet[int] = frozenset(),
) -> Tuple[EdgeColoring, Dict[int, EdgeStatus]]:
    """The 7-coloring of g by colors with its status report, once is_normal
    finds every edge outside exempt poor or rich.  An edge colored outside
    1..7 or an improper vertex fails the check like an invalid edge does."""
    if set(colors) != set(g.edge_ids()):
        raise PipelineVerificationError(
            "assembled coloring does not cover exactly the edge set", steps
        )
    col = EdgeColoring(g, 7, colors, exempt=exempt)
    try:
        ok, report = is_normal(col)
    except (ValueError, ImproperColoringError) as exc:
        raise PipelineVerificationError(f"assembled coloring is improper: {exc}", steps) from exc
    if not ok:
        raise PipelineVerificationError("assembled coloring is not normal", steps)
    return col, report


def _flow_colors(g: PseudoGraph, steps: List[CertificateStep]) -> Dict[int, int]:
    """The colors of a bridgeless graph, read straight off a nowhere-zero
    Z_2^3 flow."""
    colors = coloring_from_flow(nz_z23_flow(g)).colors
    _record(steps, CaseTag.ManyPendant_t0, g)
    return colors


# ---------------------------------------------------------------------------
# arbitrary simple cubic graphs: split at bridges, color, glue


@dataclass(frozen=True)
class GlueForest:
    """Decomposition of a cubic graph at its bridges.

    components lists the vertex sets of the bridgeless pieces (singletons
    are vertices all of whose edges are bridges); comp_of maps each vertex
    to its piece, bridges_at each piece to its bridges; roots holds one piece
    per connected component of g, the piece containing its smallest vertex."""

    bridges: Tuple[int, ...]
    components: Tuple[Tuple[int, ...], ...]
    comp_of: Dict[int, int]
    roots: Tuple[int, ...]
    bridges_at: Tuple[Tuple[int, ...], ...]


def build_glue_forest(g: PseudoGraph) -> GlueForest:
    """One component search that crosses no bridge finds the pieces; the
    bridge forest over them is read off the bridge ends."""
    bridges = tuple(find_bridges(g))
    components = tuple(tuple(c) for c in g.connected_components(skip=bridges))
    comp_of = {v: idx for idx, comp in enumerate(components) for v in comp}
    bridges_at: List[List[int]] = [[] for _ in components]
    on_bridges: Dict[int, int] = {}
    for b in bridges:
        for v in g.endpoints(b):
            bridges_at[comp_of[v]].append(b)
            on_bridges[v] = on_bridges.get(v, 0) + 1
    # a vertex of a cubic graph lies on 0, 1, or 3 bridges: a cycle through
    # it would need two non-bridge edges; one on none lies in a larger piece
    for v, nb in on_bridges.items():
        assert nb in (1, 3) and (nb == 3) == (len(components[comp_of[v]]) == 1)
    # the first piece of each tree of the bridge forest holds the smallest
    # vertex of its component of g
    roots, seen = [], [False] * len(components)
    for root in range(len(components)):
        if not seen[root]:
            roots.append(root)
            seen[root], stack = True, [root]
            while stack:
                for b in bridges_at[stack.pop()]:
                    for ci in map(comp_of.__getitem__, g.endpoints(b)):
                        if not seen[ci]:
                            seen[ci] = True
                            stack.append(ci)
    return GlueForest(bridges, components, comp_of, tuple(roots), tuple(map(tuple, bridges_at)))


# a vertex count and sorted vertex pairs
PieceKey = Tuple[int, Tuple[Tuple[int, int], ...]]


class _PieceRead(NamedTuple):
    invariant: PieceKey
    adj: List[List[int]]
    depth: List[int]
    rows: List[Tuple[int, int, int]]  # (id in g, u, v), piece numbering
    first: Optional[Tuple[PieceKey, List[int]]]  # (key, ids in key order) if shared


def _read_piece(g: PseudoGraph, verts: Sequence[int], shared: Container[PieceKey]) -> _PieceRead:
    """The piece of g on the ascending vertices verts, each edge that leaves
    them ending at a fresh leaf, read once: its rows, adjacency lists,
    depths and isomorphism invariant, and its first key when shared holds
    the invariant.

    The rows are the piece's edges in the numbering induced_subgraph and
    then attach_pendant in vertex order would give: verts, then the leaves;
    internal edges by ascending id, then the pendant edges; each labelled
    with its id in g (a pendant edge's is the bridge's it stands for).
    A vertex's depth is its distance to the nearest leaf, counted from 1
    (n + 1 where no leaf reaches), found breadth-first from the leaves.  The
    invariant is the vertex count and the sorted depth pairs of the edges:
    a piece no other piece shares it with is never keyed.

    The first key is _canonical_edges without refinement rounds: the
    depths are the classes its numbering breaks ties of by label.
    """
    index = {v: i for i, v in enumerate(verts)}
    adj: List[List[int]] = [[] for _ in verts]
    rows: List[Tuple[int, int, int]] = []
    pendants: List[Tuple[int, int, int]] = []
    for i, v in enumerate(verts):
        for e in g.incident(v):
            a, b = g.endpoints(e)
            j = index.get(b if a == v else a)
            if j is None:
                j = len(adj)
                pendants.append((e, i, j))
                adj.append([i])
            elif i < j:
                rows.append((e, i, j))
            adj[i].append(j)
    rows.sort()
    rows += pendants
    k, n = len(verts), len(adj)
    depth = [0] * k + [1] * (n - k)
    reached = list(range(k, n))
    for v in reached:
        d = depth[v] + 1
        for w in adj[v]:
            if not depth[w]:
                depth[w] = d
                reached.append(w)
    if k == n:  # a bridgeless component of g: no leaf
        depth = [n + 1] * n
    pairs = sorted((depth[u], depth[v]) if depth[u] < depth[v] else (depth[v], depth[u]) for _, u, v in rows)
    piece = _PieceRead((n, tuple(pairs)), adj, depth, rows, None)
    if piece.invariant not in shared:
        return piece
    return piece._replace(first=_canonical_edges(piece, refine=False))


def _canonical_edges(piece: _PieceRead, refine: bool = True) -> Tuple[PieceKey, List[int]]:
    """A key of a piece: (key, g's edge ids in key order).  The refined key
    is normal7_coloring's fallback when a piece's first key matches no
    colored piece's; refine=False gives the first key, numbered by depth.

    The key is the vertex count and the sorted end pairs of the edges under
    a breadth-first numbering.  Vertices compare by class, then by label;
    the search starts at the least vertex and takes each vertex's new
    neighbours in ascending order.  The refined classes are colour
    refinement to stability from the depths: a vertex's next class is its
    class with the multiset of its neighbours' classes (as their sum, sum of
    squares and product, which determine a multiset of three), numbered in
    sorted order, so an isomorphism keeps every class.  Equal keys of two
    pieces make the composed numberings an isomorphism, the i-th edge of one
    onto the i-th of the other, however the label ties fell, so a key under
    any numbering is a proof; a tie between vertices that no automorphism
    swaps only gives isomorphic pieces different keys.  Refinement splits
    ties the depths leave, so isomorphic pieces whose first keys differ can
    still share the refined key: it stays as the fallback.  Where no round
    splits a depth class the refined key is the first key, returned as read.
    """
    adj = piece.adj
    n = len(adj)
    cls = piece.depth
    if refine:
        count = len(set(cls))
        # three neighbour columns; a missing neighbour reads the class 0 at n
        cols = list(zip(*(a + [n] * (3 - len(a)) for a in adj)))
        while count < n:
            padded = cls + [0]
            x, y, z = ([padded[w] for w in col] for col in cols)
            sig = [
                (c, p + q + r, p * p + q * q + r * r, p * q * r)
                for c, p, q, r in zip(cls, x, y, z)
            ]
            number = {key: i for i, key in enumerate(sorted(set(sig)), 1)}
            if len(number) == count:
                break
            count = len(number)
            cls = [number[key] for key in sig]
        if cls is piece.depth and piece.first is not None:
            return piece.first
    # one breadth-first search numbers the piece, which is connected; each
    # vertex lists its neighbours in (class, label) order
    ranked = sorted(range(n), key=cls.__getitem__)  # stable: ties by label
    by_rank: List[List[int]] = [[] for _ in adj]
    for v in ranked:
        for w in adj[v]:
            by_rank[w].append(v)
    new = [-1] * n
    new[ranked[0]] = 0
    order = [ranked[0]]
    for u in order:
        for w in by_rank[u]:
            if new[w] < 0:
                new[w] = len(order)
                order.append(w)
    # a simple piece has one edge per end pair
    at: Dict[Tuple[int, int], int] = {}
    for e, u, v in piece.rows:
        a, b = new[u], new[v]
        at[(a, b) if a < b else (b, a)] = e
    ends = sorted(at)
    return (n, tuple(ends)), [at[p] for p in ends]


def normal7_coloring(
    g: PseudoGraph,
    trace: Optional[List[CertificateStep]] = None,
) -> EdgeColoring:
    """Normal 7-edge-coloring of any simple cubic graph, connected or not.

    Bridgeless graphs are colored straight from a nowhere-zero Z_2^3 flow.
    Otherwise the graph splits at its bridges into bridgeless pieces and
    isolated 3-bridge vertices; each piece gets a pendant edge per boundary
    vertex, is colored by color_degree13_graph, and the pieces are glued
    back, from one root piece per component of g, with palette renamings
    that make every bridge poor.  A piece's colors are kept in g's edge
    ids, its pendant edges' under the ids of their bridges.

    Isomorphic pieces are colored once per call.  Each piece is read off g
    once by _read_piece.  A piece whose invariant another piece shares is
    keyed first in that read, by _canonical_edges' numbering without
    refinement; only when that first key matches no colored piece's is it
    given the refined key, whose classes break label ties the first key
    leaves, and a piece colored then is kept under both keys.  Equal keys
    under any numbering prove an isomorphism, edge i of one key onto edge i
    of the other, so a piece with a colored piece's key takes its colors
    through the two numberings, with no graph built, and its steps in the
    trace are copies of that piece's: the same tags, with fingerprints of
    its graphs.  Among isomorphic pieces with no automorphism to even out
    their label ties, the piece copied can be another than the one of
    equal refined key: the first key is tried first.  The whole-graph check
    at the end covers the copied colors as it covers the rest.
    """
    steps: List[CertificateStep] = trace if trace is not None else []
    if not g.is_cubic():
        raise ValueError("normal7_coloring requires a cubic graph")
    if not g.is_simple():
        raise ValueError("normal7_coloring requires a simple graph")
    if not find_bridges(g):
        return _verified_normal(g, _flow_colors(g, steps), steps)[0]

    forest = build_glue_forest(g)

    def color_piece(verts: Sequence[int], rows: List[Tuple[int, int, int]]) -> Dict[int, int]:
        """The piece built in the numbering of its rows, colored in g's ids."""
        sub, _, emap = induced_subgraph(g, verts)
        assert all(rows[loc][0] == e for e, loc in emap.items())
        for _, u, _ in rows[len(emap):]:
            sub.add_edge(u, sub.add_vertex())
        assert all(sub.degree(v) in (1, 3) for v in sub.vertices())
        own = color_degree13_graph(sub, steps).colors
        return {e: own[loc] for loc, (e, _, _) in enumerate(rows)}

    # color each non-singleton piece with a pendant edge per boundary vertex
    piece_colors: Dict[int, Dict[int, int]] = {}
    # invariant -> its first piece (index, steps) until a second shares it
    # and the first is keyed; key -> a colored piece's colors and steps,
    # each keyed piece under its first and its refined key
    first_with: Dict[PieceKey, Optional[Tuple[int, List[CertificateStep]]]] = {}
    colored: Dict[PieceKey, Tuple[List[int], List[CertificateStep]]] = {}
    for ci, verts in enumerate(forest.components):
        if len(verts) == 1:
            continue
        piece = _read_piece(g, verts, first_with)
        first = len(steps)
        if piece.first is None:
            piece_colors[ci] = color_piece(verts, piece.rows)
            first_with[piece.invariant] = ci, steps[first:]
            continue
        held = first_with[piece.invariant]
        if held is not None:  # a second piece shares it: key the first one
            cj, cj_steps = held
            cj_piece = _read_piece(g, forest.components[cj], first_with)
            for key, eids in (cj_piece.first, _canonical_edges(cj_piece)):
                colored[key] = [piece_colors[cj][e] for e in eids], cj_steps
            first_with[piece.invariant] = None
        key, eids = piece.first
        if key in colored:
            rep_colors, rep_steps = colored[key]
            steps.extend(rep_steps)
            piece_colors[ci] = dict(zip(eids, rep_colors))
            continue
        refined, refined_eids = _canonical_edges(piece)
        if refined in colored:
            rep_colors, rep_steps = colored[refined]
            steps.extend(rep_steps)
            own = dict(zip(refined_eids, rep_colors))
        else:
            own = color_piece(verts, piece.rows)
            rep_steps = steps[first:]
            colored[refined] = [own[e] for e in refined_eids], rep_steps
        colored[key] = [own[e] for e in eids], rep_steps
        piece_colors[ci] = own

    def other_colors(ci: int, v: int, b: int) -> List[int]:
        return sorted(piece_colors[ci][d] for d in _others_at(g, v, b))

    # every glue step fingerprints g: hash its edge list once
    prefix = _fingerprint_prefix(g)
    bridge_color: Dict[int, int] = {}
    visited: Set[int] = set()
    for root in forest.roots:
        visited.add(root)
        if root in piece_colors:
            _record(steps, CaseTag.Glue, g, forest.components[root], prefix=prefix)
        else:
            own = forest.bridges_at[root]
            assert len(own) == 3
            for i, b in enumerate(own):
                bridge_color[b] = i + 1
            _record(steps, CaseTag.Glue, g, own, prefix=prefix)
        queue = deque([root])
        while queue:
            ci = queue.popleft()
            for b in forest.bridges_at[ci]:
                bu, bv = g.endpoints(b)
                alpha, beta = (bu, bv) if forest.comp_of[bu] == ci else (bv, bu)
                cj = forest.comp_of[beta]
                if cj in visited:
                    assert b in bridge_color
                    continue
                if ci in piece_colors:
                    # the slot color at alpha: its pendant edge's, kept under b
                    bridge_color[b] = piece_colors[ci][b]
                    others_a = other_colors(ci, alpha, b)
                else:
                    # alpha is a 3-bridge vertex whose edges were all colored
                    # when its piece was glued (or seeded at the root)
                    assert b in bridge_color
                    others_a = sorted(bridge_color[d] for d in _others_at(g, alpha, b))
                if cj in piece_colors:
                    partial = {piece_colors[cj][b]: bridge_color[b]}
                    for src, dst in zip(other_colors(cj, beta, b), others_a):
                        partial[src] = dst
                    perm = _extend_palette_perm(partial)
                    piece_colors[cj] = {d: perm[c] for d, c in piece_colors[cj].items()}
                    _record(steps, CaseTag.Glue, g, (b,), perm, prefix)
                else:
                    rest = _others_at(g, beta, b)
                    assert len(rest) == 2
                    for d, c in zip(rest, others_a):
                        bridge_color[d] = c
                    _record(steps, CaseTag.Glue, g, (b,), prefix=prefix)
                visited.add(cj)
                queue.append(cj)

    # each piece holds its bridges' slot colors, which the glue's replace
    colors = {e: c for own in piece_colors.values() for e, c in own.items()}
    assert all(b in bridge_color for b in forest.bridges)
    colors.update(bridge_color)
    col, report = _verified_normal(g, colors, steps)
    # the glue keeps the color sets at both ends of each bridge equal
    verify_or_raise(
        all(report[b] == EdgeStatus.POOR for b in forest.bridges),
        "a glued bridge is not poor",
    )
    return col
