"""Exhaustive certificates over closed, finite universes.

Each operation here sweeps a universe that can be enumerated completely (the
cycle space of a fixed small graph, or the canonical normal colorings of one
host) and checks a claim against every member.  The outcome is a Certificate
that records the verdict together with the size of the universe actually
swept.  A certificate reports "holds" only when the sweep finished and no
counterexample was found; an exhausted search budget yields "inconclusive",
never a silent pass.

The fixed graphs the claims quantify over are built by the small functions
below (k4_graph, k33_graph, double_gadget_graph, rung_lobes_graph); the
command line names claims, not graphs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from normal7.coloring_solver import (
    EdgeColoring,
    EdgeStatus,
    is_normal,
    is_three_edge_colorable,
    enumerate_normal_colorings,
)
from normal7.cuts_reductions import cycle_space_labels, find_bridges
from normal7.flows_trees import STATUS_BY_UNION_SIZE
from normal7.graph_core import PseudoGraph, verify_or_raise

HOLDS = "holds"
FAILS = "fails"
INCONCLUSIVE = "inconclusive"


@dataclass
class Certificate:
    """Outcome of one exhaustive check.

    universe counts the objects actually swept.  verdict is "holds" only if
    the sweep was exhaustive and counterexample is None; "fails" always
    carries a counterexample; "inconclusive" means a budget ran out first.
    """

    claim: str
    universe: int
    verdict: str
    counterexample: Optional[str] = None
    details: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.verdict not in (HOLDS, FAILS, INCONCLUSIVE):
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == HOLDS and self.counterexample is not None:
            raise ValueError("a holding certificate cannot carry a counterexample")
        if self.verdict == FAILS and self.counterexample is None:
            raise ValueError("a failing certificate must carry a counterexample")

    def to_record(self) -> str:
        """One-line JSON record, stable key order."""
        return json.dumps(
            {
                "claim": self.claim,
                "universe": self.universe,
                "verdict": self.verdict,
                "counterexample": self.counterexample,
                "details": self.details,
            },
            sort_keys=True,
            default=str,
        )


# -- graphs ----------------------------------------------------------------------


def k4_graph() -> PseudoGraph:
    return PseudoGraph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def k33_graph() -> PseudoGraph:
    return PseudoGraph.from_edges(6, [(u, v) for u in (0, 1, 2) for v in (3, 4, 5)])


def gadget_block_edges(base: int) -> List[Tuple[int, int]]:
    """The seven edges of one near-K4 block on vertices base..base+4.

    The block is K4 on the last four vertices with one edge subdivided at
    the first: base meets base+1 and base+2, which are otherwise nonadjacent;
    the remaining pairs are all joined.  base is its only degree-2 vertex.
    """
    b = base
    return [
        (b, b + 1),
        (b, b + 2),
        (b + 1, b + 3),
        (b + 1, b + 4),
        (b + 2, b + 3),
        (b + 2, b + 4),
        (b + 3, b + 4),
    ]


def double_gadget_graph() -> PseudoGraph:
    """Two near-K4 blocks joined by a bridge between their degree-2 vertices."""
    return PseudoGraph.from_edges(
        10, gadget_block_edges(0) + gadget_block_edges(5) + [(0, 5)]
    )


def rung_lobes_graph() -> PseudoGraph:
    """Two K4-minus-an-edge lobes joined by a two-rung ladder with one rung.

    The edge order is part of the registry contract: edge 7 is the rung
    (2,7), edges 5 and 6 are the cut pair on the lobe side of vertex 2 and
    vertex 7, and edges 8 and 9 are the cut pair on the other side.
    """
    return PseudoGraph.from_edges(
        10,
        [
            (0, 5), (0, 1), (0, 6), (5, 6), (5, 1),
            (1, 2), (6, 7), (2, 7), (2, 3), (7, 8),
            (3, 4), (3, 9), (8, 4), (8, 9), (4, 9),
        ],
    )


# -- cycle space planes ---------------------------------------------------------
#
# A Z_2^3 flow is three binary cycles, one per bit of its values.  With the
# edges at bit positions in g.edge_ids() order, a binary cycle is an int mask,
# and bit j of the value on the edge at position p is bit p of plane j.


def _interleave(x0: int, x1: int, x2: int, width: int) -> List[int]:
    """The Z_2^3 elements whose bit j is bit i of x_j, for i < width."""
    return [(x0 >> i & 1) | (x1 >> i & 1) << 1 | (x2 >> i & 1) << 2 for i in range(width)]


def _cycle_planes(g: PseudoGraph) -> List[int]:
    """The 2^dim edge masks of the binary cycle space of g.

    masks[a] is the XOR of the fundamental cycles whose bits a sets (bit i is
    chord i of cycle_space_labels), built as masks[a & (a-1)] XOR the basis
    cycle of a's lowest bit, so masks[0] is the empty cycle.
    """
    labels, chords = cycle_space_labels(g)
    basis = [0] * len(chords)
    for p, e in enumerate(g.edge_ids()):
        for i in range(len(chords)):
            if labels[e] >> i & 1:
                basis[i] |= 1 << p
    masks = [0] * (1 << len(chords))
    for a in range(1, len(masks)):
        low = a & -a
        masks[a] = masks[a ^ low] ^ basis[low.bit_length() - 1]
    return masks


def _verified_planes(g: PseudoGraph) -> List[int]:
    """_cycle_planes(g), once it holds 2^dim distinct masks (dim = m - n + c)
    and each mask meets every vertex in an even number of edge-ends: then it
    is the whole binary cycle space, each cycle once."""
    masks = _cycle_planes(g)
    dim = g.num_edges - g.num_vertices + len(g.connected_components())
    verify_or_raise(
        len(masks) == 1 << dim and len(set(masks)) == len(masks),
        f"the cycle-space table does not hold 2^{dim} distinct masks",
    )
    position = {e: p for p, e in enumerate(g.edge_ids())}
    stars = []
    for v in g.vertices():
        star = 0
        for e in g.incident(v):  # a loop appears twice and cancels
            star ^= 1 << position[e]
        stars.append(star)
    verify_or_raise(
        all(bin(mask & star).count("1") % 2 == 0 for mask in masks for star in stars),
        "a cycle-space mask meets a vertex in an odd number of edge-ends",
    )
    return masks


def _sweep_nowhere_zero(
    g: PseudoGraph, read: int, check: Callable[[List[int]], object]
) -> Tuple[int, int, Optional[Tuple[Dict[int, int], object]]]:
    """Check every nowhere-zero Z_2^3 flow on g, swept as three cycle planes.

    A plane triple (a0, a1, a2) is nowhere-zero when masks[a0], masks[a1]
    and masks[a2] cover every edge, so for each (a0, a1) the admissible a2
    come from a table keyed by the mask the first two leave uncovered.
    check(values) gets a value list in g.edge_ids() order, reads only the
    positions set in read (the others hold 0), and returns None when the flow
    passes, else a verdict.  A flow's verdict depends only on its restriction
    to read, so the table groups each a2 by its plane's restriction, and
    check runs once per distinct restricted triple, deciding every flow in
    the group.

    Returns the universe (8^dim: every plane triple, zero or not), the number
    of nowhere-zero flows, and the first failing flow as an edge id -> value
    dict with its verdict, or None.  First means in the order of coefficient
    vectors over the fundamental cycles, compared lexicographically from
    chord 0, which starts at the zero flow.
    """
    ids = g.edge_ids()
    m = len(ids)
    full = (1 << m) - 1
    masks = _verified_planes(g)
    dim = len(masks).bit_length() - 1
    covering: Dict[int, Dict[int, List[int]]] = {}
    verdicts: Dict[Tuple[int, int, int], object] = {}
    nowhere_zero = 0
    first: Optional[Tuple[List[int], Tuple[int, int, int], object]] = None
    for a0, c0 in enumerate(masks):
        for a1, c1 in enumerate(masks):
            left = full & ~(c0 | c1)
            groups = covering.get(left)
            if groups is None:
                groups = covering[left] = {}
                for a2, c2 in enumerate(masks):
                    if c2 & left == left:
                        groups.setdefault(c2 & read, []).append(a2)
            for r2, a2s in groups.items():
                nowhere_zero += len(a2s)
                key = (c0 & read, c1 & read, r2)
                if key in verdicts:
                    verdict = verdicts[key]
                else:
                    verdict = verdicts[key] = check(_interleave(*key, m))
                if verdict is None:
                    continue
                for a2 in a2s:
                    order = _interleave(a0, a1, a2, dim)
                    if first is None or order < first[0]:
                        first = (order, (a0, a1, a2), verdict)
    failure = None
    if first is not None:
        a0, a1, a2 = first[1]
        values = _interleave(masks[a0], masks[a1], masks[a2], m)
        failure = (dict(zip(ids, values)), first[2])
    return len(masks) ** 3, nowhere_zero, failure


# -- gadget detection -----------------------------------------------------------


@dataclass(frozen=True)
class GadgetSite:
    """One near-K4 block hanging by a bridge inside a host graph.

    vertices = (v0, v1, v2, v3, v4): v0 is the degree-2-in-block vertex that
    carries the bridge; v1, v2 are its block neighbours; v3, v4 close the
    block.  section_edge is the v3-v4 edge, the only block edge disjoint
    from v0's pair.
    """

    vertices: Tuple[int, int, int, int, int]
    k_edges: Tuple[int, ...]
    section_edge: int
    bridge: int


def find_gadget_sites(host: PseudoGraph) -> List[GadgetSite]:
    """All near-K4 blocks attached to the rest of the host by a bridge."""
    if not host.is_simple():
        raise ValueError("gadget detection expects a simple host")
    sites: List[GadgetSite] = []
    for b in find_bridges(host):
        for v0 in host.endpoints(b):
            if host.degree(v0) != 3:
                continue
            others = sorted(e for e in host.incident(v0) if e != b)
            if len(others) != 2:
                continue
            v1, v2 = sorted(host.other_endpoint(e, v0) for e in others)
            if v1 == v2 or host.edges_between(v1, v2):
                continue
            n1 = sorted(set(host.neighbors(v1)) - {v0})
            n2 = sorted(set(host.neighbors(v2)) - {v0})
            if len(n1) != 2 or n1 != n2:
                continue
            v3, v4 = n1
            if {v3, v4} & {v0, v1, v2}:
                continue
            section = host.edges_between(v3, v4)
            if not section:
                continue
            k_edges = tuple(
                sorted(
                    host.edges_between(v1, v0)
                    + host.edges_between(v2, v0)
                    + host.edges_between(v1, v3)
                    + host.edges_between(v1, v4)
                    + host.edges_between(v2, v3)
                    + host.edges_between(v2, v4)
                    + section
                )
            )
            verify_or_raise(
                len(k_edges) == 7, f"near-K4 block at {v0} has {len(k_edges)} edges, not 7"
            )
            sites.append(GadgetSite((v0, v1, v2, v3, v4), k_edges, section[0], b))
    sites.sort(key=lambda s: s.vertices)
    return sites


# -- certificates ---------------------------------------------------------------


def certify_gadget_K(
    host: PseudoGraph, budget: Optional[int] = None
) -> Certificate:
    """Sweep all normal colorings of a host that carries a near-K4 block.

    Checks, for every canonical normal 7-coloring and every block found:
    (a) all seven block edges are rich, (b) their colors are pairwise
    distinct, (d) the section edge color equals the bridge color; and (c)
    that the host has no normal 6-coloring at all.  A host without a block
    hanging by a bridge (in particular a bridgeless host) is a precondition
    error, not a failing certificate.
    """
    if not host.is_connected():
        raise ValueError("host must be connected")
    sites = find_gadget_sites(host)
    if not sites:
        raise ValueError("host has no near-K4 block hanging by a bridge")

    counterexample: Optional[str] = None

    def check(col: EdgeColoring) -> Optional[bool]:
        nonlocal counterexample
        _, statuses = is_normal(col)
        for site in sites:
            block_colors = [col.colors[e] for e in site.k_edges]
            if any(statuses[e] is not EdgeStatus.RICH for e in site.k_edges):
                bad = [e for e in site.k_edges if statuses[e] is not EdgeStatus.RICH]
                counterexample = (
                    f"site {site.vertices}: edges {bad} not rich in {col.colors}"
                )
                return False
            if len(set(block_colors)) != 7:
                counterexample = (
                    f"site {site.vertices}: repeated block colors in {col.colors}"
                )
                return False
            if col.colors[site.section_edge] != col.colors[site.bridge]:
                counterexample = (
                    f"site {site.vertices}: section edge {site.section_edge} has "
                    f"color {col.colors[site.section_edge]} but bridge "
                    f"{site.bridge} has {col.colors[site.bridge]}"
                )
                return False
        return True

    res7 = enumerate_normal_colorings(host, 7, check, budget)
    details: Dict[str, object] = {
        "sites": [s.vertices for s in sites],
        "colorings_7": res7.count,
        "nodes_7": res7.nodes_explored,
    }
    if res7.timed_out:
        return Certificate("gadget-k", res7.count, INCONCLUSIVE, None, details)
    if counterexample is not None:
        return Certificate(
            "gadget-k", res7.count, FAILS, counterexample, details
        )

    res6 = enumerate_normal_colorings(host, 6, None, budget)
    details["colorings_6"] = res6.count
    details["nodes_6"] = res6.nodes_explored
    universe = res7.count + res6.count
    if res6.timed_out:
        return Certificate("gadget-k", universe, INCONCLUSIVE, None, details)
    if res6.count:
        return Certificate(
            "gadget-k",
            universe,
            FAILS,
            f"host admits {res6.count} normal 6-coloring classes",
            details,
        )
    if res7.count == 0:
        return Certificate(
            "gadget-k", universe, FAILS, "host admits no normal 7-coloring", details
        )
    return Certificate("gadget-k", universe, HOLDS, None, details)


def _three_rich_sweep(g: PseudoGraph) -> Tuple[int, int, Optional[str], bool]:
    """Sweep every conserving flow; look for a nowhere-zero one with a vertex
    all three of whose edges are rich.  Also report whether two rich edges
    at one vertex ever occur (a feasibility control for the check itself).
    Returns the universe, the nowhere-zero count, the first such flow as a
    counterexample string or None, and that control.
    """
    ids = g.edge_ids()
    index = {e: i for i, e in enumerate(ids)}
    inc = [[index[e] for e in g.incident(v)] for v in g.vertices()]
    ends = [g.endpoints(e) for e in ids]
    two_rich_seen = False

    def first_three_rich(values: List[int]) -> Optional[int]:
        nonlocal two_rich_seen
        at = [{values[i] for i in inc_v} for inc_v in inc]
        rich = [0] * len(inc)  # rich edge-ends at each vertex
        for x, y in ends:
            if STATUS_BY_UNION_SIZE.get(len(at[x] | at[y])) is EdgeStatus.RICH:
                rich[x] += 1
                rich[y] += 1
        if max(rich, default=0) >= 2:
            two_rich_seen = True
        return rich.index(3) if 3 in rich else None

    # every vertex's check reads edges two steps out, so it reads them all
    universe, nz, failure = _sweep_nowhere_zero(g, (1 << len(ids)) - 1, first_three_rich)
    counterexample = None
    if failure is not None:
        flow, v = failure
        counterexample = f"flow {flow} makes all edges at vertex {v} rich"
    return universe, nz, counterexample, two_rich_seen


def certify_k33_three_rich() -> Certificate:
    """No nowhere-zero Z_2^3 flow on K_3,3 makes all three edges at a vertex
    rich; the same sweep on K4 is reported alongside for contrast.
    """
    universe, nz, counterexample, two_rich = _three_rich_sweep(k33_graph())
    k4_universe, k4_nz, k4_counter, _ = _three_rich_sweep(k4_graph())
    details: Dict[str, object] = {
        "nowhere_zero_flows": nz,
        "two_rich_at_a_vertex_feasible": two_rich,
        "k4_universe": k4_universe,
        "k4_nowhere_zero_flows": k4_nz,
        "k4_three_rich_example": k4_counter,
    }
    # the sweep's own control: without it a vacuous sweep would read "holds"
    verify_or_raise(nz > 0 and two_rich, "the K_3,3 sweep never saw two rich edges at a vertex")
    if counterexample is not None:
        return Certificate(
            "k33-three-rich", universe, FAILS, counterexample, details
        )
    return Certificate("k33-three-rich", universe, HOLDS, None, details)


def certify_fig6_normal6(budget: Optional[int] = None) -> Certificate:
    """In every normal 6-coloring of the rung_lobes graph the rung is poor.

    The universe is nonempty by construction: the graph is 3-edge-colorable
    and a proper 3-coloring of a cubic graph is normal on any palette that
    contains it.  A budgeted 7-color probe for a rich rung is reported in
    the details either way.
    """
    g = rung_lobes_graph()
    rung = 7
    exhibit = is_three_edge_colorable(g, budget)

    counterexample: Optional[str] = None

    def check(col: EdgeColoring) -> Optional[bool]:
        nonlocal counterexample
        _, statuses = is_normal(col)
        if statuses[rung] is not EdgeStatus.POOR:
            counterexample = f"rung not poor in {col.colors}"
            return False
        return True

    res6 = enumerate_normal_colorings(g, 6, check, budget)

    rich_seen = False

    def probe(col: EdgeColoring) -> Optional[bool]:
        nonlocal rich_seen
        _, statuses = is_normal(col)
        if statuses[rung] is EdgeStatus.RICH:
            rich_seen = True
            return False
        return True

    res7 = enumerate_normal_colorings(g, 7, probe, budget)
    probe_outcome: object
    if rich_seen:
        probe_outcome = "rich rung found"
    elif res7.timed_out:
        probe_outcome = "inconclusive (budget)"
    else:
        probe_outcome = "no rich rung in any normal 7-coloring"

    details: Dict[str, object] = {
        "three_edge_colorable": exhibit,
        "colorings_6": res6.count,
        "nodes_6": res6.nodes_explored,
        "probe_7_rich_rung": probe_outcome,
        "nodes_7": res7.nodes_explored,
    }
    if res6.timed_out:
        return Certificate("fig6-normal6", res6.count, INCONCLUSIVE, None, details)
    if counterexample is not None:
        return Certificate("fig6-normal6", res6.count, FAILS, counterexample, details)
    if res6.count == 0:
        return Certificate(
            "fig6-normal6", 0, FAILS, "no normal 6-coloring exists at all", details
        )
    return Certificate("fig6-normal6", res6.count, HOLDS, None, details)


def certify_fig6_flow_poor() -> Certificate:
    """In every nowhere-zero Z_2^3 flow on the rung_lobes graph the rung is
    poor, and the two cut edges on either side of the rung carry equal
    values (they form a 2-edge-cut, so their values must agree).
    """
    g = rung_lobes_graph()
    index = {e: i for i, e in enumerate(g.edge_ids())}
    rung, left_cut, right_cut = 7, 5, 6
    u, w = g.endpoints(rung)
    inc_u = [index[e] for e in g.incident(u)]
    inc_w = [index[e] for e in g.incident(w)]
    left, right = index[left_cut], index[right_cut]
    read = 0
    for i in inc_u + inc_w + [left, right]:
        read |= 1 << i

    def fault(values: List[int]) -> Optional[str]:
        if values[left] != values[right]:
            return f"cut edges {left_cut},{right_cut} differ in"
        union = {values[i] for i in inc_u} | {values[i] for i in inc_w}
        if STATUS_BY_UNION_SIZE.get(len(union)) is not EdgeStatus.POOR:
            return "rung not poor in"
        return None

    universe, nz, failure = _sweep_nowhere_zero(g, read, fault)
    counterexample = None if failure is None else f"{failure[1]} {failure[0]}"
    details: Dict[str, object] = {"nowhere_zero_flows": nz}
    if counterexample is not None:
        return Certificate("fig6-flow-poor", universe, FAILS, counterexample, details)
    if nz == 0:
        return Certificate(
            "fig6-flow-poor", universe, FAILS, "no nowhere-zero flow exists", details
        )
    return Certificate("fig6-flow-poor", universe, HOLDS, None, details)


CLAIMS: Dict[str, Callable[[], Certificate]] = {
    "gadget-k": lambda: certify_gadget_K(double_gadget_graph()),
    "k33-three-rich": certify_k33_three_rich,
    "fig6-normal6": certify_fig6_normal6,
    "fig6-flow-poor": certify_fig6_flow_poor,
}


def run_claim(claim: str) -> Certificate:
    if claim not in CLAIMS:
        raise KeyError(f"unknown claim {claim!r}; known: {sorted(CLAIMS)}")
    return CLAIMS[claim]()
