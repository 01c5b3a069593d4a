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
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from normal7.coloring_solver import (
    EdgeColoring,
    EdgeStatus,
    is_normal,
    is_three_edge_colorable,
    enumerate_normal_colorings,
)
from normal7.cuts_reductions import cycle_space_labels, find_bridges
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


# -- cycle space sweeps ---------------------------------------------------------


def sweep_cycle_space(g: PseudoGraph) -> Iterator[List[int]]:
    """Every conserving Z_2^3 flow exactly once, as a value list over edge ids.

    Coefficient vectors over the fundamental-cycle basis run in lexicographic
    order starting from all zeros, so the first yield is the zero flow.
    """
    labels, chords = cycle_space_labels(g)
    masks = [labels[e] for e in g.edge_ids()]
    dim = len(chords)
    m = len(masks)
    values = [0] * m
    per_bit: List[List[int]] = [[] for _ in range(dim)]
    for i, mask in enumerate(masks):
        for bit in range(dim):
            if mask >> bit & 1:
                per_bit[bit].append(i)
    coeffs = [0] * dim
    limit = 8  # the size of Z_2^3
    yield list(values)
    # Odometer over coefficients; only edges on the stepped cycle change.
    while True:
        pos = dim - 1
        while pos >= 0 and coeffs[pos] == limit - 1:
            coeffs[pos] = 0
            step = limit - 1  # wrapping from limit-1 to 0 XORs out limit-1
            for i in per_bit[pos]:
                values[i] ^= step
            pos -= 1
        if pos < 0:
            return
        old = coeffs[pos]
        coeffs[pos] = old + 1
        step = old ^ (old + 1)
        for i in per_bit[pos]:
            values[i] ^= step
        yield list(values)


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
            assert len(k_edges) == 7
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
    """Scan every conserving flow; look for a nowhere-zero one with a vertex
    all three of whose edges are rich.  Also report whether two rich edges
    at one vertex ever occur (a feasibility control for the check itself).
    """
    ids = g.edge_ids()
    index = {e: i for i, e in enumerate(ids)}
    inc = {v: [index[e] for e in g.incident(v)] for v in g.vertices()}
    ends = {e: g.endpoints(e) for e in ids}
    universe = 0
    nz = 0
    counterexample: Optional[str] = None
    two_rich_seen = False
    for values in sweep_cycle_space(g):
        universe += 1
        if 0 in values:
            continue
        nz += 1
        at = {v: {values[i] for i in inc[v]} for v in g.vertices()}
        for v in g.vertices():
            rich = [
                e
                for e in g.incident(v)
                if len(at[ends[e][0]] | at[ends[e][1]]) == 5
            ]
            if len(rich) >= 2:
                two_rich_seen = True
            if len(rich) == 3 and counterexample is None:
                counterexample = (
                    f"flow {dict(zip(ids, values))} makes all edges at vertex "
                    f"{v} rich"
                )
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
    ids = g.edge_ids()
    index = {e: i for i, e in enumerate(ids)}
    rung, left_cut, right_cut = 7, 5, 6
    u, w = g.endpoints(rung)
    inc_u = [index[e] for e in g.incident(u)]
    inc_w = [index[e] for e in g.incident(w)]
    universe = 0
    nz = 0
    counterexample: Optional[str] = None
    for values in sweep_cycle_space(g):
        universe += 1
        if 0 in values:
            continue
        nz += 1
        if values[index[left_cut]] != values[index[right_cut]]:
            counterexample = (
                f"cut edges {left_cut},{right_cut} differ in "
                f"{dict(zip(ids, values))}"
            )
            break
        union = {values[i] for i in inc_u} | {values[i] for i in inc_w}
        if len(union) != 3:
            counterexample = f"rung not poor in {dict(zip(ids, values))}"
            break
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
