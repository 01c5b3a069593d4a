"""Perfect matchings through a prescribed edge, complementary 2-factors, and
the contract-then-lift flow machinery for cubic graphs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

from normal7.cuts_reductions import require_bridgeless_cubic
from normal7.flows_trees import Z, GroupFlow, verified_nz_flow, verify_flow
from normal7.graph_core import PseudoGraph, verify_or_raise


class MatchingError(Exception):
    """No perfect matching satisfying the request exists."""


@dataclass(frozen=True)
class PerfectMatching:
    edges: frozenset


@dataclass(frozen=True)
class FactorCycle:
    """One cycle of a 2-factor; edges[i] joins vertices[i] to vertices[i+1],
    cyclically."""

    vertices: Tuple[int, ...]
    edges: Tuple[int, ...]

    def __len__(self) -> int:
        return len(self.edges)


@dataclass
class TwoFactorLift:
    """The pseudograph obtained by contracting a complementary 2-factor.

    Every 2-factor cycle collapses to one vertex of h; matching edges
    survive and are tracked by edge_map.
    """

    g: PseudoGraph
    h: PseudoGraph
    edge_map: Dict[int, int]  # matching eid in g -> eid in h
    cycles: List[FactorCycle]


def _pm_extend(g: PseudoGraph, used: List[bool], chosen: List[int]) -> bool:
    v = next((w for w in g.vertices() if not used[w]), None)
    if v is None:
        return True
    # Dead-end pruning: every uncovered vertex still needs a free neighbor.
    for w in g.vertices():
        if not used[w] and all(
            used[g.other_endpoint(eid, w)] or g.is_loop(eid)
            for eid in g.incident(w)
        ):
            return False
    for eid in sorted(set(g.incident(v))):
        if g.is_loop(eid):
            continue
        w = g.other_endpoint(eid, v)
        if used[w]:
            continue
        used[v] = used[w] = True
        chosen.append(eid)
        if _pm_extend(g, used, chosen):
            return True
        chosen.pop()
        used[v] = used[w] = False
    return False


def perfect_matching_through(g: PseudoGraph, e: int) -> PerfectMatching:
    """A perfect matching containing e; exists for every edge of a bridgeless
    cubic graph."""
    require_bridgeless_cubic(g, "perfect_matching_through")
    u, v = g.endpoints(e)
    used = [False] * g.num_vertices
    used[u] = used[v] = True
    chosen = [e]
    if not _pm_extend(g, used, chosen):
        raise MatchingError(f"no perfect matching through edge {e}")
    covered = [w for eid in chosen for w in g.endpoints(eid)]
    verify_or_raise(sorted(covered) == list(g.vertices()), "a matched vertex is missed or repeated")
    return PerfectMatching(frozenset(chosen))


def matched_edge_at(g: PseudoGraph, matching: Iterable[int]) -> Dict[int, int]:
    """The matching edge at each vertex it covers."""
    return {w: eid for eid in matching for w in g.endpoints(eid)}


def _check_perfect_matching(g: PseudoGraph, m: PerfectMatching) -> None:
    covered = []
    for eid in m.edges:
        a, b = g.endpoints(eid)
        if a == b:
            raise ValueError("a loop cannot belong to a matching")
        covered.extend((a, b))
    if sorted(covered) != list(g.vertices()):
        raise ValueError("not a perfect matching of the graph")


def complementary_two_factor(g: PseudoGraph, m: PerfectMatching) -> List[FactorCycle]:
    """Cycle decomposition of the non-matching edges of a cubic graph.

    Each cycle starts at its lowest edge id, traversed toward that edge's
    lower endpoint; cycles are listed by ascending seed id.
    """
    _check_perfect_matching(g, m)
    factor = [e for e in g.edge_ids() if e not in m.edges]
    unused = set(factor)
    cycles: List[FactorCycle] = []
    for seed in factor:
        if seed not in unused:
            continue
        a, b = g.endpoints(seed)
        start, cur = max(a, b), min(a, b)
        vertices = [start]
        edges = [seed]
        unused.discard(seed)
        prev = seed
        while cur != start:
            vertices.append(cur)
            nxt = next(
                e
                for e in sorted(set(g.incident(cur)))
                if e in unused and e != prev
            )
            edges.append(nxt)
            unused.discard(nxt)
            prev = nxt
            cur = g.other_endpoint(nxt, cur)
        cycles.append(FactorCycle(tuple(vertices), tuple(edges)))
    assert sum(len(c) for c in cycles) == len(factor)
    return cycles


def contract_two_factor(g: PseudoGraph, m: PerfectMatching) -> TwoFactorLift:
    """Contract the complementary 2-factor; one vertex remains per cycle.

    h is built from the cycle walk alone, the one copy of the 2-factor
    kept: vertex i of h is the cycle with the i-th smallest lowest vertex,
    and the matching edges follow in ascending id order, each with its
    endpoints in stored order.  In a cubic graph the cycles partition the
    vertices, so every matching edge joins two cycles (or one, as a loop)
    and there is no second contraction to compare against.
    """
    cycles = complementary_two_factor(g, m)
    cycle_of = [-1] * g.num_vertices
    for i, cyc in enumerate(sorted(cycles, key=lambda c: min(c.vertices))):
        for v in cyc.vertices:
            cycle_of[v] = i
    h = PseudoGraph(len(cycles))
    edge_map: Dict[int, int] = {}
    for eid in sorted(m.edges):
        u, v = g.endpoints(eid)
        edge_map[eid] = h.add_edge(cycle_of[u], cycle_of[v])
    return TwoFactorLift(g, h, edge_map, cycles)


def lift_flow(lift: TwoFactorLift, theta: GroupFlow) -> GroupFlow:
    """Extend a Z_2^2 flow on the contracted graph to a Z_2^3 flow of g.

    Matching edges keep their theta value (high bit 0); each cycle is seeded
    with Z = 4 on its lowest edge and propagated by conservation, so cycle
    values keep the high bit and never collide with matching values.
    """
    if theta.k != 2:
        raise ValueError("the contracted flow must be over Z_2^2")
    check = verify_flow(theta)
    if not (check.conserving and check.nowhere_zero):
        raise ValueError("the contracted flow must be a nowhere-zero flow")

    g = lift.g
    match_at = matched_edge_at(g, lift.edge_map)
    values = {eid: theta.values[h_eid] for eid, h_eid in lift.edge_map.items()}
    for cyc in lift.cycles:
        values[cyc.edges[0]] = Z
        for i in range(1, len(cyc)):
            shared = cyc.vertices[i]
            values[cyc.edges[i]] = values[cyc.edges[i - 1]] ^ values[match_at[shared]]
        closing = values[cyc.edges[-1]] ^ values[match_at[cyc.vertices[0]]]
        verify_or_raise(closing == values[cyc.edges[0]], "a lifted cycle does not close up")
    return verified_nz_flow(GroupFlow(g, 3, values))
