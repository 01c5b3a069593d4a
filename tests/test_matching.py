"""Perfect matchings, 2-factors, contraction, and flow lifting."""

import itertools

import networkx as nx
import pytest

from normal7.flows_trees import GroupFlow, flow_two_edges_equal, verify_flow
from normal7.matching import (
    PerfectMatching,
    complementary_two_factor,
    contract_two_factor,
    lift_flow,
    perfect_matching_through,
)
from normal7.graph_core import PseudoGraph

from tests.corpora import corpus_graphs, is_k_edge_connected, k4, k33, petersen


def all_perfect_matchings(g):
    """Brute-force oracle: every edge subset that covers each vertex once."""
    ids = g.edge_ids()
    size = g.num_vertices // 2
    found = []
    for combo in itertools.combinations(ids, size):
        covered = [w for e in combo for w in g.endpoints(e)]
        if sorted(covered) == list(g.vertices()):
            found.append(frozenset(combo))
    return found


def bridged_cubic():
    # Two doubled triangles joined by a bridge between their plain vertices.
    return PseudoGraph.from_edges(
        6,
        [(0, 1), (0, 1), (0, 2), (1, 2), (3, 4), (3, 4), (3, 5), (4, 5), (2, 5)],
    )


def reference_contract(g, edge_set):
    """Contract every edge in edge_set at once by union-find: each
    component they span becomes the vertex numbered by the rank of its
    smallest vertex; the other edges follow in id order.  Returns
    (contracted graph, edge map old id -> new id)."""
    contracted = set(edge_set)
    parent = list(range(g.num_vertices))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for eid in sorted(contracted):
        ru, rv = (find(x) for x in g.endpoints(eid))
        if ru != rv:
            parent[max(ru, rv)] = min(ru, rv)
    roots = sorted({find(v) for v in g.vertices()})
    new_index = {r: i for i, r in enumerate(roots)}
    h = PseudoGraph(len(roots))
    edge_map = {}
    for eid, u, v in g.edges():
        if eid not in contracted:
            edge_map[eid] = h.add_edge(new_index[find(u)], new_index[find(v)])
    return h, edge_map


class TestPerfectMatchingThrough:
    def test_k4_opposite_edge_forced(self):
        g = k4()
        # Edge 0 joins 0-1; the only way to finish is the 2-3 edge.
        m = perfect_matching_through(g, 0)
        opposite = next(e for e, u, v in g.edges() if {u, v} == {2, 3})
        assert m.edges == frozenset({0, opposite})

    def test_petersen_every_edge_covered(self):
        g = petersen()
        oracle = all_perfect_matchings(g)
        assert len(oracle) == 6
        for e in g.edge_ids():
            m = perfect_matching_through(g, e)
            assert e in m.edges
            assert m.edges in oracle

    def test_every_matching_is_exact_cover(self):
        g = k33()
        for e in g.edge_ids():
            m = perfect_matching_through(g, e)
            covered = sorted(w for eid in m.edges for w in g.endpoints(eid))
            assert covered == list(g.vertices())

    def test_bridged_input_rejected(self):
        g = bridged_cubic()
        assert g.is_cubic()
        with pytest.raises(ValueError):
            perfect_matching_through(g, 0)

    def test_non_cubic_rejected(self):
        g = PseudoGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        with pytest.raises(ValueError):
            perfect_matching_through(g, 0)

    def test_loop_cubic_rejected(self):
        # Loop plus pendant edge at each end: cubic but the middle is a bridge.
        g = PseudoGraph.from_edges(2, [(0, 0), (1, 1), (0, 1)])
        assert g.is_cubic()
        with pytest.raises(ValueError):
            perfect_matching_through(g, 2)


class TestComplementaryTwoFactor:
    def test_k4_single_four_cycle(self):
        g = k4()
        m = perfect_matching_through(g, 0)
        cycles = complementary_two_factor(g, m)
        assert len(cycles) == 1
        assert len(cycles[0]) == 4
        assert sorted(cycles[0].vertices) == [0, 1, 2, 3]

    def test_petersen_spokes_give_two_pentagons(self):
        g = petersen()
        spokes = [e for e, u, v in g.edges() if abs(u - v) == 5]
        m = PerfectMatching(frozenset(spokes))
        cycles = complementary_two_factor(g, m)
        assert [len(c) for c in cycles] == [5, 5]
        assert sorted(cycles[0].vertices) == [0, 1, 2, 3, 4]
        assert sorted(cycles[1].vertices) == [5, 6, 7, 8, 9]

    def test_k33_total_length_six(self):
        g = k33()
        for mset in all_perfect_matchings(g):
            cycles = complementary_two_factor(g, PerfectMatching(mset))
            assert sum(len(c) for c in cycles) == 6
            for c in cycles:
                assert len(c) >= 4

    def test_traversal_is_deterministic(self):
        g = petersen()
        m = perfect_matching_through(g, 0)
        cycles = complementary_two_factor(g, m)
        seeds = [c.edges[0] for c in cycles]
        assert seeds == sorted(seeds)
        for c in cycles:
            assert c.edges[0] == min(c.edges)
            a, b = g.endpoints(c.edges[0])
            assert c.vertices[0] == max(a, b)
            assert c.vertices[1] == min(a, b)
            # edges[i] joins vertices[i] to vertices[i+1], cyclically.
            for i, eid in enumerate(c.edges):
                u = c.vertices[i]
                v = c.vertices[(i + 1) % len(c)]
                assert set(g.endpoints(eid)) == {u, v}

    def test_rejects_non_matching(self):
        g = k4()
        with pytest.raises(ValueError):
            complementary_two_factor(g, PerfectMatching(frozenset({0, 1})))


class TestContractTwoFactor:
    def test_k4_one_vertex_two_loops(self):
        g = k4()
        m = perfect_matching_through(g, 0)
        lift = contract_two_factor(g, m)
        assert lift.h.num_vertices == 1
        assert lift.h.num_edges == 2
        assert all(lift.h.is_loop(e) for e in lift.h.edge_ids())

    def test_petersen_two_vertices_five_parallels(self):
        g = petersen()
        spokes = [e for e, u, v in g.edges() if abs(u - v) == 5]
        lift = contract_two_factor(g, PerfectMatching(frozenset(spokes)))
        assert lift.h.num_vertices == 2
        assert lift.h.num_edges == 5
        assert not any(lift.h.is_loop(e) for e in lift.h.edge_ids())
        assert is_k_edge_connected(lift.h, 4)
        assert set(lift.edge_map) == set(spokes)
        assert [sorted(c.vertices) for c in lift.cycles] == [[0, 1, 2, 3, 4], [5, 6, 7, 8, 9]]

    def test_same_graph_as_union_find_contraction_on_the_census(self):
        checked = 0
        for _, g in corpus_graphs():
            nxg = nx.Graph((u, v, {"eid": e}) for e, u, v in g.edges())
            pairs = nx.max_weight_matching(nxg, maxcardinality=True)
            m = PerfectMatching(frozenset(nxg.edges[p]["eid"] for p in pairs))
            lift = contract_two_factor(g, m)
            factor = [e for e in g.edge_ids() if e not in m.edges]
            h, edge_map = reference_contract(g, factor)
            assert lift.h.num_vertices == h.num_vertices == len(lift.cycles)
            assert lift.edge_map == edge_map
            assert list(lift.edge_map) == list(edge_map)
            assert list(lift.h.edges()) == list(h.edges())
            assert [lift.h.incident(v) for v in h.vertices()] == [
                h.incident(v) for v in h.vertices()
            ]
            checked += 1
        assert checked == 621

    def test_cyclically_4ec_input_gives_4ec_quotient(self):
        g = petersen()
        for e in g.edge_ids():
            lift = contract_two_factor(g, perfect_matching_through(g, e))
            assert is_k_edge_connected(lift.h, 4)


class TestLiftFlow:
    def test_petersen_lift_verifies(self):
        g = petersen()
        spokes = [e for e, u, v in g.edges() if abs(u - v) == 5]
        lift = contract_two_factor(g, PerfectMatching(frozenset(spokes)))
        a = lift.h.edge_ids()[0]
        theta = flow_two_edges_equal(lift.h, a, a)
        mu = lift_flow(lift, theta)
        check = verify_flow(mu)
        assert check.conserving and check.nowhere_zero
        for e in g.edge_ids():
            if e in spokes:
                assert mu.values[e] & 4 == 0 and 1 <= mu.values[e] <= 3
            else:
                assert mu.values[e] & 4

    def test_k4_alternation_with_equal_matching_values(self):
        g = k4()
        m = perfect_matching_through(g, 0)
        lift = contract_two_factor(g, m)
        loops = lift.h.edge_ids()
        theta = GroupFlow(lift.h, 2, {loops[0]: 3, loops[1]: 3})
        mu = lift_flow(lift, theta)
        cyc = lift.cycles[0]
        vals = [mu.values[e] for e in cyc.edges]
        assert vals == [4, 4 ^ 3, 4, 4 ^ 3]

    def test_per_cycle_seeds(self):
        g = petersen()
        spokes = [e for e, u, v in g.edges() if abs(u - v) == 5]
        lift = contract_two_factor(g, PerfectMatching(frozenset(spokes)))
        a = lift.h.edge_ids()[0]
        theta = flow_two_edges_equal(lift.h, a, a)
        mu = lift_flow(lift, theta)
        # every cycle is seeded with z = 4 on its lowest edge
        assert len(lift.cycles) == 2
        assert all(mu.values[c.edges[0]] == 4 for c in lift.cycles)
        check = verify_flow(mu)
        assert check.conserving and check.nowhere_zero

    def test_wrong_group_rejected(self):
        g = k4()
        lift = contract_two_factor(g, perfect_matching_through(g, 0))
        loops = lift.h.edge_ids()
        theta = GroupFlow(lift.h, 3, {loops[0]: 1, loops[1]: 2})
        with pytest.raises(ValueError):
            lift_flow(lift, theta)

    def test_zero_flow_rejected(self):
        g = k4()
        lift = contract_two_factor(g, perfect_matching_through(g, 0))
        loops = lift.h.edge_ids()
        theta = GroupFlow(lift.h, 2, {loops[0]: 0, loops[1]: 1})
        with pytest.raises(ValueError):
            lift_flow(lift, theta)

    def test_lift_over_all_petersen_matchings(self):
        g = petersen()
        for mset in all_perfect_matchings(g):
            lift = contract_two_factor(g, PerfectMatching(mset))
            a = lift.h.edge_ids()[0]
            theta = flow_two_edges_equal(lift.h, a, a)
            mu = lift_flow(lift, theta)
            check = verify_flow(mu)
            assert check.conserving and check.nowhere_zero
            matched = set(mset)
            for e in g.edge_ids():
                assert (mu.values[e] & 4 == 0) == (e in matched)
