"""Bridges, small cuts, cut reductions, splice identity, and ladders."""

import random
from dataclasses import replace

import networkx as nx
import pytest

from normal7 import cuts_reductions
from normal7.cuts_reductions import (
    Ladder,
    find_2_edge_cuts,
    find_bridges,
    find_nontrivial_3_edge_cuts,
    ladder_containing,
    splice_reduction,
    star_product,
    three_cut_reduction,
    two_cut_reduction,
    validate_ladder,
)
from normal7.graph_core import PseudoGraph, VerificationError
from tests.corpora import (
    diamond_lobe_pair,
    fig6_graph,
    k4,
    k33,
    long_ladder_graph,
    petersen,
    prism,
    random_simple_graph,
    theta_graph,
    two_bridge_chain,
)


def to_nx(g: PseudoGraph) -> nx.MultiGraph:
    h = nx.MultiGraph()
    h.add_nodes_from(g.vertices())
    for eid, u, v in g.edges():
        h.add_edge(u, v, key=eid)
    return h


class TestBridges:
    def test_path_all_bridges(self):
        g = PseudoGraph.from_edges(3, [(0, 1), (1, 2)])
        assert find_bridges(g) == [0, 1]

    def test_cycle_none(self):
        g = PseudoGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert find_bridges(g) == []

    def test_two_triangles_joined(self):
        g = PseudoGraph.from_edges(
            6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]
        )
        assert find_bridges(g) == [6]

    def test_parallel_pair_not_bridge(self):
        g = PseudoGraph.from_edges(2, [(0, 1), (0, 1)])
        assert find_bridges(g) == []

    def test_edge_into_loop_vertex_is_bridge(self):
        g = PseudoGraph.from_edges(2, [(0, 1), (1, 1)])
        assert find_bridges(g) == [0]

    def test_disconnected_input(self):
        g = PseudoGraph.from_edges(5, [(0, 1), (2, 3), (3, 4), (2, 4)])
        assert find_bridges(g) == [0]

    def test_matches_networkx_on_random_simple_graphs(self):
        rng = random.Random(77)
        for _ in range(120):
            g = random_simple_graph(rng, rng.randrange(2, 12), rng.random())
            expected = sorted(
                e
                for e, u, v in g.edges()
                if (min(u, v), max(u, v))
                in {tuple(sorted(b)) for b in nx.bridges(to_nx(g)) if True}
            )
            # nx.bridges needs a Graph, not MultiGraph; rebuild simple.
            sg = nx.Graph()
            sg.add_nodes_from(g.vertices())
            sg.add_edges_from((u, v) for _, u, v in g.edges())
            nxb = {tuple(sorted(b)) for b in nx.bridges(sg)}
            mine = {
                tuple(sorted(g.endpoints(e))) for e in find_bridges(g)
            }
            assert mine == nxb


class TestSmallCuts:
    def test_two_triangles_double_join(self):
        g = PseudoGraph.from_edges(
            6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4)]
        )
        cuts = find_2_edge_cuts(g)
        # The join pair, plus the edge pairs at the degree-2 vertices 2 and 5.
        assert [c.pair for c in cuts] == [(1, 2), (4, 5), (6, 7)]
        assert cuts[2].side_a == frozenset({0, 1, 2})
        assert cuts[0].side_b == frozenset({2})

    def test_c4_every_pair_cuts(self):
        g = PseudoGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert len(find_2_edge_cuts(g)) == 6

    def test_fig6_exactly_two(self):
        cuts = find_2_edge_cuts(fig6_graph())
        assert [c.pair for c in cuts] == [(5, 6), (8, 9)]

    def test_k4_none(self):
        assert find_2_edge_cuts(k4()) == []

    def test_preconditions(self):
        with pytest.raises(ValueError):
            find_2_edge_cuts(PseudoGraph.from_edges(3, [(0, 1), (1, 2)]))
        with pytest.raises(ValueError):
            find_2_edge_cuts(PseudoGraph(2))

    def test_prism_unique_nontrivial_3cut(self):
        g = prism()
        cuts = find_nontrivial_3_edge_cuts(g)
        assert len(cuts) == 1
        assert cuts[0].edges == frozenset({6, 7, 8})
        assert cuts[0].side_a == frozenset({0, 1, 2})

    def test_k4_k33_no_nontrivial_3cuts(self):
        assert find_nontrivial_3_edge_cuts(k4()) == []
        assert find_nontrivial_3_edge_cuts(k33()) == []


class TestReductions:
    def test_two_cut_pieces_and_splice_on_fig6(self):
        g = fig6_graph()
        pa, pb, trace = two_cut_reduction(g, (5, 6))
        assert pa.graph.num_vertices == 4 and pa.graph.is_cubic()
        assert pb.graph.num_vertices == 6 and pb.graph.is_cubic()
        # Arising of the side containing the rung is parallel to the rung.
        a2u, a2v = pb.graph.endpoints(pb.arising[0])
        assert {a2u, a2v} == {pb.vmap[2], pb.vmap[7]}
        assert len(pb.graph.edges_between(a2u, a2v)) == 2
        assert splice_reduction(trace).same_labeled_graph(g)

    def test_two_cut_requires_disjoint_edges(self):
        g = PseudoGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        with pytest.raises(ValueError):
            two_cut_reduction(g, (0, 1))  # edges share vertex 1
        pa, pb, trace = two_cut_reduction(g, (0, 2))
        assert splice_reduction(trace).same_labeled_graph(g)

    def test_three_cut_on_prism_gives_two_k4(self):
        g = prism()
        pa, pb, trace = three_cut_reduction(g, (6, 7, 8))
        for piece in (pa, pb):
            h = piece.graph
            assert h.num_vertices == 4 and h.num_edges == 6
            assert h.is_simple() and h.is_cubic()
            assert h.degree(piece.nu) == 3
        assert splice_reduction(trace).same_labeled_graph(g)

    def test_three_cut_rejects_non_matching(self):
        with pytest.raises(ValueError):
            three_cut_reduction(k4(), (0, 1, 2))  # star at a vertex

    def test_splice_identity_random_cubic_with_cuts(self):
        g = long_ladder_graph()
        for cut in find_2_edge_cuts(g):
            _, _, trace = two_cut_reduction(g, cut)
            assert splice_reduction(trace).same_labeled_graph(g)


class TestStarProduct:
    def test_k4_star_k4_is_prism(self):
        res = star_product(k4(), 0, k4(), 3)
        assert res.graph.is_cubic() and res.graph.is_simple()
        assert nx.is_isomorphic(
            nx.Graph((u, v) for _, u, v in res.graph.edges()),
            nx.Graph((u, v) for _, u, v in prism().edges()),
        )

    def test_pairing_must_cover(self):
        with pytest.raises(ValueError):
            star_product(k4(), 0, k4(), 0, pairing=[(0, 0), (1, 1), (1, 2)])

    def test_degree_check(self):
        g = PseudoGraph.from_edges(2, [(0, 1)])
        with pytest.raises(ValueError):
            star_product(g, 0, k4(), 0)


def rail_ladder(g: PseudoGraph, u_rail, v_rail) -> Ladder:
    """The Ladder on the given rails, its edges looked up in g."""

    def between(pairs):
        return tuple(g.edges_between(a, b)[0] for a, b in pairs)

    return Ladder(
        tuple(u_rail),
        tuple(v_rail),
        between(zip(u_rail, u_rail[1:])),
        between(zip(v_rail, v_rail[1:])),
        between(zip(u_rail[1:-1], v_rail[1:-1])),
    )


# the long ladder's rails; its rail edges are 0-2 and 3-5, its rungs 6 and 7
LONG_RAILS = ((0, 1, 2, 3), (4, 5, 6, 7))

# (what is wrong, graph, rails, ladder fields replaced): one case for each
# way validate_ladder rejects
MALFORMED = [
    ("no_rail_pair", long_ladder_graph, ((0,), (4,)), {}),
    ("short_rail", long_ladder_graph, LONG_RAILS, {"u_rail": (0, 1, 2)}),
    ("missing_rail_edge", long_ladder_graph, LONG_RAILS, {"v_edges": (3, 4)}),
    ("repeated_vertex", long_ladder_graph, LONG_RAILS, {"v_rail": (4, 5, 6, 3)}),
    ("rail_edge_out_of_place", long_ladder_graph, LONG_RAILS, {"u_edges": (1, 0, 2)}),
    ("rung_out_of_place", long_ladder_graph, LONG_RAILS, {"rungs": (7, 6)}),
    ("unknown_edge_id", long_ladder_graph, LONG_RAILS, {"rungs": (6, 99)}),
    # 0 and 5 are adjacent in the Petersen graph
    ("chord", petersen, ((0, 1), (7, 5)), {}),
    # the Petersen graph is 3-edge-connected
    ("rail_pair_not_a_cut", petersen, ((0, 1), (7, 9)), {}),
    ("v_rail_reversed", lambda: diamond_lobe_pair(1), ((0, 4), (5, 1)), {}),
    # the bridge (4, 5) and the lobe edge (0, 1) beside it
    ("rail_pair_not_crossing", two_bridge_chain, ((0, 1), (4, 5)), {}),
]


class TestLadders:
    def test_fig6_ladder_from_either_cut(self):
        g = fig6_graph()
        L1 = ladder_containing(g, (5, 6))
        L2 = ladder_containing(g, (8, 9))
        assert L1 == L2
        assert L1.u_rail == (1, 2, 3) and L1.v_rail == (6, 7, 8)
        assert L1.u_edges == (5, 8) and L1.v_edges == (6, 9)
        assert L1.rungs == (7,)
        assert L1.m == 2

    def test_long_ladder(self):
        g = long_ladder_graph()
        L = ladder_containing(g, (0, 3))  # rail pair (0,1) and (4,5)
        assert L.m == 3
        assert L.u_rail == (0, 1, 2, 3) and L.v_rail == (4, 5, 6, 7)
        assert L.rungs == (6, 7)
        assert validate_ladder(g, L)
        # Every rail pair of the ladder regrows the same ladder.
        for i in range(L.m):
            assert ladder_containing(g, L.rail_pair(i)) == L

    def test_validate_rejects_corruptions(self):
        g = long_ladder_graph()
        L = ladder_containing(g, (0, 3))
        bad = Ladder(L.u_rail, L.v_rail, L.u_edges, L.v_edges, (L.rungs[0],))
        assert not validate_ladder(g, bad)
        # Truncated ladder ends at an adjacent pair, which is not allowed.
        bad2 = Ladder(L.u_rail[:3], L.v_rail[:3], L.u_edges[:2], L.v_edges[:2], L.rungs[:1])
        assert not validate_ladder(g, bad2)

    @pytest.mark.parametrize(
        "build, rails, changes", [m[1:] for m in MALFORMED], ids=[m[0] for m in MALFORMED]
    )
    def test_validate_rejects_each_malformation(self, build, rails, changes):
        # ladder_containing's growth checks no rail pair; validate_ladder is
        # the one check that every rail pair is a 2-cut splitting the rails
        g = build()
        assert not validate_ladder(g, replace(rail_ladder(g, *rails), **changes))

    def test_an_invalid_grown_ladder_raises(self, monkeypatch):
        monkeypatch.setattr(cuts_reductions, "validate_ladder", lambda g, L: False)
        with pytest.raises(VerificationError, match="is not valid"):
            ladder_containing(fig6_graph(), (5, 6))

    def test_requires_simple_cubic_and_real_cut(self):
        with pytest.raises(ValueError):
            ladder_containing(theta_graph(), (0, 1))
        with pytest.raises(ValueError):
            ladder_containing(fig6_graph(), (0, 1))  # not a 2-cut
