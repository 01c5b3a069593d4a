"""Graph container, surgery primitives, and text formats.

Format oracles below are hand-derived from the byte layout and cross-checked
against networkx where it supports the format.
"""

import random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normal7 import flows_trees
from normal7.flows_trees import PackingError
from normal7.graph_core import (
    Graph6Error,
    PseudoGraph,
    attach_pendant,
    induced_subgraph,
    parse_edge_list,
    parse_graph6,
    remove_vertices,
    solve_per_component,
    subdivide_edge,
    write_dot,
    write_edge_list,
    write_graph6,
)
from tests.corpora import random_pseudograph, random_simple_graph
from tests.test_flows_trees import doubled


class TestContainer:
    def test_loop_counts_twice_in_degree(self):
        g = PseudoGraph(1)
        e = g.add_edge(0, 0)
        assert g.degree(0) == 2
        assert g.incident(0) == [e, e]
        assert g.is_loop(e)

    def test_parallel_edges_distinct_ids(self):
        g = PseudoGraph(2)
        e1 = g.add_edge(0, 1)
        e2 = g.add_edge(0, 1)
        assert e1 != e2
        assert g.edges_between(0, 1) == [e1, e2]
        assert not g.is_simple()

    def test_ids_stable_under_removal(self):
        g = PseudoGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
        g.remove_edge(1)
        assert g.edge_ids() == [0, 2]
        assert g.endpoints(2) == (2, 0)
        e3 = g.add_edge(1, 2)
        assert e3 == 3  # removed slot is not reused

    def test_remove_vertex_compacts_labels(self):
        g = PseudoGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        h, vmap, _ = remove_vertices(g, [1])
        assert h.num_vertices == 3
        # Old vertices 2, 3 become 1, 2; the surviving edges keep endpoints.
        assert vmap == {0: 0, 2: 1, 3: 2}
        assert sorted((u, v) for _, u, v in h.edges()) == [(1, 2), (2, 0)]

    def test_other_endpoint_and_errors(self):
        g = PseudoGraph.from_edges(3, [(0, 1)])
        assert g.other_endpoint(0, 0) == 1
        assert g.other_endpoint(0, 1) == 0
        with pytest.raises(ValueError):
            g.other_endpoint(0, 2)
        with pytest.raises(ValueError):
            g.endpoints(5)
        with pytest.raises(ValueError):
            g.add_edge(0, 3)

    def test_accessor_errors(self):
        # the messages the range checks gave before endpoints, incident and
        # degree inlined them
        g = PseudoGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
        g.remove_edge(1)
        for eid in (-1, 1, 3, 10):
            with pytest.raises(ValueError, match=rf"^no edge with id {eid}$"):
                g.endpoints(eid)
        for v in (-1, 3, 7):
            for accessor in (g.incident, g.degree):
                with pytest.raises(ValueError, match=rf"^vertex {v} out of range \[0, 3\)$"):
                    accessor(v)

    def test_mutators_bump_the_counter(self):
        g = PseudoGraph(2)
        assert g.mutations == 0
        e = g.add_edge(0, 1)
        g.add_vertex()
        g.add_edge(2, 2)
        g.remove_edge(e)
        assert g.mutations == 4
        # a rejected call changes nothing, and neither does a read or a copy
        for bad in (lambda: g.add_edge(0, 3), lambda: g.remove_edge(e)):
            with pytest.raises(ValueError):
                bad()
        g.copy()
        g.incident(2)
        assert g.mutations == 4

    def test_connectivity_and_components(self):
        g = PseudoGraph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        assert not g.is_connected()
        assert g.connected_components() == [[0, 1, 2], [3, 4]]
        assert PseudoGraph(0).is_connected()
        # skipped edges are not crossed; lists stay sorted, by smallest vertex
        c5 = PseudoGraph.from_edges(5, [(0, 3), (3, 1), (1, 4), (4, 2), (2, 0)])
        assert c5.connected_components(skip=(1, 3)) == [[0, 2, 3], [1, 4]]
        assert c5.connected_components(skip=[0, 3]) == [[0, 2], [1, 3, 4]]

    def test_from_labeled_edges_preserves_ids(self):
        g = PseudoGraph.from_labeled_edges(3, [(5, 0, 1), (2, 1, 2)])
        assert g.edge_ids() == [2, 5]
        assert g.endpoints(5) == (0, 1)
        with pytest.raises(ValueError):
            PseudoGraph.from_labeled_edges(2, [(0, 0, 1), (0, 1, 0)])

    @given(st.integers(1, 9), st.integers(0, 20), st.integers(0, 4), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_doubled_is_every_edge_added_twice(self, n, m, holes, seed):
        # loops, parallel edges and holes in the id range: the doubled ends
        # list nz_z23_flow hands the packer has copies 2i, 2i+1 of the i-th
        # edge, as a graph with every edge added twice
        rng = random.Random(seed)
        g = random_pseudograph(rng, n, m)
        for e in rng.sample(g.edge_ids(), min(holes, g.num_edges)):
            g.remove_edge(e)
        seen = []

        def record(ends, n, k):
            seen.append((list(ends), n, k))
            raise PackingError("recorded")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(flows_trees, "_pack_spanning_trees", record)
            with pytest.raises(PackingError, match="recorded"):
                flows_trees._nz3_three_connected(g)
        assert seen == [(flows_trees._edge_ends(doubled(g)), n, 3)]

    @given(st.integers(2, 9), st.integers(0, 20), st.integers(0, 10**6))
    @settings(max_examples=60, deadline=None)
    def test_degree_sum_is_twice_edge_count(self, n, m, seed):
        g = random_pseudograph(random.Random(seed), n, m)
        assert sum(g.degree(v) for v in g.vertices()) == 2 * g.num_edges


class TestSurgery:
    def test_subdivide_triangle_gives_c4(self):
        g = PseudoGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
        h, x, (eu, ew) = subdivide_edge(g, 0)
        assert h.num_vertices == 4 and x == 3
        assert sorted(h.degree(v) for v in h.vertices()) == [2, 2, 2, 2]
        assert h.endpoints(eu) == (0, x) and h.endpoints(ew) == (x, 1)
        # Untouched edges keep their ids and endpoints.
        assert h.endpoints(1) == (1, 2) and h.endpoints(2) == (2, 0)

    def test_attach_pendant(self):
        g = PseudoGraph.from_edges(2, [(0, 1)])
        h, leaf, eid = attach_pendant(g, 0)
        assert h.degree(leaf) == 1 and h.endpoints(eid) == (0, leaf)
        assert g.num_vertices == 2  # input untouched

    def test_solve_per_component(self):
        seen = []

        def solve(sub, emap):
            seen.append((sub, emap))
            return {loc: sub.num_vertices for loc in emap.values()}

        g = PseudoGraph.from_edges(5, [(3, 4), (0, 1), (1, 2), (2, 0)])
        assert solve_per_component(g, solve) == {0: 2, 1: 3, 2: 3, 3: 3}
        assert [sorted(emap) for _, emap in seen] == [[1, 2, 3], [0]]
        seen.clear()
        tri = PseudoGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
        assert solve_per_component(tri, solve) == {0: 3, 1: 3, 2: 3}
        assert seen[0][0] is tri and seen[0][1] == {0: 0, 1: 1, 2: 2}  # not copied

    @given(st.integers(1, 9), st.integers(0, 20), st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_induced_subgraph_matches_remove_vertices(self, n, m, seed):
        rng = random.Random(seed)
        g = random_pseudograph(rng, n, m)  # loops and parallel edges
        for eid in rng.sample(g.edge_ids(), m // 3):
            g.remove_edge(eid)  # holes in the id sequence
        some = [v for v in g.vertices() if rng.random() < 0.5]
        for keep in [some, [], list(g.vertices())]:
            want = remove_vertices(g, set(g.vertices()) - set(keep))
            h, vmap, emap = induced_subgraph(g, reversed(keep))
            assert h.same_labeled_graph(want[0])
            assert (vmap, emap) == want[1:]
            # both share one body: check it against the definition too
            inside = [(eid, u, v) for eid, u, v in g.edges() if u in keep and v in keep]
            assert vmap == {v: i for i, v in enumerate(keep)}
            assert emap == {eid: i for i, (eid, _, _) in enumerate(inside)}
            assert list(h.edges()) == [(i, vmap[u], vmap[v]) for i, (_, u, v) in enumerate(inside)]
            assert [h.incident(x) for x in h.vertices()] == [
                [i for i, u, v in h.edges() for y in (u, v) if y == x] for x in h.vertices()
            ]
        for bad in (-1, n):
            with pytest.raises(ValueError):
                induced_subgraph(g, [0, bad])

    def test_remove_vertices_maps(self):
        g = PseudoGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        h, vmap, emap = remove_vertices(g, [0])
        assert h.num_vertices == 4 and h.num_edges == 3
        assert set(emap) == {1, 2, 3}
        assert h.endpoints(emap[1]) == (vmap[1], vmap[2])


class TestGraph6:
    def test_k4_from_c_tilde(self):
        # 'C' = 67-63 = 4 vertices; '~' = 126-63 = 63 = 111111b: all six pairs.
        g = parse_graph6("C~")
        assert g.num_vertices == 4 and g.num_edges == 6
        assert g.is_simple() and all(g.degree(v) == 3 for v in g.vertices())

    def test_k2_from_a_underscore(self):
        # 'A' = 2 vertices; '_' = 95-63 = 32 = 100000b: bit for pair (0,1) set.
        g = parse_graph6("A_")
        assert g.num_vertices == 2 and g.num_edges == 1
        assert g.endpoints(0) == (0, 1)

    def test_matches_networkx_on_random_graphs(self):
        rng = random.Random(20260815)
        for _ in range(50):
            n = rng.randrange(1, 15)
            g = random_simple_graph(rng, n, rng.random())
            s = write_graph6(g)
            ng = nx.from_graph6_bytes(s.encode())
            assert ng.number_of_nodes() == g.num_vertices
            assert sorted(ng.edges()) == sorted(
                (min(u, v), max(u, v)) for _, u, v in g.edges()
            )

    def test_header_prefix_accepted(self):
        g = parse_graph6(">>graph6<<C~")
        assert g.num_vertices == 4 and g.num_edges == 6

    def test_three_byte_header(self):
        # n = 63 forces the '~' + 3 byte header.
        g = PseudoGraph(63)
        g.add_edge(0, 62)
        s = write_graph6(g)
        assert s.startswith("~")
        h = parse_graph6(s)
        assert h.num_vertices == 63 and h.endpoints(0) == (0, 62)
        assert nx.from_graph6_bytes(s.encode()).number_of_edges() == 1

    @given(st.integers(0, 13), st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, n, seed):
        rng = random.Random(seed)
        g = random_simple_graph(rng, n, rng.random())
        h = parse_graph6(write_graph6(g))
        assert h.same_labeled_graph(g) or sorted(
            tuple(sorted((u, v))) for _, u, v in h.edges()
        ) == sorted(tuple(sorted((u, v))) for _, u, v in g.edges())

    def test_bad_byte_offset(self):
        with pytest.raises(Graph6Error) as ei:
            parse_graph6(b"C\x1f\x7f")
        assert ei.value.offset == 1

    def test_non_ascii_text_offset(self):
        with pytest.raises(Graph6Error, match="non-ASCII") as ei:
            parse_graph6(" C~\u00e9 ")
        assert ei.value.offset == 2

    def test_length_mismatch(self):
        with pytest.raises(Graph6Error):
            parse_graph6("C~~")
        with pytest.raises(Graph6Error):
            parse_graph6("C")

    def test_nonzero_padding_rejected(self):
        # K2 body uses 1 of 6 bits; set a padding bit: 100001b -> 33+63 = '`'.
        with pytest.raises(Graph6Error):
            parse_graph6("A" + chr(33 + 63))

    def test_multigraph_rejected_on_write(self):
        g = PseudoGraph.from_edges(2, [(0, 1), (0, 1)])
        with pytest.raises(ValueError):
            write_graph6(g)


class TestEdgeListFormat:
    def test_round_trip_with_loops_and_parallels(self):
        g = PseudoGraph.from_edges(3, [(0, 1), (0, 1), (2, 2), (1, 2)])
        h = parse_edge_list(write_edge_list(g))
        assert h.same_labeled_graph(g)

    def test_header_checked(self):
        with pytest.raises(ValueError):
            parse_edge_list("2 3\n0 1\n")
        with pytest.raises(ValueError):
            parse_edge_list("")
        # rejected from the header alone, before n adjacency lists exist
        with pytest.raises(ValueError, match="1000000000 vertices but only 0 edges"):
            parse_edge_list("1000000000 0")

    def test_comments_skipped(self):
        g = parse_edge_list("# cubic\n2 1\n0 1\n")
        assert g.num_edges == 1


class TestDot:
    def test_plain_output_lists_all_edges(self):
        g = PseudoGraph.from_edges(3, [(0, 1), (1, 2)])
        s = write_dot(g)
        assert s.startswith("graph G {")
        assert "0 -- 1;" in s and "1 -- 2;" in s
