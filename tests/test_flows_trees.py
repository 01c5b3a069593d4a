"""Flow algebra, tree packing, constrained flows, and GF(2)^3 automorphisms.

Feasibility oracles here are independent brute-force enumerations (over raw
assignments or over the cycle space); construction outputs are then checked
against the same predicates.
"""

import os
import random
import subprocess
import sys
from collections import deque
from itertools import combinations, product
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normal7 import flows_trees
from normal7.cuts_reductions import find_2_edge_cuts, find_bridges
from normal7.flows_trees import (
    FlowCheck,
    GF2Automorphism,
    GroupFlow,
    PackingError,
    all_automorphisms,
    apply_automorphism,
    find_automorphism,
    flow_edge_status,
    flow_three_edges_distinct,
    flow_two_edges_equal,
    flow_value_set,
    nz_z23_flow,
    verify_flow,
)
from normal7.graph_core import PseudoGraph, VerificationError
from normal7.matching import contract_two_factor, lift_flow, perfect_matching_through
from tests.corpora import (
    corpus_graphs,
    cubic_census_upto,
    doubled_cycle,
    fig6_graph,
    k4,
    k5,
    k33,
    long_ladder_graph,
    petersen,
    prism,
    prism_ring,
    random_pseudograph,
    theta_graph,
    with_loop_at,
)
from tests.test_cut_oracle import pairing_cubic


def four_parallel() -> PseudoGraph:
    return PseudoGraph.from_edges(2, [(0, 1)] * 4)


def enumerate_conserving_assignments(g: PseudoGraph, k: int):
    """All value assignments (including zeros) satisfying the flow law."""
    ids = g.edge_ids()
    for combo in product(range(1 << k), repeat=len(ids)):
        values = dict(zip(ids, combo))
        flow = GroupFlow(g, k, values)
        if verify_flow(flow).conserving:
            yield values


def cycle_space_flows(g: PseudoGraph, k: int):
    """Enumerate all conserving assignments via free cotree values.

    Tree edge values are forced by eliminating degree-1 vertices of the
    remaining unknown subgraph, which is linear algebra in disguise.
    """
    tree = set()
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for eid in g.incident(v):
            w = g.other_endpoint(eid, v)
            if w not in seen:
                seen.add(w)
                tree.add(eid)
                stack.append(w)
    cotree = [e for e in g.edge_ids() if e not in tree]
    for combo in product(range(1 << k), repeat=len(cotree)):
        values = dict(zip(cotree, combo))
        unknown = set(tree)
        while unknown:
            progressed = False
            for v in g.vertices():
                pending = [e for e in set(g.incident(v)) if e in unknown]
                if len(pending) == 1:
                    acc = 0
                    for e in g.incident(v):
                        if e not in unknown:
                            acc ^= values[e]
                    values[pending[0]] = acc
                    unknown.discard(pending[0])
                    progressed = True
            assert progressed
        flow = GroupFlow(g, k, values)
        if verify_flow(flow).conserving:
            yield values


class TestVerifyFlow:
    def test_all_zero_triangle(self):
        g = PseudoGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
        check = verify_flow(GroupFlow(g, 2, {0: 0, 1: 0, 2: 0}))
        assert check.conserving and not check.nowhere_zero

    def test_single_loop(self):
        g = PseudoGraph.from_edges(1, [(0, 0)])
        check = verify_flow(GroupFlow(g, 2, {0: 1}))
        assert check.conserving and check.nowhere_zero

    def test_triangle_all_x(self):
        g = PseudoGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
        check = verify_flow(GroupFlow(g, 2, {0: 1, 1: 1, 2: 1}))
        assert check.conserving and check.nowhere_zero

    def test_unbalanced_edge(self):
        g = PseudoGraph.from_edges(2, [(0, 1)])
        assert not verify_flow(GroupFlow(g, 2, {0: 3})).conserving

    def test_coverage_and_range_checks(self):
        g = PseudoGraph.from_edges(2, [(0, 1), (0, 1)])
        with pytest.raises(ValueError):
            verify_flow(GroupFlow(g, 2, {0: 1}))
        with pytest.raises(ValueError):
            verify_flow(GroupFlow(g, 2, {0: 4, 1: 4}))


def pack(g: PseudoGraph, k: int):
    """The packer's rooted forests for k trees in g, from g's ends list."""
    return flows_trees._pack_spanning_trees(flows_trees._edge_ends(g), g.num_vertices, k)


def pack_two(g: PseudoGraph):
    """The edge sets of the two rooted forests the packer returns."""
    t1, t2 = pack(g, 2)
    return t1.edges(), t2.edges()


class TestPacking:
    def is_spanning_tree(self, g, edges):
        t = nx.MultiGraph()
        t.add_nodes_from(g.vertices())
        for e in edges:
            t.add_edge(*g.endpoints(e))
        return t.number_of_edges() == g.num_vertices - 1 and nx.is_connected(t)

    def test_k4(self):
        t1, t2 = pack_two(k4())
        assert not (t1 & t2)
        assert self.is_spanning_tree(k4(), t1)
        assert self.is_spanning_tree(k4(), t2)

    def test_four_parallel_edges(self):
        t1, t2 = pack_two(four_parallel())
        assert len(t1) == 1 and len(t2) == 1 and not (t1 & t2)

    def test_single_cycle_fails(self):
        g = PseudoGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        with pytest.raises(PackingError):
            pack_two(g)

    def test_4ec_minus_two_edges_always_packs(self):
        g0 = doubled_cycle(4)
        for e, f in combinations(g0.edge_ids(), 2):
            g = g0.copy()
            g.remove_edge(e)
            g.remove_edge(f)
            t1, t2 = pack_two(g)
            assert self.is_spanning_tree(g, t1)
            assert self.is_spanning_tree(g, t2)

    def test_petersen_cannot_pack(self):
        # 15 edges cannot hold two disjoint spanning trees on 10 vertices.
        with pytest.raises(PackingError):
            pack_two(petersen())

    def test_deterministic(self):
        first, again = (pack(k5(), 2) for _ in range(2))
        assert [(t.par, t.pedge) for t in first] == [(t.par, t.pedge) for t in again]

    def brute_force_packs(self, g):
        """Whether any two disjoint spanning trees exist, by trying every
        pair of (n-1)-edge subsets; the reference the packer must match."""
        ids = [e for e in g.edge_ids() if not g.is_loop(e)]
        size = g.num_vertices - 1
        trees = [set(t) for t in combinations(ids, size) if self.is_spanning_tree(g, t)]
        return any(not (t1 & t2) for t1, t2 in combinations(trees, 2)) or (
            size == 0 and bool(trees)
        )

    @given(st.integers(1, 7), st.integers(0, 12), st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_packs_exactly_when_brute_force_does(self, n, m, seed):
        # matroid-union augmentation finds a maximum packing, so no fallback
        # search is needed when it comes up short
        g = random_pseudograph(random.Random(seed), n, m)
        if self.brute_force_packs(g):
            t1, t2 = pack_two(g)
            assert not (t1 & t2)
            assert self.is_spanning_tree(g, t1) and self.is_spanning_tree(g, t2)
        else:
            with pytest.raises(PackingError):
                pack_two(g)


# -- reference packer: forest paths by breadth-first search -------------------


def reference_forest_path(g, forest, s, t):
    """Edge ids on the forest path s..t, or None if disconnected there."""
    if s == t:
        return []
    parent = {s: (-1, -1)}
    queue = deque([s])
    while queue:
        v = queue.popleft()
        for eid in sorted(e for e in g.incident(v) if e in forest):
            w = g.other_endpoint(eid, v)
            if w not in parent:
                parent[w] = (v, eid)
                if w == t:
                    path = []
                    cur = t
                    while cur != s:
                        pv, pe = parent[cur]
                        path.append(pe)
                        cur = pv
                    return path
                queue.append(w)
    return None


def reference_try_augment(g, forests, e):
    parent = {e: None}
    queue = deque([e])
    while queue:
        y = queue.popleft()
        uy, vy = g.endpoints(y)
        for i, forest in enumerate(forests):
            if y in forest:
                continue
            path = reference_forest_path(g, forest, uy, vy)
            if path is None:
                forests[i].add(y)
                cur = y
                while parent[cur] is not None:
                    prev, j = parent[cur]
                    forests[j].discard(cur)
                    forests[j].add(prev)
                    cur = prev
                return True
            for x in path:
                if x not in parent:
                    parent[x] = (y, i)
                    queue.append(x)
    return False


def reference_pack(g, k):
    n = g.num_vertices
    if n <= 1:
        return [set() for _ in range(k)]
    if not g.is_connected():
        raise PackingError("graph is disconnected")
    forests = [set() for _ in range(k)]
    for e in g.edge_ids():
        if not g.is_loop(e):
            reference_try_augment(g, forests, e)
    if all(len(f) == n - 1 for f in forests):
        return forests
    raise PackingError(f"no packing of {k} edge-disjoint spanning trees")


def doubled(g: PseudoGraph) -> PseudoGraph:
    """Every edge twice, the copies consecutive, as in nz_z23_flow's packing."""
    edges = [(u, v) for _, u, v in g.edges()]
    return PseudoGraph.from_edges(g.num_vertices, [d for d in edges for _ in range(2)])


SMALL_CUBICS = cubic_census_upto(10)


def rooted_pack(g, k):
    return [t.edges() for t in pack(g, k)]


def packing_or_error(pack, g, k):
    try:
        return [sorted(f) for f in pack(g, k)]
    except PackingError as exc:
        return str(exc)


class TestRootedForests:
    """The rooted-forest packer against the breadth-first-search packer above."""

    @given(
        st.integers(1, 8),
        st.integers(0, 22),
        st.integers(0, 4),
        st.sampled_from([2, 3]),
        st.integers(0, 10**6),
    )
    @settings(max_examples=300, deadline=None)
    def test_same_forests_as_the_search_packer(self, n, m, holes, k, seed):
        # multigraphs with loops, parallel edges and holes in the id range
        rng = random.Random(seed)
        g = random_pseudograph(rng, n, m)
        for e in rng.sample(g.edge_ids(), min(holes, g.num_edges)):
            g.remove_edge(e)
        want = packing_or_error(reference_pack, g, k)
        assert packing_or_error(rooted_pack, g, k) == want

    @given(st.sampled_from(SMALL_CUBICS), st.sampled_from([2, 3]), st.integers(0, 2))
    @settings(max_examples=60, deadline=None)
    def test_same_forests_on_doubled_cubics(self, g, k, holes):
        h = doubled(g)
        for e in h.edge_ids()[:holes]:
            h.remove_edge(e)
        want = packing_or_error(reference_pack, h, k)
        assert packing_or_error(rooted_pack, h, k) == want

    @given(st.integers(1, 9), st.integers(0, 40), st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_path_query_equals_search_after_links_and_cuts(self, n, steps, seed):
        rng = random.Random(seed)
        g = random_pseudograph(rng, n, 2 * n + 2)
        tree = flows_trees._RootedForest(flows_trees._edge_ends(g), n)
        forest = set()
        for _ in range(steps):
            e = rng.choice(g.edge_ids())
            u, v = g.endpoints(e)
            if e in forest:
                forest.discard(e)
                tree.cut(e)
            elif reference_forest_path(g, forest, u, v) is None:
                forest.add(e)
                tree.link(e)
            s, t = rng.randrange(n), rng.randrange(n)
            assert tree.path(s, t) == reference_forest_path(g, forest, s, t)
        for s, t in product(range(n), repeat=2):
            assert tree.path(s, t) == reference_forest_path(g, forest, s, t)

    def test_a_link_inside_one_tree_raises(self):
        g = PseudoGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
        tree = flows_trees._RootedForest(flows_trees._edge_ends(g), 3)
        tree.link(0)
        tree.link(1)
        with pytest.raises(VerificationError, match="close a cycle"):
            tree.link(2)
        assert sorted(tree.path(0, 2)) == [0, 1]

    def test_a_cut_outside_the_forest_raises(self):
        g = PseudoGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
        tree = flows_trees._RootedForest(flows_trees._edge_ends(g), 3)
        tree.link(0)
        tree.link(1)
        with pytest.raises(VerificationError, match="not in the packed forest"):
            tree.cut(2)
        assert sorted(tree.path(0, 2)) == [0, 1]


class TestSpanningTreeCheck:
    """The packer's closing check: n - 1 edges that close no cycle, by one
    union-find pass over the edges."""

    def check(self, g, edges):
        return flows_trees._is_spanning_tree(flows_trees._edge_ends(g), g.num_vertices, set(edges))

    def test_accepts_a_tree_of_the_doubled_graph(self):
        # copies 2i and 2i+1 of edge i; edges 0, 1, 2 of k4 form a star
        assert self.check(doubled(k4()), [0, 3, 4])

    def test_rejects_both_copies_of_an_edge(self):
        assert not self.check(doubled(k4()), [0, 1, 2])

    def test_rejects_too_few_or_too_many_edges(self):
        g = doubled(k4())
        assert not self.check(g, [0, 2])
        assert not self.check(g, [0, 2, 4, 6])

    def test_rejects_a_cycle_beside_a_lone_vertex(self):
        g = PseudoGraph.from_edges(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
        assert not self.check(g, [0, 1, 2])
        assert self.check(g, [0, 1, 3])

    def test_accepts_a_tree_with_holes_in_the_id_range(self):
        g = PseudoGraph.from_edges(4, [(0, 1), (0, 1), (1, 2), (0, 2), (2, 3), (3, 0)])
        for e in (1, 3, 5):
            g.remove_edge(e)
        assert self.check(g, [0, 2, 4])
        assert not self.check(g, [0, 2])

    @given(st.integers(1, 8), st.integers(0, 16), st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_networkx_on_random_edge_sets(self, n, m, seed):
        rng = random.Random(seed)
        g = random_pseudograph(rng, n, m)
        edges = rng.sample(g.edge_ids(), min(n - 1, g.num_edges))
        t = nx.MultiGraph()
        t.add_nodes_from(g.vertices())
        t.add_edges_from(g.endpoints(e) for e in edges)
        want = len(edges) == n - 1 and nx.is_tree(t)
        assert self.check(g, edges) == want


def three_edge_connected_cubic(seed, n):
    """A seeded pairing-model cubic graph with no bridge and no 2-edge-cut."""
    rng = random.Random(seed)
    while True:
        g = pairing_cubic(rng, n)
        if g.is_connected() and not find_bridges(g) and not find_2_edge_cuts(g):
            return g


class TestWorkCounts:
    """How much searching the packer does, not how long it takes.

    The loop stops at k(n-1) packed edges, so every augmentation it starts
    succeeds on a packable graph, and each queued edge is tested for a
    direct entry at once, so a forest path is walked only for edges popped
    before the winning edge was queued."""

    def augmentations(self, monkeypatch, g):
        """(n, k, results of _try_augment) for every packing nz_z23_flow makes."""
        runs = []
        augment, real_pack = flows_trees._try_augment, flows_trees._pack_spanning_trees

        def counted_pack(ends, n, k):
            runs.append((n, k, []))
            return real_pack(ends, n, k)

        def counted_augment(owner, trees, e):
            runs[-1][2].append(augment(owner, trees, e))
            return runs[-1][2][-1]

        monkeypatch.setattr(flows_trees, "_pack_spanning_trees", counted_pack)
        monkeypatch.setattr(flows_trees, "_try_augment", counted_augment)
        nz_z23_flow(g)
        monkeypatch.undo()
        return runs

    def test_no_augmentation_fails_on_the_doubled_census(self, monkeypatch):
        # without the stop at full rank the packer ran three failing
        # augmentations per packing, 2,445 over these graphs, each a search
        # of the whole exchange graph
        packings = 0
        for g in cubic_census_upto(14):
            if find_bridges(g):
                continue
            for n, k, results in self.augmentations(monkeypatch, g):
                assert len(results) == k * (n - 1) and all(results)
                packings += 1
        assert packings == 815

    @pytest.mark.parametrize("length", [100, 400])
    def test_no_augmentation_fails_on_prism_rings(self, monkeypatch, length):
        ((n, k, results),) = self.augmentations(monkeypatch, prism_ring(length))
        assert (n, k) == (2 * length, 3)
        assert len(results) == k * (n - 1) and all(results)

    @pytest.mark.parametrize(
        # testing edges when popped walked 19,983 and 5,243 paths: one per
        # edge popped, until an edge popped with a forest open to it
        "build, walks",
        [(lambda: prism_ring(400), 399), (lambda: three_edge_connected_cubic(0, 160), 212)],
        ids=["C_400xK2", "random_n160"],
    )
    def test_path_walks(self, monkeypatch, build, walks):
        g = build()
        path, calls = flows_trees._RootedForest.path, []

        def counted_path(self, s, t):
            calls.append((s, t))
            return path(self, s, t)

        monkeypatch.setattr(flows_trees._RootedForest, "path", counted_path)
        nz_z23_flow(g)
        assert len(calls) == walks


def parity_subgraph_in_tree(g, tree):
    """The parity subgraph of g inside a spanning tree, by stripping leaves:
    the reference the children-first walk of the rooted forest must match.

    Returns A with deg_A(v) = deg_g(v) (mod 2) for all v; every step is
    forced, so A is unique within the tree."""
    need = [g.degree(v) % 2 for v in g.vertices()]
    adj = {v: [] for v in g.vertices()}
    for eid in tree:
        u, v = g.endpoints(eid)
        adj[u].append(eid)
        adj[v].append(eid)
    removed = set()
    result = set()
    leaves = deque(v for v in g.vertices() if len(adj[v]) == 1)
    dead = set()
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
        assert sum(1 for e in g.incident(v) if e in result) % 2 == g.degree(v) % 2
    return result


def linked_forest(g, edges):
    """A rooted forest holding the given edges, linked in the order given."""
    tree = flows_trees._RootedForest(flows_trees._edge_ends(g), g.num_vertices)
    for e in edges:
        tree.link(e)
    return tree


def odd_degrees(g):
    return [g.degree(v) % 2 for v in g.vertices()]


class TestParitySubgraph:
    def test_cubic_tree_gives_odd_degrees(self):
        g = k4()
        for tree in pack(g, 2):
            a = tree.parity_subgraph(odd_degrees(g))
            assert a <= tree.edges()
            for v in g.vertices():
                assert sum(1 for e in g.incident(v) if e in a) % 2 == 1

    def test_even_graph_gives_empty(self):
        g = PseudoGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert linked_forest(g, [0, 1, 2]).parity_subgraph(odd_degrees(g)) == set()

    def test_single_edge(self):
        g = PseudoGraph.from_edges(2, [(0, 1)])
        assert linked_forest(g, [0]).parity_subgraph(odd_degrees(g)) == {0}

    @given(st.integers(1, 9), st.integers(0, 24), st.integers(0, 10**6))
    @settings(max_examples=300, deadline=None)
    def test_same_as_leaf_stripping_on_random_multigraphs(self, n, m, seed):
        # a spanning tree linked in random order, so rooted at random
        rng = random.Random(seed)
        g = random_pseudograph(rng, n, m)
        order = g.edge_ids()
        rng.shuffle(order)
        tree = linked_forest(g, [])
        for e in order:
            if not g.is_loop(e) and tree.path(*g.endpoints(e)) is None:
                tree.link(e)
        if len(tree.edges()) == n - 1:
            want = parity_subgraph_in_tree(g, tree.edges())
            assert tree.parity_subgraph(odd_degrees(g)) == want

    def test_same_as_leaf_stripping_on_the_doubled_census_packing(self):
        # copies 2i and 2i+1 stand for edge i, as in nz_z23_flow's packing
        for _, g in corpus_graphs():
            try:
                forests = pack(doubled(g), 3)
            except PackingError:  # g has a 2-edge-cut; its double packs two
                forests = pack(doubled(g), 2)
            for tree in forests:
                got = {c // 2 for c in tree.parity_subgraph(odd_degrees(g))}
                assert got == parity_subgraph_in_tree(g, {c // 2 for c in tree.edges()})


def complement_flow(g, parities):
    """The Z_2^2 flow off two parity subgraphs, checked as the library does."""
    return flows_trees.verified_nz_flow(
        GroupFlow(g, 2, flows_trees._complement_values(g, parities))
    )


class TestEvenSubgraphFlow:
    """x and y are supported on the complements of the two parity sets."""

    def test_cycle_both(self):
        g = PseudoGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
        flow = complement_flow(g, [set(), set()])
        assert all(v == 3 for v in flow.values.values())
        flow = complement_flow(g, [set(), {0, 1, 2}])
        assert all(v == 1 for v in flow.values.values())

    def test_prism_cover(self):
        # Two hand-picked hamiltonian-ish even subgraphs covering all 9 edges:
        # 0-1-2-5-4-3-0 and 0-2-5-3-4-1-0.
        g = prism()
        ids = set(g.edge_ids())
        p1 = {0, 1, 3, 4, 6, 8}
        p2 = {0, 2, 3, 5, 7, 8}
        flow = complement_flow(g, [ids - p1, ids - p2])
        assert flow.values[0] == 3 and flow.values[1] == 1 and flow.values[2] == 2

    def test_rejects_odd_subgraph_and_noncover(self):
        g = PseudoGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
        with pytest.raises(VerificationError):
            complement_flow(g, [{1, 2}, set()])  # x on the odd subgraph {0}
        with pytest.raises(VerificationError):
            complement_flow(g, [{0, 1, 2}, {0}])  # edge 0 in neither support


class TestNoGraphBuilt:
    """The tree flows hand the packer an ends list written straight from g:
    no doubled graph, no copy with edges removed."""

    @pytest.mark.parametrize(
        "build, flow_of",
        [
            (petersen, nz_z23_flow),
            (k5, nz_z23_flow),
            (k5, lambda g: flow_two_edges_equal(g, 0, 1)),
            (k5, lambda g: flow_three_edges_distinct(g, 0, 1, 2)),
        ],
        ids=["nz_z23_flow_petersen", "nz_z23_flow_k5", "two_edges_equal_k5", "three_edges_distinct_k5"],
    )
    def test_no_graph_is_built(self, monkeypatch, build, flow_of):
        g = build()
        built = []
        init, copy = PseudoGraph.__init__, PseudoGraph.copy

        def spy_init(self, *args):
            built.append("__init__")
            init(self, *args)

        def spy_copy(self):
            built.append("copy")
            return copy(self)

        monkeypatch.setattr(PseudoGraph, "__init__", spy_init)
        monkeypatch.setattr(PseudoGraph, "copy", spy_copy)
        flow = flow_of(g)
        monkeypatch.undo()
        assert verify_flow(flow).nowhere_zero
        assert built == []


class TestTreePairFlow:
    def test_four_parallel(self):
        # g-2-3 packs the trees {0} and {1}; edges outside both get x+y
        flow = flow_two_edges_equal(four_parallel(), 2, 3)
        assert flow.values[2] == 3 and flow.values[3] == 3
        check = verify_flow(flow)
        assert check.conserving and check.nowhere_zero

    def test_k4(self):
        g = k4()
        forests = pack(g, 2)
        flow = complement_flow(g, [t.parity_subgraph(odd_degrees(g)) for t in forests])
        check = verify_flow(flow)
        assert check.conserving and check.nowhere_zero


class TestFlowTwoEdgesEqual:
    def test_four_parallel_feasible_and_constructed(self):
        g = four_parallel()
        witnesses = [
            vals
            for vals in enumerate_conserving_assignments(g, 2)
            if all(vals.values()) and vals[0] == vals[1]
        ]
        assert witnesses  # oracle: the lemma's claim is satisfiable here
        flow = flow_two_edges_equal(g, 0, 1)
        assert flow.values[0] == flow.values[1] == 3

    def test_same_edge(self):
        flow = flow_two_edges_equal(k5(), 0, 0)
        check = verify_flow(flow)
        assert check.conserving and check.nowhere_zero

    def test_loop_edge(self):
        g = with_loop_at(doubled_cycle(3), 0)
        loop = g.num_edges - 1
        flow = flow_two_edges_equal(g, loop, 0)
        assert flow.values[loop] == flow.values[0]

    def test_all_pairs_small_4ec(self):
        for g in (doubled_cycle(3), doubled_cycle(4), k5()):
            for e, f in combinations(g.edge_ids(), 2):
                flow = flow_two_edges_equal(g, e, f)
                check = verify_flow(flow)
                assert check.conserving and check.nowhere_zero
                assert flow.values[e] == flow.values[f]

    def test_not_4ec_raises(self):
        g = PseudoGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        with pytest.raises(PackingError):
            flow_two_edges_equal(g, 0, 1)


class TestFlowThreeEdgesDistinct:
    def test_k5_feasible_and_constructed(self):
        g = k5()
        e, f, gg = 0, 1, 2  # the edges (0,1), (0,2), (0,3)
        witnesses = 0
        for vals in cycle_space_flows(g, 2):
            if all(vals.values()) and vals[e] != vals[f] and vals[e] != vals[gg]:
                witnesses += 1
        assert witnesses > 0
        flow = flow_three_edges_distinct(g, e, f, gg)
        assert flow.values[e] != flow.values[f]
        assert flow.values[e] != flow.values[gg]

    def test_four_parallel(self):
        flow = flow_three_edges_distinct(four_parallel(), 0, 1, 2)
        assert flow.values[0] not in (flow.values[1], flow.values[2])

    def test_loop_positions(self):
        g = with_loop_at(doubled_cycle(3), 0)
        loop = g.num_edges - 1
        e0, e1 = 0, 1  # both incident to vertex 0
        for e, f, gg in ((loop, e0, e1), (e0, loop, e1), (e0, e1, loop)):
            flow = flow_three_edges_distinct(g, e, f, gg)
            assert flow.values[e] != flow.values[f]
            assert flow.values[e] != flow.values[gg]

    def test_rejects_bad_arguments(self):
        g = k5()
        with pytest.raises(ValueError):
            flow_three_edges_distinct(g, 0, 0, 1)
        with pytest.raises(ValueError):
            flow_three_edges_distinct(g, 0, 1, 0)
        with pytest.raises(ValueError):
            flow_three_edges_distinct(g, 0, 7, 9)  # no shared vertex

    def test_two_adjacent_distinct(self):
        for g in (k5(), doubled_cycle(3)):
            inc = g.incident(0)
            flow = flow_three_edges_distinct(g, inc[0], inc[1], inc[1])
            assert flow.values[inc[0]] != flow.values[inc[1]]


class TestNZ23Flow:
    def assert_good(self, g):
        flow = nz_z23_flow(g)
        check = verify_flow(flow)
        assert check.conserving and check.nowhere_zero
        return flow

    def test_petersen(self):
        self.assert_good(petersen())

    def test_theta_values(self):
        flow = self.assert_good(theta_graph())
        a, b, c = (flow.values[e] for e in (0, 1, 2))
        assert a ^ b ^ c == 0 and len({a, b, c}) == 3

    def test_bridge_raises(self):
        g = PseudoGraph.from_edges(
            6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (2, 3)]
        )
        with pytest.raises(ValueError):
            nz_z23_flow(g)

    def test_two_cut_edges_agree(self):
        flow = self.assert_good(fig6_graph())
        assert flow.values[5] == flow.values[6]
        assert flow.values[8] == flow.values[9]

    def test_cycle_constant(self):
        g = PseudoGraph.from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        flow = self.assert_good(g)
        assert len(set(flow.values.values())) == 1

    def test_disconnected_and_loops(self):
        g = PseudoGraph.from_edges(
            7,
            [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (4, 5), (5, 6), (6, 4)],
        )
        g.add_edge(4, 4)
        self.assert_good(g)

    def test_trivial_graphs(self):
        assert nz_z23_flow(PseudoGraph(0)).values == {}
        assert nz_z23_flow(PseudoGraph(1)).values == {}
        lonely_loop = PseudoGraph.from_edges(1, [(0, 0)])
        assert nz_z23_flow(lonely_loop).values == {0: 1}

    def test_standard_cubics(self):
        for g in (k4(), k33(), prism(), long_ladder_graph()):
            self.assert_good(g)


def every_forest_open(owner, trees, x):
    """A direct-entry query that finds x's ends in two trees of every forest."""
    return 1 if owner[x] == 0 else 0


class TestOutputChecks:
    """A constructed flow is re-checked by a raise, which python -O keeps."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: nz_z23_flow(k4()),
            lambda: flow_two_edges_equal(k5(), 0, 1),
            lambda: flow_three_edges_distinct(with_loop_at(doubled_cycle(3), 0), 6, 0, 1),
        ],
        ids=["nz_z23_flow", "even_subgraphs", "free_loops"],
    )
    def test_a_rejected_flow_raises(self, monkeypatch, build):
        monkeypatch.setattr(flows_trees, "verify_flow", lambda flow: FlowCheck(True, False))
        with pytest.raises(VerificationError, match="not nowhere-zero conserving"):
            build()

    def test_a_renaming_that_breaks_conservation_raises(self, monkeypatch):
        flow = nz_z23_flow(k4())
        monkeypatch.setattr(flows_trees, "verify_flow", lambda f: FlowCheck(f is flow, True))
        with pytest.raises(VerificationError, match="changed whether the flow is conserved"):
            apply_automorphism(flow, all_automorphisms()[5])

    def test_a_rejected_lifted_flow_raises(self, monkeypatch):
        g = petersen()
        lift = contract_two_factor(g, perfect_matching_through(g, 0))
        theta = flow_two_edges_equal(lift.h, *lift.h.edge_ids()[:2])
        real = flows_trees.verify_flow
        # the contracted Z_2^2 flow passes its input check; the lifted
        # Z_2^3 flow is rejected
        monkeypatch.setattr(
            flows_trees, "verify_flow", lambda f: real(f) if f.k == 2 else FlowCheck(True, False)
        )
        with pytest.raises(VerificationError, match="not nowhere-zero conserving"):
            lift_flow(lift, theta)


    def test_a_forest_with_a_cycle_raises(self, monkeypatch):
        # the direct-entry query reports every edge's ends as lying in
        # different trees of each forest
        monkeypatch.setattr(flows_trees, "_open_forest", every_forest_open)
        with pytest.raises(VerificationError, match="close a cycle"):
            pack(k4(), 2)

    def test_a_union_find_that_joins_every_tree_raises(self, monkeypatch):
        # a path is walked only where the union-find reads one tree
        monkeypatch.setattr(flows_trees, "_open_forest", lambda owner, trees, x: -1)
        with pytest.raises(VerificationError, match="union-find joins two trees"):
            pack(k4(), 2)

    def test_a_union_find_that_drifts_from_the_forest_raises(self, monkeypatch):
        # the union-find forgets the join of edge 0, so it splits a tree
        # that the parent pointers hold together
        link = flows_trees._RootedForest.link

        def link_forgetting_edge_0(self, eid):
            up = list(self.up)
            link(self, eid)
            if eid == 0:
                self.up = up

        monkeypatch.setattr(flows_trees._RootedForest, "link", link_forgetting_edge_0)
        with pytest.raises(VerificationError, match="close a cycle"):
            pack(k4(), 2)

    def test_overlapping_forests_raise(self, monkeypatch):
        # each forest answers with the path of the next one where it has one
        made = []
        init, path = flows_trees._RootedForest.__init__, flows_trees._RootedForest.path

        def register(self, *args):
            init(self, *args)
            made.append(self)

        def next_forests_path(self, s, t):
            own = path(self, s, t)
            other = path(made[(made.index(self) + 1) % len(made)], s, t)
            return None if own is None else other or own

        monkeypatch.setattr(flows_trees._RootedForest, "__init__", register)
        monkeypatch.setattr(flows_trees._RootedForest, "path", next_forests_path)
        with pytest.raises(VerificationError, match="not in the packed forest it leaves"):
            pack(k5(), 3)

    def test_a_tree_holding_both_copies_of_an_edge_raises(self, monkeypatch):
        # copies 2i and 2i+1 of edge i: each forest reads as both copies of
        # edge 0 and one of edge 1
        monkeypatch.setattr(flows_trees._RootedForest, "edges", lambda self: {0, 1, 2})
        with pytest.raises(VerificationError, match="a packed forest is not a spanning tree"):
            nz_z23_flow(k4())

    def test_a_zero_edge_value_raises(self, monkeypatch):
        monkeypatch.setattr(
            flows_trees._RootedForest, "parity_subgraph", lambda self, odd: set(range(len(self.ends)))
        )
        with pytest.raises(VerificationError, match="leave an edge at zero"):
            nz_z23_flow(k4())

    def test_packing_checks_survive_optimize(self):
        # the same three faults, in a python -O process, which strips asserts
        script = """
import sys
from normal7 import flows_trees as ft
from normal7.graph_core import PseudoGraph, VerificationError
assert False, "asserts are on"
RF = ft._RootedForest
k5 = PseudoGraph.from_edges(5, [(u, v) for u in range(5) for v in range(u + 1, 5)])
ends = ft._edge_ends(k5)
init, path, link = RF.__init__, RF.path, RF.link
made = []
def register(self, *args):
    init(self, *args)
    made.append(self)
def next_forests_path(self, s, t):
    own = path(self, s, t)
    other = path(made[(made.index(self) + 1) % len(made)], s, t)
    return None if own is None else other or own
def link_forgetting_edge_0(self, eid):
    up = list(self.up)
    link(self, eid)
    if eid == 0:
        self.up = up
RF.__init__ = register
faults = [
    (ft, "_open_forest", lambda owner, trees, x: 1 if owner[x] == 0 else 0),
    (RF, "path", next_forests_path),
    (RF, "link", link_forgetting_edge_0),
]
for where, name, lie in faults:
    real = getattr(where, name)
    setattr(where, name, lie)
    try:
        ft._pack_spanning_trees(ends, 5, 3)
    except VerificationError as exc:
        print(exc)
    setattr(where, name, real)
"""
        src = str(Path(flows_trees.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
        )
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        assert len(lines) == 3
        assert "close a cycle" in lines[0]
        assert "not in the packed forest it leaves" in lines[1]
        assert "close a cycle" in lines[2]


class TestAutomorphisms:
    def test_identity(self):
        auto = find_automorphism(pairs=[(1, 1), (2, 2), (4, 4)])
        assert auto == GF2Automorphism((1, 2, 4)) == all_automorphisms()[0]
        assert [auto.apply(v) for v in range(8)] == list(range(8))

    def test_count_and_membership(self):
        autos = all_automorphisms()
        assert len(autos) == 168
        brute = 0
        for cols in product(range(1, 8), repeat=3):
            span = {0}
            ok = True
            for c in cols:
                if c in span:
                    ok = False
                    break
                span |= {c ^ s for s in span}
            brute += ok
        assert brute == 168
        assert len({a.cols for a in autos}) == 168

    def test_swap_is_involution(self):
        auto = find_automorphism(pairs=[(1, 2), (2, 1), (4, 4)])
        assert all(auto.apply(auto.apply(v)) == v for v in range(8))

    def test_additivity(self):
        for auto in (all_automorphisms()[17], all_automorphisms()[101]):
            for a in range(8):
                for b in range(8):
                    assert auto.apply(a ^ b) == auto.apply(a) ^ auto.apply(b)

    def test_apply_to_flow(self):
        flow = nz_z23_flow(petersen())
        out = apply_automorphism(flow, all_automorphisms()[42])
        check = verify_flow(out)
        assert check.conserving and check.nowhere_zero

    def test_find_automorphism(self):
        auto = find_automorphism(pairs=[(1, 2)], set_pairs=[((2, 4), (1, 6))])
        assert auto is not None
        assert auto.apply(1) == 2 and {auto.apply(2), auto.apply(4)} == {1, 6}
        assert find_automorphism(pairs=[(1, 2), (2, 2)]) is None


class TestFlowStatus:
    def test_theta_all_poor(self):
        flow = nz_z23_flow(theta_graph())
        assert all(flow_edge_status(flow, e) == "poor" for e in (0, 1, 2))

    def test_k4_frozen_flows(self):
        g = k4()
        poor = GroupFlow(g, 3, {0: 1, 1: 2, 2: 3, 3: 3, 4: 2, 5: 1})
        assert verify_flow(poor).conserving
        assert all(flow_edge_status(poor, e) == "poor" for e in range(6))
        rich = GroupFlow(g, 3, {0: 1, 1: 2, 2: 3, 3: 4, 4: 5, 5: 6})
        assert verify_flow(rich).conserving
        assert all(flow_edge_status(rich, e) == "rich" for e in range(6))

    def test_non_cubic_neither(self):
        g = PseudoGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        flow = GroupFlow(g, 3, {e: 1 for e in range(4)})
        assert flow_edge_status(flow, 0) == "invalid"
        assert flow_value_set(flow, 0) == {1}
