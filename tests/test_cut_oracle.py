"""The cycle-space cut finders against a brute-force reference.

The reference removes every edge subset of the given size and searches the
rest; it lives here only, as the oracle the label-based finders must match.
"""

import random
from itertools import combinations
from typing import List, Set, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normal7 import cuts_reductions
from normal7.cuts_reductions import (
    component_count,
    cycle_space_labels,
    find_2_edge_cuts,
    find_bridges,
    find_nontrivial_3_edge_cuts,
    star_product,
    two_cut_pairs,
)
from normal7.graph_core import PseudoGraph
from tests.corpora import corpus_graphs, random_pseudograph

# -- brute-force reference -------------------------------------------------------


def _adjacency(g: PseudoGraph) -> List[List[Tuple[int, int]]]:
    adj = [[] for _ in g.vertices()]
    for eid, u, v in g.edges():
        adj[u].append((eid, v))
        adj[v].append((eid, u))
    return adj


def _components(adj: List[List[Tuple[int, int]]], removed: Set[int]) -> List[Set[int]]:
    seen = [False] * len(adj)
    comps = []
    for s in range(len(adj)):
        if seen[s]:
            continue
        seen[s] = True
        comp, stack = {s}, [s]
        while stack:
            for e, w in adj[stack.pop()]:
                if not seen[w] and e not in removed:
                    seen[w] = True
                    comp.add(w)
                    stack.append(w)
        comps.append(comp)
    return comps


def brute_bridges(g: PseudoGraph) -> List[int]:
    adj = _adjacency(g)
    base = len(_components(adj, set()))
    return [e for e in g.edge_ids() if len(_components(adj, {e})) > base]


def _sided(g: PseudoGraph, edges: Tuple[int, ...], comps: List[Set[int]]):
    a, b = comps
    if 0 in b:
        a, b = b, a
    return (edges, frozenset(a), frozenset(b))


def brute_2_cuts(g: PseudoGraph):
    adj = _adjacency(g)
    non_loops = [e for e in g.edge_ids() if not g.is_loop(e)]
    out = []
    for pair in combinations(non_loops, 2):
        comps = _components(adj, set(pair))
        if len(comps) == 2:
            out.append(_sided(g, pair, comps))
    return out


def brute_3_cuts(g: PseudoGraph):
    adj = _adjacency(g)
    non_loops = [e for e in g.edge_ids() if not g.is_loop(e)]
    out = []
    for triple in combinations(non_loops, 3):
        comps = _components(adj, set(triple))
        if len(comps) != 2 or min(map(len, comps)) < 2:
            continue
        side = comps[0]
        if all((g.endpoints(e)[0] in side) != (g.endpoints(e)[1] in side) for e in triple):
            out.append(_sided(g, triple, comps))
    return out


def sided(cuts):
    return [(c.pair, c.side_a, c.side_b) for c in cuts]


def check_against_reference(g: PseudoGraph) -> None:
    """Every finder on g agrees with the reference, errors included."""
    bridges = brute_bridges(g)
    assert find_bridges(g) == bridges
    connected = g.is_connected()
    cuts2 = brute_2_cuts(g)
    if not connected or bridges:
        with pytest.raises(ValueError):
            find_2_edge_cuts(g)
    else:
        assert sided(find_2_edge_cuts(g)) == cuts2
    if not g.is_cubic() or not connected:
        with pytest.raises(ValueError):
            find_nontrivial_3_edge_cuts(g)
        return
    assert sided(find_nontrivial_3_edge_cuts(g)) == brute_3_cuts(g)


# -- generators -------------------------------------------------------------------


def pairing_cubic(rng: random.Random, n: int, simple: bool = True) -> PseudoGraph:
    """Pairing-model random cubic graph; redrawn until simple if asked."""
    while True:
        points = [v for v in range(n) for _ in range(3)]
        rng.shuffle(points)
        g = PseudoGraph.from_edges(n, zip(points[::2], points[1::2]))
        if not simple or g.is_simple():
            return g


def joined_by_two_cut(g1: PseudoGraph, g2: PseudoGraph, rng: random.Random):
    """Delete one edge from each graph and cross-join the four ends.

    Returns (graph, the two join edge ids, the vertices from g1).
    """
    e1, e2 = rng.choice(g1.edge_ids()), rng.choice(g2.edge_ids())
    n1 = g1.num_vertices
    edges = [(u, v) for e, u, v in g1.edges() if e != e1]
    edges += [(u + n1, v + n1) for e, u, v in g2.edges() if e != e2]
    (a1, b1), (a2, b2) = g1.endpoints(e1), g2.endpoints(e2)
    g = PseudoGraph.from_edges(n1 + g2.num_vertices, edges)
    joins = (g.add_edge(a1, a2 + n1), g.add_edge(b1, b2 + n1))
    return g, joins, frozenset(range(n1))


def genuine(g: PseudoGraph, cut) -> bool:
    comps = _components(_adjacency(g), set(cut.edges))
    return len(comps) == 2 and _sided(g, cut.pair, comps) == (cut.pair, cut.side_a, cut.side_b)


# -- tests ------------------------------------------------------------------------


class TestLabels:
    @pytest.mark.parametrize("seed", range(6))
    def test_tree_edge_label_is_xor_of_chords_whose_cycle_uses_it(self, seed):
        rng = random.Random(seed)
        g = random_pseudograph(rng, rng.randrange(1, 12), rng.randrange(0, 24))
        labels, chords = cycle_space_labels(g)
        assert sorted(labels) == g.edge_ids()
        tree = [e for e in g.edge_ids() if e not in chords]
        # the non-chords form a spanning forest
        assert len(tree) == g.num_vertices - len(g.connected_components())
        adj = {v: [] for v in g.vertices()}
        for e in tree:
            u, v = g.endpoints(e)
            adj[u].append((e, v))
            adj[v].append((e, u))

        def tree_path(u: int, v: int) -> Set[int]:
            back = {u: None}
            stack = [u]
            while stack:
                x = stack.pop()
                for e, y in adj[x]:
                    if y not in back:
                        back[y] = (e, x)
                        stack.append(y)
            path = set()
            while v != u:
                e, v = back[v]
                path.add(e)
            return path

        expected = {e: 0 for e in g.edge_ids()}
        for bit, c in enumerate(chords):
            for e in tree_path(*g.endpoints(c)) | {c}:
                expected[e] ^= 1 << bit
        assert labels == expected


class TestAgainstBruteForce:
    def test_census(self):
        count = 0
        for _, g in corpus_graphs():
            check_against_reference(g)
            count += 1
        assert count == 621

    @given(st.integers(1, 7), st.integers(0, 14), st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_small_multigraphs_with_loops_and_parallels(self, n, m, seed):
        check_against_reference(random_pseudograph(random.Random(seed), n, m))

    @given(st.sampled_from([2, 4, 6, 8]), st.integers(0, 10**6))
    @settings(max_examples=150, deadline=None)
    def test_small_cubic_multigraphs(self, n, seed):
        # pairing-model pseudographs: loops, parallels, bridges and several
        # components all occur
        check_against_reference(pairing_cubic(random.Random(seed), n, simple=False))


class TestPlantedCuts:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_star_product_join_is_a_nontrivial_3_cut(self, seed):
        rng = random.Random(seed)
        g1, g2 = pairing_cubic(rng, 40), pairing_cubic(rng, 40)
        sp = star_product(g1, rng.randrange(40), g2, rng.randrange(40))
        g = sp.graph
        assert g.num_vertices == 78
        cuts = find_nontrivial_3_edge_cuts(g)
        assert all(genuine(g, c) and min(len(c.side_a), len(c.side_b)) >= 2 for c in cuts)
        side1 = frozenset(sp.vmap1.values())
        assert (tuple(sorted(sp.joins)), side1) in {(c.pair, c.side_a) for c in cuts}

    @pytest.mark.parametrize("seed", [5, 17])
    def test_two_pieces_joined_through_a_2_cut(self, seed):
        rng = random.Random(seed)
        g, joins, side1 = joined_by_two_cut(pairing_cubic(rng, 40), pairing_cubic(rng, 40), rng)
        assert g.num_vertices == 80 and g.is_cubic()
        assert find_bridges(g) == brute_bridges(g) == []
        cuts = find_2_edge_cuts(g)
        assert sided(cuts) == brute_2_cuts(g)
        assert (joins, side1) in {(c.pair, c.side_a) for c in cuts}


def distinct_end_cuts(g: PseudoGraph) -> int:
    """The number of g's 2-cuts, once each is seen to have four distinct ends."""
    pairs = two_cut_pairs(g)
    assert all(len({v for e in p for v in g.endpoints(e)}) == 4 for p in pairs)
    return len(pairs)


class TestCubicTwoCutEnds:
    """No vertex of a bridgeless cubic graph is an end of both edges of a
    2-cut: its third edge would be a bridge.  The poor-edge recursion
    splits at the least 2-cut on that ground."""

    def test_census(self):
        assert sum(distinct_end_cuts(g) for _, g in corpus_graphs() if not find_bridges(g)) > 0

    def test_pairing_model_multigraphs(self):
        rng = random.Random(7)
        graphs = cuts = with_parallels = 0
        while graphs < 3000:
            g = pairing_cubic(rng, rng.randrange(2, 17, 2), simple=False)
            if g.is_connected() and not find_bridges(g):
                graphs += 1
                found = distinct_end_cuts(g)
                cuts += found
                with_parallels += found > 0 and not g.is_simple()
        assert cuts > graphs and with_parallels > 100


# -- the one-slot labelling memo -------------------------------------------------


def answers(g: PseudoGraph, query: str):
    """What one cut question says about g, a ValueError's text included."""
    try:
        if query == "labels":
            return cycle_space_labels(g)
        if query == "components":
            return component_count(g)
        if query == "bridges":
            return find_bridges(g)
        return sided(find_2_edge_cuts(g))
    except ValueError as exc:
        return str(exc)


class TestLabellingMemo:
    """cycle_space_labels answers from its slot only while the graph object
    and its mutation counter are the ones it labelled."""

    @pytest.mark.parametrize("seed", range(12))
    def test_answers_follow_every_mutation(self, seed):
        rng = random.Random(seed)
        g = random_pseudograph(rng, rng.randrange(1, 8), rng.randrange(0, 12))
        queries = ("labels", "components", "bridges", "2-cuts")
        for _ in range(60):
            op = rng.randrange(4)
            if op == 0:
                g.add_vertex()
            elif op == 1 or not g.edge_ids():
                u = rng.randrange(g.num_vertices)
                v = u if rng.random() < 0.2 else rng.randrange(g.num_vertices)
                g.add_edge(u, v)
            elif op == 2:
                g.add_edge(*g.endpoints(rng.choice(g.edge_ids())))  # a parallel edge
            else:
                g.remove_edge(rng.choice(g.edge_ids()))
            # g first, while the slot may still hold its previous state; then
            # the rebuilt graph, which takes the slot; then g twice more
            asked = rng.sample(queries, rng.randrange(1, 5))
            got = [answers(g, q) for q in asked]
            fresh = PseudoGraph.from_labeled_edges(g.num_vertices, list(g.edges()))
            assert got == [answers(fresh, q) for q in asked]
            assert [answers(g, q) for q in asked] == got
            assert [answers(g, q) for q in asked] == got
        assert component_count(g) == len(g.connected_components())

    def test_an_unchanged_graph_is_labelled_once(self, monkeypatch):
        computed = []
        label = cuts_reductions._label_cycle_space

        def counted(g):
            computed.append(g)
            return label(g)

        monkeypatch.setattr(cuts_reductions, "_label_cycle_space", counted)
        a, b = pairing_cubic(random.Random(1), 12), pairing_cubic(random.Random(2), 12)
        first = cycle_space_labels(a)
        find_bridges(a)
        component_count(a)
        assert cycle_space_labels(a)[0] is first[0]
        assert computed == [a]
        # labelling b replaces a's entry: the slot holds one graph
        cycle_space_labels(b)
        cycle_space_labels(a)
        assert computed == [a, b, a]
        # an equal copy is another object, so it is labelled on its own
        cycle_space_labels(a.copy())
        assert len(computed) == 4
        a.add_vertex()
        assert component_count(a) == len(a.connected_components())
        assert len(computed) == 5
