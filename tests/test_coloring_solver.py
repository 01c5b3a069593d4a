"""Coloring semantics, the verifier, flow conversion, and the exact solver."""

import itertools
import random

import pytest

from normal7 import certify
from normal7.coloring_solver import (
    EdgeColoring,
    EdgeStatus,
    ImproperColoringError,
    color_set,
    coloring_from_flow,
    edge_status,
    enumerate_normal_colorings,
    exact_chi_n,
    find_normal_coloring,
    is_normal,
    is_three_edge_colorable,
)
from normal7.cuts_reductions import find_bridges
from normal7.flows_trees import GroupFlow, nz_z23_flow
from normal7.graph_core import PseudoGraph, induced_subgraph
from normal7.normal7_pipeline import normal7_coloring

from tests.corpora import (
    cubic_census_upto,
    disjoint_union,
    k4,
    k33,
    petersen,
    prism,
    random_pseudograph,
    subdivided_k4_edges,
    theta_graph,
)
from tests.test_flows_trees import cycle_space_flows


def oracle_is_normal(g, colors, exempt=()):
    """Independent re-statement of the definition, sharing no solver code."""
    for v in g.vertices():
        cs = [colors[e] for e in set(g.incident(v))]
        if len(cs) != len(set(cs)):
            return False
    for e, u, v in g.edges():
        if e in exempt:
            continue
        around = set(g.incident(u)) | set(g.incident(v))
        if len({colors[x] for x in around}) not in (3, 5):
            return False
    return True


def brute_chi(g, k_max):
    """Exhaustive oracle over all k^m colorings, smallest palette first."""
    ids = g.edge_ids()
    for k in range(0, k_max + 1):
        for combo in itertools.product(range(1, k + 1), repeat=len(ids)):
            if oracle_is_normal(g, dict(zip(ids, combo))):
                return k
        if not ids:
            return 0
    return None


def spider():
    # A center edge with two cherries: vertices 0-1 carry leaves 2,3 and 4,5.
    return PseudoGraph.from_edges(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])


def cycle(n):
    return PseudoGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return PseudoGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


class TestColorSet:
    def test_cubic_vertex_sees_three(self):
        g = k4()
        c = EdgeColoring(g, 7, {0: 1, 1: 2, 2: 3, 3: 4, 4: 5, 5: 6})
        for v in g.vertices():
            assert len(color_set(c, v)) == 3

    def test_pendant_vertex_singleton(self):
        g = spider()
        c = EdgeColoring(g, 5, {0: 1, 1: 2, 2: 3, 3: 4, 4: 5})
        assert color_set(c, 2) == {2}

    def test_parallel_pair_with_third(self):
        g = PseudoGraph.from_edges(3, [(0, 1), (0, 1), (0, 2)])
        c = EdgeColoring(g, 3, {0: 1, 1: 2, 2: 3})
        assert color_set(c, 0) == {1, 2, 3}

    def test_uncolored_incident_edge(self):
        g = k4()
        c = EdgeColoring(g, 7, {0: 1})
        with pytest.raises(ValueError):
            color_set(c, 0)


class TestEdgeStatus:
    def test_k4_any_proper_3_coloring_all_poor(self):
        g = k4()
        ids = g.edge_ids()
        count = 0
        for combo in itertools.product((1, 2, 3), repeat=6):
            colors = dict(zip(ids, combo))
            if not all(
                len({colors[e] for e in set(g.incident(v))}) == 3
                for v in g.vertices()
            ):
                continue
            count += 1
            c = EdgeColoring(g, 3, colors)
            assert all(edge_status(c, e) == EdgeStatus.POOR for e in ids)
        assert count == 6  # one factorization times 3! palette orders

    def test_five_distinct_is_rich(self):
        g = spider()
        c = EdgeColoring(g, 5, {0: 1, 1: 2, 2: 3, 3: 4, 4: 5})
        assert edge_status(c, 0) == EdgeStatus.RICH

    def test_union_four_is_invalid(self):
        g = spider()
        c = EdgeColoring(g, 4, {0: 1, 1: 2, 2: 3, 3: 2, 4: 4})
        assert edge_status(c, 0) == EdgeStatus.INVALID

    def test_pendant_edge_at_cubic_vertex_poor(self):
        g = spider()
        c = EdgeColoring(g, 5, {0: 1, 1: 2, 2: 3, 3: 4, 4: 5})
        assert edge_status(c, 1) == EdgeStatus.POOR


class TestIsNormal:
    def test_petersen_identity_coloring_all_rich(self):
        g = petersen()
        c = EdgeColoring(g, 15, {e: e + 1 for e in g.edge_ids()})
        ok, report = is_normal(c)
        assert ok
        assert all(s == EdgeStatus.RICH for s in report.values())

    def test_k33_proper_3_coloring_all_poor(self):
        g = k33()
        colors = {e: ((u + v) % 3) + 1 for e, u, v in g.edges()}
        c = EdgeColoring(g, 3, colors)
        ok, report = is_normal(c)
        assert ok
        assert all(s == EdgeStatus.POOR for s in report.values())

    def test_improper_raises(self):
        g = k4()
        c = EdgeColoring(g, 7, {e: 1 for e in g.edge_ids()})
        with pytest.raises(ImproperColoringError):
            is_normal(c)

    def test_proper_but_not_normal(self):
        c = EdgeColoring(cycle(4), 2, {0: 1, 1: 2, 2: 1, 3: 2})
        ok, report = is_normal(c)
        assert not ok
        assert all(s == EdgeStatus.INVALID for s in report.values())

    def test_exempt_edges_skipped(self):
        g = cycle(4)
        colors = {0: 1, 1: 2, 2: 1, 3: 2}
        assert not is_normal(EdgeColoring(g, 2, colors, frozenset({0})))[0]
        assert is_normal(EdgeColoring(g, 2, colors, frozenset({0, 1, 2, 3})))[0]

    def test_uncolored_edge_raises(self):
        g = k4()
        with pytest.raises(ValueError):
            is_normal(EdgeColoring(g, 7, {0: 1}))

    def test_out_of_palette_raises(self):
        g = cycle(4)
        with pytest.raises(ValueError):
            is_normal(EdgeColoring(g, 2, {0: 1, 1: 2, 2: 1, 3: 3}))

    def test_loop_raises(self):
        g = PseudoGraph.from_edges(2, [(0, 0), (0, 1), (1, 1)])
        with pytest.raises(ImproperColoringError):
            is_normal(EdgeColoring(g, 3, {0: 1, 1: 2, 2: 3}))

    def test_matches_oracle_on_random_colorings(self):
        rng = random.Random(7)
        g = prism()
        ids = g.edge_ids()
        for _ in range(300):
            colors = {e: rng.randint(1, 5) for e in ids}
            c = EdgeColoring(g, 5, colors)
            try:
                got = is_normal(c)[0]
            except ImproperColoringError:
                got = None
            want = oracle_is_normal(g, colors)
            if got is None:
                assert not want
            else:
                assert got == want


class TestColoringFromFlow:
    def test_theta_flow_all_poor(self):
        g = theta_graph()
        c = coloring_from_flow(GroupFlow(g, 3, {0: 1, 1: 2, 2: 3}))
        assert c.k == 7
        ok, report = is_normal(c)
        assert ok
        assert all(s == EdgeStatus.POOR for s in report.values())

    def test_petersen_flow_coloring_normal(self):
        g = petersen()
        c = coloring_from_flow(nz_z23_flow(g))
        assert is_normal(c)[0]

    def test_k4_exhaustive_over_all_flows(self):
        g = k4()
        for values in cycle_space_flows(g, 3):
            if any(v == 0 for v in values.values()):
                continue
            c = coloring_from_flow(GroupFlow(g, 3, values))
            assert is_normal(c)[0]

    def test_zero_value_rejected(self):
        g = theta_graph()
        with pytest.raises(ValueError):
            coloring_from_flow(GroupFlow(g, 3, {0: 0, 1: 1, 2: 1}))

    def test_wrong_group_rejected(self):
        g = theta_graph()
        with pytest.raises(ValueError):
            coloring_from_flow(GroupFlow(g, 2, {0: 1, 1: 2, 2: 3}))

    def test_loop_rejected(self):
        g = PseudoGraph.from_edges(1, [(0, 0)])
        with pytest.raises(ValueError):
            coloring_from_flow(GroupFlow(g, 3, {0: 1}))

    def test_degree_four_rejected(self):
        g = PseudoGraph.from_edges(2, [(0, 1)] * 4)
        with pytest.raises(ValueError):
            coloring_from_flow(GroupFlow(g, 3, {0: 1, 1: 1, 2: 1, 3: 1}))


class TestSolverAgainstBruteForce:
    @pytest.mark.parametrize(
        "builder,expected",
        [
            (k4, 3),
            (theta_graph, 3),
            (lambda: cycle(4), 4),
            (lambda: cycle(5), 5),
            (prism, 3),
            (lambda: path(3), None),
            (lambda: PseudoGraph.from_edges(2, [(0, 1)]), None),
            (lambda: PseudoGraph.from_edges(3, []), 0),
        ],
    )
    def test_small_graphs(self, builder, expected):
        g = builder()
        assert brute_chi(g, 5) == expected
        res = exact_chi_n(g, 5)
        assert res.chi == expected
        assert not res.timed_out
        if expected is not None and g.num_edges:
            ok, _ = is_normal(res.witness)
            assert ok and oracle_is_normal(g, res.witness.colors)

    def test_k33_chi_three(self):
        g = k33()
        assert brute_chi(g, 3) == 3
        res = exact_chi_n(g, 7)
        assert res.chi == 3 and not res.timed_out

    def test_petersen_chi_five(self):
        res = exact_chi_n(petersen(), 7)
        assert res.chi == 5
        assert oracle_is_normal(petersen(), res.witness.colors)

    def test_monotone_in_palette(self):
        for builder in (k4, k33, prism):
            g = builder()
            base = exact_chi_n(g, 7).chi
            for k in range(base, 8):
                assert find_normal_coloring(g, k).chi == k

    def test_budget_times_out(self):
        res = find_normal_coloring(petersen(), 4, budget=50)
        assert res.timed_out and res.chi is None
        assert res.nodes_explored == 50

    def test_exact_chi_inconclusive_on_timeout(self):
        res = exact_chi_n(petersen(), 7, budget=50)
        assert res.timed_out and res.chi is None

    def test_deterministic(self):
        a = exact_chi_n(petersen(), 5)
        b = exact_chi_n(petersen(), 5)
        assert a.nodes_explored == b.nodes_explored
        assert a.witness.colors == b.witness.colors

    def test_loop_rejected(self):
        g = PseudoGraph.from_edges(1, [(0, 0)])
        with pytest.raises(ValueError):
            find_normal_coloring(g, 3)

    def test_degree_four_rejected(self):
        g = PseudoGraph.from_edges(5, [(0, i) for i in range(1, 5)])
        with pytest.raises(ValueError):
            find_normal_coloring(g, 3)


def _four_color_lemma_graphs():
    yield "petersen", petersen()
    yield "theta", theta_graph()
    yield "petersen+k4", disjoint_union(petersen(), k4())
    for i, g in enumerate(cubic_census_upto(12)):
        yield f"census-{i}", g


class TestFourColorLemma:
    """The reason exact_chi_n skips k = 4 on cubic graphs: a loopless cubic
    graph has a normal 4-coloring exactly when it is 3-edge-colorable, and
    each of its components then sees only 3 colors."""

    def test_k4_decides_as_three_edge_coloring(self):
        seen = 0
        for name, g in _four_color_lemma_graphs():
            res = find_normal_coloring(g, 4)
            assert not res.timed_out, name
            assert (res.chi is not None) == is_three_edge_colorable(g), name
            if res.chi is not None:
                assert len(set(res.witness.colors.values())) == 3, name
            seen += 1
        assert seen == 3 + 112


def _bridge_side(g, b, x):
    """H_x: the component of g - b holding x, plus b and its other end as a
    leaf; returned with the edge map from g."""
    y = g.other_endpoint(b, x)
    comp = next(c for c in g.connected_components(skip=(b,)) if x in c)
    side, _, emap = induced_subgraph(g, comp + [y])
    return side, emap


class TestBridgeSideLemma:
    """The reason exact_chi_n may refute a palette on one side of a bridge:
    a normal coloring of g restricts to a normal coloring of every side H_x
    whose near end x has degree 3, so a refuted side refutes g."""

    def test_census_colorings_restrict_to_every_side(self):
        bridged = 0
        refuted = []
        for g in cubic_census_upto(12):
            bridges = find_bridges(g)
            if not bridges:
                continue
            bridged += 1
            res = exact_chi_n(g, 7)
            sides = [_bridge_side(g, b, x) for b in bridges for x in g.endpoints(b)]
            for side, emap in sides:
                colors = {emap[e]: c for e, c in res.witness.colors.items() if e in emap}
                assert is_normal(EdgeColoring(side, res.chi, colors))[0]
            for k in (3, 5, 6, 7):
                if any(find_normal_coloring(side, k).chi is None for side, _ in sides):
                    whole = find_normal_coloring(g, k)
                    assert whole.chi is None and not whole.timed_out
                    refuted.append(k)
        # the five bridged graphs are the census's chi'_N = 7 graphs up to
        # n = 12, and a side refutes each of their palettes below 7
        assert bridged == 5
        assert sorted(refuted) == [3] * 5 + [5] * 5 + [6] * 5

    def test_a_degree_two_end_gives_no_side(self):
        """x = 10 has degree 2: on the side H_x the bridge 4-10 sees only the
        two colors at x, so that side is never normal though g is."""
        g = PseudoGraph.from_edges(
            11, subdivided_k4_edges(0, 4) + subdivided_k4_edges(5, 9) + [(4, 10), (10, 9)]
        )
        b = g.edges_between(4, 10)[0]
        assert b in find_bridges(g)
        side, _ = _bridge_side(g, b, 10)
        assert all(find_normal_coloring(side, k).chi is None for k in range(8))
        plain = [find_normal_coloring(g, k).chi for k in range(3, 8)]
        assert plain == [None, None, None, None, 7]
        assert exact_chi_n(g, 7).chi == 7


class TestEnumeration:
    def test_k4_one_class_of_normal_3_colorings(self):
        g = k4()
        res = enumerate_normal_colorings(g, 3)
        assert res.count == 1 and not res.timed_out
        ids = g.edge_ids()
        brute = sum(
            oracle_is_normal(g, dict(zip(ids, combo)))
            for combo in itertools.product((1, 2, 3), repeat=6)
        )
        assert brute == res.count * 6  # orbits under the 3! palette symmetry

    def test_cycle5_class_count_matches_brute(self):
        g = cycle(5)
        res = enumerate_normal_colorings(g, 5)
        ids = g.edge_ids()
        brute = sum(
            oracle_is_normal(g, dict(zip(ids, combo)))
            for combo in itertools.product((1, 2, 3, 4, 5), repeat=5)
        )
        # Every normal coloring of C5 uses exactly 5 colors, orbits are free.
        assert brute == res.count * 120

    def test_callback_can_abort(self):
        seen = []

        def cb(coloring):
            seen.append(dict(coloring.colors))
            return False

        res = enumerate_normal_colorings(k4(), 3, cb)
        assert res.count == 1 and len(seen) == 1

    def test_every_enumerated_coloring_is_normal(self):
        g = k33()

        def check(coloring):
            ok, _ = is_normal(coloring)
            assert ok
            return True

        res = enumerate_normal_colorings(g, 3, check)
        assert res.count >= 1


class TestThreeEdgeColorable:
    def test_known_values(self):
        assert is_three_edge_colorable(k4())
        assert is_three_edge_colorable(k33())
        assert not is_three_edge_colorable(petersen())

    def test_non_cubic_rejected(self):
        with pytest.raises(ValueError):
            is_three_edge_colorable(cycle(4))


def per_edge_is_normal(c):
    """Reference: the verifier that re-derives both endpoint color sets of
    every edge through edge_status, as is_normal did before its one pass."""
    g = c.graph
    for eid in g.edge_ids():
        if eid not in c.colors:
            raise ValueError(f"edge {eid} is uncolored")
        col = c.colors[eid]
        if not 1 <= col <= c.k:
            raise ValueError(f"color {col} outside palette 1..{c.k}")
    for v in g.vertices():
        seen = {}
        for eid in set(g.incident(v)):
            if g.is_loop(eid):
                raise ImproperColoringError(f"loop {eid} cannot be properly colored")
            col = c.colors[eid]
            if col in seen:
                raise ImproperColoringError(
                    f"edges {seen[col]} and {eid} share color {col} at vertex {v}"
                )
            seen[col] = eid
    report = {eid: edge_status(c, eid) for eid in g.edge_ids()}
    ok = all(
        status != EdgeStatus.INVALID
        for eid, status in report.items()
        if eid not in c.exempt
    )
    return ok, report


def outcome(verify, c):
    """What verify does on c: its result, or the type and message it raises."""
    try:
        return ("returns", verify(c))
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return ("raises", type(exc), str(exc))


def assert_same_verdict(c):
    got = outcome(is_normal, c)
    assert got == outcome(per_edge_is_normal, c), c.colors
    return got


@pytest.fixture(scope="module")
def census_colorings():
    return [normal7_coloring(g) for g in cubic_census_upto(14)]


def recolored(rng, c):
    """c with one seeded change: an edge takes its neighbour's color, takes a
    random color in 0..k+1, or loses its color."""
    g = c.graph
    colors = dict(c.colors)
    e = rng.choice(g.edge_ids())
    kind = rng.randrange(3)
    if kind == 0:
        v = rng.choice(g.endpoints(e))
        colors[e] = colors[rng.choice(g.incident(v))]
    elif kind == 1:
        colors[e] = rng.randint(0, c.k + 1)
    else:
        del colors[e]
    return EdgeColoring(g, c.k, colors, c.exempt)


class TestOnePassIsNormal:
    """is_normal agrees with the per-edge reference: verdict, report, and the
    type and message of anything it raises."""

    def test_census_pipeline_colorings(self, census_colorings):
        rng = random.Random(11)
        for c in census_colorings:
            assert assert_same_verdict(c)[1][0]
            ids = c.graph.edge_ids()
            exempt = frozenset(rng.sample(ids, rng.randint(1, len(ids))))
            assert_same_verdict(EdgeColoring(c.graph, c.k, c.colors, exempt))

    def test_claim_enumerations(self, monkeypatch):
        seen = []

        def both(c):
            seen.append(c)
            return assert_same_verdict(c)[1]

        monkeypatch.setattr(certify, "is_normal", both)
        assert certify.certify_gadget_K(certify.double_gadget_graph()).verdict == "holds"
        gadget = len(seen)
        assert certify.certify_fig6_normal6().verdict == "holds"
        assert gadget == 336 and len(seen) > gadget + 174

    def test_pendant_and_exempt_edges(self):
        block = [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (0, 5)]
        graphs = [PseudoGraph.from_edges(6, block), spider(), cycle(5)]
        for g in graphs:
            pendants = frozenset(
                e for e, u, v in g.edges() if 1 in (g.degree(u), g.degree(v))
            )
            count = 0

            def check(c):
                nonlocal count
                count += 1
                assert assert_same_verdict(c)[1][0]
                for exempt in (pendants, frozenset(g.edge_ids()[:1])):
                    assert_same_verdict(EdgeColoring(g, c.k, c.colors, exempt))
                return True

            enumerate_normal_colorings(g, 7, check)
            assert count > 0
        # every coloring of small subcubic graphs, normal or not
        for g in (spider(), path(4)):
            for combo in itertools.product(range(1, 5), repeat=g.num_edges):
                assert_same_verdict(EdgeColoring(g, 4, dict(zip(g.edge_ids(), combo))))

    def test_random_improper_recolorings(self, census_colorings):
        rng = random.Random(5)
        raised = set()
        for c in census_colorings:
            for _ in range(3):
                got = assert_same_verdict(recolored(rng, c))
                if got[0] == "raises":
                    raised.add(got[1])
        assert raised == {ValueError, ImproperColoringError}

    def test_loops_and_parallel_edges(self):
        rng = random.Random(3)
        raised = set()
        for _ in range(300):
            g = random_pseudograph(rng, rng.randint(1, 5), rng.randint(1, 7))
            colors = {e: rng.randint(1, 5) for e in g.edge_ids()}
            got = assert_same_verdict(EdgeColoring(g, 5, colors))
            if got[0] == "raises":
                raised.add(got[2].split()[0])
        assert raised == {"loop", "edges"}
