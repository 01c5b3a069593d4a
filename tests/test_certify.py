"""The claims' fixed graphs, the cycle-space plane sweep, and the exhaustive certificates."""

import json
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from normal7 import certify
from normal7.certify import (
    CLAIMS,
    Certificate,
    certify_fig6_flow_poor,
    certify_fig6_normal6,
    certify_gadget_K,
    certify_k33_three_rich,
    double_gadget_graph,
    find_gadget_sites,
    gadget_block_edges,
    k33_graph,
    k4_graph,
    run_claim,
    rung_lobes_graph,
    _cycle_planes,
    _interleave,
    _sweep_nowhere_zero,
    _verified_planes,
)
from normal7.cuts_reductions import cycle_space_labels
from normal7.flows_trees import GroupFlow, verify_flow
from normal7.graph_core import PseudoGraph, VerificationError
from tests.corpora import petersen, theta_graph

CLAIM_GRAPHS = {
    "k4": k4_graph,
    "k33": k33_graph,
    "double_gadget": double_gadget_graph,
    "rung_lobes": rung_lobes_graph,
}


def gadget_k_graph() -> PseudoGraph:
    """One near-K4 block with a pendant edge at its degree-2 vertex."""
    return PseudoGraph.from_edges(6, gadget_block_edges(0) + [(0, 5)])


class TestRegistry:
    """The fixed graphs the claims sweep."""

    def test_orders_and_sizes(self):
        expected = {
            "k4": (4, 6),
            "k33": (6, 9),
            "double_gadget": (10, 15),
            "rung_lobes": (10, 15),
        }
        for name, (n, m) in expected.items():
            g = CLAIM_GRAPHS[name]()
            assert (g.num_vertices, g.num_edges) == (n, m), name

    def test_degree_sequences(self):
        for name, build in CLAIM_GRAPHS.items():
            g = build()
            assert g.is_cubic() and g.is_simple(), name
        g = gadget_k_graph()
        assert sorted(g.degree(v) for v in g.vertices()) == [1, 3, 3, 3, 3, 3]

    def test_rung_lobes_edge_list_is_pinned(self):
        g = rung_lobes_graph()
        assert [g.endpoints(e) for e in sorted(g.edge_ids())] == [
            (0, 5), (0, 1), (0, 6), (5, 6), (5, 1),
            (1, 2), (6, 7), (2, 7), (2, 3), (7, 8),
            (3, 4), (3, 9), (8, 4), (8, 9), (4, 9),
        ]


class TestCertificateType:
    def test_verdict_invariants(self):
        Certificate("c", 1, "holds")
        Certificate("c", 1, "fails", "bad thing")
        Certificate("c", 0, "inconclusive")
        with pytest.raises(ValueError):
            Certificate("c", 1, "holds", "spurious counterexample")
        with pytest.raises(ValueError):
            Certificate("c", 1, "fails")
        with pytest.raises(ValueError):
            Certificate("c", 1, "maybe")

    def test_record_is_json(self):
        cert = Certificate("c", 7, "holds", None, {"k": 3})
        doc = json.loads(cert.to_record())
        assert doc["claim"] == "c"
        assert doc["universe"] == 7
        assert doc["details"] == {"k": 3}


def brute_force_conserving(g: PseudoGraph, k: int = 3):
    ids = g.edge_ids()
    out = set()
    for values in product(range(1 << k), repeat=len(ids)):
        ok = True
        for v in g.vertices():
            acc = 0
            for e in g.incident(v):
                acc ^= values[ids.index(e)]
            if acc:
                ok = False
                break
        if ok:
            out.add(values)
    return out


def sweep_cycle_space(g: PseudoGraph):
    """Reference sweep: every conserving Z_2^3 flow once, as a value list over
    edge ids, by an odometer over the coefficient vectors on the
    fundamental-cycle basis (lexicographic, from all zeros)."""
    labels, chords = cycle_space_labels(g)
    masks = [labels[e] for e in g.edge_ids()]
    dim = len(chords)
    values = [0] * len(masks)
    per_bit = [[i for i, mask in enumerate(masks) if mask >> bit & 1] for bit in range(dim)]
    coeffs = [0] * dim
    yield list(values)
    while True:
        pos = dim - 1
        while pos >= 0 and coeffs[pos] == 7:
            coeffs[pos] = 0
            for i in per_bit[pos]:
                values[i] ^= 7
            pos -= 1
        if pos < 0:
            return
        old = coeffs[pos]
        coeffs[pos] = old + 1
        for i in per_bit[pos]:
            values[i] ^= old ^ (old + 1)
        yield list(values)


def plane_flows(g: PseudoGraph):
    """Every flow of the plane table, one value list per index triple."""
    masks = _verified_planes(g)
    for a0, a1, a2 in product(range(len(masks)), repeat=3):
        yield _interleave(masks[a0], masks[a1], masks[a2], g.num_edges)


def plane_nowhere_zero(g: PseudoGraph):
    """The nowhere-zero flows of the plane sweep, one value list each: read
    on every edge, each flow is its own restriction, so the check sees each
    flow the sweep counts exactly once."""
    seen = []
    _, count, failure = _sweep_nowhere_zero(g, (1 << g.num_edges) - 1, seen.append)
    assert failure is None and count == len(seen)
    return seen


def packed(values):
    return bytes(values)  # every value is below 8


def loop_graph() -> PseudoGraph:
    return PseudoGraph.from_edges(2, [(0, 0), (0, 1), (0, 1), (1, 1)])


class TestCycleSpaceSweep:
    def test_matches_brute_force_on_theta(self):
        g = theta_graph()
        swept = sorted(tuple(v) for v in plane_flows(g))
        assert swept == sorted(brute_force_conserving(g))

    def test_matches_brute_force_with_loop(self):
        g = loop_graph()
        swept = sorted(tuple(v) for v in plane_flows(g))
        assert swept == sorted(brute_force_conserving(g))

    def test_k4_count_and_conservation(self):
        g = k4_graph()
        assert len({tuple(v) for v in plane_flows(g)}) == 512
        nz = 0
        for values in plane_nowhere_zero(g):
            assert 0 not in values
            nz += 1
            assert verify_flow(GroupFlow(g, 3, dict(zip(g.edge_ids(), values)))).conserving
        # flow polynomial of K4 at 8: 7 * 6 * 5
        assert nz == 210
        assert _sweep_nowhere_zero(g, 0, lambda values: None) == (512, 210, None)

    def test_starts_at_zero(self):
        assert _cycle_planes(petersen())[0] == 0
        first = next(iter(plane_flows(petersen())))
        assert set(first) == {0}


class TestPlaneTable:
    """A repeated mask is refused in tests/test_output_checks.py."""

    def test_rung_lobes_table(self):
        masks = _verified_planes(rung_lobes_graph())
        assert len(masks) == len(set(masks)) == 64

    def test_odd_mask_is_refused(self, monkeypatch):
        # a single edge meets its two ends once each
        monkeypatch.setattr(certify, "_cycle_planes", lambda g: [0, 1])
        with pytest.raises(VerificationError, match="odd number"):
            _verified_planes(PseudoGraph.from_edges(2, [(0, 1), (0, 1)]))


SWEEP_GRAPHS = {
    "theta": theta_graph,
    "loop": loop_graph,
    "k4": k4_graph,
    "k33": k33_graph,
    "rung_lobes": rung_lobes_graph,
}


class TestPlaneSweepMatchesOdometer:
    """The plane sweep and the reference odometer give the same flows."""

    @pytest.mark.parametrize("name", sorted(SWEEP_GRAPHS))
    def test_same_flows(self, name):
        g = SWEEP_GRAPHS[name]()
        reference = sorted(map(packed, sweep_cycle_space(g)))
        assert sorted(map(packed, plane_flows(g))) == reference
        nz = [v for v in reference if 0 not in v]
        assert sorted(map(packed, plane_nowhere_zero(g))) == nz

    @settings(max_examples=60, deadline=None)
    @given(
        sides=st.tuples(st.integers(1, 3), st.integers(1, 3)),
        picks=st.lists(
            st.tuples(st.booleans(), st.integers(0, 2), st.integers(0, 2)), max_size=7
        ),
    )
    def test_small_multigraphs(self, sides, picks):
        # two vertex blocks with no edge between them: at least two components
        n0, n1 = sides
        edges = [
            (u % n0, v % n0) if first else (n0 + u % n1, n0 + v % n1)
            for first, u, v in picks
        ]
        g = PseudoGraph.from_edges(n0 + n1, edges)
        dim = g.num_edges - g.num_vertices + len(g.connected_components())
        assume(dim <= 4)
        reference = [list(v) for v in sweep_cycle_space(g)]
        assert sorted(map(packed, plane_flows(g))) == sorted(map(packed, reference))
        nz = [v for v in reference if 0 not in v]
        assert sorted(map(packed, plane_nowhere_zero(g))) == sorted(map(packed, nz))
        # the memo and the first failure: a check reading two positions only
        last = g.num_edges - 1
        if last < 0:
            return
        read = 1 | 1 << last
        fails = [v for v in nz if v[0] == v[last]]
        universe, count, failure = _sweep_nowhere_zero(
            g, read, lambda values: values[0] if values[0] == values[last] else None
        )
        assert (universe, count) == (8 ** dim, len(nz))
        if fails:
            assert failure == (dict(zip(g.edge_ids(), fails[0])), fails[0][0])
        else:
            assert failure is None


def first_fig6_fault(g: PseudoGraph):
    """The counterexample the fig6-flow-poor claim reports on g: the first
    failing nowhere-zero flow of the reference sweep."""
    ids = g.edge_ids()
    index = {e: i for i, e in enumerate(ids)}
    u, w = g.endpoints(7)
    for values in sweep_cycle_space(g):
        if 0 in values:
            continue
        if values[index[5]] != values[index[6]]:
            return f"cut edges 5,6 differ in {dict(zip(ids, values))}"
        if len({values[index[e]] for e in g.incident(u) + g.incident(w)}) != 3:
            return f"rung not poor in {dict(zip(ids, values))}"
    return None


# edges 5 and 6 are a 2-edge-cut, and edge 7 is rich in some flow
RICH_RUNG_EDGES = [
    (1, 2), (0, 3), (1, 3), (2, 3), (4, 5), (1, 5),
    (0, 6), (0, 2), (4, 6), (4, 7), (5, 7), (6, 7),
]


class TestFailingFlowClaim:
    """On graphs where it fails, the plane sweep names the same flow as the
    reference sweep."""

    @pytest.mark.parametrize(
        "build, kind",
        [(k33_graph, "cut edges"), (lambda: PseudoGraph.from_edges(8, RICH_RUNG_EDGES), "rung")],
    )
    def test_first_counterexample(self, monkeypatch, build, kind):
        g = build()
        monkeypatch.setattr(certify, "rung_lobes_graph", build)
        cert = certify_fig6_flow_poor()
        assert cert.verdict == "fails"
        assert cert.counterexample == first_fig6_fault(g)
        assert cert.counterexample.startswith(kind)


class TestGadgetDetection:
    def test_double_gadget_has_two_sites(self):
        sites = find_gadget_sites(double_gadget_graph())
        assert [s.vertices for s in sites] == [(0, 1, 2, 3, 4), (5, 6, 7, 8, 9)]
        assert sites[0].k_edges == (0, 1, 2, 3, 4, 5, 6)
        assert sites[0].section_edge == 6
        assert sites[0].bridge == 14
        assert sites[1].k_edges == (7, 8, 9, 10, 11, 12, 13)

    def test_detection_is_label_independent(self):
        g0 = double_gadget_graph()
        relabel = {v: 9 - v for v in g0.vertices()}
        g = PseudoGraph.from_edges(
            10, [(relabel[u], relabel[v]) for _, u, v in g0.edges()]
        )
        sites = find_gadget_sites(g)
        assert len(sites) == 2
        assert sorted(sorted(s.vertices) for s in sites) == [
            [0, 1, 2, 3, 4], [5, 6, 7, 8, 9]
        ]
        assert {s.vertices[0] for s in sites} == {relabel[0], relabel[5]}

    def test_leaf_host_has_one_site(self):
        sites = find_gadget_sites(gadget_k_graph())
        assert len(sites) == 1
        assert sites[0].vertices == (0, 1, 2, 3, 4)

    def test_bridgeless_host_has_none(self):
        assert find_gadget_sites(petersen()) == []


class TestCertifyGadgetK:
    def test_double_gadget_holds(self):
        cert = certify_gadget_K(double_gadget_graph())
        assert cert.verdict == "holds"
        assert cert.details["colorings_7"] == 336
        assert cert.details["colorings_6"] == 0
        assert cert.universe == 336

    def test_prism_lobe_host_holds(self):
        edges = gadget_block_edges(0) + [(0, 11)]
        edges += [
            (5, 6), (6, 7), (7, 5), (8, 9), (9, 10), (10, 8),
            (5, 8), (6, 9), (7, 11), (11, 10),
        ]
        cert = certify_gadget_K(PseudoGraph.from_edges(12, edges))
        assert cert.verdict == "holds"
        assert cert.details["sites"] == [(0, 1, 2, 3, 4)]
        assert cert.details["colorings_7"] == 8064

    def test_budget_gives_inconclusive(self):
        cert = certify_gadget_K(double_gadget_graph(), budget=50)
        assert cert.verdict == "inconclusive"

    def test_bridgeless_host_is_rejected(self):
        with pytest.raises(ValueError):
            certify_gadget_K(petersen())


class TestCertifyClaims:
    def test_k33_three_rich(self):
        cert = certify_k33_three_rich()
        assert cert.verdict == "holds"
        assert cert.universe == 4096
        # flow polynomial of K33 at 8: 7 * 6 * 26
        assert cert.details["nowhere_zero_flows"] == 1092
        assert cert.details["two_rich_at_a_vertex_feasible"] is True
        # the analogous sweep on K4 does find a fully rich vertex
        assert cert.details["k4_three_rich_example"] is not None

    def test_fig6_normal6(self):
        cert = certify_fig6_normal6()
        assert cert.verdict == "holds"
        assert cert.details["three_edge_colorable"] is True
        assert cert.universe == cert.details["colorings_6"] > 0
        assert cert.details["probe_7_rich_rung"] == "rich rung found"

    def test_fig6_flow_poor(self):
        cert = certify_fig6_flow_poor()
        assert cert.verdict == "holds"
        assert cert.universe == 262144
        # 7 values on the left cut pair, 30 left-block flows for each,
        # 6 values for the right pair, 30 right-block flows for each
        assert cert.details["nowhere_zero_flows"] == 37800

    def test_run_claim(self):
        assert set(CLAIMS) == {
            "gadget-k", "k33-three-rich", "fig6-normal6", "fig6-flow-poor",
        }
        with pytest.raises(KeyError):
            run_claim("nonsense")
        cert = run_claim("fig6-flow-poor")
        assert cert.claim == "fig6-flow-poor"
