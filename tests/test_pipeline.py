"""Constructive coloring pipeline: pinned-status flows, pendant-block cases,
degree-1/3 recursion, bridge glue, and the replay certificates."""

import hashlib
import random
import sys
from pathlib import Path

import networkx as nx
import pytest

from normal7 import cuts_reductions, flows_trees, normal7_pipeline
from normal7.certify import gadget_block_edges
from normal7.coloring_solver import EdgeColoring, EdgeStatus, is_normal
from normal7.cuts_reductions import find_2_edge_cuts, find_bridges
from normal7.flows_trees import FlowCheck, GroupFlow, flow_edge_status, verify_flow
from normal7.graph_core import (
    PseudoGraph,
    VerificationError,
    attach_pendant,
    induced_subgraph,
    subdivide_edge,
)
from normal7.normal7_pipeline import (
    CaseTag,
    CertificateStep,
    IDENTITY_PERMUTATION,
    PendantBlockInput,
    PipelineVerificationError,
    build_glue_forest,
    color_degree13_graph,
    color_pendant_block,
    flow_edge_poor,
    flow_two_adjacent_rich,
    graph_fingerprint,
    normal7_coloring,
)
from perfbench import generators as gen
from perfbench import workloads
from perfbench.workloads import GADGET_HUBS
from tests.corpora import (
    cubic_census_upto,
    diamond_lobe_pair,
    disjoint_union,
    doubled_edge_cubic,
    fig6_graph,
    gadget_tree,
    k4,
    k33,
    long_ladder_graph,
    petersen,
    prism,
    prism_ring,
    theta_graph,
    three_bridge_star,
    two_bridge_chain,
)
from tests.test_golden_outputs import builds as golden_builds, merge_case_graph, relabeled
from tools.cut_probes import diamond_necklace, truncated_prism_ring_edges
from tools.verify_sweep import piece_copies


def adjacent_pairs(g: PseudoGraph):
    for v in g.vertices():
        inc = g.incident(v)
        for i in range(len(inc)):
            for j in range(i + 1, len(inc)):
                if inc[i] != inc[j]:
                    yield inc[i], inc[j]


def eid_between(g: PseudoGraph, u: int, v: int) -> int:
    ids = g.edges_between(u, v)
    assert len(ids) == 1
    return ids[0]


def pendant_ladder(length: int) -> PseudoGraph:
    """The ring piece of tools.cut_probes.pendant_ring: C_L x K2 with rung i
    subdivided at 2L + i and a pendant edge from there to 3L + i.  Every
    degree is 1 or 3 and every bridge is pendant."""
    edges = []
    for i in range(length):
        j, s = (i + 1) % length, 2 * length + i
        edges += [(i, j), (length + i, length + j), (i, s), (s, length + i), (s, 3 * length + i)]
    return PseudoGraph.from_edges(4 * length, edges)


class TestFlowEdgePoor:
    def test_theta_base_values(self):
        g = theta_graph()
        flow = flow_edge_poor(g, 0)
        assert [flow.values[e] for e in sorted(g.edge_ids())] == [1, 2, 3]

    @pytest.mark.parametrize(
        "builder", [k4, k33, petersen, prism, fig6_graph, long_ladder_graph]
    )
    def test_every_edge_poor(self, builder):
        g = builder()
        for e in g.edge_ids():
            flow = flow_edge_poor(g, e)
            check = verify_flow(flow)
            assert check.conserving and check.nowhere_zero
            assert flow_edge_status(flow, e) == "poor"

    def test_parallel_pair_graph(self):
        g = doubled_edge_cubic()
        for e in g.edge_ids():
            assert flow_edge_status(flow_edge_poor(g, e), e) == "poor"

    def test_disconnected_input(self):
        edges = list(k4().edges())
        g = PseudoGraph.from_edges(
            8, [(u, v) for _, u, v in edges] + [(u + 4, v + 4) for _, u, v in edges]
        )
        for e in (0, 7):
            flow = flow_edge_poor(g, e)
            assert verify_flow(flow).nowhere_zero
            assert flow_edge_status(flow, e) == "poor"

    def test_rejects_bridges_and_wrong_degrees(self):
        with pytest.raises(ValueError):
            flow_edge_poor(two_bridge_chain(), 0)
        with pytest.raises(ValueError):
            flow_edge_poor(PseudoGraph.from_edges(2, [(0, 1)]), 0)


class TestFlowRichPair:
    @pytest.mark.parametrize("builder", [k4, k33, petersen, prism])
    def test_all_adjacent_pairs_rich(self, builder):
        g = builder()
        for e, f in adjacent_pairs(g):
            flow = flow_two_adjacent_rich(g, e, f)
            check = verify_flow(flow)
            assert check.conserving and check.nowhere_zero
            assert flow_edge_status(flow, e) == "rich"
            assert flow_edge_status(flow, f) == "rich"

    def test_prism_covers_both_3cut_branches(self):
        # the rung cut is a nontrivial 3-cut; pick one pair inside a
        # triangle (no crossing) and one pair using a rung (one crossing)
        g = prism()
        inside = (eid_between(g, 0, 1), eid_between(g, 1, 2))
        crossing = (eid_between(g, 0, 1), eid_between(g, 1, 4))
        for e, f in (inside, crossing):
            flow = flow_two_adjacent_rich(g, e, f)
            assert flow_edge_status(flow, e) == "rich"
            assert flow_edge_status(flow, f) == "rich"

    def test_validation(self):
        g = petersen()
        with pytest.raises(ValueError):
            flow_two_adjacent_rich(g, 0, 0)
        with pytest.raises(ValueError):
            flow_two_adjacent_rich(g, 0, 2)  # not adjacent
        with pytest.raises(ValueError):
            flow_two_adjacent_rich(theta_graph(), 0, 1)  # too small
        with pytest.raises(ValueError):
            flow_two_adjacent_rich(fig6_graph(), 5, 8)  # has 2-cuts


def block_statuses(block, coloring):
    ok, statuses = is_normal(coloring)
    assert ok
    return statuses


class TestPendantBlock:
    def test_k4_blocks_behave_like_gadgets(self):
        g = k4()
        for e in g.edge_ids():
            block = PendantBlockInput.from_edge(g, e)
            steps = []
            col = color_pendant_block(block, steps)
            statuses = block_statuses(block, col)
            real = [
                d for d in block.g_prime.edge_ids() if d != block.bridge
            ]
            assert len(real) == 7
            assert all(statuses[d] is EdgeStatus.RICH for d in real)
            assert len({col.colors[d] for d in real}) == 7
            # the bridge copies the one block edge disjoint from e
            u0, w0 = g.endpoints(e)
            opposite = [
                d for d in g.edge_ids()
                if d != e and not ({u0, w0} & set(g.endpoints(d)))
            ]
            assert len(opposite) == 1
            assert col.colors[block.bridge] == col.colors[opposite[0]]
            assert steps[0].tag in (CaseTag.ThreeEC_Case1, CaseTag.ThreeEC_Case2)

    @pytest.mark.parametrize("eid", range(15))
    def test_petersen_blocks(self, eid):
        g = petersen()
        block = PendantBlockInput.from_edge(g, eid)
        steps = []
        col = color_pendant_block(block, steps)
        block_statuses(block, col)
        assert steps[0].tag in (CaseTag.ThreeEC_Case1, CaseTag.ThreeEC_Case2)

    def test_ladder_case_tags(self):
        cases = []
        for m, u, v in [
            (1, 2, 3),   # lobe edge away from the ladder
            (1, 0, 4),   # boundary rail edge
            (3, 4, 6),   # interior rail edge
            (3, 5, 7),   # interior rail edge on the other rail
            (3, 4, 5),   # first rung
            (3, 6, 7),   # last rung
            (4, 6, 8),   # interior rail, longer ladder
            (4, 6, 7),   # middle rung of three
        ]:
            g = diamond_lobe_pair(m)
            e = eid_between(g, u, v)
            block = PendantBlockInput.from_edge(g, e)
            steps = []
            col = color_pendant_block(block, steps)
            block_statuses(block, col)
            # renaming steps append after their recursive children, so the
            # dispatch case for the block is the last entry
            cases.append(steps[-1].tag)
        assert cases == [
            CaseTag.LadderAvoidsE,
            CaseTag.InitialEdge,
            CaseTag.Horizontal,
            CaseTag.Horizontal,
            CaseTag.Vertical,
            CaseTag.Vertical,
            CaseTag.Horizontal,
            CaseTag.Vertical,
        ]

    def test_ladder_avoids_e_prefers_far_cut(self):
        # an interior lobe edge of the m=1 pair sits beside both cuts; the
        # chosen ladder must be the one whose removal leaves e untouched
        g = diamond_lobe_pair(1)
        e = eid_between(g, 6, 7)
        block = PendantBlockInput.from_edge(g, e)
        steps = []
        col = color_pendant_block(block, steps)
        block_statuses(block, col)
        assert steps[-1].tag is CaseTag.LadderAvoidsE

    def test_doubled_edge_case(self):
        g = doubled_edge_cubic()
        copies = g.edges_between(0, 1)
        block = PendantBlockInput.from_edge(g, copies[0])
        steps = []
        col = color_pendant_block(block, steps)
        block_statuses(block, col)
        assert steps[0].tag is CaseTag.DoubledEdge
        # the untouched copy keeps a color distinct from both halves
        other = copies[1]
        assert col.colors[other] != col.colors[block.half_u]
        assert col.colors[other] != col.colors[block.half_w]

    def test_from_edge_rejects_foreign_parallels(self):
        g = doubled_edge_cubic()
        lone = eid_between(g, 4, 5)
        with pytest.raises(ValueError):
            PendantBlockInput.from_edge(g, lone)
        with pytest.raises(ValueError):
            PendantBlockInput.from_edge(theta_graph(), 0)

    def test_block_structure(self):
        g = fig6_graph()
        for e in g.edge_ids():
            block = PendantBlockInput.from_edge(g, e)
            gp = block.g_prime
            assert gp.is_simple()
            assert gp.degree(block.leaf) == 1
            assert sorted(gp.incident(block.v_e)) == sorted(
                [block.half_u, block.half_w, block.bridge]
            )
            col = color_pendant_block(block)
            assert set(col.colors) == set(gp.edge_ids())
            block_statuses(block, col)

    def test_census_blocks_upto_10(self):
        from normal7.cuts_reductions import find_2_edge_cuts, find_bridges

        for g in cubic_census_upto(10):
            if find_bridges(g):
                continue  # blocks need a bridgeless host
            for e in g.edge_ids():
                block = PendantBlockInput.from_edge(g, e)
                col = color_pendant_block(block)
                block_statuses(block, col)


class TestRichFrame:
    """Every frame _rich_frame reads satisfies the identities its docstring
    proves; the pipeline no longer asserts them at the call sites."""

    def test_frames_satisfy_their_identities(self, monkeypatch):
        real = normal7_pipeline._rich_frame
        callers = set()

        def checked(h, w, exclude):
            callers.add(sys._getframe(1).f_code.co_name)
            frame = real(h, w, exclude)
            theta, x, y, z = frame
            values = theta.values
            a, b = sorted(d for d in h.incident(w) if d != exclude)
            assert (values[a], values[b], values[exclude]) == (x ^ y, x ^ z, y ^ z)
            near = [values[d] for d in (a, b, exclude)]
            for d in (a, b):
                far = h.other_endpoint(d, w)
                near += [values[c] for c in h.incident(far) if c != d]
            assert len(near) == 7 and len(set(near)) == 6
            assert set(range(1, 8)) - set(near) == {x ^ y ^ z}
            return frame

        monkeypatch.setattr(normal7_pipeline, "_rich_frame", checked)
        graphs = [g for g in cubic_census_upto(14) if find_bridges(g)]
        graphs += [g for g in golden_builds() if g.is_simple()]
        for g in graphs:
            assert is_normal(normal7_coloring(g))[0]
        for ops in workloads.build("structured", 1, Path(__file__).resolve().parents[1]).rounds:
            for op in ops:
                assert workloads.check(op, workloads.call(op)) is None
        assert callers == {"_case_three_ec", "_case_initial_edge", "_rich_end_flow"}


class TestDegree13:
    def test_k2_has_no_normal_coloring(self):
        with pytest.raises(ValueError):
            color_degree13_graph(PseudoGraph.from_edges(2, [(0, 1)]))

    def test_three_star(self):
        g = PseudoGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
        steps = []
        col = color_degree13_graph(g, steps)
        assert sorted(col.colors.values()) == [1, 2, 3]
        assert steps[0].tag is CaseTag.Triangle

    def test_triangle_with_pendants(self):
        g = PseudoGraph.from_edges(
            6, [(0, 1), (1, 2), (2, 0), (0, 3), (1, 4), (2, 5)]
        )
        steps = []
        col = color_degree13_graph(g, steps)
        assert steps[0].tag is CaseTag.Triangle
        ok, statuses = is_normal(col)
        assert ok
        for v in (0, 1, 2):
            here = {col.colors[e] for e in g.incident(v)}
            assert here == {1, 2, 3}

    def test_single_pendant_suppression(self):
        g0 = k4()
        g1, new_v, _ = subdivide_edge(g0, 0)
        g, _, pendant = attach_pendant(g1, new_v)
        steps = []
        col = color_degree13_graph(g, steps)
        ok, statuses = is_normal(col)
        assert ok
        assert statuses[pendant] is EdgeStatus.POOR
        assert steps[0].tag is CaseTag.ManyPendant_t1

    def test_two_pendants_share_a_color(self):
        g0 = petersen()
        u, v = g0.endpoints(0)
        g1 = g0.copy()
        g1.remove_edge(0)
        g, _, p1 = attach_pendant(g1, u)
        g, _, p2 = attach_pendant(g, v)
        steps = []
        col = color_degree13_graph(g, steps)
        assert steps[0].tag is CaseTag.ManyPendant_t2
        assert col.colors[p1] == col.colors[p2]
        ok, _ = is_normal(col)
        assert ok

    def test_merge_case(self):
        g = merge_case_graph()
        pendants = [d for d in g.edge_ids() if 1 in map(g.degree, g.endpoints(d))]
        assert len(pendants) == 4
        steps = []
        col = color_degree13_graph(g, steps)
        assert CaseTag.Merge in [s.tag for s in steps]
        ok, statuses = is_normal(col)
        assert ok
        assert all(statuses[p] is EdgeStatus.POOR for p in pendants)

    def test_rejects_internal_bridge(self):
        g0 = prism()
        g1 = g0.copy()
        g1.remove_edge(eid_between(g0, 0, 3))
        g1.remove_edge(eid_between(g0, 1, 4))
        g = g1
        for v in (0, 1, 3, 4):
            g, _, _ = attach_pendant(g, v)
        with pytest.raises(ValueError):
            color_degree13_graph(g)

    def test_rejects_wrong_degrees(self):
        with pytest.raises(ValueError):
            color_degree13_graph(PseudoGraph.from_edges(3, [(0, 1), (1, 2)]))

    def test_disconnected_components(self):
        a = k4()
        edges = [(u, v) for _, u, v in a.edges()]
        edges += [(u + 4, v + 4) for _, u, v in a.edges()]
        g = PseudoGraph.from_edges(8, edges)
        col = color_degree13_graph(g)
        ok, _ = is_normal(col)
        assert ok

    def test_a_merge_chain_is_one_call(self, monkeypatch):
        # 201 pendant edges: 100 Merge levels down to ManyPendant_t1, all
        # peeled by one call with no nested one
        calls, depth = [], []
        color = normal7_pipeline.color_degree13_graph

        def counted(sub, trace=None):
            calls.append(len(depth))
            depth.append(sub)
            try:
                return color(sub, trace)
            finally:
                depth.pop()

        monkeypatch.setattr(normal7_pipeline, "color_degree13_graph", counted)
        steps = []
        assert is_normal(normal7_pipeline.color_degree13_graph(pendant_ladder(201), steps))[0]
        assert [s.tag for s in steps].count(CaseTag.Merge) >= 100
        assert calls == [0]

    @pytest.mark.parametrize("copies", [1, 2])
    def test_a_merge_chain_is_checked_once(self, monkeypatch, copies):
        # 20 pendant edges per component: 9 Merge levels, then
        # ManyPendant_t2, whose flow colors the last level with no check
        checks = []
        check = normal7_pipeline.is_normal

        def counted(col):
            checks.append(col.graph.num_vertices)
            return check(col)

        monkeypatch.setattr(normal7_pipeline, "is_normal", counted)
        g = disjoint_union(*[pendant_ladder(20)] * copies)
        steps = []
        color_degree13_graph(g, steps)
        assert [s.tag for s in steps] == ([CaseTag.Merge] * 9 + [CaseTag.ManyPendant_t2]) * copies
        assert checks == [g.num_vertices]

    def test_a_wrong_last_level_raises_with_every_merge(self, monkeypatch):
        # the last level's flow puts one color on every edge
        monkeypatch.setattr(
            normal7_pipeline, "nz_z23_flow", lambda h: GroupFlow(h, 3, dict.fromkeys(h.edge_ids(), 1))
        )
        with pytest.raises(PipelineVerificationError, match="improper") as err:
            color_degree13_graph(pendant_ladder(20))
        assert [s.tag for s in err.value.trace] == [CaseTag.Merge] * 9 + [CaseTag.ManyPendant_t2]


class TestNormal7Coloring:
    def test_bridgeless_goes_through_flow(self):
        steps = []
        col = normal7_coloring(petersen(), steps)
        ok, _ = is_normal(col)
        assert ok
        assert [s.tag for s in steps] == [CaseTag.ManyPendant_t0]
        assert steps[0].permutation == IDENTITY_PERMUTATION

    def test_double_gadget_needs_all_seven(self):
        g = PseudoGraph.from_edges(
            10,
            [
                (0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4),
                (5, 6), (5, 7), (6, 8), (6, 9), (7, 8), (7, 9), (8, 9),
                (0, 5),
            ],
        )
        bridge = eid_between(g, 0, 5)
        col = normal7_coloring(g)
        ok, statuses = is_normal(col)
        assert ok
        assert len(set(col.colors.values())) == 7
        assert statuses[bridge] is EdgeStatus.POOR
        # both block section edges repeat the bridge color
        assert col.colors[eid_between(g, 3, 4)] == col.colors[bridge]
        assert col.colors[eid_between(g, 8, 9)] == col.colors[bridge]

    @pytest.mark.parametrize("builder", [three_bridge_star, two_bridge_chain])
    def test_bridged_graphs(self, builder):
        g = builder()
        steps = []
        col = normal7_coloring(g, steps)
        ok, statuses = is_normal(col)
        assert ok
        for b in find_bridges(g):
            assert statuses[b] is EdgeStatus.POOR
        assert any(s.tag is CaseTag.Glue for s in steps)

    def test_deterministic_replay(self):
        g = two_bridge_chain()
        s1, s2 = [], []
        c1 = normal7_coloring(g, s1)
        c2 = normal7_coloring(g, s2)
        assert c1.colors == c2.colors
        assert s1 == s2
        assert all(isinstance(s, CertificateStep) for s in s1)

    def test_fingerprint_is_stable_and_mark_sensitive(self):
        g = petersen()
        assert graph_fingerprint(g) == graph_fingerprint(petersen())
        assert graph_fingerprint(g, 1) != graph_fingerprint(g, 2)

    def test_shared_prefix_matches_graph_fingerprint(self):
        g = two_bridge_chain()
        e = find_bridges(g)[0]
        rows = sorted((min(u, v), max(u, v), eid) for eid, u, v in g.edges())
        prefix = normal7_pipeline._fingerprint_prefix(g)
        for marks in [(), (e,), tuple(g.edge_ids()) * 3]:
            payload = "{}|{}|{}".format(g.num_vertices, rows, marks)
            want = hashlib.sha256(payload.encode()).hexdigest()[:16]
            # the prefix is reused across marks, so copying must not consume it
            assert normal7_pipeline._marked_fingerprint(prefix, marks) == want
            assert graph_fingerprint(g, *marks) == want

    def test_large_bridge_caterpillar(self):
        # a path of hubs, each with its own near-K4 block; a block at each
        # end of the path makes every hub a vertex on three bridges
        hubs = 166
        bases = [hubs + 5 * i for i in range(hubs + 2)]
        edges = [d for base in bases for d in gadget_block_edges(base)]
        edges += [(h, h + 1) for h in range(hubs - 1)]
        edges += [(h, bases[h]) for h in range(hubs)]
        edges += [(bases[hubs], 0), (bases[hubs + 1], hubs - 1)]
        g = PseudoGraph.from_edges(hubs + 5 * len(bases), edges)
        assert g.num_vertices >= 1000 and g.is_cubic() and g.is_simple()
        bridges = find_bridges(g)
        assert len(bridges) == 2 * hubs + 1
        steps = []
        col = normal7_coloring(g, steps)
        ok, statuses = is_normal(col)
        assert ok
        assert all(statuses[b] is EdgeStatus.POOR for b in bridges)
        assert sum(s.tag is CaseTag.Glue for s in steps) == len(bridges) + 1  # one root

    def test_large_prism_ring(self):
        # C_1600 x K2 has no bridge and no 2-edge-cut, so the whole graph
        # goes to one packing of three trees in its doubled edges
        g = prism_ring(1600)
        assert not find_bridges(g) and not find_2_edge_cuts(g)
        ok, _ = is_normal(normal7_coloring(g))
        assert ok

    def test_disconnected(self):
        a = k4()
        edges = [(u, v) for _, u, v in a.edges()]
        edges += [(u + 4, v + 4) for _, u, v in a.edges()]
        col = normal7_coloring(PseudoGraph.from_edges(8, edges))
        ok, _ = is_normal(col)
        assert ok

    @pytest.mark.parametrize(
        "build",
        [
            lambda: disjoint_union(three_bridge_star(), petersen()),
            lambda: disjoint_union(petersen(), three_bridge_star()),
            # a 3-bridge hub is the smallest vertex of its component, so a
            # singleton piece is the root there
            lambda: disjoint_union(three_bridge_star(), relabeled(three_bridge_star(), 1)),
            lambda: disjoint_union(relabeled(three_bridge_star(), 2), three_bridge_star()),
        ],
        ids=["star+petersen", "petersen+star", "hub0+relabelled", "relabelled+hub16"],
    )
    def test_disconnected_with_bridges(self, build):
        g = build()
        steps = []
        ok, statuses = is_normal(normal7_coloring(g, steps))
        assert ok
        bridges = find_bridges(g)
        assert all(statuses[b] is EdgeStatus.POOR for b in bridges)
        # one root step per component of g, one step per bridge
        tags = [s.tag for s in steps]
        assert tags.count(CaseTag.Glue) == len(bridges) + len(g.connected_components())

    def test_validation(self):
        with pytest.raises(ValueError):
            normal7_coloring(theta_graph())
        with pytest.raises(ValueError):
            normal7_coloring(PseudoGraph.from_edges(2, [(0, 1)]))

    def test_census_upto_10(self):
        for g in cubic_census_upto(10):
            col = normal7_coloring(g)
            ok, _ = is_normal(col)
            assert ok
            assert col.k == 7


class TestLabellingWork:
    """How many cycle-space labellings a coloring computes, not how many cut
    questions it asks: each graph state is labelled once, and every bridge,
    2-cut, 3-cut and connectivity question on it reads that labelling."""

    def labellings(self, monkeypatch, g):
        """The vertex count of each graph labelled while g is colored."""
        computed = []
        label = cuts_reductions._label_cycle_space

        def counted(h):
            computed.append(h.num_vertices)
            return label(h)

        monkeypatch.setattr(cuts_reductions, "_label_cycle_space", counted)
        assert is_normal(normal7_coloring(g))[0]
        monkeypatch.undo()
        return computed

    @pytest.mark.parametrize("build", [petersen, lambda: prism_ring(200)], ids=["petersen", "C_200xK2"])
    def test_a_bridgeless_graph_is_labelled_once(self, monkeypatch, build):
        # the pipeline's bridge check, nz_z23_flow's and the 2-cut search
        # were three passes
        g = build()
        assert self.labellings(monkeypatch, g) == [g.num_vertices]

    @pytest.mark.parametrize("hubs, seed", [(1, 0), (5, 1), (40, 2)])
    def test_a_gadget_tree_is_labelled_twice_per_block_class(self, monkeypatch, hubs, seed):
        # the whole tree once (its bridges, then the glue forest's: two
        # passes); then, for the one class of near-K4 blocks, the piece with
        # its pendant edge and the K4 left when the pendant is suppressed,
        # whose bridge and cut checks (block input, 2-cuts, the rich pair's
        # three, the matching's) were six passes.  Every later block copies
        # the first one's coloring and is not labelled (was [6, 4] per block)
        g = gadget_tree(hubs, seed)
        assert self.labellings(monkeypatch, g) == [g.num_vertices, 6, 4]


class TestCutSearches:
    """The pinned-flow recursions split at the least cut and build its sides
    once: their component searches grow with the number of splits, not with
    the number of cuts or 3-cut candidates per level (which made 651
    searches for 21 splits on the 120-vertex ring)."""

    RING = PseudoGraph.from_edges(120, truncated_prism_ring_edges(20))
    NECKLACE = diamond_necklace(10)

    @pytest.mark.parametrize(
        "graph, solve",
        [
            (RING, lambda g: flow_two_adjacent_rich(g, *sorted(g.incident(0))[:2])),
            (RING, lambda g: flow_edge_poor(g, 0)),
            (NECKLACE, lambda g: flow_edge_poor(g, 0)),  # inside a diamond
            (NECKLACE, lambda g: flow_edge_poor(g, 5)),  # a ring edge, in a cut
        ],
        ids=["ring-rich", "ring-poor", "necklace-poor-inside", "necklace-poor-on-cut"],
    )
    def test_searches_grow_with_the_splits(self, monkeypatch, graph, solve):
        counts = {"searches": 0, "splits": 0}
        paused = []
        search, nz = PseudoGraph.connected_components, normal7_pipeline.nz_z23_flow

        def counted(h, skip=()):
            counts["searches"] += not paused
            return search(h, skip)

        def nz_flow(h):
            # nz_z23_flow's own 2-cut recursion still builds every cut's
            # sides; only the pinned-flow recursions are counted
            paused.append(h)
            try:
                return nz(h)
            finally:
                paused.pop()

        monkeypatch.setattr(PseudoGraph, "connected_components", counted)
        monkeypatch.setattr(normal7_pipeline, "nz_z23_flow", nz_flow)
        for name in ("two_cut_reduction", "three_cut_reduction"):

            def split(*args, _reduce=getattr(normal7_pipeline, name), **kwargs):
                counts["splits"] += 1
                return _reduce(*args, **kwargs)

            monkeypatch.setattr(normal7_pipeline, name, split)
        flow = solve(graph)
        monkeypatch.undo()
        assert verify_flow(flow) == FlowCheck(True, True)
        assert counts["splits"] >= 8
        # one per split (the 3-cut taken, whose sides the reduction reuses,
        # or the 2-cut reduction's own search), plus flow_edge_poor's one
        # search for the components of g
        assert counts["searches"] <= counts["splits"] + 1


def pieces_of(g: PseudoGraph):
    """The pieces normal7_coloring colors: each bridgeless piece of g with a
    pendant edge at every boundary vertex."""
    forest = build_glue_forest(g)
    for verts in forest.components:
        if len(verts) > 1:
            sub = induced_subgraph(g, verts)[0]
            for v in sorted(sub.vertices()):
                if sub.degree(v) == 2:
                    sub = attach_pendant(sub, v)[0]
            yield sub


def as_networkx(g: PseudoGraph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(g.vertices())
    h.add_edges_from((u, v) for _, u, v in g.edges())
    return h


def vertex_map_of(a: PseudoGraph, b: PseudoGraph, edge_map: dict) -> dict:
    """The vertex bijection a -> b under which edge_map sends every edge of a
    onto the edge of b between the images of its ends; fails if there is
    none.  A vertex of degree 2 or more goes to the one end its edges'
    images share, a leaf to the end of its edge's image left free."""
    vmap = {}
    for v in a.vertices():
        if a.degree(v) > 1:
            (vmap[v],) = set.intersection(*(set(b.endpoints(edge_map[e])) for e in a.incident(v)))
    for v in a.vertices():
        if a.degree(v) == 1:
            (e,) = a.incident(v)
            (vmap[v],) = set(b.endpoints(edge_map[e])) - {vmap[a.other_endpoint(e, v)]}
    assert sorted(vmap.values()) == list(b.vertices())
    for e, u, v in a.edges():
        assert set(b.endpoints(edge_map[e])) == {vmap[u], vmap[v]}
    return vmap


def reference_piece_profile(g: PseudoGraph, verts):
    """(invariant, adj, depth, rows) of the piece of g on verts, the plain
    way: rows in induced_subgraph then attach_pendant order, adjacency from
    the rows, depths from the leaves by frontier sets, and the sorted depth
    pairs of the edges.  The reference _read_piece must match."""
    index = {v: i for i, v in enumerate(verts)}
    rows, pendants = [], []
    for i, v in enumerate(verts):
        for e in g.incident(v):
            a, b = g.endpoints(e)
            j = index.get(b if a == v else a)
            if j is None:
                pendants.append((e, i, len(verts) + len(pendants)))
            elif i < j:
                rows.append((e, i, j))
    rows = sorted(rows) + pendants
    n = len(verts) + len(pendants)
    adj = [[] for _ in range(n)]
    for _, u, v in rows:
        adj[u].append(v)
        adj[v].append(u)
    depth = [n + 1] * n
    frontier = [v for v in range(n) if len(adj[v]) == 1]
    d = 0
    while frontier:
        d += 1
        for v in frontier:
            depth[v] = d
        frontier = list({w for v in frontier for w in adj[v] if depth[w] > n})
    pairs = sorted(
        (depth[u], depth[v]) if depth[u] < depth[v] else (depth[v], depth[u]) for _, u, v in rows
    )
    return (n, tuple(pairs)), adj, depth, rows


def reference_canonical_edges(adj, depth, rows):
    """The refined key, the plain way: colour refinement from the depths,
    then a breadth-first numbering by (class, label).  The reference
    _canonical_edges must match."""
    n = len(adj)
    cls = depth
    count = len(set(cls))
    cols = list(zip(*(a + [n] * (3 - len(a)) for a in adj)))
    while count < n:
        padded = cls + [0]
        x, y, z = ([padded[w] for w in col] for col in cols)
        sig = [
            (c, p + q + r, p * p + q * q + r * r, p * q * r)
            for c, p, q, r in zip(cls, x, y, z)
        ]
        number = {key: i for i, key in enumerate(sorted(set(sig)), 1)}
        if len(number) == count:
            break
        count = len(number)
        cls = [number[key] for key in sig]
    ranked = sorted(range(n), key=lambda v: (cls[v], v))
    pos = [0] * n
    for i, v in enumerate(ranked):
        pos[v] = i
    new = [-1] * n
    order = []
    for s in ranked:
        if new[s] >= 0:
            continue
        head = len(order)
        new[s] = head
        order.append(s)
        while head < len(order):
            for w in sorted(adj[order[head]], key=pos.__getitem__):
                if new[w] < 0:
                    new[w] = len(order)
                    order.append(w)
            head += 1
    pairs = sorted(
        ((new[u], new[v]) if new[u] < new[v] else (new[v], new[u]), e) for e, u, v in rows
    )
    return (n, tuple(p for p, _ in pairs)), [e for _, e in pairs]


class Everything:
    """Holds every invariant, so _read_piece computes every first key."""

    def __contains__(self, invariant):
        return True


def read_of(piece: PseudoGraph):
    """A standalone piece read as normal7_coloring reads a piece of g whose
    invariant another piece shares: its vertices of degree 2 or more, each
    leaf edge standing for a bridge."""
    verts = [v for v in piece.vertices() if piece.degree(v) > 1]
    return normal7_pipeline._read_piece(piece, verts, Everything())


def piece_copy_tree(copies: int, seed: int) -> PseudoGraph:
    rng = random.Random(seed)
    n, edges = piece_copies(copies, rng)
    return PseudoGraph.from_edges(n, edges)


def benchmark_trees(seed: int):
    """Relabelled gadget trees, piece trees and ladder chains at the sizes
    of the structured workload, drawn as it draws them."""
    rng = random.Random(f"test_pipeline/{seed}")
    built = [gen.gadget_tree(h, rng) for h in GADGET_HUBS]
    built += [gen.piece_tree(6, 16, rng), gen.ladder_chain(4, rng), gen.ladder_chain(4, rng)]
    return [gen.relabeled(n, edges, rng) for n, edges in built]


class TestPieceMemo:
    """normal7_coloring colors each isomorphism class of piece once per call:
    a later piece whose first or refined key equals a colored piece's takes
    its colors through the two numberings, edge i of the key onto edge i."""

    def assert_equal_keys_are_isomorphisms(self, pieces):
        """For the first keys and the refined keys on their own: pieces with
        equal keys are isomorphic, edge i of one key onto edge i of the
        other.  Returns the distinct keys of each tier."""
        tiers = ({}, {})
        for sub in pieces:
            read = read_of(sub)
            for held, (key, eids) in zip(tiers, (read.first, normal7_pipeline._canonical_edges(read))):
                assert sorted(eids) == sub.edge_ids()
                if key not in held:
                    held[key] = (sub, eids)
                    continue
                rep, rep_eids = held[key]
                assert nx.is_isomorphic(as_networkx(sub), as_networkx(rep))
                assert read.invariant == read_of(rep).invariant
                vertex_map_of(sub, rep, dict(zip(eids, rep_eids)))
        return tiers

    def test_equal_keys_are_isomorphisms_on_census_pieces(self):
        pieces = [p for g in cubic_census_upto(14) if find_bridges(g) for p in pieces_of(g)]
        for keys in self.assert_equal_keys_are_isomorphisms(pieces):
            assert len(keys) < len(pieces)  # some keys are shared

    @pytest.mark.parametrize("copies, seed", [(2, 0), (6, 1), (12, 2), (12, 3)])
    def test_equal_keys_are_isomorphisms_on_piece_trees(self, copies, seed):
        # the copies are the same labelled piece: relabel each on its own
        pieces = [relabeled(p, seed + i) for i, p in enumerate(pieces_of(piece_copy_tree(copies, seed)))]
        first_keys, refined_keys = self.assert_equal_keys_are_isomorphisms(pieces)
        # the relabelled copies share a refined key, and so do the near-K4
        # blocks; label ties can split the copies' first keys
        assert len(refined_keys) == 2
        assert 2 <= len(first_keys) <= copies + 1

    def test_a_near_k4_piece_has_one_key_under_relabelling(self):
        # no refinement round splits a depth class of a near-K4 block, so
        # its first key is its refined key, whatever the labels
        piece = next(pieces_of(gadget_tree(1, 0)))
        keys = set()
        for seed in range(60):
            read = read_of(relabeled(piece, seed))
            keys |= {read.first[0], normal7_pipeline._canonical_edges(read)[0]}
        assert len(keys) == 1

    def test_the_read_and_the_refined_key_match_the_reference(self):
        # pieces read off g: every bridged census graph up to 14 vertices,
        # trees at the benchmark's sizes, and piece-copy trees
        graphs = [g for g in cubic_census_upto(14) if find_bridges(g)]
        graphs += benchmark_trees(0) + benchmark_trees(1)
        graphs += [relabeled(piece_copy_tree(copies, seed), seed) for seed in range(3) for copies in (2, 12)]
        for g in graphs:
            for verts in build_glue_forest(g).components:
                if len(verts) == 1:
                    continue
                invariant, adj, depth, rows = reference_piece_profile(g, verts)
                read = normal7_pipeline._read_piece(g, verts, Everything())
                assert (read.invariant, read.depth, read.rows) == (invariant, depth, rows)
                assert [sorted(a) for a in read.adj] == [sorted(a) for a in adj]
                assert normal7_pipeline._canonical_edges(read) == reference_canonical_edges(adj, depth, rows)
                # the read keys a piece only when its invariant is shared
                assert normal7_pipeline._read_piece(g, verts, ()) == read._replace(first=None)

    def colored_sizes(self, monkeypatch, g, steps):
        """The vertex counts of the graphs color_degree13_graph is called on
        while normal7_coloring colors g into steps: one call per piece it
        colors, whose Merge levels the call peels itself."""
        calls = []
        color = normal7_pipeline.color_degree13_graph

        def counted(sub, trace=None):
            calls.append(sub.num_vertices)
            return color(sub, trace)

        with monkeypatch.context() as patch:
            patch.setattr(normal7_pipeline, "color_degree13_graph", counted)
            assert is_normal(normal7_coloring(g, steps))[0]
        return calls

    @pytest.mark.parametrize(
        "build", [lambda: gadget_tree(200, 4), three_bridge_star], ids=["gadget_tree_200", "three_bridge_star"]
    )
    def test_one_piece_is_colored_per_call(self, monkeypatch, build):
        g = build()
        steps = []
        assert self.colored_sizes(monkeypatch, g, steps) == [6]
        # every block still has its own steps in the trace
        pieces = len(list(pieces_of(g)))
        tags = [s.tag for s in steps]
        assert tags.count(CaseTag.ManyPendant_t1) == pieces

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_copies_of_a_larger_piece_are_colored_once(self, monkeypatch, seed):
        # piece_copies draws its piece first, so both trees are made of
        # copies of one 19-vertex piece with three pendants
        two, twelve = (
            self.colored_sizes(monkeypatch, relabeled(piece_copy_tree(copies, seed), seed), [])
            for copies in (2, 12)
        )
        assert 22 in two
        assert sorted(twelve) == sorted(two)

    def test_a_piece_is_read_off_g_as_the_built_piece(self):
        # the rows _read_piece reads off g are the edges of the piece that
        # induced_subgraph and attach_pendant build, in their order, each
        # labelled with the id in g of the edge it is or stands for
        for g in cubic_census_upto(14):
            if not find_bridges(g):
                continue
            for verts in build_glue_forest(g).components:
                if len(verts) == 1:
                    continue
                sub, _, emap = induced_subgraph(g, verts)
                ids = {loc: e for e, loc in emap.items()}
                for v in sorted(sub.vertices()):
                    if sub.degree(v) == 2:
                        sub, _, pe = attach_pendant(sub, v)
                        (ids[pe],) = set(g.incident(verts[v])) - set(emap)
                rows = normal7_pipeline._read_piece(g, verts, ()).rows
                assert [(e, {u, v}) for e, u, v in rows] == [(ids[loc], {u, v}) for loc, u, v in sub.edges()]

    def built_and_colored(self, monkeypatch, g):
        """(piece graphs normal7_coloring builds, color_degree13_graph calls
        it makes itself, not counting their recursion) while it colors g."""
        built, top, depth = [], [], []
        induce = normal7_pipeline.induced_subgraph
        color = normal7_pipeline.color_degree13_graph

        def induced(h, keep):
            built.append(h)
            return induce(h, keep)

        def counted(sub, trace=None):
            if not depth:
                top.append(sub.num_vertices)
            depth.append(sub)
            try:
                return color(sub, trace)
            finally:
                depth.pop()

        with monkeypatch.context() as patch:
            patch.setattr(normal7_pipeline, "induced_subgraph", induced)
            patch.setattr(normal7_pipeline, "color_degree13_graph", counted)
            assert is_normal(normal7_coloring(g))[0]
        return len(built), len(top)

    @pytest.mark.parametrize(
        "build", [lambda: gadget_tree(200, 4), three_bridge_star], ids=["gadget_tree_200", "three_bridge_star"]
    )
    def test_a_copied_piece_builds_no_graph(self, monkeypatch, build):
        # the pieces after the first copy its colors and build no graph
        assert self.built_and_colored(monkeypatch, build()) == (1, 1)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_a_graph_is_built_per_colored_piece(self, monkeypatch, seed):
        for copies in (2, 12):
            built, colored = self.built_and_colored(monkeypatch, relabeled(piece_copy_tree(copies, seed), seed))
            assert built == colored == 2

    def refined_keys(self, monkeypatch, g):
        """How many refined keys normal7_coloring computes while it colors g;
        the first keys, which _read_piece numbers unrefined, do not count."""
        calls = []
        keyed = normal7_pipeline._canonical_edges

        def counted(piece, refine=True):
            if refine:
                calls.append(piece)
            return keyed(piece, refine)

        with monkeypatch.context() as patch:
            patch.setattr(normal7_pipeline, "_canonical_edges", counted)
            assert is_normal(normal7_coloring(g))[0]
        return len(calls)

    def test_a_gadget_tree_computes_one_refined_key(self, monkeypatch):
        # the first block is keyed both ways once the second shares its
        # invariant, and the 201 later blocks all match its first key
        assert self.refined_keys(monkeypatch, gadget_tree(200, 4)) == 1

    @pytest.mark.parametrize("seed, counts", [(0, (3, 10)), (1, (3, 11)), (2, (3, 11))])
    def test_refined_keys_on_piece_copy_trees(self, monkeypatch, seed, counts):
        # one for the first copy and one for the first near-K4 block, keyed
        # both ways; then one per relabelled copy whose first key matches
        # no earlier copy's
        assert tuple(
            self.refined_keys(monkeypatch, relabeled(piece_copy_tree(copies, seed), seed)) for copies in (2, 12)
        ) == counts

    def test_a_gadget_tree_with_12010_vertices(self):
        hubs = 2000
        g = gadget_tree(hubs, 5)
        assert g.num_vertices == 12010
        steps = []
        assert is_normal(normal7_coloring(g, steps))[0]
        tags = [s.tag for s in steps]
        assert tags.count(CaseTag.ManyPendant_t1) == hubs + 2
        assert tags.count(CaseTag.ThreeEC_Case1) + tags.count(CaseTag.ThreeEC_Case2) == hubs + 2


def two_search_glue_forest(g: PseudoGraph):
    """(components, comp_of, roots) as build_glue_forest found them with a
    second component search: the root of each component of g is the piece
    holding its smallest vertex."""
    banned = set(find_bridges(g))
    components = [tuple(c) for c in g.connected_components(skip=banned)]
    comp_of = {v: idx for idx, comp in enumerate(components) for v in comp}
    for v in g.vertices():
        nb = sum(1 for d in g.incident(v) if d in banned)
        assert nb in (0, 1, 3)
        assert (nb == 3) == (len(components[comp_of[v]]) == 1)
    roots = []
    seen = set()
    for comp in g.connected_components():
        idx = comp_of[min(comp)]
        if idx not in seen:
            roots.append(idx)
            seen.update(comp_of[w] for w in comp)
    return tuple(components), comp_of, tuple(roots)


class TestGlueForest:
    def test_agrees_with_two_searches(self):
        bridged = [g for g in cubic_census_upto(14) if find_bridges(g)]
        star = three_bridge_star()
        unions = [disjoint_union(a, b) for a, b in zip(bridged[::2], bridged[1::2])]
        unions += [
            disjoint_union(star, petersen()),
            disjoint_union(petersen(), star, k4()),
            disjoint_union(star, relabeled(star, 1), two_bridge_chain()),
            disjoint_union(relabeled(star, 2), star),
        ]
        for g in bridged + unions:
            forest = build_glue_forest(g)
            assert (forest.components, forest.comp_of, forest.roots) == two_search_glue_forest(g)
            for ci, own in enumerate(forest.bridges_at):
                assert list(own) == [b for b in forest.bridges if ci in map(forest.comp_of.get, g.endpoints(b))]

    @pytest.mark.parametrize(
        "build", [three_bridge_star, two_bridge_chain, lambda: gadget_tree(40, 2)], ids=["star", "chain", "tree"]
    )
    def test_one_component_search_per_coloring(self, monkeypatch, build):
        g = build()
        searches = []
        search = PseudoGraph.connected_components

        def counted(h, skip=()):
            if h is g:
                searches.append(h)
            return search(h, skip)

        with monkeypatch.context() as patch:
            patch.setattr(PseudoGraph, "connected_components", counted)
            col = normal7_coloring(g)
        assert is_normal(col)[0]
        assert len(searches) == 1

    def test_three_bridge_star(self):
        g = three_bridge_star()
        forest = build_glue_forest(g)
        sizes = sorted(len(c) for c in forest.components)
        assert sizes == [1, 5, 5, 5]
        assert len(forest.bridges) == 3
        assert len(forest.roots) == 1

    def test_bridgeless_graph_is_one_piece(self):
        forest = build_glue_forest(petersen())
        assert len(forest.components) == 1
        assert not forest.bridges


class TestOutputChecks:
    """Checks that guard the assembled flows and colorings raise, so python -O
    keeps them."""

    def test_no_aligning_automorphism_raises(self, monkeypatch):
        monkeypatch.setattr(flows_trees, "find_automorphism", lambda **kw: None)
        with pytest.raises(VerificationError, match="no value automorphism"):
            flow_edge_poor(fig6_graph(), 0)

    def test_piece_flows_that_disagree_on_a_cut_raise(self, monkeypatch):
        # skip the renaming that lines the second piece up with the first
        monkeypatch.setattr(flows_trees, "apply_automorphism", lambda flow, auto: flow)
        with pytest.raises(VerificationError, match="disagree on an arising edge"):
            flow_edge_poor(prism(), 0)

    def test_an_unaligned_ladder_end_raises(self, monkeypatch):
        # the horizontal ladder case renames its second end's flow
        monkeypatch.setattr(normal7_pipeline, "all_automorphisms", lambda: ())
        g = diamond_lobe_pair(3)
        with pytest.raises(VerificationError, match="aligns the second ladder end"):
            color_pendant_block(PendantBlockInput.from_edge(g, eid_between(g, 4, 6)))

    def test_a_bridge_left_rich_raises(self, monkeypatch):
        monkeypatch.setattr(
            normal7_pipeline,
            "is_normal",
            lambda col: (True, {d: EdgeStatus.RICH for d in col.graph.edge_ids()}),
        )
        with pytest.raises(VerificationError, match="glued bridge is not poor"):
            normal7_coloring(two_bridge_chain())

    def test_an_improper_coloring_raises_with_the_steps(self, monkeypatch):
        # one color on every edge: each vertex clashes
        monkeypatch.setattr(
            normal7_pipeline,
            "coloring_from_flow",
            lambda flow: EdgeColoring(flow.graph, 7, dict.fromkeys(flow.values, 1)),
        )
        with pytest.raises(PipelineVerificationError, match="improper: edges .* share color 1") as err:
            normal7_coloring(k4())
        assert [step.tag for step in err.value.trace] == [CaseTag.ManyPendant_t0]
