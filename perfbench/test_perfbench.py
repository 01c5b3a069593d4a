"""Tests of the benchmark's own code: generators, checks, spans and names."""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from normal7 import cuts_reductions, flows_trees, normal7_pipeline
from normal7.certify import gadget_block_edges
from normal7.graph_core import PseudoGraph

from perfbench import generators as gen
from perfbench import pace, run, spans, workloads

ROOT = Path(__file__).resolve().parent.parent

# the metric names the README documents, which later changes cite
NAMED_END_TO_END = {"ops_per_s", "latency_p50_ms", "latency_tail_ms", "largest_n_ms",
                    "time_exponent", "failed_frac", "setup_s", "peak_rss_mb"}
NAMED_PER_LAYER_EXTRA = {
    "cuts_reductions.find_2_edge_cuts.cuts_returned",
    "cuts_reductions.find_nontrivial_3_edge_cuts.cuts_returned",
    "cuts_reductions.first_cut_share",
    "matching.perfect_matching_through.max_n",
    "coloring_solver.exact_chi_n.nodes",
    "coloring_solver.exact_chi_n.nodes_per_s",
    "certify.run_claim.universe",
    "trace.unattributed_s",
}


def edge_list(g: PseudoGraph):
    return [(u, v) for _, u, v in g.edges()]


@pytest.fixture(scope="module")
def built():
    return {name: workloads.build(name, 7, ROOT) for name in run.WORKLOADS}


# -- inputs ----------------------------------------------------------------------


def test_same_seed_same_digest_and_another_seed_another(built):
    for name in ("bridgeless_sweep", "structured"):
        again = workloads.build(name, 7, ROOT)
        assert workloads.digest(again) == workloads.digest(built[name])
        assert workloads.digest(workloads.build(name, 8, ROOT)) != workloads.digest(built[name])


def test_census_is_the_corpus_in_file_order_then_the_claims(built):
    ops = built["census"].rounds[0]
    lines = (ROOT / workloads.CENSUS_FILE).read_text().split()
    assert [op.text for op in ops[:-4]] == lines and len(lines) == 621
    assert [op.kind for op in ops[-4:]] == ["claim"] * 4
    assert built["census"].largest == "census_n14"


def test_generated_graphs_are_simple_cubic_with_the_intended_bridges(built):
    for name in ("bridgeless_sweep", "structured"):
        for ops in built[name].rounds:
            for op in ops:
                n, edges = op.graph.num_vertices, edge_list(op.graph)
                assert gen.is_simple_cubic(n, edges), op.label
                assert len(gen.component_sizes(n, edges)) == 1, op.label
                bridge_count = len(gen.bridges(n, edges))
                if op.label.startswith("gadget_tree_h"):
                    hubs = int(op.label[len("gadget_tree_h"):])
                    assert (n, bridge_count) == (6 * hubs + 10, 2 * hubs + 1)
                elif op.label == "piece_tree":
                    assert bridge_count == 5
                elif op.label == "ladder_chain":
                    assert bridge_count == 3
                else:
                    assert bridge_count == 0, op.label


def test_ladder_units_have_their_rail_pairs_as_two_cuts():
    for m in range(2, 6):
        edges = gen.ladder_unit(m)
        n = 8 + 2 * (m - 1)
        assert gen.is_simple_cubic(n, edges)
        assert not gen.bridges(n, edges)
        rail_u, rail_v = edges[5], edges[5 + m]
        assert len(gen.component_sizes(n, edges, {5, 5 + m})) == 2, (rail_u, rail_v)


def test_star_chains_are_three_edge_connected_with_join_cuts():
    rng = random.Random(3)
    for _ in range(3):
        sc = gen.star_chain(3, 10, rng)
        g = sc.graph
        n, edges = g.num_vertices, edge_list(g)
        index = {eid: i for i, (eid, _, _) in enumerate(g.edges())}
        assert gen.is_simple_cubic(n, edges) and gen.is_three_edge_connected(n, edges)
        assert len(sc.joins) == 6
        for k in range(0, 6, 3):
            sizes = gen.component_sizes(n, edges, {index[e] for e in sc.joins[k:k + 3]})
            assert len(sizes) == 2 and min(sizes) >= 2
        e, f = sc.rich_pair
        assert e == sc.poor_edge and set(g.endpoints(e)) & set(g.endpoints(f))


def test_own_connectivity_checks_agree_with_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(11)
    for trial in range(30):
        n = rng.choice([6, 8, 10, 12])
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.35]
        g = nx.Graph(edges)
        g.add_nodes_from(range(n))
        want = sorted(edges.index(tuple(sorted(b))) for b in nx.bridges(g))
        assert gen.bridges(n, edges) == want
        if nx.is_connected(g):
            assert gen.is_three_edge_connected(n, edges) == (nx.edge_connectivity(g) >= 3)


def test_cyclic_four_edge_connectivity_rejects_triangles_and_accepts_petersen():
    prism = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4), (2, 5)]
    assert gen.is_three_edge_connected(6, prism)
    assert not gen.is_cyclically_four_edge_connected(6, prism)
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    assert gen.is_cyclically_four_edge_connected(10, outer + inner + [(i, i + 5) for i in range(5)])


def test_graph6_decoder_matches_the_library():
    from normal7.graph_core import parse_graph6

    for line in (ROOT / workloads.CENSUS_FILE).read_text().split()[::40]:
        n, edges = workloads.decode_graph6(line)
        g = parse_graph6(line)
        assert n == g.num_vertices
        assert sorted(edges) == sorted(tuple(sorted(e)) for e in edge_list(g))


# -- checks ----------------------------------------------------------------------


def test_checks_pass_real_outputs_and_catch_broken_ones(built):
    star_ops = [op for op in built["structured"].rounds[0] if op.label == "star_chain"]
    for op in star_ops:
        out = workloads.call(op)
        assert workloads.check(op, out) is None
    color_op, poor_op = star_ops[0], star_ops[1]
    col = workloads.call(color_op)
    (eid, u, _), rest = color_op.edges[0], color_op.edges[1:]
    neighbour = next(f for f, a, b in rest if u in (a, b))
    bad = dict(col.colors)
    bad[eid] = bad[neighbour]
    assert workloads.coloring_problem(color_op.edges, bad) == "coloring is not proper"
    flow = workloads.call(poor_op)
    broken = dict(flow.values)
    broken[eid] ^= 1
    assert workloads.flow_problem(poor_op.edges, broken, {}) == "flow is not conserved"
    census_op = built["census"].rounds[0][0]
    rec = workloads.call(census_op)
    assert workloads.check(census_op, rec) is None
    assert workloads.check(census_op, dict(rec, exact_chi=None)) == "exact result inconclusive"
    assert workloads.check(census_op, dict(rec, bridges=1)) is not None


def test_a_failing_operation_is_counted_not_raised():
    g = PseudoGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])  # not cubic
    op = workloads.Op("color", "square", 4, graph=g, edges=tuple(g.edges()))
    [sample] = run.run_round([op])
    assert sample.seconds > 0 and sample.raw_s > 0 and sample.problem.startswith("ValueError")


def test_pace_scale_uses_the_median_job_time_within_the_window():
    p = pace.Pace()
    assert p.sample() > 0
    p.starts, p.seconds = [0.0, 1.5, 2.0, 9.0], [0.002, 0.004, 0.001, 0.5]
    # runs that started in [2.2 - 1, 2.8 + 1]: the ones at 1.5 and 2.0
    assert p.scale(2.2, 2.8) == pytest.approx(pace.UNIT_S / 0.0025)


# -- spans -----------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    S = spans.Span
    tree = [
        S("a", 0.0, 10.0, -1, 0),
        S("b", 1.0, 4.0, 0, 0),
        S("c", 3.0, 6.0, 0, 0),  # overlaps b
        S("d", 8.0, 12.0, 0, 0),  # runs past a
        S("e", 2.0, 3.0, 1, 0),  # grandchild: counts against b only
    ]
    assert spans.covered(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]) == 7.0
    assert spans.self_times(tree) == [3.0, 2.0, 3.0, 4.0, 1.0]


def test_layer_metrics_divide_by_rounds_and_roll_up_modules():
    rec = spans.Recorder()
    S = spans.Span
    rec.spans = [
        S(spans.OP_SPAN, 0.0, 10.0, -1, 0),
        S("normal7_coloring", 1.0, 9.0, 0, 0),
        S("find_bridges", 2.0, 3.0, 1, 0),
        S("find_2_edge_cuts", 3.0, 7.0, 1, 0),
    ]
    rec.counts["cuts_reductions.find_2_edge_cuts.cuts_returned"] = 4
    rec.counts["cuts_reductions.calls_with_cut"] = 1
    m = spans.layer_metrics(rec, rounds=2)
    assert m["normal7_pipeline.normal7_coloring.self_s"] == 1.5
    assert m["cuts_reductions.self_s"] == 2.5
    assert m["cuts_reductions.find_2_edge_cuts.calls"] == 0.5
    assert m["trace.unattributed_s"] == 1.0
    assert m["cuts_reductions.first_cut_share"] == 0.25


def test_install_rebinds_every_copy_and_records_nested_spans():
    rec = spans.Recorder()
    before = normal7_pipeline.find_2_edge_cuts
    uninstall = spans.install(rec)
    try:
        for mod in (cuts_reductions, flows_trees, normal7_pipeline):
            assert mod.find_2_edge_cuts.__wrapped__ is before
        g = PseudoGraph.from_edges(10, gadget_block_edges(0) + gadget_block_edges(5) + [(0, 5)])
        rec.enabled = True
        normal7_pipeline.normal7_coloring(g)
        rec.enabled = False
    finally:
        uninstall()
    assert normal7_pipeline.find_2_edge_cuts is before
    names = [s.name for s in rec.spans]
    assert names[0] == "normal7_coloring" and rec.spans[0].parent == -1
    assert "color_pendant_block" in names and "graph_fingerprint" in names
    assert all(s.parent < i for i, s in enumerate(rec.spans))
    assert rec.counts["normal7_pipeline.case.Glue"] >= 1


# -- names and the contract --------------------------------------------------------


def test_metric_names_match_the_documented_names_and_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert set(run.END_TO_END_UNITS) <= NAMED_END_TO_END
    assert {m["unit"] for m in spec["end_to_end"] if m["name"] == "setup_s"} == {"s"}
    assert [m["name"] for m in spec["per_layer"]] == spans.per_layer_names()
    assert [m["unit"] for m in spec["per_layer"]] == [spans.unit_of(n) for n in spans.per_layer_names()]
    names = set(spans.per_layer_names())
    assert NAMED_PER_LAYER_EXTRA <= names
    for mod, fns in spans.LAYERS.items():
        assert f"{mod}.self_s" in names
        for fn in fns:
            assert {f"{mod}.{fn}.calls", f"{mod}.{fn}.self_s"} <= names
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_without_the_library_the_benchmark_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
