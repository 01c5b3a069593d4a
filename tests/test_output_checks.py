"""The checks that guard a returned result raise VerificationError, also under
python -O, which strips asserts.

Each fault replaces one name the check's function calls, so that the
function builds a wrong result and its own check must catch it.  Without a
fault, the pinned golden digests hold under python -O as well.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from normal7 import certify, coloring_solver, flows_trees, matching, normal7_pipeline
from normal7.graph_core import PseudoGraph, VerificationError
from normal7.normal7_pipeline import PendantBlockInput, color_pendant_block
from tests.corpora import k4, k5, petersen
from tests.test_golden_outputs import CERTIFY_DIGEST, FLOW_DIGEST, GOLDEN_DIGEST


_real_pack = flows_trees._pack_spanning_trees
_real_planes = certify._cycle_planes
_real_edges_between = PseudoGraph.edges_between


def _one_mask_twice(g):
    masks = _real_planes(g)
    return masks[:1] + masks[:-1]


def _each_edge_twice(g, u, v):
    return _real_edges_between(g, u, v) * 2


def _triangle_at_y(g, _parities):
    # y on the triangle (0,1), (0,3), (1,3) of k5 and x+y elsewhere: a
    # nowhere-zero flow with edges 0 and 1 apart
    return {d: 2 if d in (0, 2, 5) else 3 for d in g.edge_ids()}


def _constant_values(g, _parities):
    return {d: 3 for d in g.edge_ids()}


# (id, module or class, name replaced, fake, call, message of the check that catches it)
FAULTS = [
    (
        "find_normal_coloring",
        coloring_solver,
        "is_normal",
        lambda col: (False, {}),
        lambda: coloring_solver.find_normal_coloring(k4(), 3),
        "coloring is not normal",
    ),
    (
        "flow_two_edges_equal",
        flows_trees,
        "_complement_values",
        _triangle_at_y,
        lambda: flows_trees.flow_two_edges_equal(k5(), 0, 1),
        "got different values",
    ),
    (
        "flow_three_edges_distinct",
        flows_trees,
        "_complement_values",
        _constant_values,
        lambda: flows_trees.flow_three_edges_distinct(k5(), 0, 1, 2),
        "shares its value",
    ),
    (
        "nz_z23_flow",  # one tree three times: its parity edges get no value
        flows_trees,
        "_pack_spanning_trees",
        lambda ends, n, k: _real_pack(ends, n, 1) * k,
        lambda: flows_trees.nz_z23_flow(k4()),
        "leave an edge at zero",
    ),
    (
        "verified_nz_flow",
        flows_trees,
        "verify_flow",
        lambda flow: flows_trees.FlowCheck(True, False),
        lambda: flows_trees.nz_z23_flow(k4()),
        "not nowhere-zero conserving",
    ),
    (
        # copies 2i and 2i+1 of edge i: each forest reads as both copies of
        # edge 0 and one of edge 1, n - 1 edges that close a cycle
        "spanning_tree_check",
        flows_trees._RootedForest,
        "edges",
        lambda self: {0, 1, 2},
        lambda: flows_trees.nz_z23_flow(k4()),
        "a packed forest is not a spanning tree",
    ),
    (
        # is_normal's palette error comes out as the pipeline's own check
        "verified_normal_color_0",
        normal7_pipeline,
        "coloring_from_flow",
        lambda flow: coloring_solver.EdgeColoring(flow.graph, 7, dict.fromkeys(flow.values, 0)),
        lambda: normal7_pipeline.normal7_coloring(k4()),
        "improper: color 0 outside palette",
    ),
    (
        "perfect_matching_through",
        matching,
        "_pm_extend",
        lambda g, used, chosen: True,
        lambda: matching.perfect_matching_through(petersen(), 0),
        "missed or repeated",
    ),
    (
        # edge 1 at w = 1 left poor: its far end repeats the values of edges
        # 0 and 11 at w, and the far end of edge 11, rich, shares neither
        "rich_frame",
        normal7_pipeline,
        "flow_two_adjacent_rich",
        lambda g, e, f: normal7_pipeline.flow_edge_poor(g, e),
        lambda: color_pendant_block(PendantBlockInput.from_edge(petersen(), 0)),
        "far ends share no single value",
    ),
    (
        "certify_k33_three_rich",
        certify,
        "_three_rich_sweep",
        lambda g: (0, 0, None, False),
        certify.certify_k33_three_rich,
        "never saw two rich edges",
    ),
    (
        "certify_fig6_flow_poor",
        certify,
        "_cycle_planes",
        _one_mask_twice,
        certify.certify_fig6_flow_poor,
        "distinct masks",
    ),
    (
        "find_gadget_sites",
        PseudoGraph,
        "edges_between",
        _each_edge_twice,
        lambda: certify.find_gadget_sites(certify.double_gadget_graph()),
        "edges, not 7",
    ),
]


@pytest.mark.parametrize(
    "module, name, fake, call, message", [f[1:] for f in FAULTS], ids=[f[0] for f in FAULTS]
)
def test_a_wrong_result_raises(monkeypatch, module, name, fake, call, message):
    call()  # the check passes without the fault
    monkeypatch.setattr(module, name, fake)
    with pytest.raises(VerificationError, match=message):
        call()


def run_optimized(script):
    """The lines script prints under python -O; it must fail if asserts run."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", 'assert False, "asserts are on"\n' + script],
        env=env,
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


def test_the_checks_survive_optimize():
    script = """
from tests.test_output_checks import FAULTS
from normal7.graph_core import VerificationError
for _, module, name, fake, call, _ in FAULTS:
    real = getattr(module, name)
    setattr(module, name, fake)
    try:
        call()
    except VerificationError as exc:
        print(exc)
    finally:
        setattr(module, name, real)
"""
    lines = run_optimized(script)
    assert len(lines) == len(FAULTS)
    for line, fault in zip(lines, FAULTS):
        assert fault[-1] in line


def test_the_golden_digests_hold_under_optimize():
    # the pipeline proves what its asserts state; with them stripped the
    # outputs must not change
    script = """
import contextlib, hashlib, io
from normal7.cli import main
from tests.test_golden_outputs import flow_rows, output_rows

def digest(rows):
    h = hashlib.sha256()
    for row in rows:
        h.update(row.encode() + b"\\n")
    return h.hexdigest()

certified = io.StringIO()
with contextlib.redirect_stdout(certified):
    rc = main(["certify", "--all"])
print(rc)
print(digest(output_rows()))
print(hashlib.sha256(certified.getvalue().encode()).hexdigest())
print(digest(flow_rows()))
"""
    assert run_optimized(script) == ["0", GOLDEN_DIGEST, CERTIFY_DIGEST, FLOW_DIGEST]
