"""The checks that guard a returned result raise VerificationError, also under
python -O, which strips asserts.

Each fault replaces one name the check's function calls, so that the
function builds a wrong result and its own check must catch it.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from normal7 import certify, coloring_solver, flows_trees, matching
from normal7.flows_trees import GroupFlow
from normal7.graph_core import VerificationError
from tests.corpora import k4, k5, petersen


def _distinct_values(g, _trees):
    return GroupFlow(g, 2, {d: 1 + d % 3 for d in g.edge_ids()})


def _constant_values(g, _p1, _p2):
    return GroupFlow(g, 2, {d: 3 for d in g.edge_ids()})


# (id, module, name replaced, fake, call, message of the check that catches it)
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
        "nz_flow_from_tree_pair",
        _distinct_values,
        lambda: flows_trees.flow_two_edges_equal(k5(), 0, 1),
        "got different values",
    ),
    (
        "flow_three_edges_distinct",
        flows_trees,
        "flow_from_even_subgraphs",
        _constant_values,
        lambda: flows_trees.flow_three_edges_distinct(k5(), 0, 1, 2),
        "shares its value",
    ),
    (
        "nz_z23_flow",  # copies 2i and 2i+1 of edge i: the first tree takes both of edge 0
        flows_trees,
        "_pack_spanning_trees",
        lambda g, k: [{0, 1, 2}, {3, 4, 6}, {5, 7, 8}],
        lambda: flows_trees.nz_z23_flow(k4()),
        "not a spanning tree of g",
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
        "certify_k33_three_rich",
        certify,
        "_three_rich_sweep",
        lambda g: (0, 0, None, False),
        certify.certify_k33_three_rich,
        "never saw two rich edges",
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


def test_the_checks_survive_optimize():
    script = """
from tests.test_output_checks import FAULTS
from normal7.graph_core import VerificationError
assert False, "asserts are on"
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
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == len(FAULTS)
    for line, fault in zip(lines, FAULTS):
        assert fault[-1] in line
