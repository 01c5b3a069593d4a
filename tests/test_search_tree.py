"""The exact solver's search tree, pinned.

Node counts are user-visible: census records report them as
``solver_nodes``, ``normal7 exact`` as ``nodes``, and ``--budget`` is counted
in them.  A change to the search loop must explore the same tree, so it must
reproduce every count, verdict and witness below.  A change that alters the
tree on purpose records the new numbers and says why.
"""

import hashlib
from collections import Counter

import pytest

from normal7.certify import run_claim
from normal7.cli import census_line
from normal7.coloring_solver import exact_chi_n, find_normal_coloring
from normal7.graph_core import write_graph6
from tests.corpora import cubic_census_upto, petersen

CENSUS_DIGEST = "f06d7bdbcd83b170512c6b7a6d53f8c19a2527a92022daab02188d8e365f8db8"
PETERSEN_K4_NODES = 1944


@pytest.fixture(scope="module")
def census_runs():
    """(exact result, nodes of each palette size 3..chi) per graph, n <= 12."""
    runs = []
    for g in cubic_census_upto(12):
        res = exact_chi_n(g, 7)
        per_k = {}
        for k in range(3, 8):
            step = find_normal_coloring(g, k)
            per_k[k] = step.nodes_explored
            if step.chi is not None:
                break
        runs.append((res, per_k))
    return runs


def test_census_chi_histogram(census_runs):
    assert Counter(res.chi for res, _ in census_runs) == {3: 105, 5: 2, 7: 5}
    assert not any(res.timed_out for res, _ in census_runs)


def test_census_node_counts(census_runs):
    assert sum(res.nodes_explored for res, _ in census_runs) == 1_702_354
    by_k = Counter()
    for res, per_k in census_runs:
        # every cubic graph is refuted at k < 3 without a search node, and
        # exact_chi_n skips k = 4 on a cubic graph
        assert res.nodes_explored == sum(per_k.values()) - per_k.get(4, 0)
        by_k.update(per_k)
    assert dict(by_k) == {3: 10_938, 4: 14_960, 5: 61_327, 6: 736_806, 7: 893_283}


def test_census_witness_digest(census_runs):
    h = hashlib.sha256()
    for res, _ in census_runs:
        colors = sorted(res.witness.colors.items())
        h.update(f"{res.chi} {res.nodes_explored} {colors}\n".encode())
    assert h.hexdigest() == CENSUS_DIGEST


def test_petersen_counts():
    res = exact_chi_n(petersen(), 7)
    assert (res.chi, res.nodes_explored) == (5, 16_027 - PETERSEN_K4_NODES)
    res = find_normal_coloring(petersen(), 4)
    assert res.chi is None and not res.timed_out
    assert res.nodes_explored == PETERSEN_K4_NODES


def test_census_lines_reuse_the_pipeline_witness(census_runs):
    """A census line searches only the palettes below the pipeline's
    colors_used, and agrees with the full search on every chi."""
    records = [census_line(write_graph6(g), 12, None) for g in cubic_census_upto(12)]
    assert [rec["exact_chi"] for rec in records] == [res.chi for res, _ in census_runs]
    assert sum(rec["solver_nodes"] for rec in records) == 809_071


@pytest.mark.parametrize("budget", [0, 1, 1943, 1944, 1945])
def test_budget_boundary(budget):
    res = find_normal_coloring(petersen(), 4, budget=budget)
    assert res.nodes_explored == min(budget, PETERSEN_K4_NODES)
    assert res.timed_out == (budget < PETERSEN_K4_NODES)
    assert res.chi is None


def test_claim_node_counts():
    fig6 = run_claim("fig6-normal6").details
    assert (fig6["nodes_6"], fig6["nodes_7"]) == (5_207, 4_215)
    gadget = run_claim("gadget-k").details
    assert (gadget["nodes_7"], gadget["nodes_6"]) == (25_102, 151)
