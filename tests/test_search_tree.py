"""The exact solver's search tree, pinned.

Node counts are user-visible: census records report them as
``solver_nodes``, ``normal7 exact`` as ``nodes``, and ``--budget`` is counted
in them.  A change to the search loop must explore the same tree for every
palette, so it must reproduce every per-palette count, verdict and witness
below.  ``exact_chi_n``'s totals also count its bridge-side searches, which
refute a palette before the whole graph is searched.  A change that alters a
tree or a total on purpose records the new numbers and says why.
"""

import hashlib
from collections import Counter

import pytest

from normal7.certify import run_claim
from normal7.cli import census_line
from normal7.coloring_solver import exact_chi_n, find_normal_coloring
from normal7.cuts_reductions import find_bridges
from normal7.graph_core import parse_graph6, write_graph6
from tests.corpora import cubic_census_upto, petersen
from tests.test_cli import DOUBLE_GADGET_G6

CENSUS_DIGEST = "6ebab69b46b0ff4b1e39432b6823f8eaea7997ad0f81027c3de176c0717065ee"
# chi and witness only: those of the whole-graph searches alone, which the
# bridge-side searches must not move
CENSUS_WITNESS_DIGEST = "e1fe88fe1ac47a8abcd35d40a3f221fc88ce3ed607f1986afce51508cf32714b"
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
    assert sum(res.nodes_explored for res, _ in census_runs) == 924_510
    by_k = Counter()
    for g, (res, per_k) in zip(cubic_census_upto(12), census_runs):
        if not find_bridges(g):
            # every cubic graph is refuted at k < 3 without a search node,
            # exact_chi_n skips k = 4 on a cubic graph, and a bridgeless
            # graph has no side to search
            assert res.nodes_explored == sum(per_k.values()) - per_k.get(4, 0)
        by_k.update(per_k)
    assert dict(by_k) == {3: 10_938, 4: 14_960, 5: 61_327, 6: 736_806, 7: 893_283}


def test_census_witness_digest(census_runs):
    h = hashlib.sha256()
    for res, _ in census_runs:
        colors = sorted(res.witness.colors.items())
        h.update(f"{res.chi} {res.nodes_explored} {colors}\n".encode())
    assert h.hexdigest() == CENSUS_DIGEST


def test_census_witnesses_are_the_whole_graph_search(census_runs):
    """The bridge-side searches change node totals only: every chi and
    witness is the one the whole-graph searches alone give."""
    h = hashlib.sha256()
    for res, _ in census_runs:
        colors = sorted(res.witness.colors.items())
        h.update(f"{res.chi} {colors}\n".encode())
    assert h.hexdigest() == CENSUS_WITNESS_DIGEST


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
    assert sum(rec["solver_nodes"] for rec in records) == 29_612


def test_a_side_refutes_a_bridged_census_line():
    """n = 14, one bridge, chi'_N = 7: an 11-edge side refutes k = 3, 5, 6,
    where the whole-graph searches take 21,428,433 nodes."""
    rec = census_line("MJqk_?@?G@?J?a?S_", 14, None)
    assert (rec["exact_chi"], rec["solver_nodes"]) == (7, 3_194)


@pytest.mark.parametrize("budget", [0, 1, 1943, 1944, 1945])
def test_budget_boundary(budget):
    res = find_normal_coloring(petersen(), 4, budget=budget)
    assert res.nodes_explored == min(budget, PETERSEN_K4_NODES)
    assert res.timed_out == (budget < PETERSEN_K4_NODES)
    assert res.chi is None


@pytest.mark.parametrize(
    "budget, chi, nodes",
    [
        (150, None, 33 + 124 + 150),
        (311, None, 33 + 124 + 151 + 157 + 154),
        (1168, None, 33 + 124 + 151 + 157 + 155 + 856),
        (1169, 7, 33 + 124 + 151 + 157 + 155 + 857),
    ],
)
def test_bridged_budget_boundary(budget, chi, nodes):
    """The double gadget's first side refutes k = 3, 5, 6 in 33, 124 and 151
    nodes; at k = 7 its sides take 157 and 155 nodes and the whole graph
    857.  The searches at one palette share its budget."""
    res = exact_chi_n(parse_graph6(DOUBLE_GADGET_G6), 7, budget=budget)
    assert (res.chi, res.nodes_explored, res.timed_out) == (chi, nodes, chi is None)


def test_claim_node_counts():
    fig6 = run_claim("fig6-normal6").details
    assert (fig6["nodes_6"], fig6["nodes_7"]) == (5_207, 4_215)
    gadget = run_claim("gadget-k").details
    assert (gadget["nodes_7"], gadget["nodes_6"]) == (25_102, 151)
