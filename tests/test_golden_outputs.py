"""Digests over the pipeline's and the certificates' outputs, pinned.

The first digest covers the colors and certificate steps of normal7_coloring
on every census graph and on a set of seeded builds from tests/corpora.py,
and the values of flow_edge_poor and flow_two_adjacent_rich on those builds.
The second is the SHA-256 of what `normal7 certify --all` prints: every
verdict, universe, count and counterexample, including the K4 flow that
makes a vertex fully rich.  A refactor must leave both unchanged; a change
that alters outputs on purpose records the new digest and says why.
"""

import hashlib
import random

from normal7.cli import main
from normal7.cuts_reductions import find_2_edge_cuts, find_bridges
from normal7.graph_core import PseudoGraph
from normal7.normal7_pipeline import (
    color_degree13_graph,
    flow_edge_poor,
    flow_two_adjacent_rich,
    normal7_coloring,
)
from tests.corpora import (
    corpus_graphs,
    diamond_lobe_pair,
    disjoint_union,
    doubled_edge_cubic,
    fig6_graph,
    k4,
    k33,
    long_ladder_graph,
    petersen,
    prism,
    theta_graph,
    three_bridge_star,
    two_bridge_chain,
)

GOLDEN_DIGEST = "5f541c5cc0b2075001bc71dd2d0d1193719c3120e750e46ab5ed05d135a3149f"
CERTIFY_DIGEST = "b356133c2478079d1ef55fa51723aeae6ace76a084207a1f50091b1df2065229"


def relabeled(g: PseudoGraph, seed: int) -> PseudoGraph:
    """g with vertex labels and edge order shuffled by a seeded generator."""
    rng = random.Random(seed)
    perm = list(g.vertices())
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for _, u, v in g.edges()]
    rng.shuffle(edges)
    return PseudoGraph.from_edges(g.num_vertices, edges)


def builds():
    plain = [
        k4(), k33(), petersen(), prism(), fig6_graph(), long_ladder_graph(),
        diamond_lobe_pair(2), diamond_lobe_pair(4), doubled_edge_cubic(),
        theta_graph(), three_bridge_star(), two_bridge_chain(),
        disjoint_union(petersen(), k4()),
        disjoint_union(two_bridge_chain(), prism()),
    ]
    seeded = [
        relabeled(g, seed)
        for seed, g in enumerate(
            [petersen(), long_ladder_graph(), diamond_lobe_pair(3), three_bridge_star(), prism()]
        )
    ]
    return plain + seeded


def adjacent_pairs(g: PseudoGraph):
    for v in g.vertices():
        inc = sorted(set(g.incident(v)))
        for i, e in enumerate(inc):
            for f in inc[i + 1 :]:
                yield e, f


def coloring_rows(g: PseudoGraph, color=normal7_coloring):
    steps = []
    col = color(g, steps)
    yield f"colors {sorted(col.colors.items())}"
    for s in steps:
        yield f"step {s.tag.value} {s.fingerprint} {s.permutation}"


def output_rows():
    for i, g in corpus_graphs():
        yield f"census {i}"
        yield from coloring_rows(g)
    for b, g in enumerate(builds()):
        yield f"build {b} n={g.num_vertices}"
        if g.is_simple():
            yield from coloring_rows(g)
        if find_bridges(g):
            continue
        for e in g.edge_ids():
            yield f"poor {e} {sorted(flow_edge_poor(g, e).values.items())}"
        if g.is_simple() and g.is_connected() and not find_2_edge_cuts(g):
            for e, f in adjacent_pairs(g):
                values = flow_two_adjacent_rich(g, e, f).values
                yield f"rich {e} {f} {sorted(values.items())}"
    # degree-1/3 graphs with several components, colored component-wise
    star = PseudoGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    yield from coloring_rows(disjoint_union(star, k4(), star), color_degree13_graph)


def test_outputs_match_the_pinned_digest():
    h = hashlib.sha256()
    for row in output_rows():
        h.update(row.encode() + b"\n")
    assert h.hexdigest() == GOLDEN_DIGEST


def test_certify_output_matches_the_pinned_digest(capsys):
    assert main(["certify", "--all"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CERTIFY_DIGEST
