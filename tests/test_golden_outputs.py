"""Digests over the pipeline's and the certificates' outputs, pinned.

The first digest covers the colors and certificate steps of normal7_coloring
on every census graph and on a set of seeded builds from tests/corpora.py,
and the values of flow_edge_poor and flow_two_adjacent_rich on those builds.
The second is the SHA-256 of what `normal7 certify --all` prints: every
verdict, universe, count and counterexample, including the K4 flow that
makes a vertex fully rich.  The third covers nz_z23_flow at the benchmark's
sizes (seeded bridgeless cubic graphs at n = 40, 80 and 160, some joined
through a 2-edge-cut, and C_400 x K2) and the two Z_2^2 constructions on
doubled copies of two of them.  The fourth covers nz_z23_flow on seeded
random bridgeless pseudographs, whose loops, parallel edges and 2-cuts with
a shared endpoint reach the loop cases of its 2-cut join.  A refactor must
leave all four unchanged; a change that alters outputs on purpose records
the new digest and says why.
"""

import hashlib
import random
from collections import Counter

from normal7 import flows_trees
from normal7.cli import main
from normal7.cuts_reductions import find_2_edge_cuts, find_bridges
from normal7.graph_core import PseudoGraph
from normal7.normal7_pipeline import (
    color_degree13_graph,
    flow_edge_poor,
    flow_two_adjacent_rich,
    normal7_coloring,
)
from normal7.flows_trees import flow_three_edges_distinct, flow_two_edges_equal, nz_z23_flow
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
    prism_ring,
    random_pseudograph,
    theta_graph,
    three_bridge_star,
    two_bridge_chain,
)
from tests.test_cut_oracle import joined_by_two_cut, pairing_cubic
from tests.test_flows_trees import doubled

# re-pinned when normal7_coloring began to color each isomorphism class of
# piece once per call: five census graphs and the relabelled three-bridge
# star, each with two or three isomorphic pieces, now copy the first piece's
# steps (and in three of them its colors) to the others
GOLDEN_DIGEST = "f6965954cb8a02ba96ceefad71eeb74ada2715c3918b299d0047a4448471b317"
CERTIFY_DIGEST = "b356133c2478079d1ef55fa51723aeae6ace76a084207a1f50091b1df2065229"
FLOW_DIGEST = "6ce226a5dd8de1582b2f66a1265eeaafb0e6f70aa80e7566d8b06ced8a82884d"
PSEUDOGRAPH_FLOW_DIGEST = "a264a51ac52dfcae0bb5f684b027a5ff5eb13b0054b8e778769be24edbbc9b82"


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


def bridgeless_cubic(rng: random.Random, n: int) -> PseudoGraph:
    """A pairing-model simple cubic graph, redrawn until connected and bridgeless."""
    while True:
        g = pairing_cubic(rng, n)
        if g.is_connected() and not find_bridges(g):
            return g


def ring_of_pieces(pieces, rng: random.Random) -> PseudoGraph:
    """The pieces in a ring: one edge x_i y_i deleted from each piece and
    y_i joined to x_(i+1).  Any two of the joins form a 2-edge-cut."""
    edges, ends, offset = [], [], 0
    for g in pieces:
        cut = rng.choice(g.edge_ids())
        edges += [(u + offset, v + offset) for e, u, v in g.edges() if e != cut]
        ends.append(tuple(w + offset for w in g.endpoints(cut)))
        offset += g.num_vertices
    edges += [(y, ends[(i + 1) % len(ends)][0]) for i, (_, y) in enumerate(ends)]
    return PseudoGraph.from_edges(offset, edges)


def flow_graphs():
    """(label, graph): at each of n = 40, 80 and 160, two random bridgeless
    cubic graphs, two halves joined through a 2-edge-cut and a ring of four
    pieces; then C_400 x K2."""
    rng = random.Random(2024)
    for n in (40, 80, 160):
        for i in range(2):
            yield f"random n={n} #{i}", bridgeless_cubic(rng, n)
        halves = bridgeless_cubic(rng, n // 2), bridgeless_cubic(rng, n // 2)
        yield f"two-cut n={n}", joined_by_two_cut(*halves, rng)[0]
        quarters = [bridgeless_cubic(rng, n // 4) for _ in range(4)]
        yield f"ring n={n}", ring_of_pieces(quarters, rng)
    yield "C_400 x K2", prism_ring(400)


def flow_rows():
    graphs = list(flow_graphs())
    for label, g in graphs:
        yield f"nz_z23_flow {label} {sorted(nz_z23_flow(g).values.items())}"
    # doubled graphs are 4-edge-connected, so any two edges may be pinned;
    # at a vertex v the copies of its edges a, b, c are 2a, 2a+1, 2b, ...
    for label, g in (graphs[0], graphs[6]):
        h = doubled(g)
        for v in (0, g.num_vertices // 2, g.num_vertices - 1):
            a, b, c = (2 * e for e in g.incident(v))
            for e, f in ((a, b), (a, a + 1), (b + 1, c)):
                values = flow_two_edges_equal(h, e, f).values
                yield f"equal {label} {e} {f} {sorted(values.items())}"
            for e, f, gg in ((a, b, c), (a + 1, b, b), (c, a, a + 1)):
                values = flow_three_edges_distinct(h, e, f, gg).values
                yield f"distinct {label} {e} {f} {gg} {sorted(values.items())}"


def test_outputs_match_the_pinned_digest():
    h = hashlib.sha256()
    for row in output_rows():
        h.update(row.encode() + b"\n")
    assert h.hexdigest() == GOLDEN_DIGEST


def test_certify_output_matches_the_pinned_digest(capsys):
    assert main(["certify", "--all"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == CERTIFY_DIGEST


def test_flows_match_the_pinned_digest():
    h = hashlib.sha256()
    for row in flow_rows():
        h.update(row.encode() + b"\n")
    assert h.hexdigest() == FLOW_DIGEST


def bridgeless_pseudographs(count: int = 1000):
    """count seeded random pseudographs with no bridge, on 1 to 12 vertices
    with n to 2n + 5 edges: most have loops and parallel edges."""
    rng = random.Random(5)
    while count:
        n = rng.randrange(1, 13)
        g = random_pseudograph(rng, n, rng.randrange(n, 2 * n + 6))
        if not find_bridges(g):
            count -= 1
            yield g


def test_pseudograph_flows_match_the_pinned_digest(monkeypatch):
    # count, per 2-cut split, which of the two arising edges are loops
    arising_loops = Counter()
    split = flows_trees.two_cut_reduction

    def counted(g, cut, strict=True):
        pa, pb, trace = split(g, cut, strict=strict)
        arising_loops[pa.graph.is_loop(pa.arising[0]), pb.graph.is_loop(pb.arising[0])] += 1
        return pa, pb, trace

    monkeypatch.setattr(flows_trees, "two_cut_reduction", counted)
    h = hashlib.sha256()
    for g in bridgeless_pseudographs():
        h.update(f"{sorted(nz_z23_flow(g).values.items())}\n".encode())
    assert set(arising_loops) == {(False, False), (False, True), (True, False), (True, True)}
    assert h.hexdigest() == PSEUDOGRAPH_FLOW_DIGEST
