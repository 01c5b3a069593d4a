"""Smoke test of tools/cut_probes.py: the smallest size of each family."""

import pytest

from normal7.cuts_reductions import find_bridges, find_nontrivial_3_edge_cuts, two_cut_pairs
from normal7.graph_core import PseudoGraph
from tools.cut_probes import FAMILIES, diamond_necklace, probe, ring_with_block, truncated_prism_ring_edges


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_the_smallest_size_colors(family):
    first = FAMILIES[family][1]
    n, seconds, ok = probe(family, first)
    assert ok and seconds > 0
    assert n == {"necklace": 4 * first, "necklace_flow": 4 * first, "ring_block": 6 * first + 6}[family]


def test_the_families_have_the_cuts_they_probe():
    necklace = diamond_necklace(6)
    assert necklace.is_cubic() and necklace.is_simple() and not find_bridges(necklace)
    assert len(two_cut_pairs(necklace)) == 6 * 5 // 2  # every pair of ring edges
    ring = PseudoGraph.from_edges(36, truncated_prism_ring_edges(6))
    assert ring.is_cubic() and ring.is_simple() and not two_cut_pairs(ring)
    assert len(find_nontrivial_3_edge_cuts(ring)) == 2 * 6  # the three edges out of each triangle
    block = ring_with_block(6)
    assert block.is_cubic() and block.is_simple() and len(find_bridges(block)) == 1
