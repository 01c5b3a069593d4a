"""Verification sweep: color seeded graphs far beyond the n <= 14 census with
normal7_coloring and check every coloring with is_normal.

The graphs come from the benchmark's generator families in
perfbench/generators.py (random bridgeless cubic graphs, gadget trees, piece
trees, ladder chains and star-product chains) and from piece_copies below
(trees of copies of one random 16-vertex piece, the same three edges of
each subdivided for bridges, with near-K4 blocks at the free ends:
normal7_coloring colors one copy and carries its colors to the others).
Each graph is built as close to an n drawn log-uniformly from 100 to 2000
as its family allows.  Graph i is drawn from its own seeded stream, so any
line of the output can be reproduced alone.  Star chains cost far more to
draw than to color (each 10-vertex piece is vetted for cyclic
4-edge-connectivity by brute force), so they get one slot in 31.
Cyclically 4-edge-connected graphs with pendant blocks are not swept: their
perfect matchings still come from a backtracking search that does not
finish at n >= 160.

Run from the repository root (not part of the test suite; 10,000 graphs take
about 16 minutes on one core):

    python3 tools/verify_sweep.py --graphs 10000 --seed 1

Prints one row per family: graphs, failures, the range of n, and the median
and worst coloring time (is_normal excluded).  Exits 1 when any graph fails.
"""

from __future__ import annotations

import argparse
import random
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from normal7.coloring_solver import is_normal
from normal7.graph_core import PseudoGraph
from normal7.normal7_pipeline import normal7_coloring

from perfbench import generators as gen

MIN_N, MAX_N = 100, 2000


def _edges(built: Tuple[int, List[gen.Edge]], rng: random.Random) -> PseudoGraph:
    n, edges = built
    if not gen.is_simple_cubic(n, edges):
        raise RuntimeError("generator produced a graph that is not simple cubic")
    return gen.relabeled(n, edges, rng)


# K4; a bridge to a vertex subdividing its edge 0 hangs a near-K4 block
K4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def piece_copies(copies: int, rng: random.Random) -> Tuple[int, List[gen.Edge]]:
    """A random tree of copies of one random bridgeless cubic piece on 16
    vertices, the same three of its edges subdivided in every copy.  Copy
    c > 0 is bridged to an earlier copy with such an edge left; each edge
    left over is bridged to a near-K4 block.  The bridgeless pieces are the
    copies, all isomorphic, and copies + 2 near-K4 blocks; n = 24 copies +
    10.  The copies share their labels until relabeled."""
    piece = gen.pairing_cubic(16, rng)
    sites = rng.sample(range(len(piece)), 3)
    free = [list(sites) for _ in range(copies)]
    links = []
    for c in range(1, copies):
        p = rng.choice([p for p in range(c) if free[p]])
        links.append((c, free[c].pop(), p, free[p].pop()))
    parts = [piece] * copies
    for c in range(copies):
        for e in free[c]:
            links.append((c, e, len(parts), 0))
            parts.append(K4)
    return gen._join_by_bridges(parts, [16] * copies + [4] * (len(parts) - copies), links)


# family -> (slots in a cycle of 31, graph of about n vertices)
FAMILIES: Dict[str, Tuple[int, Callable[[int, random.Random], PseudoGraph]]] = {
    "bridgeless": (6, lambda n, rng: _edges((n, gen.pairing_cubic(n, rng)), rng)),
    "gadget_tree": (6, lambda n, rng: _edges(gen.gadget_tree((n - 10) // 6, rng), rng)),
    "piece_tree": (6, lambda n, rng: _edges(gen.piece_tree(n // 18, 16, rng), rng)),
    "ladder_chain": (6, lambda n, rng: _edges(gen.ladder_chain(n // 15, rng), rng)),
    "star_chain": (1, lambda n, rng: gen.star_chain((n - 2) // 8, 10, rng).graph),
    "piece_copies": (6, lambda n, rng: _edges(piece_copies(max(1, (n - 10) // 24), rng), rng)),
}
SCHEDULE = [name for name, (slots, _) in FAMILIES.items() for _ in range(slots)]


def sweep_one(seed: int, i: int) -> Tuple[str, int, float, str]:
    """(family, n, seconds to color, failure or "") for graph i of the sweep."""
    family = SCHEDULE[i % len(SCHEDULE)]
    rng = random.Random(f"verify_sweep/{seed}/{i}")
    n = 2 * round(MIN_N * (MAX_N / MIN_N) ** rng.random() / 2)
    g = FAMILIES[family][1](n, rng)
    start = time.perf_counter()
    try:
        coloring = normal7_coloring(g)
    except Exception:  # reported with its traceback, and the sweep goes on
        return family, g.num_vertices, time.perf_counter() - start, traceback.format_exc()
    elapsed = time.perf_counter() - start
    ok, _ = is_normal(coloring)
    return family, g.num_vertices, elapsed, "" if ok else "is_normal rejects the coloring"


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--graphs", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    rows: Dict[str, List[Tuple[int, float]]] = {name: [] for name in FAMILIES}
    failures: Dict[str, int] = {name: 0 for name in FAMILIES}
    start = time.perf_counter()
    for i in range(args.graphs):
        family, n, elapsed, failure = sweep_one(args.seed, i)
        rows[family].append((n, elapsed))
        if failure:
            failures[family] += 1
            print(f"FAIL graph {i} ({family}, n={n}, seed {args.seed}): {failure}", flush=True)
    print(f"{'family':<13} {'graphs':>6} {'failures':>8} {'n':>10} {'median ms':>10} {'worst ms':>9} {'at n':>5}")
    for family, samples in rows.items():
        if not samples:
            continue
        ns = [n for n, _ in samples]
        worst_n, worst = max(samples, key=lambda s: s[1])
        median = statistics.median(t for _, t in samples)
        print(
            f"{family:<13} {len(samples):>6} {failures[family]:>8} {min(ns):>4}-{max(ns):<5} "
            f"{median * 1000:>10.1f} {worst * 1000:>9.1f} {worst_n:>5}"
        )
    total = sum(failures.values())
    print(f"{args.graphs} graphs, {total} failures, {time.perf_counter() - start:.0f} s in all (seed {args.seed})")
    return 1 if total else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
