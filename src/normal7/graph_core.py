"""Labeled pseudographs (loops and parallel edges allowed) and text formats.

Vertices are dense integers in [0, n).  Every edge carries a stable integer
id that survives edge insertions and removals; ids are never reused, so a
removed edge leaves a hole in the id sequence.  induced_subgraph (keep a
vertex set) and remove_vertices build a compacted copy with label maps.

A graph changes only through add_vertex, add_edge and remove_edge, and each
of them bumps the graph's mutation counter (``mutations``), so a result
computed from a graph stays valid while the same graph object reports the
same counter.  The constructors here write the lists of a graph nobody else
holds yet; no other module touches ``_n``, ``_edges``, ``_inc`` or the
counter (tests/test_graph_mutators.py scans for it).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple


class Graph6Error(ValueError):
    """Raised for malformed graph6 input; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class VerificationError(RuntimeError):
    """A result failed the check that guards it before it is returned."""


def verify_or_raise(ok: bool, message: str) -> None:
    """Raise VerificationError(message) unless ok; unlike assert, kept under -O."""
    if not ok:
        raise VerificationError(message)


class PseudoGraph:
    """Mutable multigraph with loops, stable edge ids and ordered incidences.

    Note: a loop appears twice in its vertex's incidence list, so degree
    counts it twice.
    """

    __slots__ = ("_n", "_edges", "_inc", "_mutations")

    def __init__(self, n: int = 0):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        self._n = n
        self._edges: List[Optional[Tuple[int, int]]] = []
        self._inc: List[List[int]] = [[] for _ in range(n)]
        self._mutations = 0

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Tuple[int, int]]) -> "PseudoGraph":
        g = cls(n)
        for u, v in edges:
            g.add_edge(u, v)
        return g

    @classmethod
    def from_labeled_edges(
        cls, n: int, edges: Iterable[Tuple[int, int, int]]
    ) -> "PseudoGraph":
        """Build a graph whose edge ids are prescribed as (eid, u, v) triples."""
        triples = sorted(edges)
        g = cls(n)
        if not triples:
            return g
        g._edges = [None] * (triples[-1][0] + 1)
        for eid, u, v in triples:
            g._check_vertex(u)
            g._check_vertex(v)
            if g._edges[eid] is not None:
                raise ValueError(f"duplicate edge id {eid}")
            g._edges[eid] = (u, v)
            g._inc[u].append(eid)
            g._inc[v].append(eid)
        return g

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self._n:
            raise ValueError(f"vertex {v} out of range [0, {self._n})")

    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def mutations(self) -> int:
        """How many add_vertex, add_edge and remove_edge calls changed g."""
        return self._mutations

    @property
    def num_edges(self) -> int:
        return sum(1 for e in self._edges if e is not None)

    def vertices(self) -> range:
        return range(self._n)

    def edge_ids(self) -> List[int]:
        return [i for i, e in enumerate(self._edges) if e is not None]

    def edges(self) -> Iterator[Tuple[int, int, int]]:
        """Yield (eid, u, v) in ascending edge id order."""
        for i, e in enumerate(self._edges):
            if e is not None:
                yield (i, e[0], e[1])

    def endpoints(self, eid: int) -> Tuple[int, int]:
        edges = self._edges
        if 0 <= eid < len(edges):
            e = edges[eid]
            if e is not None:
                return e
        raise ValueError(f"no edge with id {eid}")

    def other_endpoint(self, eid: int, v: int) -> int:
        u, w = self.endpoints(eid)
        if v == u:
            return w
        if v == w:
            return u
        raise ValueError(f"vertex {v} is not an endpoint of edge {eid}")

    def is_loop(self, eid: int) -> bool:
        u, v = self.endpoints(eid)
        return u == v

    def add_vertex(self) -> int:
        self._mutations += 1
        self._n += 1
        self._inc.append([])
        return self._n - 1

    def add_edge(self, u: int, v: int) -> int:
        self._check_vertex(u)
        self._check_vertex(v)
        self._mutations += 1
        eid = len(self._edges)
        self._edges.append((u, v))
        self._inc[u].append(eid)
        self._inc[v].append(eid)
        return eid

    def remove_edge(self, eid: int) -> None:
        u, v = self.endpoints(eid)
        self._mutations += 1
        self._edges[eid] = None
        self._inc[u].remove(eid)
        if u != v:
            self._inc[v].remove(eid)
        else:
            self._inc[u].remove(eid)

    def incident(self, v: int) -> List[int]:
        """Edge ids at v in insertion order; a loop appears twice."""
        if not 0 <= v < self._n:
            raise ValueError(f"vertex {v} out of range [0, {self._n})")
        return list(self._inc[v])

    def degree(self, v: int) -> int:
        if not 0 <= v < self._n:
            raise ValueError(f"vertex {v} out of range [0, {self._n})")
        return len(self._inc[v])

    def neighbors(self, v: int) -> List[int]:
        return [self.other_endpoint(e, v) for e in self._inc[v] if not self.is_loop(e)]

    def edges_between(self, u: int, v: int) -> List[int]:
        self._check_vertex(u)
        self._check_vertex(v)
        want = {u, v}
        seen: List[int] = []
        for e in self._inc[u]:
            if set(self.endpoints(e)) == want and e not in seen:
                seen.append(e)
        return seen

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.edges_between(u, v))

    def copy(self) -> "PseudoGraph":
        g = PseudoGraph(self._n)
        g._edges = list(self._edges)
        g._inc = [list(lst) for lst in self._inc]
        return g

    def is_connected(self) -> bool:
        return len(self.connected_components()) <= 1

    def connected_components(self, skip: Iterable[int] = ()) -> List[List[int]]:
        """Vertex lists of the components, each sorted, ordered by smallest
        vertex.  Edges in skip are not crossed."""
        banned = set(skip)
        seen = [False] * self._n
        comps: List[List[int]] = []
        for s in range(self._n):
            if seen[s]:
                continue
            comp = [s]
            seen[s] = True
            stack = [s]
            while stack:
                v = stack.pop()
                for eid in self._inc[v]:
                    if eid in banned:
                        continue
                    a, b = self._edges[eid]  # type: ignore[misc]
                    w = b if a == v else a
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
                        stack.append(w)
            comps.append(sorted(comp))
        return comps

    def is_simple(self) -> bool:
        seen = set()
        for _, u, v in self.edges():
            if u == v:
                return False
            key = (u, v) if u < v else (v, u)
            if key in seen:
                return False
            seen.add(key)
        return True

    def is_cubic(self) -> bool:
        return all(self.degree(v) == 3 for v in self.vertices())

    def __repr__(self) -> str:
        return f"PseudoGraph(n={self._n}, m={self.num_edges})"

    def same_labeled_graph(self, other: "PseudoGraph") -> bool:
        """Equality of vertex count and the labeled edge set."""
        return self._n == other._n and sorted(self.edges()) == sorted(other.edges())


def subdivide_edge(g: PseudoGraph, eid: int) -> Tuple[PseudoGraph, int, Tuple[int, int]]:
    """Replace edge (u, w) by a path u - x - w through a fresh vertex x.

    Returns (new graph, x, (eu, ew)) where eu joins u (the first stored
    endpoint of eid) to x and ew joins x to w.  All other edges keep ids.
    """
    u, w = g.endpoints(eid)
    h = g.copy()
    h.remove_edge(eid)
    x = h.add_vertex()
    eu = h.add_edge(u, x)
    ew = h.add_edge(x, w)
    return h, x, (eu, ew)


def attach_pendant(g: PseudoGraph, v: int) -> Tuple[PseudoGraph, int, int]:
    """Add a fresh leaf joined to v.  Returns (new graph, leaf, pendant eid)."""
    h = g.copy()
    leaf = h.add_vertex()
    eid = h.add_edge(v, leaf)
    return h, leaf, eid


def induced_subgraph(
    g: PseudoGraph, keep: Iterable[int]
) -> Tuple[PseudoGraph, Dict[int, int], Dict[int, int]]:
    """The subgraph on the kept vertices, labels compacted in ascending order.

    Returns (new graph, vertex map old -> new, edge map old -> new).  Only
    the kept vertices' incidences are read, so the cost does not grow with
    the part of g left out.
    """
    kept = sorted(set(keep))
    if kept:
        g._check_vertex(kept[0])
        g._check_vertex(kept[-1])
    vmap = {v: i for i, v in enumerate(kept)}
    h = PseudoGraph(len(kept))
    emap: Dict[int, int] = {}
    for eid in sorted({e for v in kept for e in g._inc[v]}):
        u, v = g._edges[eid]  # type: ignore[misc]
        if u in vmap and v in vmap:
            # add_edge without its range checks, which vmap's values pass
            a, b, i = vmap[u], vmap[v], len(h._edges)
            h._edges.append((a, b))
            h._inc[a].append(i)
            h._inc[b].append(i)
            emap[eid] = i
    return h, vmap, emap


def remove_vertices(
    g: PseudoGraph, doomed: Iterable[int]
) -> Tuple[PseudoGraph, Dict[int, int], Dict[int, int]]:
    """Delete the given vertices and their edges, compacting labels; the
    same result as induced_subgraph on the survivors."""
    doomed_set = set(doomed)
    for v in doomed_set:
        g._check_vertex(v)
    return induced_subgraph(g, [v for v in g.vertices() if v not in doomed_set])


def solve_per_component(
    g: PseudoGraph, solve: Callable[[PseudoGraph, Dict[int, int]], Mapping[int, int]]
) -> Dict[int, int]:
    """Run solve on each connected component and merge its per-edge answers
    under g's edge ids.

    solve receives the component, cut out by induced_subgraph, and the edge
    map from g into it.  A connected g is passed as it is, with the identity
    map, and is not copied.
    """
    comps = g.connected_components()
    if len(comps) <= 1:
        return dict(solve(g, {e: e for e in g.edge_ids()}))
    out: Dict[int, int] = {}
    for comp in comps:
        sub, _, emap = induced_subgraph(g, comp)
        inv = {loc: orig for orig, loc in emap.items()}
        for loc, val in solve(sub, emap).items():
            out[inv[loc]] = val
    return out


# -- graph6 ------------------------------------------------------------------

_G6_MIN, _G6_MAX = 63, 126


def _g6_parse_n(data: bytes) -> Tuple[int, int]:
    """Return (n, header length in bytes)."""
    if not data:
        raise Graph6Error("empty graph6 input", 0)
    b0 = data[0]
    if b0 != 126:
        return b0 - 63, 1
    if len(data) < 2:
        raise Graph6Error("truncated extended header", 1)
    if data[1] != 126:
        if len(data) < 4:
            raise Graph6Error("truncated extended header", len(data))
        n = 0
        for i in range(1, 4):
            n = (n << 6) | (data[i] - 63)
        return n, 4
    if len(data) < 8:
        raise Graph6Error("truncated extended header", len(data))
    n = 0
    for i in range(2, 8):
        n = (n << 6) | (data[i] - 63)
    return n, 8


def parse_graph6(line) -> PseudoGraph:
    """Decode one graph6 line into a simple graph.

    Adjacency bits run over vertex pairs (0,1), (0,2), (1,2), (0,3), ... in
    column-major upper-triangle order, six bits per byte, high bit first.
    """
    if isinstance(line, str):
        try:
            data = line.strip().encode("ascii")
        except UnicodeEncodeError as exc:
            raise Graph6Error(
                f"non-ASCII character {exc.object[exc.start]!r}", exc.start
            ) from None
    else:
        data = bytes(line).strip()
    if data.startswith(b">>graph6<<"):
        data = data[10:]
    for off, b in enumerate(data):
        if not _G6_MIN <= b <= _G6_MAX:
            raise Graph6Error(f"byte 0x{b:02x} outside graph6 range", off)
    n, header = _g6_parse_n(data)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    if len(data) != header + nbytes:
        raise Graph6Error(
            f"expected {header + nbytes} bytes for n={n}, got {len(data)}", len(data)
        )
    g = PseudoGraph(n)
    bit = 0
    for j in range(1, n):
        for i in range(j):
            byte = data[header + bit // 6] - 63
            if (byte >> (5 - bit % 6)) & 1:
                g.add_edge(i, j)
            bit += 1
    # Trailing padding bits must be zero.
    while bit % 6 != 0:
        byte = data[header + bit // 6] - 63
        if (byte >> (5 - bit % 6)) & 1:
            raise Graph6Error("nonzero padding bit", header + bit // 6)
        bit += 1
    return g


def write_graph6(g: PseudoGraph) -> str:
    """Encode a simple graph as one graph6 line (inverse of parse_graph6)."""
    if not g.is_simple():
        raise ValueError("graph6 encodes simple graphs only")
    n = g.num_vertices
    if n <= 62:
        header = bytes([n + 63])
    elif n <= 258047:
        header = bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    else:
        header = bytes(
            [126, 126] + [((n >> (6 * k)) & 63) + 63 for k in range(5, -1, -1)]
        )
    adj = [[False] * n for _ in range(n)]
    for _, u, v in g.edges():
        adj[u][v] = adj[v][u] = True
    bits: List[int] = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if adj[i][j] else 0)
    while len(bits) % 6 != 0:
        bits.append(0)
    body = bytearray()
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = (val << 1) | b
        body.append(val + 63)
    return (header + bytes(body)).decode("ascii")


# -- multigraph edge-list text -----------------------------------------------


def parse_edge_list(text: str) -> PseudoGraph:
    """Parse the 'n m' header plus one 'u v' line per edge; 'u u' is a loop."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.strip().startswith("#")]
    if not lines:
        raise ValueError("empty edge list input")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"bad edge list header: {lines[0]!r}")
    n, m = int(head[0]), int(head[1])
    if len(lines) - 1 != m:
        raise ValueError(f"header promises {m} edges, found {len(lines) - 1}")
    if n > 2 * m:
        # m edges touch at most 2m vertices; checked before n lists are built
        raise ValueError(f"header promises {n} vertices but only {m} edges")
    g = PseudoGraph(n)
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"bad edge line: {ln!r}")
        g.add_edge(int(parts[0]), int(parts[1]))
    return g


def write_edge_list(g: PseudoGraph) -> str:
    lines = [f"{g.num_vertices} {g.num_edges}"]
    lines.extend(f"{u} {v}" for _, u, v in g.edges())
    return "\n".join(lines) + "\n"


# -- DOT output ----------------------------------------------------------------


def write_dot(g: PseudoGraph, coloring=None) -> str:
    """Render as Graphviz 'graph'; edge labels carry color and status if given.

    The coloring argument, when present, must expose .colors (dict eid ->
    int) and .status_label(eid) -> str.
    """
    out = ["graph G {"]
    for v in g.vertices():
        out.append(f"  {v};")
    for eid, u, v in g.edges():
        if coloring is not None and eid in coloring.colors:
            label = f"{coloring.colors[eid]} {coloring.status_label(eid)}"
            out.append(f'  {u} -- {v} [label="{label}"];')
        else:
            out.append(f"  {u} -- {v};")
    out.append("}")
    return "\n".join(out) + "\n"
