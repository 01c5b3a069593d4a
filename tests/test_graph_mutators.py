"""Only graph_core changes a graph's state.

cuts_reductions.cycle_space_labels answers from its memo slot while a graph
reports the mutation counter it was labelled at.  That holds only if every
change goes through add_vertex, add_edge and remove_edge, which bump the
counter.  This AST scan fails when a module other than graph_core assigns
to, deletes, or mutates in place a graph's ``_n``, ``_edges``, ``_inc`` or
``_mutations``; an alias taken first (``inc = g._inc``) is beyond it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
STATE = frozenset({"_n", "_edges", "_inc", "_mutations"})
MUTATING_METHODS = frozenset(
    {"append", "extend", "insert", "remove", "pop", "clear", "sort", "reverse", "__setitem__", "__delitem__"}
)
SCANNED = [
    p
    for d in ("src/normal7", "tests", "tools", "perfbench")
    for p in sorted((ROOT / d).glob("*.py"))
    if p.name != "graph_core.py"
]


def _state_attr(node: ast.AST):
    """The state attribute an expression reaches through subscripts, if any:
    ``g._inc`` and ``g._inc[v]`` both reach ``_inc``."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and node.attr in STATE:
        return node.attr
    return None


def state_writes(tree: ast.Module):
    """(attribute, line) for every write to graph state in tree."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Attribute, ast.Subscript)) and isinstance(node.ctx, (ast.Store, ast.Del)):
            attr = _state_attr(node)
            if attr:
                yield attr, node.lineno
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in MUTATING_METHODS:
                attr = _state_attr(func.value)
                if attr:
                    yield attr, node.lineno
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in ("setattr", "delattr", "__setattr__", "__delattr__") and len(node.args) >= 2:
                key = node.args[1]
                if isinstance(key, ast.Constant) and key.value in STATE:
                    yield key.value, node.lineno


@pytest.mark.parametrize("path", SCANNED, ids=lambda p: str(p.relative_to(ROOT)))
def test_only_graph_core_writes_graph_state(path):
    writes = list(state_writes(ast.parse(path.read_text(encoding="utf-8"))))
    assert not writes, f"{path.name} changes a graph outside its mutators: {writes}"


def test_scan_flags_every_kind_of_write():
    tree = ast.parse(
        "g._n = 3\n"
        "g._n += 1\n"
        "g._edges[4] = None\n"
        "del g._edges[4]\n"
        "g._inc[v].append(7)\n"
        "g._edges.extend([(0, 1)])\n"
        "a, g._mutations = 1, 2\n"
        "setattr(g, '_inc', [])\n"
        "object.__setattr__(g, '_n', 0)\n"
        "for g._n in range(2): pass\n"
        # reads are not writes
        "x = g._edges[4]\n"
        "y = len(g._inc[v])\n"
        "z = g._inc[v].index(7)\n"
        "g.edges_list.append(1)\n"
    )
    assert sorted(line for _, line in state_writes(tree)) == list(range(1, 11))


def test_scan_sees_graph_cores_own_writes():
    # the mutators themselves are writes: the scan reads the real source
    tree = ast.parse((ROOT / "src/normal7/graph_core.py").read_text(encoding="utf-8"))
    assert {attr for attr, _ in state_writes(tree)} == STATE
