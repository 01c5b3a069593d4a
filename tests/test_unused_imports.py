"""Every name a library or test module imports is used in that module, and
every module-level name of the library is read in the library: a private
name anywhere in it, a public function or class outside its own definition
unless the package exports it.

The repository has no linter, so these AST scans stand in for one: deleting
a function must not leave its imports behind, in the library or in the
tests that called it, and replacing a helper must not leave the old one
behind.  The package ``__init__`` imports names only to re-export them and
is skipped by the import scan, as is the tests' empty ``__init__``.
"""

import ast
from pathlib import Path

import pytest

import normal7

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "normal7"
MODULES = [
    p for d in (SRC, TESTS) for p in sorted(d.glob("*.py")) if p.name != "__init__.py"
]


def imported_names(tree: ast.Module):
    """(bound name, line) for every import except ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def used_names(tree: ast.Module):
    """Names read anywhere, including inside quoted annotations."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    used |= {
                        n.id for n in ast.walk(ast.parse(sub.value, mode="eval"))
                        if isinstance(n, ast.Name)
                    }
    return used


@pytest.mark.parametrize(
    "path", MODULES, ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}"
)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_scan_flags_an_unused_import():
    tree = ast.parse(
        "from typing import List, Optional\n"
        "import json\n"
        "def f(x: 'Optional[int]') -> None:\n"
        "    return json.dumps(x)\n"
    )
    used = used_names(tree)
    assert [n for n, _ in imported_names(tree) if n not in used] == ["List"]


def private_definitions(tree: ast.Module):
    """(name, line) for every module-level ``_name`` function, class or
    assignment target; dunder names are not private helpers."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            nodes = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [n.id for t in nodes for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def test_every_private_helper_is_read():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    read = set().union(*(used_names(t) for t in trees.values()))
    read |= {n.attr for t in trees.values() for n in ast.walk(t) if isinstance(n, ast.Attribute)}
    dead = [
        f"{module}: {name} (line {line})"
        for module, tree in trees.items()
        for name, line in private_definitions(tree)
        if name not in read
    ]
    assert not dead, f"private names nothing in src/normal7 reads: {dead}"


def test_scan_flags_a_dead_private_helper():
    tree = ast.parse(
        "_LIMIT = 3\n"
        "_Pair = tuple\n"
        "def _used(): return _LIMIT\n"
        "def _dead(): return _used()\n"
        "class _Old: pass\n"
        "__all__ = []\n"
    )
    read = used_names(tree)
    assert [n for n, _ in private_definitions(tree) if n not in read] == ["_Pair", "_dead", "_Old"]


def read_names(tree: ast.Module):
    """Names read in tree, as plain names or as attributes."""
    attrs = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    return used_names(tree) | attrs


def dead_public_definitions(trees, exported):
    """(module, name, line) for every module-level public function or class
    that is not exported and that nothing reads outside its own definition."""
    for module, tree in trees.items():
        elsewhere = set().union(*(read_names(t) for m, t in trees.items() if m != module))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_") or node.name in exported or node.name in elsewhere:
                continue
            rest = ast.Module(body=[n for n in tree.body if n is not node], type_ignores=[])
            if node.name not in read_names(rest):
                yield module, node.name, node.lineno


def test_every_public_helper_is_exported_or_read():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(SRC.glob("*.py"))}
    dead = [
        f"{module}: {name} (line {line})"
        for module, name, line in dead_public_definitions(trees, set(normal7.__all__))
    ]
    assert not dead, f"public names neither exported nor read in src/normal7: {dead}"


def test_scan_flags_a_dead_public_helper():
    trees = {
        "a.py": ast.parse(
            "def exported(): return helper()\n"
            "def helper(): return 1\n"
            "def recursive(n): return recursive(n - 1) if n else 0\n"
            "class Old: pass\n"
            "def used_by_b(): pass\n"
        ),
        "b.py": ast.parse("import a\nx = a.used_by_b()\n"),
    }
    dead = [name for _, name, _ in dead_public_definitions(trees, {"exported"})]
    assert dead == ["recursive", "Old"]
