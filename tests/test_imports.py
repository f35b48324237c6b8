"""Import hygiene of src/, read with the stdlib ast module: no import binds
a name that its scope never reads, and no function imports from a module
that its file already imports from at top level (a function-local import
is kept for a module the file does not import at top, to load it lazily
or to break a cycle)."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
FILES = sorted(SRC.rglob("*.py"))


def bound_names(node) -> list[str]:
    """The names an import statement binds (import a.b binds a)."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return []
    return [alias.asname or alias.name.split(".")[0] for alias in node.names]


def read_names(scope) -> set[str]:
    """Every name the scope reads, and the strings of an __all__ list."""
    names = {n.id for n in ast.walk(scope) if isinstance(n, ast.Name)}
    for n in ast.walk(scope):
        if (isinstance(n, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in n.targets)):
            names |= {e.value for e in n.value.elts}
    return names


def imports_by_scope(tree):
    """(scope, import) for every import: the module for top-level imports,
    the innermost enclosing function for the rest."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                yield scope, child
            inner = child if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
            yield from walk(child, inner)
    return list(walk(tree, tree))


def problems(source: str) -> list[str]:
    tree = ast.parse(source)
    found = []
    imports = imports_by_scope(tree)
    top_modules = {(node.level, node.module) for scope, node in imports
                   if scope is tree and isinstance(node, ast.ImportFrom)}
    for scope, node in imports:
        unread = set(bound_names(node)) - read_names(scope)
        found += [f"line {node.lineno}: {name} is never read"
                  for name in sorted(unread)]
        if (scope is not tree and isinstance(node, ast.ImportFrom)
                and node.level and (node.level, node.module) in top_modules):
            found.append(f"line {node.lineno}: {scope.name} imports from "
                         f"{'.' * node.level}{node.module or ''}, which the "
                         f"file imports from at top level")
    return found


@pytest.mark.parametrize("path", FILES,
                         ids=[str(p.relative_to(SRC)) for p in FILES])
def test_imports_are_read_and_not_repeated(path):
    assert problems(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_both_faults():
    source = (
        "from .families import Carrier, bits_of\n"
        "import os.path\n"
        "def f():\n"
        "    from .families import popcount\n"
        "    from .maps import classify\n"
        "    return Carrier, popcount, classify\n")
    assert problems(source) == [
        "line 1: bits_of is never read",
        "line 2: os is never read",
        "line 4: f imports from .families, which the file imports from at "
        "top level",
    ]
