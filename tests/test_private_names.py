"""Every private name the package defines is read somewhere in it.

Like tests/test_imports.py, this walks the syntax trees with `ast`.  A
private name starts with one underscore and is not a dunder.  The names
checked are module-level functions, classes and constants, and methods;
one counts as read when any module of the package loads it as a name or
as an attribute.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gradarg"


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def defined_names(tree: ast.Module) -> set[str]:
    """Private module-level functions, classes and constants, and methods."""
    scopes = [tree.body] + [n.body for n in tree.body if isinstance(n, ast.ClassDef)]
    names = set()
    for body in scopes:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and body is tree.body:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names |= {t.id for t in targets if isinstance(t, ast.Name)}
    return set(filter(_is_private, names))


def read_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def unreferenced(sources) -> list[str]:
    trees = [ast.parse(source) for source in sources]
    defined = set().union(*map(defined_names, trees))
    read = set().union(*map(read_names, trees))
    return sorted(defined - read)


def test_the_check_sees_functions_classes_constants_and_methods():
    source = (
        "_LIMIT = 3\n"
        "_TABLE: dict = {}\n"
        "__version__ = '1'\n"
        "class _Hidden:\n"
        "    def _helper(self): return self._used()\n"
        "    def _used(self): return _LIMIT\n"
        "    def __repr__(self): return ''\n"
        "def _render(value): return str(value)\n"
        "def public(): _render = 1\n"
    )
    assert unreferenced([source]) == ["_Hidden", "_TABLE", "_helper", "_render"]


def test_no_unreferenced_private_names():
    sources = [path.read_text(encoding="utf-8") for path in sorted(PACKAGE.rglob("*.py"))]
    assert unreferenced(sources) == []
