"""Every import in the package is used and comes from the standard
library, and the package exports what its modules export.

No linter runs on this project, so this walks each module's syntax tree.
An imported name counts as used when the module reads it anywhere or
lists it in a literal `__all__` (a re-export); a computed `__all__` reads
its names like any other expression.  `from __future__` imports are
compiler directives and bind nothing.
"""

import ast
import importlib
import sys
from pathlib import Path

import pytest

import gradarg

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "gradarg"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names if a.name != "*"}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            try:
                used |= set(ast.literal_eval(node.value))
            except ValueError:  # computed: its name loads are counted above
                pass
    return sorted(imported - used)


def non_stdlib_imports(source: str) -> list[str]:
    """Top-level modules of the absolute imports that are not in the
    standard library."""
    modules = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules |= {a.name.partition(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules.add(node.module.partition(".")[0])
    return sorted(modules - sys.stdlib_module_names)


def test_the_check_honours_reexports_and_future_imports():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json\n"
        "from typing import Callable as C, Mapping\n"
        "__all__ = ['Mapping']\n"
        "print(json.dumps(1))\n"
    )
    assert unused_imports(source) == ["C", "os"]
    computed = (
        "from . import a\n"
        "from .a import *\n"
        "import json\n"
        "__all__ = [*a.__all__, 'x']\n"
    )
    assert unused_imports(computed) == ["json"]


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_stdlib_check_flags_third_party_imports():
    source = (
        "from __future__ import annotations\n"
        "import numpy\n"
        "import os.path\n"
        "from scipy.sparse import csr_matrix\n"
        "from .framework import AttackGraph\n"
    )
    assert non_stdlib_imports(source) == ["numpy", "scipy"]


@pytest.mark.parametrize(
    "path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.name)
def test_the_package_imports_only_the_standard_library(path):
    # the package has no runtime dependencies
    assert non_stdlib_imports(path.read_text(encoding="utf-8")) == []


MODULES = ("acceptability", "framework", "local", "tuple_eval", "tuples")


def test_the_package_exports_exactly_its_modules_exports():
    exported = {}
    for name in MODULES:
        module = importlib.import_module(f"gradarg.{name}")
        exported.update((n, getattr(module, n)) for n in module.__all__)
    assert len(gradarg.__all__) == len(set(gradarg.__all__))
    assert set(gradarg.__all__) == set(exported)
    for name in exported:
        assert getattr(gradarg, name) is exported[name], name
