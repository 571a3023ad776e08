"""The benchmark's tracer wraps gradarg functions by name; a renamed or
deleted entry point breaks every traced benchmark run.  The table is read
from the tracer's source without running any benchmark code."""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def entry_points():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "ENTRY_POINTS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"no ENTRY_POINTS table in {TRACING}")


ENTRY_POINTS = entry_points()


@pytest.mark.parametrize("span, module, attr", ENTRY_POINTS,
                         ids=[span for span, _, _ in ENTRY_POINTS])
def test_traced_entry_point_resolves(span, module, attr):
    target = importlib.import_module(module)
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target), span
