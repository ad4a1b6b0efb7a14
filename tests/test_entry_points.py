"""The names the benchmark's tracer wraps must exist in msd.

``perfbench/tracing.py`` wraps msd's public entry points from outside the
package and fails a traced run when one is missing; this reads its
``ENTRY_POINTS`` table without importing it and resolves every entry, so a
deleted or renamed name fails here first.
"""

import ast
import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _entry_points() -> list[tuple[str, str]]:
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "ENTRY_POINTS" for t in node.targets):
            return [(row.elts[0].value, row.elts[1].value) for row in node.value.elts]
    raise AssertionError("ENTRY_POINTS not found in perfbench/tracing.py")


def test_traced_entry_points_resolve():
    entries = _entry_points()
    assert entries
    missing = []
    for module, attr in entries:
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{attr}")
    assert not missing, f"traced entry points missing from msd: {missing}"
