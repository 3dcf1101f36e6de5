"""The benchmark's traced names all resolve to functions in wlhom.

bench/tracing.py wraps each "module.function" in its TRACED tuple and
reports a name it cannot find as absent instead of failing, so a rename
here would silently zero that name's per-layer numbers.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def traced_names() -> tuple[str, ...]:
    """The TRACED tuple, read from the source without importing it."""
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "TRACED"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {TRACING}")


def test_every_traced_name_is_a_wlhom_function():
    names = traced_names()
    assert names
    for name in names:
        module_name, _, attr = name.partition(".")
        module = importlib.import_module(f"wlhom.{module_name}")
        assert inspect.isfunction(getattr(module, attr, None)), name
