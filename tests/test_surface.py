"""The public surface resolves: every ``__all__`` name and every traced function.

A stale ``__all__`` entry passes ``import ensimp`` and fails only on
``from ensimp.<module> import *``; a traced function that was renamed or
removed fails only when the benchmark's tracer starts. Both are checked here
without running either.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import ensimp

MODULES = sorted(info.name for info in pkgutil.iter_modules(ensimp.__path__))
TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def tracer_targets() -> tuple[tuple[str, str], ...]:
    """The tracer's ``TARGETS`` tuple, read from its source without importing it."""
    for node in ast.parse(TRACER.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {TRACER}")


@pytest.mark.parametrize("name", MODULES)
def test_every_all_name_resolves(name):
    module = importlib.import_module(f"ensimp.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"ensimp.{name}.__all__ names missing attributes: {missing}"


def test_every_tracer_target_exists():
    targets = tracer_targets()
    assert targets
    for module_name, fn_name in targets:
        module = importlib.import_module(f"ensimp.{module_name}")
        assert callable(getattr(module, fn_name, None)), f"ensimp.{module_name}.{fn_name}"
