import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = ["contagionopt"] + [f"contagionopt.{name}" for name in (
    "model", "dynamics", "logopt", "powergrid", "stats", "experiments")]


def code_references() -> set:
    """Every name that code under ``src``, ``tools`` and ``perfbench`` reads,
    as a name or as an attribute; a definition, an import, a string and a
    docstring are not reads."""
    names = set()
    for path in (p for d in ("src", "tools", "perfbench") for p in (ROOT / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(getattr(node, "ctx", None), ast.Load):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
    return names


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []


@pytest.mark.parametrize("name", MODULES[1:])
def test_every_all_entry_is_read_outside_the_tests(name):
    # a public name that only tests read belongs in a test helper
    read = code_references()
    assert [entry for entry in importlib.import_module(name).__all__ if entry not in read] == []
