import argparse
import ast
import importlib
import inspect
import textwrap
from pathlib import Path

import pytest

from contagionopt import cli

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


def args_read(func) -> set:
    """The attributes that ``func`` reads from its ``args``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(func)))
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name) and node.value.id == "args"}


def test_every_cli_option_is_read_by_its_command():
    # an option that its command never reads is accepted and does nothing
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    loaded = args_read(cli._load)
    unread = [(name, action.dest) for name, parser in sub.choices.items()
              for action in parser._actions
              if not isinstance(action, argparse._HelpAction)
              and action.dest not in args_read(parser.get_default("func")) | loaded]
    assert unread == []
