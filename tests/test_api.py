import importlib

import pytest

MODULES = ["contagionopt"] + [f"contagionopt.{name}" for name in (
    "model", "dynamics", "logopt", "powergrid", "stats", "experiments")]


@pytest.mark.parametrize("name", MODULES)
def test_every_all_entry_resolves(name):
    module = importlib.import_module(name)
    assert [entry for entry in module.__all__ if not hasattr(module, entry)] == []
