"""Every name a monoflow module lists in __all__ exists on it."""

import importlib
import pkgutil

import pytest

import monoflow

EXPORTING = ["monoflow"] + [
    f"monoflow.{name}" for name in ("operators", "feedback", "flow", "hpe", "tensor", "metrics", "problems", "checks")
]


def test_the_modules_that_export():
    modules = ["monoflow"] + [f"monoflow.{m.name}" for m in pkgutil.iter_modules(monoflow.__path__)]
    assert sorted(m for m in modules if hasattr(importlib.import_module(m), "__all__")) == sorted(EXPORTING)


@pytest.mark.parametrize("name", EXPORTING)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    assert len(set(module.__all__)) == len(module.__all__)
