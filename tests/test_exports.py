"""Every name a liesym module lists in ``__all__`` must exist in it."""

import importlib
import pkgutil

import pytest

import liesym

# __main__ is skipped: importing it runs the CLI
MODULES = ["liesym"] + [
    f"liesym.{m.name}" for m in pkgutil.iter_modules(liesym.__path__)
    if m.name != "__main__"
]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []
