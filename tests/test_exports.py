"""Every name a liesym module lists in ``__all__`` must exist in it and have
a caller outside the tests."""

import ast
import functools
import importlib
import pkgutil
from pathlib import Path

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


ROOT = Path(__file__).resolve().parents[1]
CALLER_DIRS = ("src/liesym", "scripts", "perfbench")

# public names whose only callers are tests, each kept for the check it serves
TEST_ONLY_NAMES = {
    "liesym.fracnum.right_rl_derivative_grid": "acceptance test 7 and the adjoint-kernel test",
    "liesym.fracnum.right_rl_integral_values": "reference in test_time_derivative_identity",
}


@functools.cache
def _identifiers() -> frozenset:
    """Every name read (an ast.Name in Load context) and every attribute
    name in the non-test Python sources.  Importing a name or assigning to
    it is not a use."""
    found = set()
    for d in CALLER_DIRS:
        for path in (ROOT / d).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    found.add(node.id)
                elif isinstance(node, ast.Attribute):
                    found.add(node.attr)
    return frozenset(found)


@pytest.mark.parametrize("module_name", MODULES)
def test_public_names_have_a_caller_outside_tests(module_name):
    module = importlib.import_module(module_name)
    identifiers = _identifiers()
    unused = [
        name for name in getattr(module, "__all__", ())
        if name not in identifiers and f"{module_name}.{name}" not in TEST_ONLY_NAMES
    ]
    assert unused == []
