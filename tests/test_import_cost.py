"""Importing the CLI does no kernel work and loads no new module: every
memo is still empty afterwards, and the standard-library and liesym modules
loaded are among those pinned in tests/data/import_modules.txt.  Every CLI
call is a fresh interpreter, so import-time work is paid on each run."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PINNED = ROOT / "tests" / "data" / "import_modules.txt"

# the kernel's memos on the finite alphabet and the parser's atom memo
KERNEL_MEMOS = {
    "liesym.expr.canonical_var", "liesym.expr._sorted_index", "liesym.expr.spatial_names",
    "liesym.expr._code", "liesym.expr._atom", "liesym.expr._atom_total_derivative",
    "liesym.parser._coordinate_expr",
}

_PROBE = """
import json, sys
import liesym.cli
memos = {f"{name}.{attr}": obj.cache_info().currsize
         for name, mod in list(sys.modules.items()) if name.startswith("liesym")
         for attr, obj in vars(mod).items()
         if hasattr(obj, "cache_info") and obj.__module__ == name}
print(json.dumps({"memos": memos, "modules": sorted(sys.modules)}))
"""


@pytest.fixture(scope="module")
def after_import():
    # a fixed environment: what site loads depends on it (no HOME loads pwd)
    env = {"PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True, text=True,
                          cwd=ROOT, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_fills_no_memo(after_import):
    memos = after_import["memos"]
    assert KERNEL_MEMOS <= set(memos)
    assert {name: size for name, size in memos.items() if size} == {}


def test_import_loads_no_new_module(after_import):
    lines = PINNED.read_text().splitlines()
    version = lines[0].rsplit(" ", 1)[1]
    if version != "%d.%d" % sys.version_info[:2]:
        pytest.skip(f"the module list is pinned for Python {version}")
    # third-party modules (numpy and what it pulls in) are left out
    loaded = {m for m in after_import["modules"]
              if m.split(".")[0] in sys.stdlib_module_names or m.split(".")[0] == "liesym"}
    assert sorted(loaded - set(lines[1:])) == []
