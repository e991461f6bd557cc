"""The tracked out/tables files are golden: scripts/emit_tables.py must
reproduce each of them byte for byte, bracketing each basis pair once."""

import importlib.util
import itertools
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from liesym import fields
from liesym.catalog import FRACTIONAL, INTEGER, HeatEquation, generators
from liesym.cli import _algebra_report

ROOT = Path(__file__).resolve().parents[1]
TABLES = ROOT / "out" / "tables"


def _load_emit_tables():
    spec = importlib.util.spec_from_file_location("emit_tables", ROOT / "scripts" / "emit_tables.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


emit_tables = _load_emit_tables()


@pytest.mark.parametrize("regime", [INTEGER, FRACTIONAL])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_render_matches_golden_tables(n, regime):
    files = emit_tables.render(n, regime)
    golden = sorted(p.name for p in TABLES.glob(f"*_n{n}_{regime}.*"))
    assert sorted(files) == golden
    for name, text in files.items():
        assert text.encode() == (TABLES / name).read_bytes(), name


def _run_script(script, *argv):
    return subprocess.run([sys.executable, str(script), *argv], capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("argv, code", [("--help", 0), ("--tabels", 2)])
def test_arguments_are_read_before_any_table_is_written(argv, code):
    mtimes = {p.name: p.stat().st_mtime_ns for p in TABLES.iterdir()}
    assert len(mtimes) == 48
    proc = _run_script(ROOT / "scripts" / "emit_tables.py", argv)
    assert proc.returncode == code
    assert "usage: emit_tables.py" in (proc.stdout if code == 0 else proc.stderr)
    assert {p.name: p.stat().st_mtime_ns for p in TABLES.iterdir()} == mtimes


def test_plain_run_writes_the_golden_bytes(tmp_path):
    # a copy of the script writes under its own checkout root: tmp_path/out/tables
    (tmp_path / "scripts").mkdir()
    shutil.copy(ROOT / "scripts" / "emit_tables.py", tmp_path / "scripts")
    (tmp_path / "src").symlink_to(ROOT / "src")
    proc = _run_script(tmp_path / "scripts" / "emit_tables.py")
    assert proc.returncode == 0, proc.stderr
    written = tmp_path / "out" / "tables"
    assert sorted(p.name for p in written.iterdir()) == sorted(p.name for p in TABLES.iterdir())
    for p in written.iterdir():
        assert p.read_bytes() == (TABLES / p.name).read_bytes(), p.name


@pytest.fixture
def calls(monkeypatch):
    """Calls of lie_bracket per ordered pair of field names and of
    decompose_in_basis per (field, basis) names, counted from empty table
    and Jacobian caches in every liesym module that binds them."""
    fields._commutator_table.cache_clear()
    fields._jacobian.cache_clear()
    keys = {
        "lie_bracket": lambda a, b: (a.name, b.name),
        "decompose_in_basis": lambda f, basis: (f.name, tuple(b.name for b in basis)),
    }
    counts = {name: Counter() for name in keys}
    for name, key in keys.items():
        original = getattr(fields, name)

        def counting(x, y, original=original, key=key, counter=counts[name]):
            counter[key(x, y)] += 1
            return original(x, y)

        for modname, module in list(sys.modules.items()):
            if modname.startswith("liesym") and vars(module).get(name) is original:
                monkeypatch.setattr(module, name, counting)
    return counts


def _each_pair_once(basis):
    return {(a.name, b.name): 1 for a, b in itertools.combinations(basis, 2)}


@pytest.mark.parametrize("regime", [INTEGER, FRACTIONAL])
def test_render_brackets_and_decomposes_each_pair_once(calls, regime):
    emit_tables.render(4, regime)
    basis = [g.field for g in generators(HeatEquation(4, regime))]
    names = tuple(b.name for b in basis)
    assert dict(calls["lie_bracket"]) == _each_pair_once(basis)
    assert dict(calls["decompose_in_basis"]) == {
        (f"[{a},{b}]", names): 1 for a, b in _each_pair_once(basis)
    }


def test_algebra_report_brackets_each_pair_once(calls):
    eq = HeatEquation(5, INTEGER)
    _algebra_report(eq)
    finite = [g.field for g in generators(eq) if g.klass != "infinite"]
    names = tuple(b.name for b in finite)
    assert dict(calls["lie_bracket"]) == _each_pair_once(finite)
    # one table, the finite basis's: canonical matching reads it and builds none
    assert dict(calls["decompose_in_basis"]) == {
        (f"[{a},{b}]", names): 1 for a, b in _each_pair_once(finite)
    }


@pytest.mark.parametrize("run", [
    lambda: emit_tables.render(4, INTEGER),
    lambda: emit_tables.render(4, FRACTIONAL),
    lambda: _algebra_report(HeatEquation(5, INTEGER)),
], ids=["render-n4-integer", "render-n4-fractional", "algebra-n5-integer"])
def test_each_bracketed_field_builds_its_jacobian_once(calls, run):
    run()
    bracketed = {name for pair in calls["lie_bracket"] for name in pair}
    assert bracketed
    # a cache miss is a build: one per distinct field, none repeated
    assert fields._jacobian.cache_info().misses == len(bracketed)
