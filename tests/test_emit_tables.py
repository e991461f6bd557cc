"""The tracked out/tables files are golden: scripts/emit_tables.py must
reproduce each of them byte for byte."""

import importlib.util
from pathlib import Path

import pytest

from liesym.catalog import FRACTIONAL, INTEGER

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
