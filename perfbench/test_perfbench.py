"""Self-tests of the benchmark harness (seconds, not minutes).

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_on_synthetic_nested_calls():
    clock = FakeClock()
    tr = Tracer(clock=clock)

    def inner(d):
        clock.now += d

    def outer():
        clock.now += 1
        inner_t(2)
        clock.now += 3
        inner_t(4)

    def rec(n):
        clock.now += 1
        if n:
            rec_t(n - 1)

    inner_t = tr.wrap("inner", inner)
    outer_t = tr.wrap("outer", outer)
    rec_t = tr.wrap("rec", rec)
    outer_t()
    rec_t(2)

    o, i, r = tr.stats["outer"], tr.stats["inner"], tr.stats["rec"]
    assert (o.calls, o.total_s, o.self_s) == (1, 10.0, 4.0)
    assert (i.calls, i.total_s, i.self_s) == (2, 6.0, 6.0)
    # recursion: total counts the outermost activation only
    assert (r.calls, r.total_s, r.self_s) == (3, 3.0, 3.0)
    names = [tr.names[k] for k in tr.span_name]
    assert names == ["outer", "inner", "inner", "rec", "rec", "rec"]
    assert list(tr.span_parent) == [-1, 0, 0, -1, 3, 4]
    assert [tr.span_end[k] - tr.span_start[k] for k in range(6)] == [10, 2, 4, 3, 2, 1]


def _namespaces():
    import numpy.polynomial.legendre as legendre

    mods = [m for k, m in sys.modules.items() if k == "liesym" or k.startswith("liesym.")]
    return mods + [legendre]


def test_install_counts_calls_through_rebound_names_and_restores_all():
    import numpy as np

    import liesym
    import liesym.cli
    from liesym import audit, catalog, cli, fields, fracnum

    before = {id(m): dict(vars(m)) for m in _namespaces()}
    sample_raw = fracnum.GridFunction.__dict__["sample"]
    tr = Tracer().install()
    try:
        assert liesym.parse is not before[id(liesym)]["parse"]
        eq = catalog.HeatEquation(1, "integer")
        basis = [g.field for g in catalog.generators(eq)][:3]
        br = fields.lie_bracket(basis[0], basis[1])
        audit.decompose_in_basis(br, basis)          # bound in audit by from-import
        audit.decompose_in_basis(br, basis)          # same pair again
        cli.commutator_table(basis)                  # bound in cli by from-import
        fracnum.GridFunction.sample(lambda t, xs: t, 1.0, 4, ((0.0, 1.0, 3),))
        np.polynomial.legendre.leggauss(3)
        fracnum.j_quadrature(lambda t: 1.0, lambda t: 1.0, 0.5, 0.5, 1.0, nodes=8)
        liesym.parse("x")                            # re-exported by the package
    finally:
        tr.remove()

    m = tr.metrics()
    assert m["catalog.generators.calls"] == 1
    assert m["fields.lie_bracket.calls"] == 1 + 3     # direct + inside the table
    assert m["fields.decompose_in_basis.calls"] == 2 + 3
    assert m["fields.decompose_in_basis.useful_ratio"] == pytest.approx(3 / 5)
    assert m["fields.commutator_table.calls"] == 1
    assert m["fracnum.GridFunction.sample.calls"] == 1
    assert m["fracnum.GridFunction.sample.points"] == 5 * 3
    assert m["fracnum.j_quadrature.calls"] == 1
    assert m["fracnum.j_quadrature.node_pairs"] == 64
    assert m["fracnum.leggauss.calls"] == 2           # direct + inside j_quadrature
    assert m["parser.parse.calls"] >= 1
    assert set(tr.stats) == set(tracer.FUNCTION_NAMES)

    for mod in _namespaces():
        now = vars(mod)
        for key, value in before[id(mod)].items():
            assert now[key] is value, f"{mod.__name__}.{key} not restored"
    assert fracnum.GridFunction.__dict__["sample"] is sample_raw


def _traced_smoke(workload: str, tmp_path: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", "3",
         "--trace", "1", "--size", "smoke", "--workdir", str(tmp_path)],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


COUNTS = ("calls", "points", "node_pairs")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_pass_is_correct_and_traced_counts_repeat(workload, tmp_path):
    first = _traced_smoke(workload, tmp_path)
    second = _traced_smoke(workload, tmp_path)
    for r in (first, second):
        assert r["error"] is None and r["failed"] == [] and r["attempted"] > 0
    counts = {k: v for k, v in first["layers"].items() if k.endswith(COUNTS)}
    assert counts == {k: second["layers"][k] for k in counts}
    if workload != "fractional-numeric":
        assert counts["fracnum.GridFunction.sample.calls"] == 0
    if workload == "symbolic-certify":
        assert counts["fields.decompose_in_basis.calls"] == 0


def test_corrupted_expected_table_fails_checks_without_crashing(tmp_path):
    expected = json.loads(workloads.EXPECTED_TABLES.read_text())
    expected["brackets_n2_integer.json"] = "0" * 64
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(expected))
    worker.import_liesym()
    r = worker.run_pass("exact-algebra", 0, tmp_path, False, "smoke", corrupted)
    assert r["failed"] == ["table:brackets_n2_integer.json"]
    assert 0 < len(r["failed"]) / r["attempted"] < 1

    # A pass that raises counts every check it did not reach as failed.
    r = worker.run_pass("exact-algebra", 0, tmp_path, False, "smoke", tmp_path / "missing")
    assert r["error"] is not None
    assert len(r["failed"]) == r["attempted"] > 0


def test_verify_with_zero_checks_does_not_pass(tmp_path):
    worker.import_liesym()
    from liesym import cli

    out = tmp_path / "v.json"
    assert cli.main(["verify", "--n", "3..1", "--format", "json", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["checks"] == []
    checks = workloads.Checks(workloads.verify_plan((3,), "integer"))
    workloads.check_verify_report(report, (3,), "integer", checks)
    # exit_code was never recorded, so it counts as failed too
    assert checks.failed_names() == checks.planned


def test_expected_tables_match_the_tracked_tables():
    tables = ROOT / "out" / "tables"
    if not tables.is_dir():
        pytest.skip("no out/tables in this checkout")
    expected = json.loads(workloads.EXPECTED_TABLES.read_text())
    actual = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tables.iterdir()}
    assert actual == expected
    full = workloads.exact_algebra_plan("full")
    assert sorted(n for n in full if n.startswith("table:")) == sorted(f"table:{k}"
                                                                     for k in expected)


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "symbolic-certify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
