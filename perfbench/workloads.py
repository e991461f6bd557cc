"""The three benchmark workloads and the oracles that check their outputs.

Each workload is one pass of liesym work, run in a fresh interpreter by
``worker.py``.  A pass records its checks in a ``Checks`` object that knows
every check the pass plans to run, so a pass that raises part-way counts the
checks it never reached as failed.

liesym is imported only inside the workload functions, so that the worker can
time the import of the package on its own.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_TABLES = HERE / "expected_tables.json"

WORKLOADS = ("exact-algebra", "symbolic-certify", "fractional-numeric")

# Input sizes.  "full" is the benchmark; "smoke" is a seconds-long version of
# the same code path for the self-tests.
SIZES = {
    "exact-algebra": {
        "full": {"table_ns": (1, 2, 3, 4), "algebra_n": 5},
        "smoke": {"table_ns": (1, 2), "algebra_n": 2},
    },
    "symbolic-certify": {
        "full": {"ns": (5, 6, 7, 8)},
        "smoke": {"ns": (5,)},
    },
    "fractional-numeric": {
        "full": {"ns": (1, 2), "flux": ((2000, 256), (4000, 512))},
        "smoke": {"ns": (1,), "flux": ((500, 64), (1000, 128))},
    },
}

# Algebra report oracle per dimension: size of the finite basis and the
# derived series of the integer finite part.
ALGEBRA_EXPECTED = {2: [9, 8, 8], 5: [24, 24]}

# Flux balance of the u d_u law (generator G03, n = 1, fractional) with
# u = t^(alpha-1) and the adjoint-shell multiplier of acceptance test 6b.
FLUX_ALPHA = 0.5
FLUX_T = 2.0
FLUX_CELL = (0.5, 1.0, 0.0, 1.0)
FLUX_LIMIT = 1e-2


class Checks:
    """Named pass/fail oracle results against a plan fixed before the pass."""

    def __init__(self, planned):
        self.planned = list(planned)
        if len(set(self.planned)) != len(self.planned):
            raise ValueError("planned check names must be distinct")
        self.results: dict[str, bool] = {}

    def record(self, name: str, ok) -> None:
        if name not in self.planned:
            raise KeyError(f"unplanned check {name!r}")
        self.results[name] = bool(ok)

    @property
    def attempted(self) -> int:
        return len(self.planned)

    def failed_names(self) -> list[str]:
        """Checks that failed or never ran."""
        return [n for n in self.planned if not self.results.get(n, False)]


# ---------------------------------------------------------------------------
# exact-algebra
# ---------------------------------------------------------------------------

def table_jobs(table_ns) -> list[tuple[int, str]]:
    return [(n, regime) for n in table_ns for regime in ("integer", "fractional")]


def table_files(n: int, regime: str) -> list[str]:
    stem = f"n{n}_{regime}"
    return [f"{kind}_{stem}.{ext}" for kind in ("catalog", "brackets", "conserved")
            for ext in ("json", "tex")]


def emit_tables(n: int, regime: str) -> dict[str, str]:
    """The texts scripts/emit_tables.py writes for one (n, regime), in memory."""
    from liesym import audit, catalog, conservation, fields

    eq = catalog.HeatEquation(n, regime)
    stem = f"n{n}_{regime}"
    out = {}
    out[f"catalog_{stem}.json"] = json.dumps(catalog.catalog_json_obj(eq), indent=2,
                                            sort_keys=True)
    out[f"catalog_{stem}.tex"] = catalog.catalog_latex(eq)
    table = fields.commutator_table([g.field for g in catalog.generators(eq)])
    rows = [{"i": r.i, "j": r.j, "printed": r.printed, "computed": r.computed,
             "verdict": r.verdict} for r in audit.bracket_table_audit(eq)]
    out[f"brackets_{stem}.json"] = json.dumps(
        {"table": table.to_json_obj(), "audit": rows}, indent=2, sort_keys=True)
    out[f"brackets_{stem}.tex"] = table.to_latex()
    conserved = [conservation.conserved_vector_json_obj(conservation.conserved_vector(g, eq))
                 for g in catalog.generators(eq)]
    out[f"conserved_{stem}.json"] = json.dumps(conserved, indent=2, sort_keys=True)
    out[f"conserved_{stem}.tex"] = "\n\n".join(
        conservation.conserved_vector_latex(conservation.conserved_vector(g, eq))
        for g in catalog.generators(eq))
    return out


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def exact_algebra(seed: int, workdir: Path, checks: Checks, size: str = "full",
                  expected_tables: Path = EXPECTED_TABLES) -> None:
    from liesym import cli

    cfg = SIZES["exact-algebra"][size]
    jobs = table_jobs(cfg["table_ns"])
    # The seed only fixes the order of the table jobs; the inputs are fixed.
    random.Random(seed).shuffle(jobs)
    expected = json.loads(Path(expected_tables).read_text())
    for n, regime in jobs:
        for name, text in emit_tables(n, regime).items():
            checks.record(f"table:{name}", expected.get(name) == sha256_text(text))

    an = cfg["algebra_n"]
    out = workdir / "algebra.json"
    code = cli.main(["algebra", "--n", str(an), "--format", "json", "--out", str(out)])
    checks.record("algebra:exit_code", code == 0)
    report = json.loads(out.read_text())[0]
    checks.record("algebra:finite_part_closed", report.get("finite_part_closed") is True)
    checks.record("algebra:so_match", report.get("so_match") is True)
    checks.record("algebra:sl2_match", report.get("sl2_match") is True)
    checks.record("algebra:derived_series",
                  report.get("derived_series") == ALGEBRA_EXPECTED[an])


def exact_algebra_plan(size: str) -> list[str]:
    cfg = SIZES["exact-algebra"][size]
    names = [f"table:{f}" for n, r in table_jobs(cfg["table_ns"]) for f in table_files(n, r)]
    return names + ["algebra:exit_code", "algebra:finite_part_closed", "algebra:so_match",
                    "algebra:sl2_match", "algebra:derived_series"]


# ---------------------------------------------------------------------------
# verify oracle, shared by symbolic-certify and fractional-numeric
# ---------------------------------------------------------------------------

def verify_check_names(ns, regime: str) -> list[str]:
    """Every check `liesym verify` must report for these dimensions."""
    names = []
    for n in ns:
        names.append(f"count[n={n}]")
        if n <= 4:
            names.append(f"bracket_regression[n={n}]")
        if regime == "integer":
            names += [f"determining_residuals[n={n}]", f"perturbed_fields_nonzero[n={n}]",
                      f"conservation_divergences[n={n}]"]
        elif n <= 2:
            names.append(f"numeric_invariance[n={n}]")
        names.append(f"antisymmetry_sample[n={n}]")
    return names


def verify_plan(ns, regime: str) -> list[str]:
    return (["verify:exit_code", "verify:all_reported_passed"]
            + [f"verify:{c}" for c in verify_check_names(ns, regime)])


def run_verify(ns, regime: str, seed: int, workdir: Path, checks: Checks) -> None:
    from liesym import cli

    out = workdir / f"verify_{regime}.json"
    argv = ["verify", "--n", f"{ns[0]}..{ns[-1]}", "--regime", regime,
            "--seed", str(seed), "--format", "json", "--out", str(out)]
    code = cli.main(argv)
    checks.record("verify:exit_code", code == 0)
    check_verify_report(json.loads(out.read_text()), ns, regime, checks)


def check_verify_report(report: dict, ns, regime: str, checks: Checks) -> None:
    reported = {c["name"]: c["passed"] for c in report.get("checks", [])}
    # An empty report must not pass: all() of nothing is True.
    checks.record("verify:all_reported_passed",
                  bool(reported) and all(v is True for v in reported.values()))
    for name in verify_check_names(ns, regime):
        checks.record(f"verify:{name}", reported.get(name) is True)


# ---------------------------------------------------------------------------
# symbolic-certify
# ---------------------------------------------------------------------------

def symbolic_certify(seed: int, workdir: Path, checks: Checks, size: str = "full",
                     **_) -> None:
    run_verify(SIZES["symbolic-certify"][size]["ns"], "integer", seed, workdir, checks)


def symbolic_certify_plan(size: str) -> list[str]:
    return verify_plan(SIZES["symbolic-certify"][size]["ns"], "integer")


# ---------------------------------------------------------------------------
# fractional-numeric
# ---------------------------------------------------------------------------

def flux_imbalance(K: int, qnodes: int) -> float:
    """Normalized flux imbalance of the u d_u law over FLUX_CELL."""
    from liesym import catalog, conservation, fracnum

    eq = catalog.HeatEquation(1, "fractional")
    g03 = next(g for g in catalog.generators(eq) if g.name == "G03")
    cv = conservation.conserved_vector(g03, eq, attach_diff=False)
    a, T = FLUX_ALPHA, FLUX_T
    c = math.gamma(a + 1.0) / 2.0
    space = ((0.0, 1.0, 33),)
    u = fracnum.GridFunction.sample(lambda t, xs: t ** (a - 1.0), T, K, space,
                                    zero_at_origin=True)
    phi = fracnum.GridFunction.sample(lambda t, xs: (T - t) ** a + c * xs[0] ** 2, T, K,
                                      space)
    rep = conservation.divergence_numeric_fractional(
        cv, eq, u, phi, FLUX_CELL, a, qnodes=qnodes,
        phi_t=lambda mu, xv: -a * (T - mu) ** (a - 1.0))
    return rep.normalized


def fractional_numeric(seed: int, workdir: Path, checks: Checks, size: str = "full",
                       **_) -> None:
    cfg = SIZES["fractional-numeric"][size]
    run_verify(cfg["ns"], "fractional", seed, workdir, checks)
    coarse, fine = (flux_imbalance(K, q) for K, q in cfg["flux"])
    checks.record("flux:coarse_below_limit", coarse < FLUX_LIMIT)
    checks.record("flux:refinement_decreases", fine < coarse)


def fractional_numeric_plan(size: str) -> list[str]:
    return (verify_plan(SIZES["fractional-numeric"][size]["ns"], "fractional")
            + ["flux:coarse_below_limit", "flux:refinement_decreases"])


PASSES = {
    "exact-algebra": (exact_algebra, exact_algebra_plan),
    "symbolic-certify": (symbolic_certify, symbolic_certify_plan),
    "fractional-numeric": (fractional_numeric, fractional_numeric_plan),
}
