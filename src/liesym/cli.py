"""Command-line front end: generator catalogs, commutator tables, algebra
structure reports, conserved vectors, verification suites, and the counting
formulas, with text/JSON/LaTeX output.

Exit codes: 0 all requested checks pass, 1 check failure, 2 usage error or
out of memory, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass

from . import __version__
from .audit import bracket_table_audit
from .catalog import (
    FRACTIONAL,
    INTEGER,
    HeatEquation,
    catalog_json_obj,
    catalog_latex,
    count_formula,
    exact_solutions,
    generators,
)
from .conservation import (
    conserved_vector,
    conserved_vector_json_obj,
    conserved_vector_latex,
    divergence_onshell_symbolic,
)
from .expr import spatial_name
from .fields import (
    VectorField,
    closure_report,
    commutator_table,
    derived_series,
    lie_bracket,
    match_canonical,
    vf_add,
)
from .parser import parse
from .prolong import determining_residual
from .reference_tables import ALLOWED_BRACKET_DISCREPANCIES

__all__ = ["main", "RunConfig"]


_VERIFY_HORIZON = 1.0  # time horizon T of the numeric invariance checks in verify


@dataclass
class RunConfig:
    """Settings shared by the subcommands."""

    ns: tuple[int, ...] = (1,)
    regime: str = INTEGER
    alpha: float = 0.5
    grid: int = 256
    fmt: str = "text"
    out: str = ""
    seed: int = 0
    tcut: float | None = None

    def __post_init__(self):
        if not self.ns:
            raise ValueError("dimension range is empty")
        if any(n < 1 for n in self.ns):
            raise ValueError("dimension must be >= 1")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie in (0, 1)")
        if self.grid < 64:
            raise ValueError("grid must have at least 64 points")
        if self.tcut is not None and not (0.0 < self.tcut < _VERIFY_HORIZON):
            raise ValueError(f"tcut must lie in (0, {_VERIFY_HORIZON})")


def _parse_range(text: str) -> tuple[int, ...]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return tuple(range(int(lo), int(hi) + 1))
        return (int(text),)
    except ValueError:
        raise ValueError(f"--n expects N or A..B with integer bounds, got {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="liesym",
        description="Point-symmetry catalogs, Lie algebra structure, and "
                    "conservation laws of the integer and time-fractional heat equation.",
    )
    p.add_argument("--version", action="version", version=f"liesym {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, help, formats=("text", "json", "latex"), regime=True):
        sp = sub.add_parser(name, help=help)
        sp.add_argument("--n", default="1", help="dimension or range, e.g. 2 or 1..4")
        if regime:
            sp.add_argument("--regime", choices=(INTEGER, FRACTIONAL), default=INTEGER)
        sp.add_argument("--format", dest="fmt", choices=formats, default="text")
        sp.add_argument("--out", default="", help="write output to this path")
        return sp

    command("gen", "emit the generator catalog")
    command("brackets", "emit the commutator table with the print audit")
    command("algebra", "closure / derived series / canonical matches", formats=("text", "json"))
    command("conserve", "emit conserved vectors with the print audit")
    verify = command("verify", "run the symbolic+numeric verification suite",
                     formats=("text", "json"))
    # fractional regime only; None marks a flag that was not given
    verify.add_argument("--alpha", type=float)
    verify.add_argument("--grid", type=int, help="time-grid size K (>= 64)")
    verify.add_argument("--tcut", type=float)
    verify.add_argument("--seed", type=int, default=0)
    command("count", "tabulate the counting formulas", formats=("text", "json"), regime=False)
    return p


def _config_from_args(args) -> RunConfig:
    opts = {k: v for k, v in vars(args).items()
            if k not in ("command", "n") and v is not None}
    cfg = RunConfig(ns=_parse_range(args.n), **opts)
    given = [f"--{k}" for k in ("alpha", "grid", "tcut") if k in opts]
    if given and cfg.regime == INTEGER:
        raise ValueError(f"{', '.join(given)}: used only with --regime {FRACTIONAL}")
    return cfg


def _emit(cfg: RunConfig, text_payload: str, json_payload) -> str:
    if cfg.fmt == "json":
        return json.dumps(json_payload, indent=2, sort_keys=True) + "\n"
    return text_payload if text_payload.endswith("\n") else text_payload + "\n"


def _cmd_count(cfg: RunConfig) -> tuple[str, dict, bool]:
    rows = {
        "integer": [count_formula(n, INTEGER) for n in cfg.ns],
        "fractional": [count_formula(n, FRACTIONAL) for n in cfg.ns],
    }
    ok = True
    for n in cfg.ns:
        for reg in (INTEGER, FRACTIONAL):
            ok &= len(generators(HeatEquation(n, reg))) == count_formula(n, reg)
    lines = ["n:          " + "  ".join(f"{n:4d}" for n in cfg.ns),
             "integer:    " + "  ".join(f"{v:4d}" for v in rows["integer"]),
             "fractional: " + "  ".join(f"{v:4d}" for v in rows["fractional"]),
             f"catalog lengths agree: {ok}"]
    return "\n".join(lines), {"n": list(cfg.ns), "counts": rows, "lengths_agree": ok}, ok


def _cmd_gen(cfg: RunConfig) -> tuple[str, list, bool]:
    texts, objs = [], []
    for n in cfg.ns:
        eq = HeatEquation(n, cfg.regime)
        if cfg.fmt == "latex":
            texts.append(catalog_latex(eq))
        else:
            lines = [f"# n={n} {cfg.regime}"]
            for g in generators(eq):
                lines.append(f"{g.name:8s} [{g.klass}] {g.field}")
                if g.note:
                    lines.append(f"         note: {g.note}")
            texts.append("\n".join(lines))
        objs.append(catalog_json_obj(eq))
    return "\n\n".join(texts), objs, True


def _cmd_brackets(cfg: RunConfig) -> tuple[str, list, bool]:
    texts, objs = [], []
    for n in cfg.ns:
        eq = HeatEquation(n, cfg.regime)
        table = commutator_table([g.field for g in generators(eq)])
        audit = bracket_table_audit(eq)
        discrepancies = [
            {"i": r.i, "j": r.j, "printed": r.printed, "computed": r.computed,
             "verdict": r.verdict, "note": r.note}
            for r in audit if r.verdict != "match"
        ]
        if cfg.fmt == "latex":
            texts.append(table.to_latex())
        else:
            lines = [f"# n={n} {cfg.regime} commutator table (nonzero entries)"]
            names = [b.name for b in table.basis]
            for e in table.entries:
                if e.decomposition.in_span and not e.decomposition.coeffs:
                    continue
                if e.decomposition.in_span:
                    rhs = " + ".join(f"({c})*{k}" for k, c in sorted(e.decomposition.coeffs.items()))
                elif e.decomposition.infinite_family:
                    rhs = "(infinite family)"
                else:
                    rhs = "(outside span)"
                lines.append(f"[{names[e.i]},{names[e.j]}] = {rhs}")
            lines.append(f"# discrepancy report ({len(discrepancies)} printed entries disagree)")
            for d in discrepancies:
                lines.append(f"  [{d['i']},{d['j']}] printed {d['printed']!r} "
                             f"computed {d['computed']!r} ({d['verdict']})")
            texts.append("\n".join(lines))
        objs.append({"dimension": n, "regime": cfg.regime,
                     "table": table.to_json_obj(), "discrepancy_report": discrepancies})
    return "\n\n".join(texts), objs, True


def _algebra_report(eq: HeatEquation) -> dict:
    gens = generators(eq)
    finite = [g.field for g in gens if g.klass != "infinite"]
    table = commutator_table(finite)
    closure = closure_report(finite)
    report: dict = {
        "dimension": eq.n,
        "regime": eq.regime,
        "finite_part_closed": closure.closed,
        "offending_pairs": [list(p) for p in closure.offending_pairs],
    }
    if closure.closed:
        report["derived_series"] = derived_series(finite)
    rotations = [g.name for g in gens if g.klass == "rotation"]
    if rotations:
        report["so_match"] = match_canonical(table, rotations, "so").matched
    if eq.regime == INTEGER:
        by_class = {g.klass: g.name for g in gens}
        sl2 = [by_class["time-translation"], by_class["dilation"], by_class["projective"]]
        rep = match_canonical(table, sl2, "sl2", modulo=[by_class["homogeneity"]])
        report["sl2_match"] = rep.matched
        report["sl2_scaling"] = [str(s) for s in rep.scaling]
    return report


def _cmd_algebra(cfg: RunConfig) -> tuple[str, list, bool]:
    objs = [_algebra_report(HeatEquation(n, cfg.regime)) for n in cfg.ns]
    ok = all(o.get("so_match", True) and o.get("sl2_match", True) for o in objs)
    lines = []
    for o in objs:
        lines.append(f"# n={o['dimension']} {o['regime']}")
        for k, v in o.items():
            if k not in ("dimension", "regime"):
                lines.append(f"  {k}: {v}")
    return "\n".join(lines), objs, ok


def _cmd_conserve(cfg: RunConfig) -> tuple[str, list, bool]:
    texts, objs = [], []
    ok = True
    for n in cfg.ns:
        eq = HeatEquation(n, cfg.regime)
        for g in generators(eq):
            cv = conserved_vector(g, eq)
            if eq.regime == INTEGER:
                ok &= divergence_onshell_symbolic(cv, eq).is_zero
            objs.append(conserved_vector_json_obj(cv))
            if cfg.fmt == "latex":
                texts.append(conserved_vector_latex(cv))
            else:
                rec = objs[-1]
                lines = [f"{cv.symmetry} (n={n}, {cfg.regime})",
                         f"  W  = {rec['W']}",
                         f"  Ct = {rec['Ct']}"]
                for i, c in enumerate(rec["Cx"]):
                    lines.append(f"  C{spatial_name(i + 1)} = {c}")
                if rec["paper_diff"]:
                    lines.append(f"  discrepancies vs print: "
                                 f"{[d['part'] for d in rec['paper_diff']]}")
                texts.append("\n".join(lines))
    return "\n\n".join(texts), objs, ok


_NOISE = ("x^2", "t*x", "x^3", "u^2")  # terms added to eta in the perturbed-field checks


def _verify_dimension(cfg: RunConfig, n: int, rng: random.Random) -> tuple[list, list]:
    """The checks and discrepancy entries of one dimension.

    The seeded draws are taken first, as indices into the finite generators:
    the perturbed (i, j, noise) triples (integer regime only), then the
    antisymmetry pairs."""
    checks = []
    discrepancies = []

    def add(name: str, passed: bool, details=None):
        checks.append({"name": name, "passed": bool(passed), "details": details or {}})

    eq = HeatEquation(n, cfg.regime)
    gens = generators(eq)
    finite = [g.field for g in gens if g.klass != "infinite"]
    perturbed_draws = ([(*rng.sample(range(len(finite)), 2), rng.choice(_NOISE))
                        for _ in range(3)] if cfg.regime == INTEGER else [])
    pair_draws = [rng.sample(range(len(finite)), 2) for _ in range(4)]
    add(f"count[n={n}]", len(gens) == count_formula(n, cfg.regime),
        {"generators": len(gens), "formula": count_formula(n, cfg.regime)})

    mismatch_keys = set()
    for r in bracket_table_audit(eq):
        if r.verdict != "match":
            mismatch_keys.add(r.key)
            discrepancies.append({
                "dimension": n, "regime": cfg.regime, "kind": "bracket",
                "i": r.i, "j": r.j, "printed": r.printed,
                "computed": r.computed, "verdict": r.verdict,
            })
    if (n, cfg.regime) in ALLOWED_BRACKET_DISCREPANCIES:
        allowed = ALLOWED_BRACKET_DISCREPANCIES[(n, cfg.regime)]
        add(f"bracket_regression[n={n}]", mismatch_keys == set(allowed),
            {"unexpected": sorted(map(list, mismatch_keys - set(allowed))),
             "missing": sorted(map(list, set(allowed) - mismatch_keys))})

    divergences = []
    for g in gens:
        cv = conserved_vector(g, eq)
        discrepancies.extend(
            {"dimension": n, "regime": cfg.regime, "kind": "conserved",
             "symmetry": g.name, **d} for d in cv.paper_diff
        )
        if cfg.regime == INTEGER:
            div = divergence_onshell_symbolic(cv, eq)
            divergences.append({"name": g.name, "divergence_zero": div.is_zero})

    if cfg.regime == INTEGER:
        residuals = []
        for g in gens:
            res = determining_residual(g.field, eq)
            residuals.append({"name": g.name, "residual_zero": res.is_zero,
                              **({} if res.is_zero else {"residual": str(res)})})
        add(f"determining_residuals[n={n}]",
            all(r["residual_zero"] for r in residuals), {"per_generator": residuals})

        perturbed_ok = True
        for i, j, noise in perturbed_draws:
            combo = vf_add(finite[i], finite[j])
            bad = VectorField("perturbed", eq.n, combo.xi0, combo.xi,
                              combo.eta + parse(noise))
            perturbed_ok &= not determining_residual(bad, eq).is_zero
        add(f"perturbed_fields_nonzero[n={n}]", perturbed_ok)
        add(f"conservation_divergences[n={n}]",
            all(d["divergence_zero"] for d in divergences), {"per_generator": divergences})
    else:
        from .fracnum import GridError, invariance_check
        from .prolong import UnsupportedFlowError, exponentiate_catalog

        if n <= 3:
            sol = exact_solutions(eq, k=1.0)[2]
            spatial = tuple((-1.5, 1.5, 25) for _ in range(n))
            results = []
            for g in gens:
                if g.klass in ("infinite", "homogeneity"):
                    continue
                try:
                    tr = exponentiate_catalog(g, 0.2, alpha_value=cfg.alpha)
                    rep = invariance_check(eq, sol, tr, cfg.alpha, T=_VERIFY_HORIZON,
                                           K=cfg.grid, spatial=spatial, tcut=cfg.tcut)
                except (UnsupportedFlowError, GridError, ArithmeticError) as exc:
                    results.append({"name": g.name, "skipped": str(exc), "passed": False})
                    continue
                results.append({"name": g.name, "ratio": round(rep.ratio, 3),
                                "passed": rep.passed})
            add(f"numeric_invariance[n={n}]",
                bool(results) and all(r["passed"] for r in results),
                {"per_generator": results})
        else:
            add(f"numeric_invariance[n={n}]", False,
                {"skipped": "numeric invariance is implemented for n <= 3 only"})

    pairs_ok = True
    for i, j in pair_draws:
        br1 = lie_bracket(finite[i], finite[j])
        br2 = lie_bracket(finite[j], finite[i])
        pairs_ok &= vf_add(br1, br2).is_zero()
    add(f"antisymmetry_sample[n={n}]", pairs_ok)
    return checks, discrepancies


def _verify_report(cfg: RunConfig) -> dict:
    rng = random.Random(cfg.seed)
    checks = []
    discrepancies = []
    for n in cfg.ns:
        dim_checks, dim_discrepancies = _verify_dimension(cfg, n, rng)
        checks += dim_checks
        discrepancies += dim_discrepancies

    passed = sum(1 for c in checks if c["passed"])
    return {
        "config": {
            "n": list(cfg.ns), "regime": cfg.regime, "alpha": cfg.alpha,
            "grid": cfg.grid, "seed": cfg.seed,
        },
        "checks": checks,
        "discrepancy_report": discrepancies,
        "summary": {"passed": passed, "failed": len(checks) - passed},
    }


def _cmd_verify(cfg: RunConfig) -> tuple[str, dict, bool]:
    report = _verify_report(cfg)
    ok = report["summary"]["failed"] == 0
    lines = []
    for c in report["checks"]:
        lines.append(f"[{'PASS' if c['passed'] else 'FAIL'}] {c['name']}")
    lines.append(f"discrepancy report: {len(report['discrepancy_report'])} printed "
                 f"entries flagged (audit of the reference tables)")
    lines.append(f"summary: {report['summary']['passed']} passed, "
                 f"{report['summary']['failed']} failed")
    return "\n".join(lines), report, ok


_COMMANDS = {
    "count": _cmd_count,
    "gen": _cmd_gen,
    "brackets": _cmd_brackets,
    "algebra": _cmd_algebra,
    "conserve": _cmd_conserve,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        cfg = _config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        text, payload, ok = _COMMANDS[args.command](cfg)
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    output = _emit(cfg, text, payload)
    try:
        if cfg.out:
            with open(cfg.out, "w") as fh:
                fh.write(output)
        else:
            sys.stdout.write(output)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
