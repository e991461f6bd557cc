"""CLI contract: subcommands, formats, exit codes, determinism."""

import json
import random
from pathlib import Path

import pytest

import liesym.catalog as catalog
import liesym.cli as cli
import liesym.reference_tables as reference_tables
from liesym.catalog import FRACTIONAL, INTEGER, HeatEquation, NamedGenerator, generators
from liesym.cli import RunConfig, main
from liesym.fields import vf_add

# output of `verify --n 1..4 --format json --seed 7`, frozen before the lazy
# prolongation
GOLDEN_INTEGER_VERIFY = Path(__file__).parent / "data" / "verify_integer_n1-4_seed7.json"
# output of `verify --n 5..8 --format json --seed 7`, frozen before integer
# coefficients and the compiled rule sets
GOLDEN_INTEGER_VERIFY_5_8 = Path(__file__).parent / "data" / "verify_integer_n5-8_seed7.json"
# output of `verify --n 5..10 --format json --seed 1`, frozen before both
# symbolic certificates shared one on-shell rule set
GOLDEN_INTEGER_VERIFY_5_10 = Path(__file__).parent / "data" / "verify_integer_n5-10_seed1.json"
# output of `verify --n 1..3 --regime fractional --format json`, frozen while
# every flow still had a hand-written inverse; its rounded ratios pin the
# grid numerics, so a BLAS build that sums in another order may move them
GOLDEN_FRACTIONAL_VERIFY = Path(__file__).parent / "data" / "verify_fractional_n1-3.json"
# output of `gen --n 5..6 --regime <regime> --format json`, frozen while the
# printed n <= 4 lists were still written out by hand; every n now builds
# from these families
GOLDEN_FAMILY_GEN = {r: Path(__file__).parent / "data" / f"gen_{r}_n5-6.json"
                     for r in ("integer", "fractional")}
# output of `algebra --n 1..5 --regime <regime> --format json`, frozen while
# the derived series still ranked tuple polynomials in alpha; the fractional
# series for n >= 2 is where alpha enters the elimination
GOLDEN_ALGEBRA = {r: Path(__file__).parent / "data" / f"algebra_{r}_n1-5.json"
                  for r in ("integer", "fractional")}
# output of `algebra --n 7..8 --regime <regime> --format json`, frozen while
# the derived series still ranked every spanning bracket vector of a level
GOLDEN_ALGEBRA_7_8 = {r: Path(__file__).parent / "data" / f"algebra_{r}_n7-8.json"
                      for r in ("integer", "fractional")}
# output of `algebra --n 12 --regime <regime> --format json`, frozen while
# basis decompositions still ran their own elimination over Q; its bases hold
# 94 integer and 80 fractional fields
GOLDEN_ALGEBRA_12 = {r: Path(__file__).parent / "data" / f"algebra_{r}_n12.json"
                     for r in ("integer", "fractional")}


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


@pytest.fixture
def family(monkeypatch):
    """family(change) makes the catalogs build from change(real family);
    the catalog cache is emptied before and after."""
    real = catalog._family

    def patch(change):
        monkeypatch.setattr(catalog, "_family", lambda n, regime: change(real(n, regime)))
        catalog._catalog.cache_clear()

    yield patch
    monkeypatch.undo()
    catalog._catalog.cache_clear()


class TestCount:
    def test_range_rows(self, capsys):
        code, out = run_cli(["count", "--n", "1..4"], capsys)
        assert code == 0
        assert "7    10    14    19" in out
        assert "4     6     9    13" in out

    def test_json(self, capsys):
        code, out = run_cli(["count", "--n", "1..2", "--format", "json"], capsys)
        payload = json.loads(out)
        assert payload["counts"]["integer"] == [7, 10]
        assert payload["lengths_agree"] is True

    def test_short_catalog_fails_the_count_checks(self, capsys, family):
        family(lambda gens: gens[:-1])
        code, out = run_cli(["verify", "--n", "5", "--format", "json"], capsys)
        assert code == 1
        assert [c["name"] for c in json.loads(out)["checks"] if not c["passed"]] == ["count[n=5]"]
        code, out = run_cli(["count", "--n", "5", "--format", "json"], capsys)
        assert code == 1
        assert json.loads(out)["lengths_agree"] is False


class TestGen:
    def test_text(self, capsys):
        code, out = run_cli(["gen", "--n", "1", "--regime", "fractional"], capsys)
        assert code == 0 and "G02" in out

    def test_json_schema(self, capsys):
        code, out = run_cli(["gen", "--n", "2", "--regime", "integer",
                             "--format", "json"], capsys)
        payload = json.loads(out)
        assert payload[0]["dimension"] == 2
        assert len(payload[0]["generators"]) == 10

    def test_latex(self, capsys):
        code, out = run_cli(["gen", "--n", "1", "--format", "latex"], capsys)
        assert r"\Gamma_{4}" in out

    @pytest.mark.parametrize("regime", sorted(GOLDEN_FAMILY_GEN))
    def test_family_json_n5_6_matches_golden(self, regime, capsys):
        code, out = run_cli(["gen", "--n", "5..6", "--regime", regime,
                             "--format", "json"], capsys)
        assert code == 0
        assert out.encode() == GOLDEN_FAMILY_GEN[regime].read_bytes()


class TestBrackets:
    def test_fractional_1d_annotated(self, capsys):
        code, out = run_cli(["brackets", "--n", "1", "--regime", "fractional"], capsys)
        assert code == 0
        assert "[G01,G02] = (alpha)*G01" in out
        assert "discrepancy report" in out
        assert "2*alpha*G01" in out  # the printed anomaly is surfaced

    def test_json_table(self, capsys):
        code, out = run_cli(["brackets", "--n", "1", "--regime", "fractional",
                             "--format", "json"], capsys)
        payload = json.loads(out)
        table = payload[0]["table"]
        assert table["basis"] == ["G01", "G02", "G03", "G04"]
        assert payload[0]["discrepancy_report"]


class TestAlgebra:
    def test_integer_matches(self, capsys):
        code, out = run_cli(["algebra", "--n", "3", "--regime", "integer",
                             "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["so_match"] is True
        assert payload[0]["sl2_match"] is True

    def test_sl2_mismatch_exits_one(self, capsys, family):
        # P' = P + Tt spans the same algebra, but [D, P'] = 2P' - 4Tt has a Tt
        # component where sl(2) has [h, f] = 2f alone
        def shift_p(gens):
            tt = next(g.field for g in gens if g.name == "Tt")
            return [NamedGenerator(vf_add(g.field, tt, "P"), g.klass) if g.name == "P" else g
                    for g in gens]

        family(shift_p)
        code, out = run_cli(["algebra", "--n", "5", "--format", "json"], capsys)
        assert code == 1
        report = json.loads(out)[0]
        assert report["finite_part_closed"] is True and report["so_match"] is True
        assert report["sl2_match"] is False

    @pytest.mark.parametrize("regime", sorted(GOLDEN_ALGEBRA))
    def test_json_n1_5_matches_golden(self, regime, capsys):
        code, out = run_cli(["algebra", "--n", "1..5", "--regime", regime,
                             "--format", "json"], capsys)
        assert code == 0
        assert out.encode() == GOLDEN_ALGEBRA[regime].read_bytes()

    @pytest.mark.parametrize("regime", sorted(GOLDEN_ALGEBRA_7_8))
    def test_json_n7_8_matches_golden(self, regime, capsys):
        code, out = run_cli(["algebra", "--n", "7..8", "--regime", regime,
                             "--format", "json"], capsys)
        assert code == 0
        assert out.encode() == GOLDEN_ALGEBRA_7_8[regime].read_bytes()

    @pytest.mark.parametrize("regime", sorted(GOLDEN_ALGEBRA_12))
    def test_json_n12_matches_golden(self, regime, capsys):
        code, out = run_cli(["algebra", "--n", "12", "--regime", regime,
                             "--format", "json"], capsys)
        assert code == 0
        assert out.encode() == GOLDEN_ALGEBRA_12[regime].read_bytes()


class TestConserve:
    def test_text_includes_discrepancies(self, capsys):
        code, out = run_cli(["conserve", "--n", "1", "--regime", "fractional"], capsys)
        assert code == 0
        assert "G03" in out and "discrepancies vs print" in out

    def test_latex(self, capsys):
        code, out = run_cli(["conserve", "--n", "1", "--format", "latex"], capsys)
        assert r"C^{t}" in out

    def test_text_flux_labels_name_the_variables(self, capsys):
        # the fifth variable is x5, and the first is x, not x1
        code, out = run_cli(["conserve", "--n", "5"], capsys)
        assert code == 0
        assert "  Cx5 = " in out and "  Cw = " in out
        assert "Cx1 =" not in out


class TestVerify:
    def test_integer_2d_all_pass(self, capsys):
        code, out = run_cli(["verify", "--n", "2", "--regime", "integer"], capsys)
        assert code == 0
        assert "[PASS] determining_residuals[n=2]" in out
        assert "[PASS] conservation_divergences[n=2]" in out

    def test_integer_json_matches_golden(self, capsys):
        code, out = run_cli(["verify", "--n", "1..4", "--format", "json", "--seed", "7"], capsys)
        assert code == 0
        assert out.encode() == GOLDEN_INTEGER_VERIFY.read_bytes()

    def test_integer_json_n5_8_matches_golden(self, capsys):
        code, out = run_cli(["verify", "--n", "5..8", "--format", "json", "--seed", "7"], capsys)
        assert code == 0
        assert out.encode() == GOLDEN_INTEGER_VERIFY_5_8.read_bytes()

    def test_integer_json_n5_10_matches_golden(self, capsys):
        code, out = run_cli(["verify", "--n", "5..10", "--format", "json", "--seed", "1"], capsys)
        assert code == 0
        assert out.encode() == GOLDEN_INTEGER_VERIFY_5_10.read_bytes()

    def test_fractional_json_matches_golden(self, capsys):
        code, out = run_cli(["verify", "--n", "1..3", "--regime", "fractional",
                             "--format", "json"], capsys)
        assert code == 0
        assert out.encode() == GOLDEN_FRACTIONAL_VERIFY.read_bytes()

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["verify", "--n", "1", "--regime", "integer",
                     "--format", "json", "--seed", "42", "--out", str(a)]) == 0
        assert main(["verify", "--n", "1", "--regime", "integer",
                     "--format", "json", "--seed", "42", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_corrupted_fixture_exits_one(self, capsys, monkeypatch):
        # corrupting a generator catalog entry must surface as exit code 1; the
        # bracket audit reads the catalog through its own import, so both
        # importers see the corrupted entry
        import liesym.audit as audit
        import liesym.catalog as catalog
        import liesym.cli as cli
        from liesym import parse
        from liesym.fields import VectorField

        original = cli.generators

        def corrupted(eq):
            gens = original(eq)
            if eq.n == 1 and eq.is_fractional:
                bad_field = VectorField("G02", 1, parse("2*t"), (parse("x"),),
                                        parse("0"))  # dropped the alpha weight
                gens[1] = catalog.NamedGenerator(bad_field, "dilation")
            return gens

        monkeypatch.setattr(cli, "generators", corrupted)
        monkeypatch.setattr(audit, "generators", corrupted)
        code = main(["verify", "--n", "1", "--regime", "fractional",
                     "--grid", "64"])
        capsys.readouterr()
        assert code == 1

    def test_unsupported_flow_is_reported_as_skipped(self, capsys, monkeypatch):
        import liesym.prolong as prolong

        original = prolong.exponentiate_catalog

        def failing(g, eps, alpha_value=None):
            if g.name == "G02":
                raise prolong.UnsupportedFlowError("G02: no closed-form flow")
            return original(g, eps, alpha_value=alpha_value)

        monkeypatch.setattr(prolong, "exponentiate_catalog", failing)
        code, out = run_cli(["verify", "--n", "1", "--regime", "fractional",
                             "--grid", "64", "--format", "json"], capsys)
        assert code == 1
        check = next(c for c in json.loads(out)["checks"]
                     if c["name"] == "numeric_invariance[n=1]")
        assert check["passed"] is False
        assert {"name": "G02", "skipped": "G02: no closed-form flow",
                "passed": False} in check["details"]["per_generator"]

    def test_flow_leaving_the_window_is_reported_as_skipped(self, capsys, monkeypatch):
        # the flow of x d_t moves t by s*x, so at x = -1.5 the preimage of an
        # early grid time lies before t = 0, outside the sampled window
        from liesym import parse
        from liesym.fields import VectorField

        original = cli.generators

        def extended(eq):
            gens = original(eq)
            if eq.n == 1 and eq.is_fractional:
                field = VectorField("Xt", 1, parse("x"), (parse("0"),), parse("0"))
                gens = [*gens, NamedGenerator(field, "time-translation")]
            return gens

        monkeypatch.setattr(cli, "generators", extended)
        code, out = run_cli(["verify", "--n", "1", "--regime", "fractional",
                             "--grid", "64", "--format", "json"], capsys)
        assert code == 1
        check = next(c for c in json.loads(out)["checks"]
                     if c["name"] == "numeric_invariance[n=1]")
        assert check["passed"] is False
        entry = next(r for r in check["details"]["per_generator"] if r["name"] == "Xt")
        assert entry["passed"] is False
        assert "leaves the sampled window" in entry["skipped"]

    def test_small_alpha_fails_numeric_invariance_without_traceback(self, capsys):
        # at alpha = 0.001 the Mittag-Leffler series of the sampled solution
        # does not converge in its term budget
        code, out = run_cli(["verify", "--n", "1", "--regime", "fractional",
                             "--alpha", "0.001", "--format", "json"], capsys)
        assert code == 1
        check = next(c for c in json.loads(out)["checks"]
                     if c["name"] == "numeric_invariance[n=1]")
        assert check["passed"] is False
        results = check["details"]["per_generator"]
        assert results and all(r["passed"] is False for r in results)
        assert all("did not converge" in r["skipped"] for r in results)

    @staticmethod
    def failed_checks(out):
        return [c["name"] for c in json.loads(out)["checks"] if not c["passed"]]

    def test_flipped_catalog_sign_fails_the_symbolic_checks(self, capsys, monkeypatch):
        from dataclasses import replace

        original = cli.generators

        def flipped(eq):
            return [catalog.NamedGenerator(replace(g.field, eta=-g.field.eta), g.klass)
                    if g.name == "B1" else g for g in original(eq)]

        monkeypatch.setattr(cli, "generators", flipped)
        code, out = run_cli(["verify", "--n", "5", "--format", "json"], capsys)
        assert code == 1
        assert self.failed_checks(out) == ["determining_residuals[n=5]",
                                           "conservation_divergences[n=5]"]

    def test_zero_perturbed_residual_fails_its_check(self, capsys, monkeypatch):
        from liesym.expr import Expr

        original = cli.determining_residual
        monkeypatch.setattr(cli, "determining_residual",
                            lambda field, eq: Expr.zero() if field.name == "perturbed"
                            else original(field, eq))
        code, out = run_cli(["verify", "--n", "5", "--format", "json"], capsys)
        assert code == 1
        assert self.failed_checks(out) == ["perturbed_fields_nonzero[n=5]"]

    def test_corrupted_printed_bracket_fails_bracket_regression(self, capsys, monkeypatch):
        import liesym.audit as audit

        tables = dict(audit.BRACKET_TABLES)
        first, *rest = tables[(2, "integer")]
        assert (first.i, first.j, first.rhs) == ("G21", "G28", "2*G24")  # a matching entry
        tables[(2, "integer")] = (reference_tables.BracketEntry("G21", "G28", "-2*G24"), *rest)
        monkeypatch.setattr(audit, "BRACKET_TABLES", tables)
        code, out = run_cli(["verify", "--n", "2", "--format", "json"], capsys)
        assert code == 1
        assert self.failed_checks(out) == ["bracket_regression[n=2]"]
        check = next(c for c in json.loads(out)["checks"] if c["name"] == "bracket_regression[n=2]")
        assert check["details"]["unexpected"] == [["G21", "G28", "-2*G24", "2*G24"]]

    def test_dropped_characteristic_term_fails_conservation_divergences(self, capsys,
                                                                        monkeypatch):
        # the conserved vector of B1 built from W = -2*t*u_x - x*u without
        # its first term; the generator itself stays intact
        from liesym.expr import Expr
        from liesym.fields import VectorField
        from liesym.prolong import characteristic_expr

        original = cli.conserved_vector

        def dropped(g, eq, attach_diff=True):
            if g.name != "B1":
                return original(g, eq, attach_diff)
            w = characteristic_expr(g.field)
            zero = Expr.zero()
            field = VectorField("B1", eq.n, zero, (zero,) * eq.n, Expr(dict(w.terms[1:])))
            return original(field, eq, attach_diff)

        monkeypatch.setattr(cli, "conserved_vector", dropped)
        code, out = run_cli(["verify", "--n", "5", "--format", "json"], capsys)
        assert code == 1
        assert self.failed_checks(out) == ["conservation_divergences[n=5]"]
        check = next(c for c in json.loads(out)["checks"]
                     if c["name"] == "conservation_divergences[n=5]")
        assert [d["name"] for d in check["details"]["per_generator"]
                if not d["divergence_zero"]] == ["B1"]

    def test_fractional_invariance_at_n3_checks_every_generator(self, capsys):
        from liesym.catalog import FRACTIONAL, HeatEquation, generators

        code, out = run_cli(["verify", "--n", "3", "--regime", "fractional",
                             "--format", "json"], capsys)
        assert code == 0
        check = next(c for c in json.loads(out)["checks"]
                     if c["name"] == "numeric_invariance[n=3]")
        assert check["passed"] is True
        results = check["details"]["per_generator"]
        expected = [g.name for g in generators(HeatEquation(3, FRACTIONAL))
                    if g.klass not in ("infinite", "homogeneity")]
        assert [r["name"] for r in results] == expected
        assert all(r["passed"] and "ratio" in r for r in results)

    def test_fractional_invariance_beyond_n3_fails_as_skipped(self, capsys):
        code, out = run_cli(["verify", "--n", "4", "--regime", "fractional",
                             "--format", "json"], capsys)
        assert code == 1
        check = next(c for c in json.loads(out)["checks"]
                     if c["name"] == "numeric_invariance[n=4]")
        assert check["passed"] is False
        assert "skipped" in check["details"]

    def test_config_echo(self, capsys):
        code, out = run_cli(["verify", "--n", "1", "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["config"] == {
            "n": [1], "regime": "integer", "alpha": 0.5, "grid": 256,
            "seed": 0,
        }


class TestUsageErrors:
    def test_bad_dimension(self, capsys):
        assert main(["count", "--n", "0"]) == 2
        capsys.readouterr()

    def test_bad_alpha(self, capsys):
        assert main(["verify", "--n", "1", "--alpha", "1.5"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["gen", "--seed", "1"],
        ["count", "--regime", "integer"],
        ["brackets", "--qnodes", "8"],
        ["algebra", "--format", "latex"],
        ["verify", "--scheme", "gl"],
    ])
    def test_flag_not_taken_by_subcommand(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage:" in captured.err

    # the default alpha given explicitly is still refused: presence is checked
    @pytest.mark.parametrize("flag", [["--alpha", "0.3"], ["--grid", "128"],
                                      ["--alpha", "0.5"], ["--tcut", "0.5"]])
    def test_fractional_flag_with_integer_regime(self, capsys, flag):
        assert main(["verify", "--n", "1", "--regime", "integer", *flag]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_grid_below_minimum(self, capsys):
        assert main(["verify", "--n", "1", "--regime", "fractional", "--grid", "32"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_empty_dimension_range(self, capsys):
        assert main(["verify", "--n", "3..1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("tcut", ["5", "1.0", "0", "-0.2"])
    def test_tcut_outside_horizon(self, capsys, tcut):
        assert main(["verify", "--n", "1", "--regime", "fractional", "--tcut", tcut]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")

    @pytest.mark.parametrize("text", ["2..x", "1.5", "5..", "..3", "x"])
    def test_malformed_dimension(self, capsys, text):
        assert main(["verify", "--n", text]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: --n expects N or A..B with integer bounds, "
                                f"got {text!r}\n")

    def test_io_error(self, capsys):
        code = main(["count", "--n", "1", "--out", "/nonexistent-dir/x.json"])
        assert code == 3
        capsys.readouterr()


class TestDimensionSplit:
    """A range runs its dimensions one after another in this process, each
    drawing from one seeded generator in dimension order."""

    @pytest.mark.parametrize("regime", [INTEGER, FRACTIONAL])
    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_upfront_draws_equal_interleaved_draws(self, monkeypatch, capsys, seed, regime):
        ns = range(1, 9)
        finite = {n: [g.field.name for g in generators(HeatEquation(n, regime))
                      if g.klass != "infinite"] for n in ns}
        # the draws as verify took them before the split, one dimension at a time
        rng = random.Random(seed)
        expected = {}
        for n in ns:
            perturbed = []
            if regime == INTEGER:
                for _ in range(3):
                    a, b = rng.sample(finite[n], 2)
                    perturbed.append((a, b, rng.choice(["x^2", "t*x", "x^3", "u^2"])))
            expected[n] = (perturbed, [tuple(rng.sample(finite[n], 2)) for _ in range(4)])

        drawn = []

        class Recording(random.Random):
            def sample(self, population, k):
                drawn.append(super().sample(population, k))
                return drawn[-1]

            def choice(self, seq):
                drawn.append(super().choice(seq))
                return drawn[-1]

        monkeypatch.setattr(cli.random, "Random", Recording)
        grid = ["--grid", "64"] if regime == FRACTIONAL else []
        main(["verify", "--n", "1..8", "--regime", regime, "--seed", str(seed), *grid])
        capsys.readouterr()
        draws = iter(drawn)
        got = {}
        for n in ns:
            perturbed = []
            if regime == INTEGER:
                for _ in range(3):
                    (i, j), noise = next(draws), next(draws)
                    perturbed.append((finite[n][i], finite[n][j], noise))
            got[n] = (perturbed, [tuple(finite[n][k] for k in next(draws))
                                  for _ in range(4)])
        assert next(draws, None) is None
        assert got == expected

    # the case names keep the dimension each share of --n 1..2 ran when the range
    # was split across processes: n = 2 (parent), the last, and n = 1 (child), the first
    @pytest.mark.parametrize("share", ["parent", "child"])
    def test_memory_error_in_a_share_exits_two(self, capsys, monkeypatch, share):
        def exhausted(cfg, n, rng):
            if n == {"parent": 2, "child": 1}[share]:
                raise MemoryError("Unable to allocate an array with shape (100000000000,) "
                                  "and data type float64")
            return [], []

        monkeypatch.setattr(cli, "_verify_dimension", exhausted)
        assert main(["verify", "--n", "1..2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: out of memory: Unable to allocate an array with "
                                "shape (100000000000,) and data type float64\n")


def test_runconfig_validation():
    with pytest.raises(ValueError):
        RunConfig(ns=(0,))
    with pytest.raises(ValueError):
        RunConfig(alpha=2.0)
    with pytest.raises(ValueError):
        RunConfig(grid=4)
    with pytest.raises(ValueError):
        RunConfig(grid=63)
    with pytest.raises(ValueError):
        RunConfig(ns=())
    with pytest.raises(ValueError):
        RunConfig(tcut=1.0)
    assert RunConfig(tcut=0.5).tcut == 0.5
