"""Catalog tests: counting formulas, class census, reference forms, exact
solution families."""

import pytest

from liesym import parse
from liesym.catalog import (
    FRACTIONAL,
    INTEGER,
    ExactSolution,
    HeatEquation,
    catalog_json_obj,
    catalog_latex,
    count_formula,
    exact_solutions,
    generators,
)
from liesym.expr import substitute

EXPECTED_INTEGER = {1: 7, 2: 10, 3: 14, 4: 19}
EXPECTED_FRACTIONAL = {1: 4, 2: 6, 3: 9, 4: 13}


@pytest.mark.parametrize("n", range(1, 9))
@pytest.mark.parametrize("regime", [INTEGER, FRACTIONAL])
def test_count_matches_catalog_length(n, regime):
    eq = HeatEquation(n, regime)
    assert len(generators(eq)) == count_formula(n, regime)


def test_explicit_counts():
    assert [count_formula(n, INTEGER) for n in (1, 2, 3, 4)] == [7, 10, 14, 19]
    assert [count_formula(n, FRACTIONAL) for n in (1, 2, 3, 4)] == [4, 6, 9, 13]
    assert count_formula(3, INTEGER) == 14
    assert count_formula(1, FRACTIONAL) == 4
    assert count_formula(4, FRACTIONAL) == 13


@pytest.mark.parametrize("n", range(1, 7))
def test_integer_class_census(n):
    gens = generators(HeatEquation(n, INTEGER))
    census = {}
    for g in gens:
        census[g.klass] = census.get(g.klass, 0) + 1
    expected = {
        "space-translation": n,
        "solution": n,
        "rotation": n * (n - 1) // 2,
        "time-translation": 1,
        "dilation": 1,
        "projective": 1,
        "homogeneity": 1,
        "infinite": 1,
    }
    assert census == {k: v for k, v in expected.items() if v}


@pytest.mark.parametrize("n", range(1, 7))
def test_fractional_class_census(n):
    gens = generators(HeatEquation(n, FRACTIONAL))
    census = {}
    for g in gens:
        census[g.klass] = census.get(g.klass, 0) + 1
    expected = {
        "space-translation": n,
        "rotation": n * (n - 1) // 2,
        "dilation": 1,
        "homogeneity": 1,
        "infinite": 1,
    }
    assert census == {k: v for k, v in expected.items() if v}


def test_reference_forms_1d_fractional():
    gens = {g.name: g for g in generators(HeatEquation(1, FRACTIONAL))}
    assert set(gens) == {"G01", "G02", "G03", "G04"}
    g02 = gens["G02"].field
    assert g02.xi0 == parse("2*t")
    assert g02.xi[0] == parse("alpha*x")
    assert g02.eta.is_zero


def test_reference_forms_2d_integer_projective():
    gens = {g.name: g for g in generators(HeatEquation(2, INTEGER))}
    g28 = gens["G28"].field
    assert g28.eta == parse("-u*(4*t+x^2+y^2)")


def test_projective_eta_extrapolation_n5():
    gens = {g.name: g for g in generators(HeatEquation(5, INTEGER))}
    proj = gens["P"].field
    assert proj.eta == parse("-u*(10*t+x^2+y^2+z^2+w^2+x5^2)")
    assert len(generators(HeatEquation(5, INTEGER))) == 25


def test_fractional_dilation_notes_present():
    g14 = next(g for g in generators(HeatEquation(2, FRACTIONAL)) if g.name == "G14")
    assert "3alpha-2" in g14.note.replace("u(", "").replace(")", "") or g14.note
    d = next(g for g in generators(HeatEquation(5, FRACTIONAL)) if g.name == "D")
    assert "2t" in d.note


def test_rotation_correction_note():
    rot = next(g for g in generators(HeatEquation(5, FRACTIONAL)) if g.name == "R1_2")
    assert "identically zero" in rot.note


def test_json_schema():
    obj = catalog_json_obj(HeatEquation(1, FRACTIONAL))
    assert obj["dimension"] == 1 and obj["regime"] == FRACTIONAL
    names = [g["name"] for g in obj["generators"]]
    assert names == ["G01", "G02", "G03", "G04"]
    g02 = obj["generators"][1]
    assert set(g02) >= {"name", "class", "xi0", "xi", "eta"}
    assert g02["xi"] == ["x*alpha"]  # printer orders alpha last


def test_latex_emission():
    tex = catalog_latex(HeatEquation(1, INTEGER))
    assert r"\Gamma_{5}" in tex and r"\partial_{u}" in tex


class TestExactSolutions:
    def test_integer_polynomials_solve_symbolically(self):
        for n in (1, 2, 3):
            eq = HeatEquation(n, INTEGER)
            for sol in exact_solutions(eq):
                if sol.expr is not None:
                    assert substitute(eq.residual_expr(), {"u": sol.expr}).is_zero

    def test_quadratic_residual_value(self):
        eq = HeatEquation(1, INTEGER)
        quad = next(s for s in exact_solutions(eq) if s.name == "quadratic")
        assert substitute(eq.residual_expr(), {"u": quad.expr}).is_zero

    def test_exponential_and_kernel_numeric(self):
        from .helpers import heat_residual_stencil

        eq = HeatEquation(1, INTEGER)
        sols = {s.name: s for s in exact_solutions(eq)}
        for name in ("exponential", "kernel"):
            f = sols[name]
            worst = max(abs(heat_residual_stencil(f, t, (x,), h=3e-3))
                        for (t, x) in [(0.3, 0.1), (0.5, -0.4), (0.8, 0.7)])
            assert worst < 1e-6

    def test_fractional_power_family_residual_refines(self):
        from liesym.fracnum import GridFunction, residual_on_grid

        eq = HeatEquation(1, FRACTIONAL)
        sols = {s.name: s for s in exact_solutions(eq)}
        alpha = 0.5
        last = None
        for K in (250, 500, 1000):
            g = GridFunction.sample(sols["power"], 1.0, K, ((-1.0, 1.0, 17),),
                                    alpha=alpha, zero_at_origin=True)
            rep = residual_on_grid(eq, g, alpha)
            if last is not None:
                assert rep.interior_max < last * 1.1  # decreasing within 10% noise
            last = rep.interior_max

    def test_eigen_solution_residual_refines(self):
        from liesym.fracnum import GridFunction, residual_on_grid

        eq = HeatEquation(1, FRACTIONAL)
        eigen = next(s for s in exact_solutions(eq, k=1.0) if s.name == "eigen")
        alpha = 0.6
        vals = []
        for K in (256, 512, 1024):
            g = GridFunction.sample(eigen, 1.0, K, ((-1.0, 1.0, 17),),
                                    alpha=alpha, zero_at_origin=True)
            vals.append(residual_on_grid(eq, g, alpha).interior_max)
        assert vals[2] < vals[0]


def test_invalid_dimension_and_regime():
    with pytest.raises(ValueError):
        HeatEquation(0, INTEGER)
    with pytest.raises(ValueError):
        HeatEquation(1, "caputo")
    with pytest.raises(ValueError):
        count_formula(0, INTEGER)
