"""Conserved-vector construction, symbolic certification, the adjoint shell,
print audit, and numeric (cell-flux) verification."""

import json
import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from liesym import parse
from liesym.catalog import FRACTIONAL, INTEGER, HeatEquation, generators
from liesym.conservation import (
    ConservedVector,
    NonlocalError,
    _lagrangian,
    conserved_vector,
    conserved_vector_json_obj,
    conserved_vector_latex,
    divergence_numeric_fractional,
    divergence_onshell_symbolic,
)
from liesym.expr import Expr, func_sym, substitute, to_latex
from liesym.fields import vf_add, vf_scale
from liesym.fracnum import GridError, GridFunction
from liesym.prolong import characteristic_expr, onshell_rules

ALPHA = 0.5
T = 2.0


@pytest.fixture(scope="module")
def eq1():
    return HeatEquation(1, INTEGER)


@pytest.fixture(scope="module")
def eqf():
    return HeatEquation(1, FRACTIONAL)


@pytest.fixture(scope="module")
def g1(eq1):
    return {g.name: g for g in generators(eq1)}


@pytest.fixture(scope="module")
def gf(eqf):
    return {g.name: g for g in generators(eqf)}


class TestCharacteristic:
    def test_homogeneity(self, g1):
        assert characteristic_expr(g1["G6"].field) == parse("u")

    def test_projective(self, g1):
        w = characteristic_expr(g1["G5"].field)
        assert w == parse("-u*(2*t+x^2) - 4*t^2*u_t - 4*t*x*u_x")

    def test_translation(self, g1):
        assert characteristic_expr(g1["G1"].field) == parse("-u_x")

    def test_recomputable_from_generator(self, eq1, g1):
        for g in g1.values():
            cv = conserved_vector(g, eq1, attach_diff=False)
            assert cv.W == characteristic_expr(g.field)


class TestOperatorComponents:
    def test_homogeneity_components(self, eq1, g1):
        cv = conserved_vector(g1["G6"], eq1, attach_diff=False)
        assert cv.Ct_local == parse("u*phi")
        assert cv.Cx[0] == parse("u*phi_x - phi*u_x")

    def test_translation_components_onshell(self, eq1, g1):
        cv = conserved_vector(g1["G1"], eq1, attach_diff=False)
        assert cv.Ct_local == parse("-u_x*phi")
        # the operator value collapses the printed u_xx cancellation
        assert cv.Cx[0] == parse("phi*(u_t-u_{xx}) - u_x*phi_x + phi*u_{xx}")

    def test_fractional_structure_invariant(self):
        # W is the argument of both nonlocal terms of every fractional C^t,
        # in the JSON records, the C^t string and the LaTeX C^t
        for n in range(1, 7):
            eq = HeatEquation(n, FRACTIONAL)
            for g in generators(eq):
                cv = conserved_vector(g, eq, attach_diff=False)
                obj = conserved_vector_json_obj(cv)
                w, tex_w = str(cv.W), to_latex(cv.W)
                assert obj["nonlocal_nodes"] == [
                    {"kind": "frac_int", "order": "1-alpha", "arg": w},
                    {"kind": "J", "f": w, "g": "phi_t"},
                ], (n, g.name)
                local = [] if cv.Ct_local.is_zero else [str(cv.Ct_local)]
                assert obj["Ct"] == " + ".join(
                    local + [f"phi*I^(1-alpha)[{w}]", f"J({w}, phi_t)"]), (n, g.name)
                ct_tex = conserved_vector_latex(cv).splitlines()[2]
                assert rf"I_{{t}}^{{1-\alpha}}\left({tex_w}\right)+J\left({tex_w},\phi_{{t}}\right)," \
                    in ct_tex, (n, g.name)

    def test_integer_has_no_nonlocal_nodes(self):
        for n in range(1, 7):
            eq = HeatEquation(n, INTEGER)
            for g in generators(eq):
                cv = conserved_vector(g, eq, attach_diff=False)
                obj = conserved_vector_json_obj(cv)
                assert obj["nonlocal_nodes"] == [], (n, g.name)
                assert obj["Ct"] == str(cv.Ct_local), (n, g.name)
                ct_tex = conserved_vector_latex(cv).splitlines()[2]
                assert ct_tex == rf"C^{{t}} &=& {to_latex(cv.Ct_local)},\nonumber\\", (n, g.name)

    def test_fractional_g03(self, eqf, gf):
        cv = conserved_vector(gf["G03"], eqf, attach_diff=False)
        assert cv.Ct_local.is_zero
        assert cv.W == parse("u")
        assert conserved_vector_json_obj(cv)["Ct"] == "phi*I^(1-alpha)[u] + J(u, phi_t)"
        assert cv.Cx[0] == parse("u*phi_x - phi*u_x")

    def test_linearity_in_the_generator(self, eq1, g1):
        a, b = g1["G4"].field, g1["G6"].field
        combo = vf_add(vf_scale(Fraction(2, 3), a), vf_scale(-2, b), name="combo")
        cv_combo = conserved_vector(combo, eq1, attach_diff=False)
        cva = conserved_vector(a, eq1, attach_diff=False)
        cvb = conserved_vector(b, eq1, attach_diff=False)
        lam = Expr.number(Fraction(2, 3))
        assert (cv_combo.Ct_local - (lam * cva.Ct_local - 2 * cvb.Ct_local)).is_zero
        assert (cv_combo.Cx[0] - (lam * cva.Cx[0] - 2 * cvb.Cx[0])).is_zero

    def test_formal_lagrangian_shape(self, eq1, eqf):
        assert _lagrangian(eq1) == parse("phi*(u_t - u_{xx})")
        assert _lagrangian(eqf) == parse("phi*(Dalpha[u] - u_{xx})")


class TestAdjoint:
    def test_integer_families_verified(self, eq1):
        # the adjoint-shell rule the certificates use: phi_t -> -phi_{xx}
        rule = onshell_rules(eq1)["phi_t"]
        residual = func_sym("phi", ("t",)) - rule
        for cand in ("1", "x", "x^2-2*t"):
            assert substitute(residual, {"phi": parse(cand)}).is_zero, cand
        assert not substitute(residual, {"phi": parse("x^2")}).is_zero

    def test_fractional_kernel_sample_annihilates(self):
        # the advertised numeric test function passes the right-derivative check
        import numpy as np

        from liesym.fracnum import right_rl_derivative_grid

        alpha, Tloc = 0.6, 1.0
        prev = None
        for K in (500, 1000):
            g = GridFunction.sample(
                lambda t, xs: np.where(t < Tloc, Tloc - t, np.inf) ** (alpha - 1.0), Tloc, K)
            d = right_rl_derivative_grid(g, alpha)
            m = float(np.max(np.abs(d.values[g.t_axis() <= 0.9])))
            if prev is not None:
                assert m < prev
            prev = m


class TestSymbolicDivergence:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_all_catalog_laws_divergence_free(self, n):
        eq = HeatEquation(n, INTEGER)
        for g in generators(eq):
            cv = conserved_vector(g, eq, attach_diff=False)
            assert divergence_onshell_symbolic(cv, eq).is_zero, g.name

    def test_corrupted_component_detected(self, eq1, g1):
        cv = conserved_vector(g1["G6"], eq1, attach_diff=False)
        bad = replace(cv, Cx=(cv.Cx[0] + 2 * parse("phi*u_x"),))
        assert not divergence_onshell_symbolic(bad, eq1).is_zero

    def test_nonlocal_rejected(self, eq1, eqf, gf):
        cv = conserved_vector(gf["G03"], eqf, attach_diff=False)
        with pytest.raises(NonlocalError):
            divergence_onshell_symbolic(cv, eqf)
        with pytest.raises(NonlocalError):  # a fractional vector, whatever the equation
            divergence_onshell_symbolic(cv, eq1)


def test_both_certificates_compile_one_shell():
    # the solution and adjoint shells are one rule set, compiled once
    from liesym.expr import _compile_rules
    from liesym.prolong import determining_residual

    eq = HeatEquation(2, INTEGER)
    g = generators(eq)[0]
    cv = conserved_vector(g, eq, attach_diff=False)
    _compile_rules.cache_clear()
    assert determining_residual(g.field, eq).is_zero
    assert divergence_onshell_symbolic(cv, eq).is_zero
    assert _compile_rules.cache_info().misses == 1


class TestPrintAudit:
    def test_known_factor_two_flag(self, eqf, gf):
        cv = conserved_vector(gf["G03"], eqf)
        parts = {d["part"] for d in cv.paper_diff}
        assert parts == {"Cx"}
        (diff,) = cv.paper_diff
        assert diff["delta"] == str(-parse("phi*u_x"))

    def test_flipped_w_sign_flag(self, eqf, gf):
        cv = conserved_vector(gf["G02"], eqf)
        parts = {d["part"] for d in cv.paper_diff}
        assert "W" in parts and "frac_int_arg" in parts

    def test_clean_entries_have_empty_diff(self, eq1, g1):
        for name in ("G3", "G6", "G7"):
            cv = conserved_vector(g1[name], eq1)
            assert cv.paper_diff == ()

    def test_projective_entry_matches_after_paren_repair(self, eq1, g1):
        cv = conserved_vector(g1["G5"], eq1)
        assert cv.paper_diff == ()

    def test_shifted_labels_recorded(self):
        eq = HeatEquation(4, FRACTIONAL)
        cv = conserved_vector(
            {g.name: g for g in generators(eq)}["G611"], eq)
        labels = [d for d in cv.paper_diff if d["part"] == "label"]
        assert labels and labels[0]["printed"] == "G612"

    def test_json_emission(self, eqf, gf):
        obj = conserved_vector_json_obj(conserved_vector(gf["G03"], eqf))
        assert obj["symmetry"] == "G03"
        assert obj["W"] == "u"
        kinds = {n["kind"] for n in obj["nonlocal_nodes"]}
        assert kinds == {"frac_int", "J"}
        assert obj["paper_diff"]

    def test_latex_emission(self, eqf, gf):
        tex = conserved_vector_latex(conserved_vector(gf["G03"], eqf))
        assert r"I_{t}^{1-\alpha}" in tex and r"J\left(" in tex


class TestNumericFlux:
    def _grids(self, u_func, phi_func, K):
        u = GridFunction.sample(u_func, T, K, ((0.0, 1.0, 33),), zero_at_origin=True)
        phi = GridFunction.sample(phi_func, T, K, ((0.0, 1.0, 33),))
        return u, phi

    def test_constant_field_balances_exactly(self, eqf):
        cv = ConservedVector("synthetic", 1, FRACTIONAL, parse("0"), parse("1"), (parse("0"),))
        u, phi = self._grids(lambda t, xs, a=None: 1.0, lambda t, xs, a=None: 1.0, 64)
        rep = divergence_numeric_fractional(cv, eqf, u, phi, (0.5, 1.0, 0.0, 1.0), ALPHA,
                                            phi_t=lambda mu, xv: 0.0)
        assert rep.imbalance == pytest.approx(0.0)

    def test_caputo_multiplier_positive_control(self, eqf, gf):
        """u = t^(alpha-1) with the adjoint-shell multiplier
        phi = (T-t)^alpha + Gamma(1+alpha) x^2 / 2 conserves exactly in the
        continuum; the flux imbalance is small and shrinks under refinement."""
        cv = conserved_vector(gf["G03"], eqf, attach_diff=False)
        c = math.gamma(ALPHA + 1.0) / 2.0
        u_func = lambda t, xs, a=None: t ** (ALPHA - 1.0)
        phi_func = lambda t, xs, a=None: (T - t) ** ALPHA + c * xs[0] ** 2
        phi_t = lambda mu, xv: -ALPHA * (T - mu) ** (ALPHA - 1.0)
        vals = []
        for K, k in ((500, 64), (1000, 128)):
            u, phi = self._grids(u_func, phi_func, K)
            rep = divergence_numeric_fractional(cv, eqf, u, phi, (0.5, 1.0, 0.0, 1.0),
                                                ALPHA, qnodes=k, phi_t=phi_t)
            vals.append(rep.normalized)
        assert vals[0] < 1e-2
        assert vals[1] < vals[0]

    def test_sign_corrupted_time_component_fails(self, eqf, gf):
        # W flipped in both nonlocal terms; the local Ct and Cx are kept
        base = conserved_vector(gf["G03"], eqf, attach_diff=False)
        corrupted = replace(base, W=-base.W)
        c = math.gamma(ALPHA + 1.0) / 2.0
        u_func = lambda t, xs, a=None: t ** (ALPHA - 1.0)
        phi_func = lambda t, xs, a=None: (T - t) ** ALPHA + c * xs[0] ** 2
        phi_t = lambda mu, xv: -ALPHA * (T - mu) ** (ALPHA - 1.0)
        vals = []
        for K, k in ((500, 64), (1000, 128)):
            u, phi = self._grids(u_func, phi_func, K)
            rep = divergence_numeric_fractional(corrupted, eqf, u, phi,
                                                (0.5, 1.0, 0.0, 1.0),
                                                ALPHA, qnodes=k, phi_t=phi_t)
            vals.append(rep.normalized)
        assert vals[1] > 1e-2  # does not settle toward balance under refinement

    def test_cell_touching_origin_rejected(self, eqf, gf):
        cv = conserved_vector(gf["G03"], eqf, attach_diff=False)
        u, phi = self._grids(lambda t, xs, a=None: 1.0, lambda t, xs, a=None: 1.0, 64)
        with pytest.raises(GridError):
            divergence_numeric_fractional(cv, eqf, u, phi, (0.0, 1.0, 0.0, 1.0), ALPHA,
                                          phi_t=lambda mu, xv: 0.0)

    def test_off_grid_cell_rejected(self, eqf, gf):
        cv = conserved_vector(gf["G03"], eqf, attach_diff=False)
        u, phi = self._grids(lambda t, xs, a=None: 1.0, lambda t, xs, a=None: 1.0, 64)
        with pytest.raises(GridError):
            divergence_numeric_fractional(cv, eqf, u, phi, (0.5001, 1.0, 0.0, 1.0), ALPHA,
                                          phi_t=lambda mu, xv: 0.0)

    @pytest.mark.parametrize("cell", [(0.5, 1.0, 0.5, 0.5), (0.5, 1.0, 1.0, 0.0)])
    def test_cell_without_increasing_x_edges_rejected(self, eqf, gf, cell):
        # a zero-width cell has no boundary flux, so it would balance vacuously
        cv = conserved_vector(gf["G03"], eqf, attach_diff=False)
        u, phi = self._grids(lambda t, xs, a=None: 1.0, lambda t, xs, a=None: 1.0, 64)
        with pytest.raises(GridError):
            divergence_numeric_fractional(cv, eqf, u, phi, cell, ALPHA,
                                          phi_t=lambda mu, xv: 0.0)

    def test_fractional_derivative_in_w_rejected(self, eqf):
        # the rows of a D_t^alpha atom are the cell's only, so W may not read one
        cv = ConservedVector("synthetic", 1, FRACTIONAL, parse("Dalpha[u]"), parse("0"),
                             (parse("0"),))
        u, phi = self._grids(lambda t, xs, a=None: 1.0, lambda t, xs, a=None: 1.0, 64)
        with pytest.raises(GridError):
            divergence_numeric_fractional(cv, eqf, u, phi, (0.5, 1.0, 0.0, 1.0), ALPHA,
                                          phi_t=lambda mu, xv: 0.0)

    def test_integer_vector_rejected(self, eq1, eqf, g1):
        cv = conserved_vector(g1["G6"], eq1, attach_diff=False)
        u, phi = self._grids(lambda t, xs, a=None: 1.0, lambda t, xs, a=None: 1.0, 64)
        with pytest.raises(GridError):
            divergence_numeric_fractional(cv, eqf, u, phi, (0.5, 1.0, 0.0, 1.0), ALPHA,
                                          phi_t=lambda mu, xv: 0.0)

    def test_boundary_integrals_golden(self, eqf):
        """Every finite generator's four boundary integrals on test 6b's data,
        to the bit (see the note in the golden file)."""
        golden = json.loads((Path(__file__).parent / "data" / "flux_n1_fractional.json")
                            .read_text(encoding="utf-8"))
        alpha, t_end = golden["alpha"], golden["T"]
        c = math.gamma(alpha + 1.0) / 2.0
        spatial = ((0.0, 1.0, golden["x_points"]),)
        u = GridFunction.sample(lambda t, xs: t ** (alpha - 1.0), t_end, golden["K"], spatial,
                                zero_at_origin=True)
        phi = GridFunction.sample(lambda t, xs: (t_end - t) ** alpha + c * xs[0] ** 2, t_end,
                                  golden["K"], spatial)
        phi_t = lambda mu, xv: -alpha * (t_end - mu) ** (alpha - 1.0)
        got = {}
        for g in generators(eqf):
            if g.klass != "infinite":
                rep = divergence_numeric_fractional(
                    conserved_vector(g, eqf, attach_diff=False), eqf, u, phi,
                    tuple(golden["cell"]), alpha, qnodes=golden["qnodes"], phi_t=phi_t)
                got[g.name] = {k: repr(v) for k, v in rep.boundary_integrals.items()}
        assert got == golden["boundary_integrals"]


class TestBatchedJ:
    """The J term of the flux check is one quadrature per time line with
    every x-column of the cell stacked (test 6b's grids and nodes)."""

    K, QNODES, CELL = 2000, 256, (0.5, 1.0, 0.0, 1.0)

    def _grids(self, u_func):
        c = math.gamma(ALPHA + 1.0) / 2.0
        u = GridFunction.sample(u_func, T, self.K, ((0.0, 1.0, 33),), zero_at_origin=True)
        phi = GridFunction.sample(lambda t, xs: (T - t) ** ALPHA + c * xs[0] ** 2, T, self.K,
                                  ((0.0, 1.0, 33),))
        return u, phi

    def test_one_gauss_legendre_rule_per_qnodes(self, eqf, gf, monkeypatch):
        # both lines of both runs read one cached rule; numpy's leggauss is
        # never called
        from functools import lru_cache

        import numpy as np

        from liesym import fracnum

        calls = []
        rule = fracnum._gauss01.__wrapped__

        def counted(k):
            calls.append(k)
            return rule(k)

        def leggauss(k):
            raise AssertionError("leggauss called")

        monkeypatch.setattr(fracnum, "_gauss01", lru_cache(maxsize=16)(counted))
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", leggauss)
        cv = conserved_vector(gf["G03"], eqf, attach_diff=False)
        u, phi = self._grids(lambda t, xs: t ** (ALPHA - 1.0))
        phi_t = lambda mu, xv: -ALPHA * (T - mu) ** (ALPHA - 1.0)
        for _ in range(2):
            divergence_numeric_fractional(cv, eqf, u, phi, self.CELL, ALPHA,
                                          qnodes=self.QNODES, phi_t=phi_t)
        assert calls == [self.QNODES]

    def test_line_j_equals_per_column_scalar_j(self, eqf, gf, monkeypatch):
        import numpy as np

        from liesym import conservation
        from liesym.fracnum import j_quadrature

        cv = conserved_vector(gf["G03"], eqf, attach_diff=False)
        assert cv.W == parse("u")
        # x-dependent data so that every column carries a different J
        u, phi = self._grids(lambda t, xs: t ** (ALPHA - 1.0) * (1.0 + xs[0]))
        phi_t = lambda mu, xv: -ALPHA * (T - mu) ** (ALPHA - 1.0) * np.cos(xv)
        lines = []

        def spy(f, g, alpha, t, T, nodes):
            lines.append((t, j_quadrature(f, g, alpha, t, T, nodes=nodes)))
            return lines[-1][1]

        monkeypatch.setattr(conservation, "j_quadrature", spy)
        divergence_numeric_fractional(cv, eqf, u, phi, self.CELL, ALPHA, qnodes=self.QNODES,
                                      phi_t=phi_t)
        assert [t for t, _ in lines] == [0.5, 1.0]

        taxis = u.t_axis()
        for t, row in lines:
            assert row.shape == (33,)
            for col, x in enumerate(u.spatial_axis(0)):
                f = lambda s: np.interp(s, taxis, u.values[:, col])
                g = lambda s: phi_t(s, float(x))
                ref = j_quadrature(f, g, ALPHA, t, T, nodes=self.QNODES)
                assert abs(row[col] - ref) <= 1e-12 * abs(ref)


class TestTwoLineConvolution:
    """The flux check convolves I^(1-alpha) only on the cell's two time lines
    (test 6b's grid at K = 4000: lines 1000 and 2000, blocks 15 and 31)."""

    def test_at_most_two_row_blocks(self, eqf, gf, monkeypatch):
        import numpy as np

        from liesym import fracnum

        real_convolve, real_contiguous = fracnum._causal_convolve, np.ascontiguousarray
        requested, slabs = [], []

        def convolve(w, v, rows=None):
            requested.append(rows)
            return real_convolve(w, v, rows)

        def contiguous(a, *args, **kwargs):
            if np.ndim(a) == 2 and a.strides[0] < 0:  # a reversed Toeplitz window
                slabs.append(a.shape)
            return real_contiguous(a, *args, **kwargs)

        monkeypatch.setattr(fracnum, "_causal_convolve", convolve)
        monkeypatch.setattr(np, "ascontiguousarray", contiguous)
        c = math.gamma(ALPHA + 1.0) / 2.0
        u = GridFunction.sample(lambda t, xs: t ** (ALPHA - 1.0), T, 4000, ((0.0, 1.0, 33),),
                                zero_at_origin=True)
        phi = GridFunction.sample(lambda t, xs: (T - t) ** ALPHA + c * xs[0] ** 2, T, 4000,
                                  ((0.0, 1.0, 33),))
        cv = conserved_vector(gf["G03"], eqf, attach_diff=False)
        divergence_numeric_fractional(cv, eqf, u, phi, (0.5, 1.0, 0.0, 1.0), ALPHA, qnodes=512,
                                      phi_t=lambda mu, xv: -ALPHA * (T - mu) ** (ALPHA - 1.0))
        assert requested == [[1000, 2000]]
        assert slabs == [(64, 1024), (64, 2048)]

    # the same spies and data for the components that read D_t^alpha u

    @staticmethod
    def spy(monkeypatch):
        """(requested rows per _causal_convolve call, shapes of the slabs built)"""
        import numpy as np

        from liesym import fracnum

        real_convolve, real_contiguous = fracnum._causal_convolve, np.ascontiguousarray
        requested, slabs = [], []

        def convolve(w, v, rows=None):
            requested.append(rows)
            return real_convolve(w, v, rows)

        def contiguous(a, *args, **kwargs):
            if np.ndim(a) == 2 and a.strides[0] < 0:  # a reversed Toeplitz window
                slabs.append(a.shape)
            return real_contiguous(a, *args, **kwargs)

        monkeypatch.setattr(fracnum, "_causal_convolve", convolve)
        monkeypatch.setattr(np, "ascontiguousarray", contiguous)
        return requested, slabs

    @staticmethod
    def flux(cv, eqf):
        c = math.gamma(ALPHA + 1.0) / 2.0
        u = GridFunction.sample(lambda t, xs: t ** (ALPHA - 1.0), T, 4000, ((0.0, 1.0, 33),),
                                zero_at_origin=True)
        phi = GridFunction.sample(lambda t, xs: (T - t) ** ALPHA + c * xs[0] ** 2, T, 4000,
                                  ((0.0, 1.0, 33),))
        return divergence_numeric_fractional(
            cv, eqf, u, phi, (0.5, 1.0, 0.0, 1.0), ALPHA, qnodes=512,
            phi_t=lambda mu, xv: -ALPHA * (T - mu) ** (ALPHA - 1.0))

    @pytest.mark.parametrize("name", ["G01", "G02"])
    def test_fractional_derivative_only_on_the_cell_rows(self, eqf, gf, name, monkeypatch):
        # C^x and C^t read D_t^alpha u on the rows 1000..2000 only: blocks
        # 15..31, plus the two line blocks of I^(1-alpha); the whole grid
        # is 63 blocks
        cv = conserved_vector(gf[name], eqf, attach_diff=False)
        assert ("D", ()) in cv.Cx[0].atoms()
        _, slabs = self.spy(monkeypatch)
        self.flux(cv, eqf)
        assert sorted(slabs) == sorted([(64, 64 * (b + 1)) for b in range(15, 32)]
                                       + [(64, 1024), (64, 2048)])
