"""Prolongation, determining-residual, and finite-transformation tests."""

import math
import random
from dataclasses import replace

import numpy as np
import pytest

from liesym import parse
from liesym.catalog import (
    FRACTIONAL,
    INTEGER,
    HeatEquation,
    NamedGenerator,
    exact_solutions,
    generators,
)
from liesym.expr import eval_numeric, jet, spatial_name, spatial_names, var
from liesym.fields import VectorField, identify_rotation, vf_add
from liesym.prolong import (
    RegimeError,
    UnsupportedFlowError,
    characteristic_expr,
    determining_residual,
    exponentiate_catalog,
    onshell_rules,
    prolong2,
)

from .helpers import heat_residual_stencil, map_point


# every finite generator of both catalogs at n = 1..3, by printed name (the
# names are unique across the six catalogs); alpha_value = 0.5 is read only
# by the fractional fields
FINITE_1_3 = {g.name: g for regime in (INTEGER, FRACTIONAL) for n in (1, 2, 3)
              for g in generators(HeatEquation(n, regime)) if g.klass != "infinite"}
ALPHA = 0.5

# fields that are no catalog generators but have flows: eta changed to
# c(t, x)*u, the alpha-dropped fractional dilation 2t d_t + x d_x, and sums of
# two generators, R1_2 + D (n = 2 fractional) and B1 + Tt (n = 1 integer)
_EXTRA_FLOWS = {
    "G2-u*x": replace(FINITE_1_3["G2"].field, eta=parse("u*x")),
    "G1-u": replace(FINITE_1_3["G1"].field, eta=parse("u")),
    "2t*d_t+x*d_x": VectorField("2t*d_t+x*d_x", 1, parse("2*t"), (parse("x"),), parse("0")),
    "G13+G14": vf_add(FINITE_1_3["G13"].field, FINITE_1_3["G14"].field),
    "G2+G3": vf_add(FINITE_1_3["G2"].field, FINITE_1_3["G3"].field),
}
FLOW_FIELDS = {**{name: g.field for name, g in FINITE_1_3.items()}, **_EXTRA_FLOWS}

# fields without a flow: a projective label on a non-projective field, and a
# field quadratic in x that is not the projective one
NO_FLOW = {
    "G5-u": NamedGenerator(replace(FINITE_1_3["G5"].field, eta=parse("u")), "projective"),
    "x^2*d_x": VectorField("x^2*d_x", 1, parse("0"), (parse("x^2"),), parse("0")),
}


def closed_form_flow(g: NamedGenerator, alpha_value: float):
    """flow(s, t, xs) of an affine catalog generator in closed form, chosen by
    its class: the oracle for the matrix exponential of exponentiate_catalog."""
    f, n = g.field, g.field.n
    if g.klass in ("space-translation", "time-translation"):
        dt, dx = float(f.xi0.as_fraction()), [float(c.as_fraction()) for c in f.xi]
        return lambda s, t, xs: (t + dt * s, tuple(x + d * s for x, d in zip(xs, dx)), 1.0)
    if g.klass == "rotation":
        # sign*(x_p d_q - x_q d_p) rotates the (p, q) plane
        p, q, sign = identify_rotation(f)
        p, q = p - 1, q - 1

        def rotation(s, t, xs):
            cos_a, sin_a = math.cos(sign * s), math.sin(sign * s)
            ys = list(xs)
            ys[p] = cos_a * xs[p] - sin_a * xs[q]
            ys[q] = sin_a * xs[p] + cos_a * xs[q]
            return t, tuple(ys), 1.0

        return rotation
    if g.klass in ("dilation", "homogeneity"):
        # xi0 = a*t, xi_i = b_i*x_i, eta = c*u
        a, *bs, c = (0.0 if coeff.is_zero else eval_numeric(coeff / v, {}, alpha_value)
                     for coeff, v in zip((f.xi0, *f.xi, f.eta),
                                         (var("t"), *map(var, spatial_names(n)), jet())))
        return lambda s, t, xs: (t * math.exp(a * s),
                                 tuple(x * math.exp(b * s) for x, b in zip(xs, bs)),
                                 math.exp(c * s))
    assert g.klass == "solution"
    # Galilean 2t d_i - u x_i d_u: x_i -> x_i + 2 s t, u -> u exp(-s x_i - s^2 t)
    i = next(k for k in range(n) if not f.xi[k].is_zero)
    assert (f.xi0, f.xi[i], f.eta) == (parse("0"), 2 * var("t"), -jet() * var(spatial_name(i + 1)))

    def galilean(s, t, xs):
        ys = list(xs)
        ys[i] = xs[i] + 2.0 * s * t
        return t, tuple(ys), np.exp(-s * xs[i] - s * s * t)

    return galilean


def verify_grid(n: int):
    """The points of verify's fractional invariance grid (T = 1, K = 256,
    25 points on [-1.5, 1.5] per axis, t = 0 left out) as broadcast axes."""
    t = np.arange(1, 257).reshape(-1, *[1] * n) / 256
    axis = np.linspace(-1.5, 1.5, 25)
    return t, tuple(axis.reshape([1] + [25 if j == i else 1 for j in range(n)]) for i in range(n))


@pytest.fixture(scope="module")
def eq1():
    return HeatEquation(1, INTEGER)


@pytest.fixture(scope="module")
def g1(eq1):
    return {g.name: g for g in generators(eq1)}


class TestProlong2:
    INDICES = (("t",), ("x",), ("t", "t"), ("t", "x"), ("x", "x"))

    def test_translation_prolongs_to_zero(self, eq1, g1):
        pr = prolong2(g1["G1"].field, eq1)
        assert all(pr.eta(*idx).is_zero for idx in self.INDICES)

    def test_time_translation_prolongs_to_zero(self, eq1, g1):
        pr = prolong2(g1["G3"].field, eq1)
        assert all(pr.eta(*idx).is_zero for idx in self.INDICES)

    def test_scaling_prolongs_identically(self, eq1, g1):
        pr = prolong2(g1["G6"].field, eq1)
        assert pr.eta("t") == parse("u_t")
        assert pr.eta("x", "x") == parse("u_{xx}")

    def test_galilean_fixture(self, eq1, g1):
        # frozen from a one-time hand expansion of the characteristic recursion
        pr = prolong2(g1["G2"].field, eq1)
        assert pr.eta("t") == parse("-x*u_t - 2*u_x")
        assert pr.eta("x", "x") == parse("-x*u_{xx} - 2*u_x")

    def test_mixed_index_order_is_irrelevant(self, eq1, g1):
        pr = prolong2(g1["G5"].field, eq1)
        assert pr.eta("x", "t") is pr.eta("t", "x")
        assert pr.eta("x1", "t") is pr.eta("t", "x")

    @pytest.mark.parametrize("index", [(), ("t", "x", "x")])
    def test_only_first_and_second_order(self, eq1, g1, index):
        with pytest.raises(ValueError):
            prolong2(g1["G5"].field, eq1).eta(*index)


class TestDeterminingResidual:
    def test_dilation_residual_zero(self, eq1, g1):
        assert determining_residual(g1["G4"].field, eq1).is_zero

    def test_projective_residual_zero(self, eq1, g1):
        assert determining_residual(g1["G5"].field, eq1).is_zero

    def test_infinite_family_residual_zero(self, eq1, g1):
        assert determining_residual(g1["G7"].field, eq1).is_zero

    def test_x_times_du_is_a_symmetry(self, eq1):
        # x solves the equation, so x d_u lies in the infinite family
        f = VectorField("shift", 1, parse("0"), (parse("1"),), parse("x"))
        assert determining_residual(f, eq1).is_zero

    def test_genuine_non_symmetries(self, eq1):
        for eta in ("x^2", "x^3", "u^2"):
            f = VectorField("bad", 1, parse("0"), (parse("0"),), parse(eta))
            assert not determining_residual(f, eq1).is_zero
        f = VectorField("bad-t", 1, parse("0"), (parse("t"),), parse("0"))
        assert not determining_residual(f, eq1).is_zero

    # frozen from the eager prolongation (every eta^J built) before it became
    # lazy; the residual is linear in the field, so a catalog pair sum plus
    # noise leaves the residual of the noise
    @pytest.mark.parametrize("n, xi0, xi, eta, expected", [
        (1, "0", "0", "x^2", "-2"),
        (1, "0", "0", "t*x", "x"),
        (1, "0", "0", "x^3", "-6*x"),
        (1, "0", "0", "u^2", "-2*u_x^2"),
        (2, "0", "0", "x^2", "-2"),
        (2, "0", "0", "t*x", "x"),
        (2, "0", "0", "x^3", "-6*x"),
        (2, "0", "0", "u^2", "-2*u_x^2 - 2*u_y^2"),
        (3, "0", "0", "x^2", "-2"),
        (3, "0", "0", "t*x", "x"),
        (3, "0", "0", "x^3", "-6*x"),
        (3, "0", "0", "u^2", "-2*u_x^2 - 2*u_y^2 - 2*u_z^2"),
        (1, "t*x", "x*u", "u^2*t",
         "-2*t*u_x^2 + 2*t*u_{xxx} + 2*x*u_x*u_{xx} - x*u_{xx} + 2*u*u_{xx} + u^2 + 2*u_x^2"),
        (2, "t*x", "x*u", "u^2*t",
         "-2*t*u_x^2 - 2*t*u_y^2 + 2*t*u_{xxx} + 2*t*u_{xyy} + 2*x*u_x*u_{xx}"
         " + 2*x*u_x*u_{xy} + 2*x*u_y*u_{xy} + 2*x*u_y*u_{yy} - x*u_{xx} - x*u_{yy}"
         " + 2*u*u_{xx} + 2*u*u_{xy} + u^2 + 2*u_x*u_y + 2*u_x^2"),
    ])
    def test_nonzero_residual_exact_form(self, n, xi0, xi, eta, expected):
        f = VectorField("bad", n, parse(xi0), tuple(parse(xi) for _ in range(n)), parse(eta))
        assert str(determining_residual(f, HeatEquation(n, INTEGER))) == expected

    def test_perturbed_pair_residual_exact_form(self):
        eq2 = HeatEquation(2, INTEGER)
        gens = {g.name: g for g in generators(eq2)}
        combo = vf_add(gens["G24"].field, gens["G28"].field)
        bad = VectorField("perturbed", 2, combo.xi0, combo.xi, combo.eta + parse("u^2"))
        assert str(determining_residual(bad, eq2)) == "-2*u_x^2 - 2*u_y^2"

    def test_fractional_regime_rejected(self, g1):
        with pytest.raises(RegimeError) as err:
            determining_residual(g1["G4"].field, HeatEquation(1, FRACTIONAL))
        assert "integer regime" in str(err.value)


def test_onshell_rules_reject_fractional_regime():
    with pytest.raises(RegimeError) as err:
        onshell_rules(HeatEquation(1, FRACTIONAL))
    assert "integer regime" in str(err.value)


def test_onshell_rules_survive_caller_mutation():
    eq = HeatEquation(2, INTEGER)
    expected = {"u_t": parse("u_{xx} + u_{yy}"), "F_t": parse("F_{xx} + F_{yy}"),
                "phi_t": parse("-phi_{xx} - phi_{yy}")}
    rules = onshell_rules(eq)
    assert rules == expected
    rules["u_t"] = parse("0")
    rules["phi_t"] = parse("x")
    assert onshell_rules(eq) == expected


class TestCharacteristic:
    def test_projective_characteristic(self, g1):
        w = characteristic_expr(g1["G5"].field)
        assert w == parse("-u*(2*t+x^2) - 4*t^2*u_t - 4*t*x*u_x")


class TestFlows:
    def test_translation_flow(self, g1):
        tr = exponentiate_catalog(g1["G1"], 0.3)
        t, xs, u = map_point(tr, 1.0, (2.0,), 5.0)
        assert (t, xs[0], u) == (1.0, 2.3, 5.0)

    def test_rotation_flow_matches_reference(self):
        eq2 = HeatEquation(2, FRACTIONAL)
        g13 = next(g for g in generators(eq2) if g.name == "G13")
        eps = 0.4
        tr = exponentiate_catalog(g13, eps)
        x, y = 0.7, -0.2
        _, (xt, yt), _ = map_point(tr, 0.5, (x, y), 1.0)
        # flow of y d_x - x d_y
        assert xt == pytest.approx(x * math.cos(eps) + y * math.sin(eps))
        assert yt == pytest.approx(-x * math.sin(eps) + y * math.cos(eps))

    def test_galilean_flow_closed_form(self, g1):
        eps = 0.25
        tr = exponentiate_catalog(g1["G2"], eps)
        t, x, u = 0.8, -0.3, 2.0
        tt, (xt,), ut = map_point(tr, t, (x,), u)
        assert tt == t
        assert xt == pytest.approx(x + 2 * eps * t)
        assert ut == pytest.approx(u * math.exp(-eps * x - eps * eps * t))

    def test_fractional_dilation_needs_alpha(self):
        eqf = HeatEquation(1, FRACTIONAL)
        g02 = next(g for g in generators(eqf) if g.name == "G02")
        with pytest.raises(UnsupportedFlowError):
            exponentiate_catalog(g02, 0.1)
        tr = exponentiate_catalog(g02, 0.1, alpha_value=0.5)
        tt, (xt,), _ = map_point(tr, 1.0, (1.0,), 1.0)
        assert tt == pytest.approx(math.exp(0.2))
        assert xt == pytest.approx(math.exp(0.05))

    def test_infinite_family_unsupported(self, g1):
        with pytest.raises(UnsupportedFlowError):
            exponentiate_catalog(g1["G7"], 0.1)

    @pytest.mark.parametrize("name", FLOW_FIELDS)
    def test_flow_derivative_at_zero(self, name):
        # d/deps at 0 of the flow reproduces the field (central difference)
        rng = random.Random(11)
        f = FLOW_FIELDS[name]
        n = f.n
        h = 1e-4
        plus = exponentiate_catalog(f, h, alpha_value=ALPHA)
        minus = exponentiate_catalog(f, -h, alpha_value=ALPHA)
        for _ in range(20):
            t = rng.uniform(0.1, 0.8)
            xs = tuple(rng.uniform(-1.0, 1.0) for _ in range(n))
            u = rng.uniform(0.5, 2.0)
            fp = map_point(plus, t, xs, u)
            fm = map_point(minus, t, xs, u)
            deriv = [(fp[0] - fm[0]) / (2 * h),
                     *((a - b) / (2 * h) for a, b in zip(fp[1], fm[1])),
                     (fp[2] - fm[2]) / (2 * h)]
            binding = {"t": t, "u": u, **dict(zip(spatial_names(n), xs))}
            expect = [eval_numeric(c, binding, ALPHA) for c in (f.xi0, *f.xi, f.eta)]
            for d, e in zip(deriv, expect):
                assert abs(d - e) < 1e-6

    @pytest.mark.parametrize("name", ["G2", "G4", "G5", "G6", "G13+G14", "G2+G3"])
    def test_group_law(self, name):
        f = FLOW_FIELDS[name]
        t1 = exponentiate_catalog(f, 0.07, alpha_value=ALPHA)
        t2 = exponentiate_catalog(f, 0.05, alpha_value=ALPHA)
        t12 = exponentiate_catalog(f, 0.12, alpha_value=ALPHA)
        p = (0.3, (0.4, -0.2)[:f.n], 1.7)
        a = map_point(t2, *map_point(t1, *p))
        b = map_point(t12, *p)
        assert abs(a[0] - b[0]) < 1e-9
        assert all(abs(ya - yb) < 1e-9 for ya, yb in zip(a[1], b[1]))
        assert abs(a[2] - b[2]) < 1e-9

    @pytest.mark.parametrize("name", FLOW_FIELDS)
    def test_inverse_roundtrip(self, name):
        # the flow at -eps undoes the flow at eps, u included
        f = FLOW_FIELDS[name]
        there = exponentiate_catalog(f, 0.11, alpha_value=ALPHA)
        back = exponentiate_catalog(f, -0.11, alpha_value=ALPHA)
        p = (0.4, (0.6, -0.3, 0.2)[:f.n], 1.3)
        t0, x0, u0 = map_point(back, *map_point(there, *p))
        assert abs(t0 - p[0]) < 1e-12
        assert all(abs(a - b) < 1e-12 for a, b in zip(x0, p[1]))
        assert abs(u0 - p[2]) < 1e-12

    @pytest.mark.parametrize("regime", [INTEGER, FRACTIONAL])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_finite_generator_has_a_flow(self, regime, n):
        for g in generators(HeatEquation(n, regime)):
            if g.klass != "infinite":
                exponentiate_catalog(g, 0.1, alpha_value=ALPHA)

    @pytest.mark.parametrize("name", NO_FLOW)
    def test_flow_checks_the_field_not_the_label(self, name):
        # neither affine in (t, x) with eta = c*u nor the projective field
        with pytest.raises(UnsupportedFlowError):
            exponentiate_catalog(NO_FLOW[name], 0.1)

    @pytest.mark.parametrize("regime", [INTEGER, FRACTIONAL])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_affine_flows_match_closed_forms(self, regime, n):
        t, xs = verify_grid(n)
        for g in generators(HeatEquation(n, regime)):
            if g.klass in ("infinite", "projective"):
                continue
            oracle = closed_form_flow(g, ALPHA)
            for eps in (0.2, -0.2, 0.05, -0.05):
                got = exponentiate_catalog(g, eps, alpha_value=ALPHA).flow(eps, t, xs)
                want = oracle(eps, t, xs)
                for a, b in zip((got[0], *got[1], got[2]), (want[0], *want[1], want[2])):
                    assert np.shape(a) == np.shape(b)
                    assert np.all(np.abs(a - b) <= 1e-12 * np.maximum(1.0, np.abs(b))), (g.name, eps)

    def test_alpha_dropped_dilation_is_the_mis_weighted_control(self):
        # the flow of 2t d_t + x d_x is acceptance test 8's hand-written
        # mis-weighted dilation (t e^{2s}, x e^{s}, 1)
        t, xs = verify_grid(1)
        for eps in (0.3, -0.3):
            got = exponentiate_catalog(FLOW_FIELDS["2t*d_t+x*d_x"], eps).flow(eps, t, xs)
            assert np.allclose(got[0], t * math.exp(2 * eps), rtol=1e-15, atol=0)
            assert np.allclose(got[1][0], xs[0] * math.exp(eps), rtol=1e-15, atol=0)
            assert got[2] == 1.0

    def test_identity_at_zero_parameter(self, g1):
        tr = exponentiate_catalog(g1["G5"], 0.0)
        p = (0.4, (0.6,), 1.3)
        assert map_point(tr, *p) == p

    def test_projective_domain_guard(self, g1):
        tr = exponentiate_catalog(g1["G5"], 0.4)
        with pytest.raises(UnsupportedFlowError):
            map_point(tr, 1.0, (0.0,), 1.0)  # 1 - 4*eps*t < 0


class TestSolutionTransport:
    """Transformed exact solutions remain solutions (integer regime)."""

    def test_translation_transport_symbolic(self, eq1, g1):
        from liesym.expr import substitute

        # x -> x - eps transport of the quadratic solution, exact in the ring
        sol = parse("x^2 + 2*t")
        moved = substitute(parse("u"), {"u": sol})  # identity rewrite
        shifted = parse("(x - 1/3)^2 + 2*t")
        assert substitute(eq1.residual_expr(), {"u": shifted}).is_zero
        assert substitute(eq1.residual_expr(), {"u": moved}).is_zero

    @pytest.mark.parametrize("gen_name", ["G1", "G2", "G3", "G4", "G5", "G6"])
    @pytest.mark.parametrize("sol_name", ["quadratic", "exponential", "kernel"])
    def test_numeric_transport(self, eq1, g1, gen_name, sol_name):
        sol = next(s for s in exact_solutions(eq1) if s.name == sol_name)
        eps = 0.12
        tr = exponentiate_catalog(g1[gen_name], eps)
        pushed = tr.push_solution(lambda t, xs: sol(t, xs))
        worst = 0.0
        for (t, x) in [(0.3, 0.2), (0.4, -0.3), (0.55, 0.45)]:
            worst = max(worst, abs(heat_residual_stencil(pushed, t, (x,), h=2e-3)))
        assert worst < 1e-6
