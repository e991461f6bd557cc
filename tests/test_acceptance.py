"""Acceptance suite: one test per top-level requirement, each printing a
PASS/FAIL line with its headline numbers.

The fractional flux-balance requirement with the right-derivative kernel as
multiplier (test 6a) is implemented faithfully and is expected to fail: with
phi = (T-t)^(alpha-1) the J(W, phi_t) term is a divergent integral
(phi_t ~ (T-mu)^(alpha-2) is not integrable at mu = T), so the imbalance
stalls near 0.3 instead of vanishing.  Test 6b runs the same machinery with
an adjoint-shell multiplier for which the law holds in the continuum, and
meets the same thresholds.  See notes in the test docstrings and README.
"""

import itertools
import json
import math
import random
import time

from liesym import parse
from liesym.audit import bracket_table_audit
from liesym.catalog import (
    FRACTIONAL,
    INTEGER,
    HeatEquation,
    count_formula,
    exact_solutions,
    generators,
)
from liesym.cli import main as cli_main
from liesym.conservation import (
    conserved_vector,
    divergence_numeric_fractional,
    divergence_onshell_symbolic,
)
from liesym.fields import VectorField, commutator_table, lie_bracket, match_canonical, vf_add
from liesym.fracnum import (
    GridFunction,
    invariance_check,
    mittag_leffler,
    right_rl_derivative_grid,
    rl_derivative_grid,
)
from liesym.prolong import PointTransformation, determining_residual, exponentiate_catalog
from liesym.reference_tables import ALLOWED_BRACKET_DISCREPANCIES

import numpy as np

from .test_fracnum import gamma_reciprocal


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} ({name}): {status}" + (f" [{detail}]" if detail else ""))
    return ok


def test_1_counting():
    """Formula and catalog lengths agree for n = 1..8 in both regimes; the
    n <= 4 values match the explicit reference lists."""
    t0 = time.monotonic()
    ok = True
    for n in range(1, 9):
        for regime in (INTEGER, FRACTIONAL):
            ok &= len(generators(HeatEquation(n, regime))) == count_formula(n, regime)
    ok &= [count_formula(n, INTEGER) for n in (1, 2, 3, 4)] == [7, 10, 14, 19]
    ok &= [count_formula(n, FRACTIONAL) for n in (1, 2, 3, 4)] == [4, 6, 9, 13]
    elapsed = time.monotonic() - t0
    ok &= elapsed < 1.0
    assert _report(1, "counting", ok, f"{elapsed:.2f}s")


def test_2_symbolic_symmetry_certification():
    """Determining residual vanishes for every integer-regime generator for
    n = 1..4 plus the generated n = 5, 6 families; ten randomized perturbed
    fields give nonzero residuals."""
    t0 = time.monotonic()
    checked = 0
    ok = True
    for n in (1, 2, 3, 4, 5, 6):
        eq = HeatEquation(n, INTEGER)
        for g in generators(eq):
            ok &= determining_residual(g.field, eq).is_zero
            checked += 1
    assert checked == 7 + 10 + 14 + 19 + 25 + 32

    rng = random.Random(2024)
    noise_pool = ["x^2", "x^3", "t*x", "u^2", "t*u", "x^2*u"]
    nonzero = 0
    for _ in range(10):
        n = rng.choice((1, 2))
        eq = HeatEquation(n, INTEGER)
        base = [g.field for g in generators(eq) if g.klass != "infinite"]
        a, b = rng.sample(base, 2)
        combo = vf_add(a, b)
        bad = VectorField("perturbed", n, combo.xi0, combo.xi,
                          combo.eta + parse(rng.choice(noise_pool)))
        if not determining_residual(bad, eq).is_zero:
            nonzero += 1
    ok &= nonzero == 10
    elapsed = time.monotonic() - t0
    ok &= elapsed < 30.0
    assert _report(2, "symbolic symmetry certification", ok,
                   f"{checked} generators, {nonzero}/10 controls nonzero, {elapsed:.1f}s")


def test_3_bracket_regression():
    """Computed commutator tables reproduce every printed entry except on the
    pinned allow-lists, and the allow-lists contain exactly the entries the
    symbolic oracle refutes."""
    ok = True
    details = []
    for n in (1, 2, 3, 4):
        for regime in (INTEGER, FRACTIONAL):
            eq = HeatEquation(n, regime)
            mismatches = {r.key for r in bracket_table_audit(eq) if r.verdict != "match"}
            pinned = ALLOWED_BRACKET_DISCREPANCIES[(n, regime)]
            ok &= mismatches == pinned
            details.append(f"n={n}/{regime[:4]}:{len(pinned)}")
    assert _report(3, "bracket regression vs printed tables", ok,
                   "allow-list sizes " + ",".join(details))


def test_4_algebra_structure():
    """Antisymmetry and Jacobi hold exactly on every catalog basis;
    the {time-translation, dilation, projective} triples match sl(2,R)
    modulo homogeneity for n = 1..4; the rotation sets match so(n)."""
    t0 = time.monotonic()
    ok = True
    for n in (1, 2, 3, 4):
        for regime in (INTEGER, FRACTIONAL):
            basis = [g.field for g in generators(HeatEquation(n, regime))]
            for a, b in itertools.combinations(basis, 2):
                ok &= vf_add(lie_bracket(a, b), lie_bracket(b, a)).is_zero()
            for a, b, c in itertools.combinations(basis, 3):
                jac = vf_add(
                    vf_add(lie_bracket(a, lie_bracket(b, c)),
                           lie_bracket(b, lie_bracket(c, a))),
                    lie_bracket(c, lie_bracket(a, b)),
                )
                ok &= jac.is_zero()

    def finite_table(gens):
        return commutator_table([g.field for g in gens if g.klass != "infinite"])

    for n in (1, 2, 3, 4):
        gens = generators(HeatEquation(n, INTEGER))
        by_class = {g.klass: g.name for g in gens}
        rep = match_canonical(
            finite_table(gens),
            [by_class["time-translation"], by_class["dilation"], by_class["projective"]],
            "sl2", modulo=[by_class["homogeneity"]],
        )
        ok &= rep.matched
    for n in (2, 3, 4):
        for regime in (INTEGER, FRACTIONAL):
            gens = generators(HeatEquation(n, regime))
            rotations = [g.name for g in gens if g.klass == "rotation"]
            ok &= match_canonical(finite_table(gens), rotations, "so").matched
    assert _report(4, "algebra structure", ok, f"{time.monotonic() - t0:.1f}s")


def test_5_integer_conservation():
    """All 50 operator-built conserved vectors for n = 1..4 have identically
    zero on-shell divergence, with the multiplier constrained to the adjoint
    shell."""
    t0 = time.monotonic()
    certified = 0
    ok = True
    for n in (1, 2, 3, 4):
        eq = HeatEquation(n, INTEGER)
        for g in generators(eq):
            cv = conserved_vector(g, eq, attach_diff=False)
            ok &= divergence_onshell_symbolic(cv, eq).is_zero
            certified += 1
    ok &= certified == 50
    elapsed = time.monotonic() - t0
    ok &= elapsed < 60.0
    assert _report(5, "integer conservation laws", ok,
                   f"{certified} laws, {elapsed:.1f}s")


ALPHA6 = 0.5
T6 = 2.0
CELL6 = (0.5, 1.0, 0.0, 1.0)


def _flux_run(phi_func, phi_t, K, qnodes):
    eq = HeatEquation(1, FRACTIONAL)
    g03 = next(g for g in generators(eq) if g.name == "G03")
    cv = conserved_vector(g03, eq, attach_diff=False)
    u = GridFunction.sample(lambda t, xs, a=None: t ** (ALPHA6 - 1.0), T6, K,
                            ((0.0, 1.0, 33),), zero_at_origin=True)
    phi = GridFunction.sample(phi_func, T6, K, ((0.0, 1.0, 33),))
    return divergence_numeric_fractional(cv, eq, u, phi, CELL6, ALPHA6,
                                         qnodes=qnodes, phi_t=phi_t)


def test_6a_fractional_flux_with_right_derivative_kernel_multiplier():
    """Flux balance of the u d_u law with u = t^(alpha-1) and the
    right-derivative kernel phi = (T-t)^(alpha-1) as multiplier, alpha = 1/2,
    cell [0.5,1.0]x[0,1]: requires normalized imbalance < 1e-2 at
    K = 2000, qnodes = 256, decreasing when both double.

    EXPECTED TO FAIL: phi_t ~ (T-mu)^(alpha-2) makes J(W, phi_t) a divergent
    integral, so the imbalance stalls near 0.30 while the raw boundary
    integrals grow without bound under quadrature refinement.  The companion
    test below passes the identical thresholds with an adjoint-shell
    multiplier, demonstrating the verification machinery itself is sound.
    """
    # inf ** (alpha - 1) = 0 at t = T without evaluating 0 ** (alpha - 1)
    phi_func = lambda t, xs, a=None: np.where(t < T6, T6 - t, np.inf) ** (ALPHA6 - 1.0)
    phi_t = lambda mu, xv: (1.0 - ALPHA6) * (T6 - mu) ** (ALPHA6 - 2.0)
    first = _flux_run(phi_func, phi_t, 2000, 256)
    second = _flux_run(phi_func, phi_t, 4000, 512)
    ok = first.normalized < 1e-2 and second.normalized < first.normalized
    _report("6a", "fractional flux, right-derivative kernel multiplier", ok,
            f"normalized {first.normalized:.3f} -> {second.normalized:.3f}")
    assert first.normalized < 1e-2, (
        "normalized flux imbalance stalls (divergent J functional for this "
        f"multiplier): {first.normalized:.3f} at K=2000, qnodes=256; "
        f"{second.normalized:.3f} at K=4000, qnodes=512"
    )
    assert second.normalized < first.normalized


def test_6b_fractional_flux_with_adjoint_shell_multiplier():
    """Same law, same thresholds, with phi = (T-t)^alpha +
    Gamma(1+alpha) x^2 / 2, which satisfies the adjoint constraint the
    J-based components need (its right-sided Caputo derivative equals its
    Laplacian): the imbalance is < 1e-2 and decreases under refinement."""
    c = math.gamma(ALPHA6 + 1.0) / 2.0
    phi_func = lambda t, xs, a=None: (T6 - t) ** ALPHA6 + c * xs[0] ** 2
    phi_t = lambda mu, xv: -ALPHA6 * (T6 - mu) ** (ALPHA6 - 1.0)
    first = _flux_run(phi_func, phi_t, 2000, 256)
    second = _flux_run(phi_func, phi_t, 4000, 512)
    ok = first.normalized < 1e-2 and second.normalized < first.normalized
    assert _report("6b", "fractional flux, adjoint-shell multiplier", ok,
                   f"normalized {first.normalized:.2e} -> {second.normalized:.2e}")


def test_7_fractional_calculus_kernels():
    """GL power rule within 1% at h = 1e-3; both one-sided kernels refine to
    zero; the Mittag-Leffler recurrence holds to 1e-10 on the lattice and
    E_{1,1}(1) = e to 1e-12."""
    ok = True
    # power rule u = t, alpha = 1/2, h = 1e-3 (T = 1, K = 1000)
    g = GridFunction.sample(lambda t, xs: t, 1.0, 1000)
    d = rl_derivative_grid(g, 0.5)
    t = g.t_axis()
    exact = math.gamma(2.0) / math.gamma(1.5) * np.sqrt(t)
    mask = t >= 0.1
    rel = float(np.max(np.abs(d.values[mask] - exact[mask]) / exact[mask]))
    ok &= rel < 0.01

    alpha = 0.6
    left_prev = right_prev = None
    trend_ok = True
    for K in (500, 1000, 2000):
        gk = GridFunction.sample(lambda t, xs: t ** (alpha - 1.0), 1.0, K,
                                 zero_at_origin=True)
        lk = float(np.max(np.abs(
            rl_derivative_grid(gk, alpha).values[gk.t_axis() >= 0.1])))
        gr = GridFunction.sample(
            lambda t, xs: np.where(t < 1.0, 1.0 - t, np.inf) ** (alpha - 1.0), 1.0, K)
        rk = float(np.max(np.abs(
            right_rl_derivative_grid(gr, alpha)
            .values[gr.t_axis() <= 0.9])))
        if left_prev is not None:
            trend_ok &= lk < left_prev and rk < right_prev
        left_prev, right_prev = lk, rk
    ok &= trend_ok

    worst = 0.0
    for a in (0.4, 0.5, 0.6, 0.8, 1.0):
        for b in (0.5, 0.8, 1.0, 1.5, 2.0):
            for z in (-2.0, -1.0, 0.0, 0.5, 2.0):
                lhs = mittag_leffler(a, b, z)
                rhs = z * mittag_leffler(a, a + b, z) + gamma_reciprocal(b)
                worst = max(worst, abs(lhs - rhs))
    ok &= worst < 1e-10
    e_err = abs(mittag_leffler(1.0, 1.0, 1.0) - math.e)
    ok &= e_err < 1e-12
    assert _report(7, "fractional calculus kernels", ok,
                   f"power-rule rel {rel:.2e}, recurrence {worst:.1e}, e-err {e_err:.1e}")


def test_8_fractional_invariance():
    """Every fractional generator class passes the invariance check on the
    Mittag-Leffler eigensolution in n = 1 and n = 2 at eps in {0.1, 0.3};
    the deliberately mis-weighted dilation fails (its residual grows under
    refinement instead of shrinking)."""
    t0 = time.monotonic()
    alpha = 0.5
    ok = True
    seen_classes = set()
    for n in (1, 2):
        eq = HeatEquation(n, FRACTIONAL)
        sol = exact_solutions(eq, k=1.0)[2]
        spatial = tuple((-1.2, 1.2, 33) for _ in range(n))
        K = 768 if n == 1 else 384
        for g in generators(eq):
            if g.klass == "infinite":
                continue
            for eps in (0.1, 0.3):
                tr = exponentiate_catalog(g, eps, alpha_value=alpha)
                rep = invariance_check(eq, sol, tr, alpha, T=1.0, K=K, spatial=spatial)
                ok &= rep.passed
            seen_classes.add(g.klass)
    ok &= seen_classes == {"space-translation", "rotation", "dilation", "homogeneity"}

    # negative control: x-exponent 1 instead of alpha
    eq = HeatEquation(1, FRACTIONAL)
    sol = exact_solutions(eq, k=1.0)[2]
    eps = 0.3
    bad = PointTransformation(
        "mis-weighted dilation", 1, eps,
        lambda s, t, xs: (t * math.exp(2 * s), tuple(x * math.exp(s) for x in xs), 1.0),
    )
    bad_rep = invariance_check(eq, sol, bad, alpha, T=1.0, K=768,
                               spatial=((-1.2, 1.2, 33),), refine=True)
    ok &= not bad_rep.passed
    # and a true dilation still passes under the same refinement scrutiny
    g02 = next(g for g in generators(eq) if g.name == "G02")
    good_rep = invariance_check(eq, sol, exponentiate_catalog(g02, eps, alpha_value=alpha),
                                alpha, T=1.0, K=768, spatial=((-1.2, 1.2, 33),), refine=True)
    ok &= good_rep.passed
    elapsed = time.monotonic() - t0
    ok &= elapsed < 300.0
    assert _report(8, "fractional invariance", ok,
                   f"classes {sorted(seen_classes)}, control grows "
                   f"{bad_rep.transformed_interior_max:.3f}->"
                   f"{bad_rep.refined_transformed_max:.3f}, {elapsed:.0f}s")


def test_9_verify_determinism(tmp_path, capsys):
    """Two runs of the verify subcommand with the same seed emit byte-identical
    JSON."""
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code1 = cli_main(["verify", "--n", "1..2", "--regime", "integer",
                      "--format", "json", "--seed", "123", "--out", str(a)])
    code2 = cli_main(["verify", "--n", "1..2", "--regime", "integer",
                      "--format", "json", "--seed", "123", "--out", str(b)])
    capsys.readouterr()
    same = a.read_bytes() == b.read_bytes()
    ok = code1 == 0 and code2 == 0 and same
    json.loads(a.read_text())  # well-formed
    assert _report(9, "verify determinism", ok,
                   f"{len(a.read_bytes())} bytes, identical={same}")
