#!/usr/bin/env python3
"""Refinement study for the fractional numerics: one-sided kernel residuals,
the eigensolution equation residual, and the cell flux balance of the u d_u
conservation law under both multiplier choices (the divergent right-derivative
kernel and the adjoint-shell control)."""

import math
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from liesym.catalog import FRACTIONAL, HeatEquation, exact_solutions, generators
from liesym.conservation import conserved_vector, divergence_numeric_fractional
from liesym.fracnum import GridFunction, residual_on_grid, rl_derivative_grid

ALPHA = 0.5
T = 2.0


def kernel_study():
    print("# GL residual of the kernel solution t^(alpha-1), interior t >= 0.1")
    for K in (500, 1000, 2000, 4000):
        g = GridFunction.sample(lambda t, xs: t ** (ALPHA - 1.0), 1.0, K,
                                zero_at_origin=True)
        d = rl_derivative_grid(g, ALPHA)
        m = float(np.max(np.abs(d.values[g.t_axis() >= 0.1])))
        print(f"  K={K:5d}  max|D^alpha u| = {m:.4f}")


def eigen_study():
    print("# equation residual of the Mittag-Leffler eigensolution")
    eq = HeatEquation(1, FRACTIONAL)
    sol = exact_solutions(eq, k=1.0)[2]
    for K in (256, 512, 1024, 2048):
        g = GridFunction.sample(sol, 1.0, K, ((-1.0, 1.0, 33),), alpha=ALPHA,
                                zero_at_origin=True)
        rep = residual_on_grid(eq, g, ALPHA)
        print(f"  K={K:5d}  interior max residual = {rep.interior_max:.4f}")


def flux_study():
    eq = HeatEquation(1, FRACTIONAL)
    g03 = next(g for g in generators(eq) if g.name == "G03")
    cv = conserved_vector(g03, eq, attach_diff=False)
    cell = (0.5, 1.0, 0.0, 1.0)
    c = math.gamma(ALPHA + 1.0) / 2.0
    cases = {
        "right-derivative kernel (divergent J)": (
            lambda t, xs, a=None: np.where(t < T, T - t, np.inf) ** (ALPHA - 1.0),
            lambda mu, xv: (1.0 - ALPHA) * (T - mu) ** (ALPHA - 2.0),
        ),
        "adjoint-shell control": (
            lambda t, xs, a=None: (T - t) ** ALPHA + c * xs[0] ** 2,
            lambda mu, xv: -ALPHA * (T - mu) ** (ALPHA - 1.0),
        ),
    }
    for label, (phi_func, phi_t) in cases.items():
        print(f"# flux balance of the u d_u law, multiplier: {label}")
        for K, k in ((500, 64), (1000, 128), (2000, 256)):
            u = GridFunction.sample(lambda t, xs, a=None: t ** (ALPHA - 1.0),
                                    T, K, ((0.0, 1.0, 33),), zero_at_origin=True)
            phi = GridFunction.sample(phi_func, T, K, ((0.0, 1.0, 33),))
            rep = divergence_numeric_fractional(cv, eq, u, phi, cell, ALPHA,
                                                qnodes=k, phi_t=phi_t)
            print(f"  K={K:5d} qnodes={k:4d}  normalized imbalance = {rep.normalized:.4e}")


if __name__ == "__main__":
    kernel_study()
    eigen_study()
    flux_study()
