"""Second prolongation, determining-equation residuals (integer regime), and
closed-form one-parameter flows of the catalog generator classes.

The prolonged coefficients use the characteristic recursion
eta^J = D_J(W) + xi0 * u_{J,t} + sum_i xi_i * u_{J,x_i} with
W = eta - xi0*u_t - sum_i xi_i*u_{x_i}.  Symbolic certification is available
for the integer-order equation only; fractional generators are verified
through their finite transformations and grid residuals (see
:mod:`liesym.fracnum`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .catalog import HeatEquation, NamedGenerator
from .expr import (
    Expr,
    ExprError,
    _func_laplacian,
    canonical_var,
    eval_numeric,
    jet,
    spatial_name,
    spatial_names,
    substitute,
    total_derivative,
    var_rank,
)
from .fields import VectorField

__all__ = [
    "ProlongedField",
    "PointTransformation",
    "RegimeError",
    "UnsupportedFlowError",
    "characteristic_expr",
    "prolong2",
    "determining_residual",
    "onshell_rules",
    "exponentiate_catalog",
]


class RegimeError(ExprError):
    pass


class UnsupportedFlowError(ExprError):
    pass


def characteristic_expr(f: VectorField) -> Expr:
    """W = eta - xi0*u_t - sum_i xi_i*u_{x_i}."""
    w = f.eta - f.xi0 * jet("t")
    for i in range(f.n):
        w = w - f.xi[i] * jet(spatial_name(i + 1))
    return w


class ProlongedField:
    """Second prolongation of a point field, computed on demand:
    ``eta(*J)`` is eta^J for a first- or second-order index J.  Each D_J W
    is kept, so D_{vw} W is D_w applied to the stored D_v W."""

    def __init__(self, base: VectorField):
        self.base = base
        self._dw: dict[tuple[str, ...], Expr] = {(): characteristic_expr(base)}
        self._eta: dict[tuple[str, ...], Expr] = {}

    def _total_dw(self, idx: tuple[str, ...]) -> Expr:
        if idx not in self._dw:
            self._dw[idx] = total_derivative(self._total_dw(idx[:-1]), idx[-1])
        return self._dw[idx]

    def eta(self, *index: str) -> Expr:
        idx = tuple(sorted((canonical_var(v) for v in index), key=var_rank))
        if not 1 <= len(idx) <= 2:
            raise ValueError("prolong2 has coefficients of order 1 and 2 only")
        if idx not in self._eta:
            f = self.base
            out = self._total_dw(idx)
            for coeff, v in zip((f.xi0, *f.xi), ("t", *spatial_names(f.n))):
                if not coeff.is_zero:
                    out = out + coeff * jet(v, *idx)
            self._eta[idx] = out
        return self._eta[idx]


def prolong2(f: VectorField, eq: HeatEquation) -> ProlongedField:
    if f.n != eq.n:
        raise ValueError("field and equation dimensions differ")
    return ProlongedField(f)


@lru_cache(maxsize=32)
def _onshell_rules(eq: HeatEquation) -> dict[str, Expr]:
    return {"u_t": eq.rhs(), "F_t": _func_laplacian("F", eq.n)}


def onshell_rules(eq: HeatEquation) -> dict[str, Expr]:
    """Elimination rules for 'on all solutions': u_t -> Laplacian(u), and the
    infinite-family symbol F transported the same way.  Built once per
    equation; each call returns a fresh dict."""
    return dict(_onshell_rules(eq))


def determining_residual(f: VectorField, eq: HeatEquation) -> Expr:
    """Apply the second prolongation to u_t - Laplacian(u) and reduce on
    shell; the result is identically zero exactly when f is a point symmetry
    of the integer-order equation."""
    if eq.is_fractional:
        raise RegimeError(
            "symbolic determining equations cover the integer regime only; "
            "verify fractional generators numerically via finite transformations "
            "(liesym.fracnum.invariance_check)"
        )
    pr = prolong2(f, eq)
    residual = pr.eta("t")
    for name in spatial_names(eq.n):
        residual = residual - pr.eta(name, name)
    return substitute(residual, onshell_rules(eq))


# ---------------------------------------------------------------------------
# finite (exponentiated) transformations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointTransformation:
    """One-parameter group element: closed-form maps (t, x, u) -> image and
    the exact inverse.  Coordinate maps do not depend on u; the u-map is
    linear in u with a coordinate-dependent factor.  The maps take floats or
    broadcast numpy arrays for t and each x_i."""

    label: str
    n: int
    eps: float
    coord_map: Callable  # (t, xs) -> (t~, xs~)
    coord_inverse: Callable
    u_factor: Callable  # (t, xs) -> multiplier applied to u at (t, xs)

    def map_point(self, t: float, xs: Sequence[float], u: float):
        tt, yy = self.coord_map(t, tuple(xs))
        return tt, yy, u * self.u_factor(t, tuple(xs))

    def push_solution(self, sol: Callable) -> Callable:
        """Transport a solution: the image function evaluated at (t, xs)."""

        def pushed(t: float, xs: Sequence[float], alpha: float | None = None) -> float:
            t0, x0 = self.coord_inverse(t, tuple(xs))
            base = sol(t0, x0, alpha) if alpha is not None else sol(t0, x0)
            return base * self.u_factor(t0, x0)

        return pushed


def _diagonal_weights(g: NamedGenerator, alpha_value: float | None) -> tuple[float, list[float], float] | None:
    """Recognize xi0 = a*t, xi_i = b_i*x_i, eta = c*u and return (a, b, c)."""
    f = g.field

    def linear_weight(coeff: Expr, var_name: str) -> float | None:
        if coeff.is_zero:
            return 0.0
        ratio = coeff / (Expr.from_atom(("v", var_name)) if var_name != "u" else jet())
        if not ratio.is_constant():
            try:
                return eval_numeric(ratio, {}, alpha_value) if alpha_value else None
            except ExprError:
                return None
        return float(ratio.as_fraction())

    a = linear_weight(f.xi0, "t")
    if a is None:
        return None
    bs = []
    for i in range(f.n):
        b = linear_weight(f.xi[i], spatial_name(i + 1))
        if b is None:
            return None
        bs.append(b)
    c = linear_weight(f.eta, "u")
    if c is None:
        return None
    return a, bs, c


def exponentiate_catalog(
    g: NamedGenerator, eps: float, alpha_value: float | None = None
) -> PointTransformation:
    """Exact flow of a catalog generator.  alpha_value is required when the
    generator's coefficients involve the symbolic order (fractional dilation).
    """
    f = g.field
    n = f.n
    one = lambda t, xs: 1.0
    label = f"{g.name}(eps={eps})"

    if g.klass in ("space-translation", "time-translation"):
        shift_t = float(f.xi0.as_fraction()) * eps if f.xi0.is_constant() else None
        shifts = [float(c.as_fraction()) * eps if c.is_constant() else None for c in f.xi]
        if shift_t is None or any(s is None for s in shifts):
            raise UnsupportedFlowError(f"{g.name}: translation with non-constant coefficients")

        def tmap(t, xs, dt=shift_t, dx=tuple(shifts)):
            return t + dt, tuple(x + d for x, d in zip(xs, dx))

        def tinv(t, xs, dt=shift_t, dx=tuple(shifts)):
            return t - dt, tuple(x - d for x, d in zip(xs, dx))

        return PointTransformation(label, n, eps, tmap, tinv, one)

    if g.klass == "rotation":
        from .fields import identify_rotation

        ident_rot = identify_rotation(f)
        if ident_rot is None:
            raise UnsupportedFlowError(f"{g.name}: not a recognizable rotation")
        p, q, s = ident_rot
        ang = s * eps
        # flow of s*(x_p d_q - x_q d_p): rotates the (p, q) plane
        cos_a, sin_a = math.cos(ang), math.sin(ang)
        p, q = p - 1, q - 1

        def rmap(t, xs):
            ys = list(xs)
            ys[p] = cos_a * xs[p] - sin_a * xs[q]
            ys[q] = sin_a * xs[p] + cos_a * xs[q]
            return t, tuple(ys)

        def rinv(t, xs):
            ys = list(xs)
            ys[p] = cos_a * xs[p] + sin_a * xs[q]
            ys[q] = -sin_a * xs[p] + cos_a * xs[q]
            return t, tuple(ys)

        return PointTransformation(label, n, eps, rmap, rinv, one)

    if g.klass in ("dilation", "homogeneity"):
        weights = _diagonal_weights(g, alpha_value)
        if weights is None:
            raise UnsupportedFlowError(
                f"{g.name}: dilation weights need a numeric alpha"
            )
        a, bs, c = weights
        ta, xbs, uc = math.exp(a * eps), [math.exp(b * eps) for b in bs], math.exp(c * eps)

        def dmap(t, xs):
            return t * ta, tuple(x * s for x, s in zip(xs, xbs))

        def dinv(t, xs):
            return t / ta, tuple(x / s for x, s in zip(xs, xbs))

        return PointTransformation(label, n, eps, dmap, dinv, lambda t, xs: uc)

    if g.klass == "solution":
        # Galilean 2t d_i - u x_i d_u: x_i -> x_i + 2 eps t,
        # u -> u exp(-eps x_i - eps^2 t)
        axis = None
        for i in range(n):
            if not f.xi[i].is_zero:
                axis = i
        if axis is None or f.xi[axis] != Expr.number(2) * Expr.from_atom(("v", "t")):
            raise UnsupportedFlowError(f"{g.name}: unsupported solution-symmetry shape")

        def smap(t, xs, i=axis):
            ys = list(xs)
            ys[i] = xs[i] + 2.0 * eps * t
            return t, tuple(ys)

        def sinv(t, xs, i=axis):
            ys = list(xs)
            ys[i] = xs[i] - 2.0 * eps * t
            return t, tuple(ys)

        def sfac(t, xs, i=axis):
            return np.exp(-eps * xs[i] - eps * eps * t)

        return PointTransformation(label, n, eps, smap, sinv, sfac)

    if g.klass == "projective":
        # flow of 4t^2 d_t + 4t sum x_i d_i - u(2nt + sum x_i^2) d_u:
        #   t -> t/(1-4 eps t), x -> x/(1-4 eps t),
        #   u -> u (1-4 eps t)^{n/2} exp(-eps |x|^2/(1-4 eps t))
        def pden(t):
            d = 1.0 - 4.0 * eps * t
            if np.any(d <= 0.0):
                raise UnsupportedFlowError("projective flow leaves its domain (1-4*eps*t <= 0)")
            return d

        def pmap(t, xs):
            d = pden(t)
            return t / d, tuple(x / d for x in xs)

        def pinv(t, xs):
            d = 1.0 + 4.0 * eps * t
            if np.any(d <= 0.0):
                raise UnsupportedFlowError("projective flow leaves its domain")
            return t / d, tuple(x / d for x in xs)

        def pfac(t, xs):
            d = pden(t)
            r2 = sum(x * x for x in xs)
            return d ** (n / 2.0) * np.exp(-eps * r2 / d)

        return PointTransformation(label, n, eps, pmap, pinv, pfac)

    raise UnsupportedFlowError(f"no closed-form flow for class {g.klass!r}")
