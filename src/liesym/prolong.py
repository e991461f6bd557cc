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
    _sorted_index,
    eval_numeric,
    jet,
    spatial_name,
    spatial_names,
    substitute,
    sum_of_products,
    total_derivative,
    var,
)
from .fields import VectorField, identify_rotation

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
    return sum_of_products([(Expr.one(), f.eta)] + [
        (coeff, -jet(v)) for coeff, v in zip((f.xi0, *f.xi), ("t", *spatial_names(f.n)))])


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
        idx = _sorted_index(index)
        if not 1 <= len(idx) <= 2:
            raise ValueError("prolong2 has coefficients of order 1 and 2 only")
        if idx not in self._eta:
            f = self.base
            coeffs = zip((f.xi0, *f.xi), ("t", *spatial_names(f.n)))
            self._eta[idx] = sum_of_products([(Expr.one(), self._total_dw(idx))] + [
                (coeff, jet(v, *idx)) for coeff, v in coeffs if not coeff.is_zero])
        return self._eta[idx]


def prolong2(f: VectorField, eq: HeatEquation) -> ProlongedField:
    if f.n != eq.n:
        raise ValueError("field and equation dimensions differ")
    return ProlongedField(f)


@lru_cache(maxsize=32)
def _onshell_rules(eq: HeatEquation) -> dict[str, Expr]:
    if eq.is_fractional:
        raise RegimeError("symbolic on-shell reduction covers the integer regime only; verify "
                          "fractional generators with liesym.fracnum.invariance_check")
    return {"u_t": eq.rhs(), "F_t": _func_laplacian("F", eq.n),
            "phi_t": -_func_laplacian("phi", eq.n)}


def onshell_rules(eq: HeatEquation) -> dict[str, Expr]:
    """The integer equation's shell: u_t -> Lap(u), the infinite-family
    symbol F transported the same way, and the adjoint shell
    phi_t -> -Lap(phi) of the multiplier phi.  Both symbolic certificates
    reduce with it.  Built once per equation; each call returns a fresh
    dict.  Raises RegimeError for the fractional equation."""
    return dict(_onshell_rules(eq))


def determining_residual(f: VectorField, eq: HeatEquation) -> Expr:
    """Apply the second prolongation to u_t - Laplacian(u) and reduce on
    shell; the result is identically zero exactly when f is a point symmetry
    of the integer-order equation."""
    pr = prolong2(f, eq)
    minus = Expr.number(-1)
    residual = sum_of_products([(Expr.one(), pr.eta("t"))] + [
        (minus, pr.eta(name, name)) for name in spatial_names(eq.n)])
    return substitute(residual, onshell_rules(eq))


# ---------------------------------------------------------------------------
# finite (exponentiated) transformations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PointTransformation:
    """Element exp(eps*V) of the one-parameter group of a point field V.

    ``flow(s, t, xs) -> (t~, xs~, m)`` is the group element at parameter s:
    it maps (t, xs) to (t~, xs~) and multiplies u there by m.  The element is
    the flow at eps and its inverse is the same flow at -eps.  t and each x_i
    may be floats or broadcast numpy arrays."""

    label: str
    n: int
    eps: float
    flow: Callable

    def map_point(self, t: float, xs: Sequence[float], u: float):
        tt, yy, m = self.flow(self.eps, t, tuple(xs))
        return tt, yy, u * m

    def coord_inverse(self, t: float, xs: Sequence[float]):
        t0, x0, _ = self.flow(-self.eps, t, tuple(xs))
        return t0, x0

    def push_solution(self, sol: Callable) -> Callable:
        """Transport a solution: the image function evaluated at (t, xs)."""

        def pushed(t: float, xs: Sequence[float], alpha: float | None = None) -> float:
            t0, x0 = self.coord_inverse(t, xs)
            base = sol(t0, x0, alpha) if alpha is not None else sol(t0, x0)
            return base * self.flow(self.eps, t0, x0)[2]

        return pushed


def _diagonal_weights(g: NamedGenerator, alpha_value: float | None) -> tuple[float, list[float], float] | None:
    """Recognize xi0 = a*t, xi_i = b_i*x_i, eta = c*u and return (a, b, c)."""
    f = g.field

    def linear_weight(coeff: Expr, var_name: str) -> float | None:
        if coeff.is_zero:
            return 0.0
        ratio = coeff / (var(var_name) if var_name != "u" else jet())
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
    """Exact flow of a catalog generator.  The class label picks the closed
    form; a field that is not exactly of that form raises
    UnsupportedFlowError.  alpha_value is required when the generator's
    coefficients involve the symbolic order (fractional dilation).
    """
    f = g.field
    n = f.n
    label = f"{g.name}(eps={eps})"
    t_, xs_, u_ = var("t"), [var(v) for v in spatial_names(n)], jet()

    if g.klass in ("space-translation", "time-translation"):
        if not (f.eta.is_zero and all(c.is_constant() for c in (f.xi0, *f.xi))):
            raise UnsupportedFlowError(f"{g.name}: not a constant translation")
        dt, dx = float(f.xi0.as_fraction()), [float(c.as_fraction()) for c in f.xi]

        def flow(s, t, xs):
            return t + dt * s, tuple(x + d * s for x, d in zip(xs, dx)), 1.0

    elif g.klass == "rotation":
        ident_rot = identify_rotation(f)
        if ident_rot is None:
            raise UnsupportedFlowError(f"{g.name}: not a recognizable rotation")
        p, q, sign = ident_rot
        p, q = p - 1, q - 1

        def flow(s, t, xs):
            # flow of sign*(x_p d_q - x_q d_p): rotates the (p, q) plane
            cos_a, sin_a = math.cos(sign * s), math.sin(sign * s)
            ys = list(xs)
            ys[p] = cos_a * xs[p] - sin_a * xs[q]
            ys[q] = sin_a * xs[p] + cos_a * xs[q]
            return t, tuple(ys), 1.0

    elif g.klass in ("dilation", "homogeneity"):
        weights = _diagonal_weights(g, alpha_value)
        if weights is None:
            raise UnsupportedFlowError(f"{g.name}: not diagonal, or its weights need alpha_value")
        a, bs, c = weights

        def flow(s, t, xs):
            return (t * math.exp(a * s), tuple(x * math.exp(b * s) for x, b in zip(xs, bs)),
                    math.exp(c * s))

    elif g.klass == "solution":
        # Galilean 2t d_i - u x_i d_u: x_i -> x_i + 2 s t,
        # u -> u exp(-s x_i - s^2 t)
        i = next((k for k in range(n) if not f.xi[k].is_zero), 0)
        galilean = tuple(2 * t_ if k == i else Expr.zero() for k in range(n))
        if (f.xi0, f.xi, f.eta) != (Expr.zero(), galilean, -u_ * xs_[i]):
            raise UnsupportedFlowError(f"{g.name}: unsupported solution-symmetry shape")

        def flow(s, t, xs):
            ys = list(xs)
            ys[i] = xs[i] + 2.0 * s * t
            return t, tuple(ys), np.exp(-s * xs[i] - s * s * t)

    elif g.klass == "projective":
        # flow of 4t^2 d_t + 4t sum x_i d_i - u(2nt + sum x_i^2) d_u:
        #   t -> t/(1-4 s t), x -> x/(1-4 s t),
        #   u -> u (1-4 s t)^{n/2} exp(-s |x|^2/(1-4 s t))
        r2_ = sum(x * x for x in xs_)
        if (f.xi0, f.xi, f.eta) != (4 * t_ * t_, tuple(4 * t_ * x for x in xs_),
                                    -u_ * (2 * n * t_ + r2_)):
            raise UnsupportedFlowError(f"{g.name}: not the projective field")

        def flow(s, t, xs):
            d = 1.0 - 4.0 * s * t
            if np.any(d <= 0.0):
                raise UnsupportedFlowError("projective flow leaves its domain (1-4*eps*t <= 0)")
            r2 = sum(x * x for x in xs)
            return t / d, tuple(x / d for x in xs), d ** (n / 2.0) * np.exp(-s * r2 / d)

    else:
        raise UnsupportedFlowError(f"no closed-form flow for class {g.klass!r}")
    return PointTransformation(label, n, eps, flow)
