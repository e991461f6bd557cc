"""Second prolongation, determining-equation residuals (integer regime), and
one-parameter flows of point fields, read from the coefficients: one matrix
exponential for every field that is affine in (t, x) with eta = c(t, x)*u,
and the closed form of the projective field.

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
    partial_derivative,
    point_derivative,
    spatial_names,
    substitute,
    sum_of_products,
    total_derivative,
    var,
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


def _expm(a: np.ndarray) -> np.ndarray:
    """exp(a): the Taylor series of a/2^k, with k taking the largest row sum of
    |a| to at most 1/2 (16 terms then leave < 1e-18), squared k times."""
    k = max(0, math.frexp(np.abs(a).sum(axis=1).max())[1] + 1)
    a = a / 2.0 ** k
    out = term = np.eye(len(a))
    for j in range(1, 17):
        term = term @ a / j
        out = out + term
    for _ in range(k):
        out = out @ out
    return out


def _affine_matrix(f: VectorField, alpha_value: float | None) -> np.ndarray | None:
    """M with d/ds (t, x, 1, ln m) = M (t, x, 1, ln m) along the flow of f, or
    None unless eta = c*u and xi0, every xi_i and c are affine in (t, x)."""
    names = ("t", *spatial_names(f.n))
    c = partial_derivative(f.eta, "u")
    if c * jet() != f.eta:
        return None
    m = np.zeros((f.n + 3, f.n + 3))
    for row, e in zip((*range(f.n + 1), f.n + 2), (f.xi0, *f.xi, c)):
        grads = [point_derivative(e, v) for v in names]
        rest = sum_of_products([(Expr.one(), e)] + [(-g, var(v)) for g, v in zip(grads, names)])
        entries = (*grads, rest)
        if any(not a.atoms() <= {("a",)} for a in entries):
            return None
        try:
            m[row, :-1] = [eval_numeric(a, {}, alpha_value) for a in entries]
        except ExprError as exc:
            raise UnsupportedFlowError(f"{f.name}: {exc}") from None
    return m


def _apply_row(row, z):
    """sum_j row[j] * z[j] over the nonzero entries; an entry of 1 passes z[j]
    through as it is, so a coordinate the flow leaves alone keeps its object
    and shape.  None when the row is zero."""
    terms = [v if c == 1.0 else c * v for c, v in zip(row, z) if c != 0.0]
    return sum(terms[1:], terms[0]) if terms else None


def exponentiate_catalog(
    g: VectorField | NamedGenerator, eps: float, alpha_value: float | None = None
) -> PointTransformation:
    """Exact flow of a point field, read from its coefficients.

    Affine path: when eta = c*u and xi0, every xi_i and c are affine in
    (t, x), the flow is linear in (t, x, 1, ln m), d/ds (t, x, 1, ln m) =
    M (t, x, 1, ln m), so the group element at s is exp(s*M) applied to
    (t, xs, 1, 0) (Olver, Applications of Lie Groups to Differential
    Equations, ch. 1).  Projective path: the projective field
    4t^2 d_t + 4t sum x_i d_i - u(2nt + |x|^2) d_u keeps its closed form.
    Any other field raises UnsupportedFlowError, and so does a coefficient
    that involves the symbolic order alpha when alpha_value is not given.
    """
    f = g.field if isinstance(g, NamedGenerator) else g
    n = f.n
    label = f"{f.name}(eps={eps})"
    m = _affine_matrix(f, alpha_value)
    if m is not None:

        def flow(s, t, xs):
            e = _expm(s * m)
            z = (t, *xs, 1.0)
            t1, *ys = (_apply_row(row, z) for row in e[:n + 1, :-1])
            log_m = _apply_row(e[n + 2, :-1], z)
            return t1, tuple(ys), 1.0 if log_m is None else np.exp(log_m)

        return PointTransformation(label, n, eps, flow)

    # flow of 4t^2 d_t + 4t sum x_i d_i - u(2nt + sum x_i^2) d_u:
    #   t -> t/(1-4 s t), x -> x/(1-4 s t),
    #   u -> u (1-4 s t)^{n/2} exp(-s |x|^2/(1-4 s t))
    t_, xs_, u_ = var("t"), [var(v) for v in spatial_names(n)], jet()
    if (f.xi0, f.xi, f.eta) != (4 * t_ * t_, tuple(4 * t_ * x for x in xs_),
                                -u_ * (2 * n * t_ + sum(x * x for x in xs_))):
        raise UnsupportedFlowError(
            f"{f.name}: no flow; the field is neither affine in (t, x) with eta = c(t, x)*u "
            "nor the projective field")

    def flow(s, t, xs):
        d = 1.0 - 4.0 * s * t
        if np.any(d <= 0.0):
            raise UnsupportedFlowError("projective flow leaves its domain (1-4*eps*t <= 0)")
        r2 = sum(x * x for x in xs)
        return t / d, tuple(x / d for x in xs), d ** (n / 2.0) * np.exp(-s * r2 / d)

    return PointTransformation(label, n, eps, flow)
