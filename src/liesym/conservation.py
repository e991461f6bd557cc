"""Conserved vectors from the formal-Lagrangian (Noether-operator) formulas,
with symbolic divergence certification in the integer regime and cell-flux
numeric verification in the fractional one.

The operator-derived components are the ground truth here; the published
component lists are regression fixtures (see liesym.reference_tables) and a
machine-generated discrepancy report is attached for n <= 4 rather than
silently adopting either side.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np

from .audit import conserved_vector_diff
from .catalog import FRACTIONAL, HeatEquation, NamedGenerator
from .expr import (
    _MAX_JET_ORDER,
    Expr,
    ExprError,
    _var_latex,
    eval_numeric,
    func_sym,
    spatial_name,
    spatial_names,
    substitute,
    sum_of_products,
    to_latex,
    total_derivative,
)
from .fields import VectorField, _gamma_latex
from .fracnum import (
    _BLOCK_ROWS,
    GridFunction,
    GridError,
    _causal_convolve,
    gl_weights,
    j_quadrature,
    rl_integral_values,
)
from .prolong import characteristic_expr, onshell_rules

__all__ = [
    "NonlocalError",
    "ConservedVector",
    "conserved_vector",
    "divergence_onshell_symbolic",
    "FluxReport",
    "divergence_numeric_fractional",
    "conserved_vector_json_obj",
    "conserved_vector_latex",
]


class NonlocalError(ExprError):
    pass


@lru_cache(maxsize=32)
def _lagrangian(eq: HeatEquation) -> Expr:
    return func_sym("phi") * eq.residual_expr()


@dataclass(frozen=True)
class ConservedVector:
    """Components of a conserved vector.  Ct_local is the local part of C^t;
    in the fractional regime the whole time component is

        C^t = Ct_local + phi I^(1-alpha)[W] + J(W, phi_t),

    so W fixes its nonlocal part."""

    symmetry: str
    n: int
    regime: str
    W: Expr
    Ct_local: Expr
    Cx: tuple[Expr, ...]
    paper_diff: tuple = ()


def conserved_vector(
    f: VectorField | NamedGenerator,
    eq: HeatEquation,
    attach_diff: bool = True,
) -> ConservedVector:
    """Components from the Noether-operator formulas applied to the formal
    Lagrangian L = phi (D_t^alpha u - Lap(u)), whose leading term the integer
    regime reads as the jet coordinate u_t:

        C^t   = xi0 L + W phi                       (integer)
        C^t   = xi0 L + phi I^(1-alpha)[W] + J(W, phi_t)   (fractional)
        C^x_i = xi_i L + W phi_{x_i} - phi D_{x_i}(W)

    For n <= 4 a discrepancy report against the published component lists is
    attached (paper_diff)."""
    vf = f.field if isinstance(f, NamedGenerator) else f
    if vf.n != eq.n:
        raise ValueError("field and equation dimensions differ")
    w = characteristic_expr(vf)
    L = _lagrangian(eq)
    phi = func_sym("phi")
    cx = tuple(sum_of_products(((xi, L), (w, func_sym("phi", (name,))),
                                (-phi, total_derivative(w, name))))
               for xi, name in zip(vf.xi, spatial_names(eq.n)))
    ct_local = vf.xi0 * L if eq.is_fractional else sum_of_products(((vf.xi0, L), (w, phi)))
    cv = ConservedVector(vf.name, eq.n, eq.regime, w, ct_local, cx)
    if attach_diff and eq.n <= 4:
        cv = replace(cv, paper_diff=tuple(conserved_vector_diff(cv, eq)))
    return cv


def divergence_onshell_symbolic(cv: ConservedVector, eq: HeatEquation) -> Expr:
    """D_t C^t + sum_i D_{x_i} C^{x_i}, reduced on the solution shell and the
    adjoint shell; identically zero certifies the conservation law."""
    if cv.regime == FRACTIONAL:
        raise NonlocalError("symbolic divergence covers local (integer) vectors only")
    one = Expr.one()
    div = sum_of_products([(one, total_derivative(cv.Ct_local, "t"))] + [
        (one, total_derivative(c, v)) for c, v in zip(cv.Cx, spatial_names(eq.n))])
    return substitute(div, onshell_rules(eq))


# ---------------------------------------------------------------------------
# fractional numeric verification (cell flux balance)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FluxReport:
    imbalance: float
    normalized: float
    boundary_integrals: dict
    cell: tuple
    K: int
    qnodes: int


def _interp_columns(x: np.ndarray, xp: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """np.interp of every column of cols (sampled at xp) at the points x."""
    return np.stack([np.interp(x, xp, c) for c in cols.T], axis=1)


def _jet_array(base: np.ndarray, idx: tuple[str, ...], dt: float, dx: float) -> np.ndarray:
    out = base
    for v in idx:
        if v == "t":
            out = np.gradient(out, dt, axis=0, edge_order=2)
        else:
            out = np.gradient(out, dx, axis=1, edge_order=2)
    return out


def _atom_array(
    atom: tuple,
    u: GridFunction,
    phi: GridFunction,
    alpha: float,
    kw: int,
    drows: range,
) -> np.ndarray:
    """One atom of the component expressions as an array over the time rows
    0..kw, or, for a D_t^alpha atom, over the rows drows only.  alpha is not
    an atom here, since eval_numeric takes it as its alpha_value."""
    dt, dx = u.dt, u.spatial_steps[0]
    kind = atom[0]
    if kind == "v":
        return u.t_axis()[:kw + 1, None] if atom[1] == "t" else u.spatial_axis(0)[None, :]
    if kind == "j":
        return _jet_array(u.values[:kw + 1], atom[1], dt, dx)
    if kind == "f":
        if atom[1] != "phi":
            raise GridError("numeric flux checks do not support the infinite family symbol")
        return _jet_array(phi.values[:kw + 1], atom[2], dt, dx)
    if kind == "D":
        base = _jet_array(u.values[:kw + 1], atom[1], dt, dx)
        out = _causal_convolve(gl_weights(alpha, kw), base, drows)
        out /= dt ** alpha
        return out
    raise GridError(f"cannot evaluate atom {atom} on a grid")


def _pick(a: np.ndarray, rows, cols) -> np.ndarray:
    """a[rows][:, cols], keeping an axis of length 1 (it broadcasts)."""
    a = a[rows] if a.shape[0] > 1 else a
    return a[:, cols] if a.shape[1] > 1 else a


def divergence_numeric_fractional(
    cv: ConservedVector,
    eq: HeatEquation,
    u: GridFunction,
    phi: GridFunction,
    cell: tuple[float, float, float, float],
    alpha: float,
    qnodes: int = 64,
    *,
    phi_t: Callable,
) -> FluxReport:
    """Flux balance of the conserved vector over the cell
    [t1, t2] x [x1, x2]: evaluates the boundary integrals
    int C^t dx on the two time lines and int C^x dt on the two space lines,
    and reports their imbalance normalized by the total boundary magnitude.
    Only what those integrals read is computed: C^t on the two time lines
    and C^x on the two space lines, from atoms on the time rows up to a
    little past t2.  W is evaluated once on those rows; I^(1-alpha)[W]
    convolves only the Toeplitz row blocks of the two lines, and the
    D_t^alpha atoms only those of the rows t1..t2.

    u and phi are (K+1) x (M+1) grids over [0, T] x [xlo, xhi]; cells touching
    t = 0 are rejected (the data there is singular by design).  phi_t is the
    multiplier's time derivative for the J quadrature, a callable (mu, x)
    called on arrays: mu shaped (nodes, 1), x the cell's columns shaped
    (1, C)."""
    if eq.n != 1 or not eq.is_fractional or cv.regime != FRACTIONAL:
        raise GridError("flux verification covers the 1D fractional case")
    if any(a[0] == "D" for a in cv.W.atoms()):
        raise GridError("flux verification needs a W free of D_t^alpha atoms")
    if u.values.shape != phi.values.shape or u.values.ndim != 2:
        raise GridError("u and phi must share one (t, x) grid")
    t1, t2, x1, x2 = cell
    if t1 <= 0.0:
        raise GridError("cell touches t = 0; the lower terminal is singular")
    if not (t1 < t2 <= u.T + 1e-12):
        raise GridError("cell time range outside the grid")
    if not x1 < x2:
        raise GridError(f"cell x-edges must be increasing: x1={x1}, x2={x2}")
    dt, dx = u.dt, u.spatial_steps[0]
    xaxis = u.spatial_axis(0)
    it1, it2 = int(round(t1 / dt)), int(round(t2 / dt))
    ix1, ix2 = int(round((x1 - xaxis[0]) / dx)), int(round((x2 - xaxis[0]) / dx))
    for val, snapped, label in ((t1, it1 * dt, "t1"), (t2, it2 * dt, "t2"),
                                (x1, xaxis[ix1], "x1"), (x2, xaxis[ix2], "x2")):
        if abs(val - snapped) > 1e-9 * max(1.0, abs(val)):
            raise GridError(f"cell edge {label}={val} is not a grid line")

    # Atoms on the time rows 0..kw only.  Unless it is the last row, kw lies
    # at least _MAX_JET_ORDER rows past it2, so that a t-jet at the rows
    # <= it2 uses the same interior stencils as on the whole grid, and at or
    # past the end of the Toeplitz block that holds it2, so that a GL product
    # of the rows <= it2 builds the same slabs.  A D_t^alpha atom holds the
    # rows it1..it2 only.
    kw = min(u.K, max(it2 + _MAX_JET_ORDER, it2 - it2 % _BLOCK_ROWS + _BLOCK_ROWS - 1))
    drows = range(it1, it2 + 1)
    arrays: dict = {}

    def atom(a: tuple) -> np.ndarray:
        if a not in arrays:  # computed when first read
            arrays[a] = _atom_array(a, u, phi, alpha, kw, drows)
        return arrays[a]

    def on(e: Expr, rows: range | list, cols) -> np.ndarray:
        """e on the time rows (a range is a view of the rows 0..kw) and columns"""
        def take(a):
            off = it1 if a[0] == "D" else 0
            r = (slice(rows.start - off, rows.stop - off) if isinstance(rows, range)
                 else np.asarray(rows) - off)
            return _pick(atom(a), r, cols)

        shape = (len(rows), len(np.arange(u.values.shape[1])[cols]))
        return np.broadcast_to(eval_numeric(e, {a: take(a) for a in e.atoms() - {("a",)}}, alpha),
                               shape)

    cols = slice(ix1, ix2 + 1)
    lines = [it1, it2]
    # W first, so that only the atoms it reads are alive next to its
    # Toeplitz slab and the J kernel; I^(1-alpha) reads all of its columns
    # and J the cell's
    w = on(cv.W, range(kw + 1), slice(None))
    ivals = rl_integral_values(GridFunction(dt, w, u.spatial_starts, u.spatial_steps),
                               1.0 - alpha, rows=lines)[:, cols]
    taxis, w_cols, xs = phi.t_axis(), w[:, cols], xaxis[None, cols]
    j_line_lo, j_line_hi = (
        j_quadrature(lambda s: _interp_columns(s, taxis[:kw + 1], w_cols),
                     lambda s: phi_t(s[:, None], xs), alpha, taxis[k], phi.T, nodes=qnodes)
        for k in lines)
    ct_line_lo, ct_line_hi = (on(cv.Ct_local, lines, cols)
                              + _pick(atom(("f", "phi", ())), np.asarray(lines), cols) * ivals)
    ct_line_lo = ct_line_lo + j_line_lo
    ct_line_hi = ct_line_hi + j_line_hi
    cx_lo, cx_hi = on(cv.Cx[0], drows, [ix1, ix2]).T

    int_ct_hi = float(np.trapezoid(ct_line_hi, dx=dx))
    int_ct_lo = float(np.trapezoid(ct_line_lo, dx=dx))
    int_cx_hi = float(np.trapezoid(cx_hi, dx=dt))
    int_cx_lo = float(np.trapezoid(cx_lo, dx=dt))

    imbalance = (int_ct_hi - int_ct_lo) + (int_cx_hi - int_cx_lo)
    mags = abs(int_ct_hi) + abs(int_ct_lo) + abs(int_cx_hi) + abs(int_cx_lo)
    normalized = abs(imbalance) / max(mags, 1e-300)
    return FluxReport(
        imbalance=float(imbalance),
        normalized=float(normalized),
        boundary_integrals={
            "Ct_at_t2": int_ct_hi,
            "Ct_at_t1": int_ct_lo,
            "Cx_at_x2": int_cx_hi,
            "Cx_at_x1": int_cx_lo,
        },
        cell=cell,
        K=u.K,
        qnodes=qnodes,
    )


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def conserved_vector_json_obj(cv: ConservedVector) -> dict:
    w = str(cv.W)
    frac = cv.regime == FRACTIONAL
    ct_parts = [] if cv.Ct_local.is_zero and frac else [str(cv.Ct_local)]
    if frac:
        ct_parts += [f"phi*I^(1-alpha)[{w}]", f"J({w}, phi_t)"]
    return {
        "symmetry": cv.symmetry,
        "W": w,
        "Ct": " + ".join(ct_parts),
        "Cx": [str(c) for c in cv.Cx],
        "nonlocal_nodes": [{"kind": "frac_int", "order": "1-alpha", "arg": w},
                           {"kind": "J", "f": w, "g": "phi_t"}] if frac else [],
        "paper_diff": [dict(d) for d in cv.paper_diff],
    }


def conserved_vector_latex(cv: ConservedVector) -> str:
    lines = [rf"% conserved vector for {_gamma_latex(cv.symmetry)}", r"\begin{eqnarray}"]
    w = to_latex(cv.W)
    frac = cv.regime == FRACTIONAL
    ct_parts = [] if cv.Ct_local.is_zero and frac else [to_latex(cv.Ct_local)]
    if frac:
        ct_parts += [rf"\phi\, {{}}_{{0}}I_{{t}}^{{1-\alpha}}\left({w}\right)",
                     rf"J\left({w},\phi_{{t}}\right)"]
    ct = "+".join(ct_parts)
    lines.append(rf"C^{{t}} &=& {ct},\nonumber\\")
    for i, c in enumerate(cv.Cx):
        lines.append(rf"C^{{{_var_latex(spatial_name(i + 1))}}} &=& {to_latex(c)},\nonumber\\")
    lines.append(rf"W &=& {w}.\nonumber")
    lines.append(r"\end{eqnarray}")
    return "\n".join(lines)
