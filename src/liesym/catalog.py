"""Generator catalogs, counting formulas, and exact solution families for the
n-dimensional heat equation in the integer and time-fractional regimes.

For n <= 4 the catalogs reproduce the published reference lists verbatim,
entry for entry and in the printed order, so regression fixtures diff
cleanly; corrections of evident misprints carry a provenance note on the
generator.  For n >= 5 the n-dimensional families are instantiated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .expr import Expr, spatial_name, spatial_names, frac_deriv, jet, substitute
from .fields import VectorField
from .parser import parse

__all__ = [
    "INTEGER",
    "FRACTIONAL",
    "REGIMES",
    "GENERATOR_CLASSES",
    "HeatEquation",
    "NamedGenerator",
    "ExactSolution",
    "count_formula",
    "generators",
    "exact_solutions",
    "solution_residual",
    "catalog_json_obj",
    "catalog_latex",
]

INTEGER = "integer"
FRACTIONAL = "fractional"
REGIMES = (INTEGER, FRACTIONAL)

GENERATOR_CLASSES = (
    "space-translation",
    "time-translation",
    "solution",
    "rotation",
    "dilation",
    "projective",
    "homogeneity",
    "infinite",
)


@dataclass(frozen=True)
class HeatEquation:
    """Problem descriptor: D_t^alpha u = Laplacian(u); alpha is 1 in the
    integer regime and a symbolic order in (0,1) in the fractional one."""

    n: int
    regime: str

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("spatial dimension must be >= 1")
        if self.regime not in REGIMES:
            raise ValueError(f"regime must be one of {REGIMES}")

    @property
    def is_fractional(self) -> bool:
        return self.regime == FRACTIONAL

    def lhs(self) -> Expr:
        return frac_deriv() if self.is_fractional else jet("t")

    def rhs(self) -> Expr:
        out = Expr.zero()
        for name in spatial_names(self.n):
            out = out + jet(name, name)
        return out

    def residual_expr(self) -> Expr:
        return self.lhs() - self.rhs()


@dataclass(frozen=True)
class NamedGenerator:
    field: VectorField
    klass: str
    note: str = ""

    def __post_init__(self):
        if self.klass not in GENERATOR_CLASSES:
            raise ValueError(f"unknown generator class {self.klass!r}")

    @property
    def name(self) -> str:
        return self.field.name


def count_formula(n: int, regime: str) -> int:
    """Number of point symmetries (the infinite family counted once)."""
    if n < 1:
        raise ValueError("spatial dimension must be >= 1")
    if regime == INTEGER:
        return (n * n + 3 * n + 10) // 2
    if regime == FRACTIONAL:
        return (n * n + n + 6) // 2
    raise ValueError(f"regime must be one of {REGIMES}")


def _vf(name: str, n: int, xi0: str = "0", eta: str = "0", **spatial: str) -> VectorField:
    xi = []
    for i in range(1, n + 1):
        xi.append(parse(spatial.get(spatial_name(i), "0")))
    return VectorField(name, n, parse(xi0), tuple(xi), parse(eta))


def _g(name, klass, n, xi0="0", eta="0", note="", **spatial) -> NamedGenerator:
    return NamedGenerator(_vf(name, n, xi0, eta, **spatial), klass, note)


_ROTATION_FIX = (
    "printed n-dimensional reference lists -x_j d_i + x_j d_i, which is "
    "identically zero; catalog stores the rotation x_i d_j - x_j d_i"
)
_DILATION_SCALE_NOTE = (
    "printed n-dimensional reference uses t d_t + alpha sum x_i d_i; catalog "
    "keeps the 2t d_t normalization used by every explicit low-dimensional list"
)
_ETA_2D_NOTE = (
    "printed 2D eta-coefficient u(3alpha-2) under the 4t d_t normalization does "
    "not follow the u(alpha-1) pattern of the 3D/4D lists; kept verbatim, "
    "unverified symbolically (no fractional prolongation in scope)"
)


def _integer_low_dim(n: int) -> list[NamedGenerator]:
    if n == 1:
        return [
            _g("G1", "space-translation", 1, x="1"),
            _g("G2", "solution", 1, x="2*t", eta="-u*x"),
            _g("G3", "time-translation", 1, xi0="1"),
            _g("G4", "dilation", 1, xi0="2*t", x="x"),
            _g("G5", "projective", 1, xi0="4*t^2", x="4*t*x", eta="-u*(2*t+x^2)"),
            _g("G6", "homogeneity", 1, eta="u"),
            _g("G7", "infinite", 1, eta="F"),
        ]
    if n == 2:
        return [
            _g("G21", "space-translation", 2, x="1"),
            _g("G22", "space-translation", 2, y="1"),
            _g("G23", "solution", 2, y="2*t", eta="-u*y"),
            _g("G24", "solution", 2, x="2*t", eta="-u*x"),
            _g("G25", "rotation", 2, x="y", y="-x"),
            _g("G26", "time-translation", 2, xi0="1"),
            _g("G27", "dilation", 2, xi0="2*t", x="x", y="y"),
            _g("G28", "projective", 2, xi0="4*t^2", x="4*x*t", y="4*y*t",
               eta="-u*(4*t+x^2+y^2)"),
            _g("G29", "homogeneity", 2, eta="u"),
            _g("G210", "infinite", 2, eta="F"),
        ]
    if n == 3:
        return [
            _g("G31", "space-translation", 3, x="1"),
            _g("G32", "space-translation", 3, y="1"),
            _g("G33", "space-translation", 3, z="1"),
            _g("G34", "solution", 3, y="2*t", eta="-u*y"),
            _g("G35", "solution", 3, x="2*t", eta="-u*x"),
            _g("G36", "solution", 3, z="2*t", eta="-u*z"),
            _g("G37", "rotation", 3, x="-y", y="x"),
            _g("G38", "rotation", 3, x="-z", z="x"),
            _g("G39", "rotation", 3, y="-z", z="y"),
            _g("G310", "time-translation", 3, xi0="1"),
            _g("G311", "dilation", 3, xi0="2*t", x="x", y="y", z="z"),
            _g("G312", "projective", 3, xi0="4*t^2", x="4*x*t", y="4*y*t", z="4*z*t",
               eta="-u*(6*t+x^2+y^2+z^2)"),
            _g("G313", "homogeneity", 3, eta="u"),
            _g("G314", "infinite", 3, eta="F"),
        ]
    return [
        _g("G51", "space-translation", 4, x="1"),
        _g("G52", "space-translation", 4, y="1"),
        _g("G53", "space-translation", 4, z="1"),
        _g("G54", "space-translation", 4, w="1"),
        _g("G55", "solution", 4, y="2*t", eta="-u*y"),
        _g("G56", "solution", 4, x="2*t", eta="-u*x"),
        _g("G57", "solution", 4, z="2*t", eta="-u*z"),
        _g("G58", "solution", 4, w="2*t", eta="-u*w"),
        _g("G59", "rotation", 4, x="-y", y="x"),
        _g("G510", "rotation", 4, y="-w", w="y"),
        _g("G511", "rotation", 4, y="-z", z="y"),
        _g("G512", "rotation", 4, x="-z", z="x"),
        _g("G513", "rotation", 4, x="-w", w="x"),
        _g("G514", "rotation", 4, z="-w", w="z"),
        _g("G515", "time-translation", 4, xi0="1"),
        _g("G516", "dilation", 4, xi0="2*t", x="x", y="y", z="z", w="w"),
        _g("G517", "projective", 4, xi0="4*t^2", x="4*x*t", y="4*y*t", z="4*z*t", w="4*w*t",
           eta="-u*(8*t+x^2+y^2+z^2+w^2)"),
        _g("G518", "homogeneity", 4, eta="u"),
        _g("G519", "infinite", 4, eta="F"),
    ]


def _fractional_low_dim(n: int) -> list[NamedGenerator]:
    if n == 1:
        return [
            _g("G01", "space-translation", 1, x="1"),
            _g("G02", "dilation", 1, xi0="2*t", x="alpha*x"),
            _g("G03", "homogeneity", 1, eta="u"),
            _g("G04", "infinite", 1, eta="F"),
        ]
    if n == 2:
        return [
            _g("G11", "space-translation", 2, x="1"),
            _g("G12", "space-translation", 2, y="1"),
            _g("G13", "rotation", 2, x="y", y="-x"),
            _g("G14", "dilation", 2, xi0="4*t", x="2*alpha*x", y="2*alpha*y",
               eta="u*(3*alpha-2)", note=_ETA_2D_NOTE),
            _g("G15", "homogeneity", 2, eta="u"),
            _g("G16", "infinite", 2, eta="F"),
        ]
    if n == 3:
        return [
            _g("G41", "space-translation", 3, x="1"),
            _g("G42", "space-translation", 3, y="1"),
            _g("G43", "space-translation", 3, z="1"),
            _g("G44", "rotation", 3, x="-y", y="x"),
            _g("G45", "rotation", 3, y="z", z="-y"),
            _g("G46", "rotation", 3, x="z", z="-x"),
            _g("G47", "dilation", 3, xi0="2*t", x="alpha*x", y="alpha*y", z="alpha*z",
               eta="u*(alpha-1)"),
            _g("G48", "homogeneity", 3, eta="u"),
            _g("G49", "infinite", 3, eta="F"),
        ]
    return [
        _g("G61", "space-translation", 4, x="1"),
        _g("G62", "space-translation", 4, y="1"),
        _g("G63", "space-translation", 4, z="1"),
        _g("G64", "space-translation", 4, w="1"),
        _g("G65", "rotation", 4, x="-y", y="x"),
        _g("G66", "rotation", 4, y="z", z="-y"),
        _g("G67", "rotation", 4, y="-w", w="y"),
        _g("G68", "rotation", 4, x="z", z="-x"),
        _g("G69", "rotation", 4, x="-w", w="x"),
        _g("G610", "rotation", 4, z="-w", w="z"),
        _g("G611", "dilation", 4, xi0="2*t", x="alpha*x", y="alpha*y", z="alpha*z",
           w="alpha*w", eta="u*(alpha-1)"),
        _g("G612", "homogeneity", 4, eta="u"),
        _g("G613", "infinite", 4, eta="F"),
    ]


def _family(n: int, regime: str) -> list[NamedGenerator]:
    names = spatial_names(n)
    out: list[NamedGenerator] = []
    for i, v in enumerate(names, start=1):
        out.append(_g(f"T{i}", "space-translation", n, **{v: "1"}))
    if regime == INTEGER:
        for i, v in enumerate(names, start=1):
            out.append(_g(f"B{i}", "solution", n, **{v: "2*t"}, eta=f"-u*{v}"))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            vi, vj = names[i - 1], names[j - 1]
            out.append(_g(
                f"R{i}_{j}", "rotation", n,
                note=_ROTATION_FIX,
                **{vj: vi, vi: f"-{vj}"},
            ))
    if regime == INTEGER:
        out.append(_g("Tt", "time-translation", n, xi0="1"))
        out.append(_g("D", "dilation", n, xi0="2*t", **{v: v for v in names}))
        sq = "+".join(f"{v}^2" for v in names)
        out.append(_g(
            "P", "projective", n, xi0="4*t^2",
            **{v: f"4*t*{v}" for v in names},
            eta=f"-u*({2 * n}*t+{sq})",
        ))
    else:
        out.append(_g(
            "D", "dilation", n, xi0="2*t",
            **{v: f"alpha*{v}" for v in names},
            eta="u*(alpha-1)", note=_DILATION_SCALE_NOTE,
        ))
    out.append(_g("H", "homogeneity", n, eta="u"))
    out.append(_g("Finf", "infinite", n, eta="F"))
    return out


def generators(eq: HeatEquation) -> list[NamedGenerator]:
    """Full point-symmetry catalog of eq, in the reference order for n <= 4."""
    if eq.n <= 4:
        gens = _integer_low_dim(eq.n) if eq.regime == INTEGER else _fractional_low_dim(eq.n)
    else:
        gens = _family(eq.n, eq.regime)
    assert len(gens) == count_formula(eq.n, eq.regime)
    return gens


# ---------------------------------------------------------------------------
# exact solutions (verification fuel)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExactSolution:
    name: str
    regime: str
    n: int
    func: Callable
    expr: Expr | None = None
    note: str = ""

    def __call__(self, t: float, xs: Sequence[float], alpha: float | None = None) -> float:
        return self.func(t, xs, alpha)


def solution_residual(sol: Expr, eq: HeatEquation) -> Expr:
    """Symbolic residual of the governing equation for a closed-form solution
    expression in (t, x_i); integer regime only."""
    if eq.is_fractional:
        raise ValueError("symbolic residuals are integer-regime only")
    return substitute(eq.residual_expr(), {"u": sol})


def exact_solutions(eq: HeatEquation, k: float = 1.0) -> list[ExactSolution]:
    # imported here, not with the module: loading numpy ahead of the symbolic
    # modules raised the peak RSS of symbolic-only runs by about 0.8 MB
    import numpy as np

    n = eq.n
    if not eq.is_fractional:
        kernel_note = "heat kernel; valid for t > 0"

        def kernel(t, xs, alpha=None):
            return t ** (-n / 2.0) * np.exp(-sum(x * x for x in xs) / (4.0 * t))

        return [
            ExactSolution("const", INTEGER, n, lambda t, xs, a=None: 1.0, parse("1")),
            ExactSolution("linear", INTEGER, n, lambda t, xs, a=None: xs[0], parse("x")),
            ExactSolution("quadratic", INTEGER, n,
                          lambda t, xs, a=None: xs[0] ** 2 + 2.0 * t, parse("x^2+2*t")),
            ExactSolution("exponential", INTEGER, n,
                          lambda t, xs, a=None: np.exp(t + xs[0]),
                          note="exp(t+x), outside the polynomial ring"),
            ExactSolution("kernel", INTEGER, n, kernel, note=kernel_note),
        ]

    from functools import lru_cache

    from .fracnum import mittag_leffler

    def power(t, xs, alpha):
        return t ** (alpha - 1.0)

    def linear_power(t, xs, alpha):
        return xs[0] * t ** (alpha - 1.0)

    @lru_cache(maxsize=1 << 16)
    def _time_part(t, alpha):
        # kept across calls: invariance checks resample the same time axis
        return t ** (alpha - 1.0) * mittag_leffler(alpha, alpha, -(k ** 2) * t ** alpha)

    def eigen(t, xs, alpha):
        # the time factor depends on t alone: one lookup per distinct t
        ts, inverse = np.unique(t, return_inverse=True)
        part = np.array([_time_part(s, alpha) for s in ts])
        return part[inverse].reshape(np.shape(t)) * np.cos(k * xs[0])

    return [
        ExactSolution("power", FRACTIONAL, n, power,
                      note="t^(alpha-1), kernel of the fractional derivative; singular at t=0"),
        ExactSolution("linear-power", FRACTIONAL, n, linear_power,
                      note="x1 * t^(alpha-1); singular at t=0"),
        ExactSolution("eigen", FRACTIONAL, n, eigen,
                      note=f"separated eigensolution with wavenumber k={k}; singular at t=0"),
    ]


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def catalog_json_obj(eq: HeatEquation) -> dict:
    gens = []
    for g in generators(eq):
        rec = {
            "name": g.name,
            "class": g.klass,
            "xi0": str(g.field.xi0),
            "xi": [str(c) for c in g.field.xi],
            "eta": str(g.field.eta),
        }
        if g.note:
            rec["note"] = g.note
        gens.append(rec)
    return {"dimension": eq.n, "regime": eq.regime, "generators": gens}


def catalog_latex(eq: HeatEquation) -> str:
    from .expr import to_latex
    from .fields import _gamma_latex

    lines = [r"\begin{eqnarray}"]
    for g in generators(eq):
        parts = []
        coords = ["t"] + list(spatial_names(eq.n)) + ["u"]
        for coeff, vn in zip(g.field.components(), coords):
            if coeff.is_zero:
                continue
            body = to_latex(coeff)
            if body == "1":
                body = ""
            elif body == "-1":
                body = "-"
            elif any(op in body[1:] for op in "+-"):
                body = "(" + body + ")" if not body.startswith("-") else "-(" + to_latex(-coeff) + ")"
            sub = vn if len(vn) == 1 else f"x_{{{vn[1:]}}}"
            parts.append(f"{body}\\partial_{{{sub}}}")
        rhs = "+".join(parts).replace("+-", "-") if parts else "0"
        lines.append(rf"{_gamma_latex(g.name)} &=& {rhs},\nonumber\\")
    lines.append(r"\end{eqnarray}")
    return "\n".join(lines)
