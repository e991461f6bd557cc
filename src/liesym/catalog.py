"""Generator catalogs, counting formulas, and exact solution families for the
n-dimensional heat equation in the integer and time-fractional regimes.

Every catalog is built from one definition of the n-dimensional families:
(n^2+3n+10)/2 integer and (n^2+n+6)/2 fractional point symmetries.  For
n >= 5 the families are the catalog.  For n <= 4 the published reference
lists are named views of them: each printed entry is a family member under
its printed name, in the printed order, with the printed sign.  Two printed
fractional dilations are combinations of the family's D and H:
G02 = D + (1-alpha)*H and G14 = 2*D + alpha*H.  Corrections of evident
misprints carry a provenance note on the generator.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Sequence

from .expr import Expr, _var_latex, frac_deriv, jet, spatial_names, to_latex
from .fields import VectorField, _combo, _gamma_latex, vf_add, vf_scale
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


def _g(name, klass, n, xi0="0", eta="0", note="", **spatial) -> NamedGenerator:
    xi = tuple(parse(spatial[v]) if v in spatial else Expr.zero() for v in spatial_names(n))
    return NamedGenerator(VectorField(name, n, parse(xi0), xi, parse(eta)), klass, note)


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


# The printed n <= 4 lists, in printed order: (printed name, family member,
# sign).  "D+(1-alpha)H" and "2D+alpha*H" are the printed fractional 1D and
# 2D dilations, built from the family's D and H in _printed_view.
_PRINTED = {
    (1, INTEGER): (
        ("G1", "T1", 1), ("G2", "B1", 1), ("G3", "Tt", 1), ("G4", "D", 1),
        ("G5", "P", 1), ("G6", "H", 1), ("G7", "Finf", 1),
    ),
    (2, INTEGER): (
        ("G21", "T1", 1), ("G22", "T2", 1), ("G23", "B2", 1), ("G24", "B1", 1),
        ("G25", "R1_2", -1), ("G26", "Tt", 1), ("G27", "D", 1), ("G28", "P", 1),
        ("G29", "H", 1), ("G210", "Finf", 1),
    ),
    (3, INTEGER): (
        ("G31", "T1", 1), ("G32", "T2", 1), ("G33", "T3", 1), ("G34", "B2", 1),
        ("G35", "B1", 1), ("G36", "B3", 1), ("G37", "R1_2", 1), ("G38", "R1_3", 1),
        ("G39", "R2_3", 1), ("G310", "Tt", 1), ("G311", "D", 1), ("G312", "P", 1),
        ("G313", "H", 1), ("G314", "Finf", 1),
    ),
    (4, INTEGER): (
        ("G51", "T1", 1), ("G52", "T2", 1), ("G53", "T3", 1), ("G54", "T4", 1),
        ("G55", "B2", 1), ("G56", "B1", 1), ("G57", "B3", 1), ("G58", "B4", 1),
        ("G59", "R1_2", 1), ("G510", "R2_4", 1), ("G511", "R2_3", 1),
        ("G512", "R1_3", 1), ("G513", "R1_4", 1), ("G514", "R3_4", 1),
        ("G515", "Tt", 1), ("G516", "D", 1), ("G517", "P", 1), ("G518", "H", 1),
        ("G519", "Finf", 1),
    ),
    (1, FRACTIONAL): (
        ("G01", "T1", 1), ("G02", "D+(1-alpha)H", 1), ("G03", "H", 1),
        ("G04", "Finf", 1),
    ),
    (2, FRACTIONAL): (
        ("G11", "T1", 1), ("G12", "T2", 1), ("G13", "R1_2", -1),
        ("G14", "2D+alpha*H", 1), ("G15", "H", 1), ("G16", "Finf", 1),
    ),
    (3, FRACTIONAL): (
        ("G41", "T1", 1), ("G42", "T2", 1), ("G43", "T3", 1), ("G44", "R1_2", 1),
        ("G45", "R2_3", -1), ("G46", "R1_3", -1), ("G47", "D", 1), ("G48", "H", 1),
        ("G49", "Finf", 1),
    ),
    (4, FRACTIONAL): (
        ("G61", "T1", 1), ("G62", "T2", 1), ("G63", "T3", 1), ("G64", "T4", 1),
        ("G65", "R1_2", 1), ("G66", "R2_3", -1), ("G67", "R2_4", 1),
        ("G68", "R1_3", -1), ("G69", "R1_4", 1), ("G610", "R3_4", 1),
        ("G611", "D", 1), ("G612", "H", 1), ("G613", "Finf", 1),
    ),
}
_PRINTED_NOTES = {"G14": _ETA_2D_NOTE}


def _printed_view(n: int, regime: str) -> list[NamedGenerator]:
    members = {g.name: g for g in _family(n, regime)}
    if regime == FRACTIONAL:
        d, h = members["D"].field, members["H"].field
        a = parse("alpha")
        members["D+(1-alpha)H"] = NamedGenerator(vf_add(d, vf_scale(1 - a, h)), "dilation")
        members["2D+alpha*H"] = NamedGenerator(vf_add(vf_scale(2, d), vf_scale(a, h)), "dilation")
    out = []
    for name, member, sign in _PRINTED[n, regime]:
        g = members[member]
        field = replace(g.field, name=name) if sign > 0 else vf_scale(sign, g.field, name)
        out.append(NamedGenerator(field, g.klass, _PRINTED_NOTES.get(name, "")))
    return out


def generators(eq: HeatEquation) -> list[NamedGenerator]:
    """Full point-symmetry catalog of eq: the n-dimensional family, seen
    through the printed names, order and signs for n <= 4.  The catalog is
    built once per equation; each call returns a fresh list."""
    return list(_catalog(eq))


@lru_cache(maxsize=32)
def _catalog(eq: HeatEquation) -> tuple[NamedGenerator, ...]:
    if eq.n <= 4:
        gens = _printed_view(eq.n, eq.regime)
    else:
        gens = _family(eq.n, eq.regime)
    return tuple(gens)


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

    from .fracnum import mittag_leffler

    def power(t, xs, alpha):
        return t ** (alpha - 1.0)

    def linear_power(t, xs, alpha):
        return xs[0] * t ** (alpha - 1.0)

    def eigen(t, xs, alpha):
        return (t ** (alpha - 1.0) * mittag_leffler(alpha, alpha, -(k ** 2) * t ** alpha)
                * np.cos(k * xs[0]))

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
    partials = [rf"\partial_{{{_var_latex(v)}}}" for v in ("t", *spatial_names(eq.n), "u")]
    lines = [r"\begin{eqnarray}"]
    for g in generators(eq):
        rhs = _combo(zip(partials, g.field.components()), to_latex, "")
        lines.append(rf"{_gamma_latex(g.name)} &=& {rhs},\nonumber\\")
    lines.append(r"\end{eqnarray}")
    return "\n".join(lines)
