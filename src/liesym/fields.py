"""Lie algebra machinery over point-symmetry generators.

Vector fields are stored by their coefficients (xi0, xi_1..xi_n, eta) as
exact expressions in (t, x_i, u); brackets, commutator tables, basis
decompositions, derived series, and canonical structure-constant matching
(so(n), sl(2,R)) are all computed exactly.  Every polynomial in alpha is an
Expr, and one exact elimination (_echelon) serves both kinds of solve:
decompositions over Q in alpha-power coordinates read from its terms, and the
derived series' ranks of structure constants over Q(alpha) on Expr entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .expr import (
    Expr,
    ExprError,
    Rat,
    alpha,
    equals_zero,
    partial_derivative,
    point_derivative,
    spatial_name,
    spatial_names,
    sum_of_products,
    to_latex,
    var,
)

__all__ = [
    "VectorField",
    "DimensionMismatchError",
    "lie_bracket",
    "vf_add",
    "vf_scale",
    "Decomposition",
    "decompose_in_basis",
    "CommutatorTable",
    "commutator_table",
    "ClosureReport",
    "closure_report",
    "derived_series",
    "CanonicalMatchReport",
    "match_canonical",
    "identify_rotation",
]


class DimensionMismatchError(ExprError):
    pass


def _is_point_coefficient(e: Expr, allow_functions: bool) -> bool:
    for atom in e.atoms():
        kind = atom[0]
        if kind == "v" or kind == "a":
            continue
        if kind == "j" and atom[1] == ():
            continue
        if kind == "f" and allow_functions:
            continue
        return False
    return True


@dataclass(frozen=True, slots=True)
class VectorField:
    """Point-symmetry generator xi0*d_t + sum_i xi_i*d_{x_i} + eta*d_u."""

    name: str
    n: int
    xi0: Expr
    xi: tuple[Expr, ...]
    eta: Expr
    _hash: int | None = field(default=None, init=False, repr=False, compare=False)

    def __hash__(self):
        # computed once: table, reduction and Jacobian caches key on fields
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.name, self.n, self.xi0, self.xi, self.eta)))
        return self._hash

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        if len(self.xi) != self.n:
            raise ValueError(f"expected {self.n} spatial coefficients, got {len(self.xi)}")
        for c in (self.xi0, *self.xi):
            if not _is_point_coefficient(c, allow_functions=False):
                raise ValueError(f"{self.name}: coefficient {c} is not a point-field coefficient")
        if not _is_point_coefficient(self.eta, allow_functions=True):
            raise ValueError(f"{self.name}: eta {self.eta} is not a point-field coefficient")

    def components(self) -> tuple[Expr, ...]:
        return (self.xi0, *self.xi, self.eta)

    def is_zero(self) -> bool:
        return all(c.is_zero for c in self.components())

    def involves_function_symbols(self) -> bool:
        return any(a[0] == "f" for a in self.eta.atoms())

    def __str__(self):
        parts = []
        names = ["t"] + [spatial_name(i) for i in range(1, self.n + 1)] + ["u"]
        for coeff, vn in zip(self.components(), names):
            if not coeff.is_zero:
                parts.append(f"({coeff})*d_{vn}")
        return f"{self.name}: " + (" + ".join(parts) if parts else "0")


def vf_add(a: VectorField, b: VectorField, name: str | None = None) -> VectorField:
    if a.n != b.n:
        raise DimensionMismatchError(f"{a.name} and {b.name} have different dimensions")
    return VectorField(
        name or f"({a.name}+{b.name})",
        a.n,
        a.xi0 + b.xi0,
        tuple(p + q for p, q in zip(a.xi, b.xi)),
        a.eta + b.eta,
    )


def vf_scale(c, a: VectorField, name: str | None = None) -> VectorField:
    c = c if isinstance(c, Expr) else Expr.number(Fraction(c))
    return VectorField(
        name or f"{c}*{a.name}",
        a.n,
        c * a.xi0,
        tuple(c * q for q in a.xi),
        c * a.eta,
    )


@lru_cache(maxsize=4096)
def _jacobian(vf: VectorField) -> tuple[dict, dict, dict]:
    """The support of a field, indexed by v in (t, x_1..x_n, u): its nonzero
    components {v: A^v}, their negatives, and its nonzero derivatives
    {v: {k: d_v A^k}}; function symbols in eta are chained through their
    (t, x) dependence.  Built once per field for all of its brackets; the
    cached maps are shared and must not be modified."""
    names = ("t", *spatial_names(vf.n))
    comps = {k: c for k, c in enumerate(vf.components()) if c}
    grads: dict[int, dict[int, Expr]] = {}
    for k, c in comps.items():
        ds = [point_derivative(c, v) for v in names] + [partial_derivative(c, ("j", ()))]
        for v, d in enumerate(ds):
            if d:
                grads.setdefault(v, {})[k] = d
    return comps, {k: -c for k, c in comps.items()}, grads


def lie_bracket(A: VectorField, B: VectorField) -> VectorField:
    """Commutator [A, B], componentwise sum_v A^v d_v B^k - B^v d_v A^k,
    summed only where both factors are nonzero (_jacobian), each component
    accumulated in one normal form."""
    if A.n != B.n:
        raise DimensionMismatchError(f"{A.name} and {B.name} have different dimensions")
    (a, _, da), (_, minus_b, db) = _jacobian(A), _jacobian(B)
    pairs: list[list] = [[] for _ in range(A.n + 2)]
    for coeffs, grads in ((a, db), (minus_b, da)):
        for v, c in coeffs.items():
            for k, d in grads.get(v, {}).items():
                pairs[k].append((c, d))
    comps = [sum_of_products(p) if p else Expr.zero() for p in pairs]
    return VectorField(f"[{A.name},{B.name}]", A.n, comps[0], tuple(comps[1:-1]), comps[-1])


# ---------------------------------------------------------------------------
# exact elimination and basis decompositions (polynomials in alpha)
# ---------------------------------------------------------------------------

_ALPHA = ("a",)


def _coordinates(components: Sequence[Expr], shift: int = 0) -> dict[tuple, Rat]:
    """Sparse vector of alpha^shift * (field with these components) in
    (component, alpha-free monomial, alpha power) coordinates, read straight
    from the normal-form terms, where alpha is always the last atom."""
    out = {}
    for comp, e in enumerate(components):
        for mono, c in e.terms:
            d = shift
            if mono and mono[-1][0] == _ALPHA:
                d += mono[-1][1]
                mono = mono[:-1]
            out[(comp, mono, d)] = c
    return out


def _eliminate(row: dict[int, Expr], prow: dict[int, Expr], col: int) -> dict[int, Expr]:
    """pv*row - f*prow, with pv and f the entries of prow and row at col: row
    with its entry at col eliminated fraction-free by the pivot row prow."""
    zero = Expr.zero()
    pv, f = prow[col], -row[col]
    sums = {k: sum_of_products(((pv, row.get(k, zero)), (f, prow.get(k, zero))))
            for k in row.keys() | prow.keys()}
    return {k: e for k, e in sums.items() if e}


def _echelon(rows) -> dict[int, dict[int, Expr]]:
    """Echelon basis over Q(alpha) of sparse rows {column: Expr}, as {pivot:
    row} with each row's pivot its lowest column; the rank is its length.  A
    constant pivot is scaled to 1 and any other is eliminated fraction-free
    (_eliminate), so entries stay polynomials in alpha and the normal form
    decides which are zero."""
    pivots: dict[int, dict[int, Expr]] = {}
    for row in rows:
        while row:
            col = min(row)
            prow = pivots.get(col)
            if prow is None:
                if row[col].is_constant():
                    inv = Expr.number(1 / row[col].as_fraction())
                    row = {k: Expr.one() if k == col else inv * e for k, e in row.items()}
                pivots[col] = row
                break
            row = _eliminate(row, prow, col)
    return pivots


@lru_cache(maxsize=64)
def _reduced_basis(basis: tuple[VectorField, ...], f_degree: int) -> tuple[int, dict, dict]:
    """Echelon form (_echelon) of the vectors alpha^d * basis_k, d = 0..dmax,
    where dmax = f_degree + top*a, with top the highest alpha power in the
    basis and a the number of basis fields that hold alpha.  By Cramer's rule
    a polynomial coefficient of a field of alpha degree f_degree has degree
    at most that: it is a quotient of minors whose numerator takes degree
    f_degree from the field's column and at most top from each of the a
    columns that hold alpha.

    The coordinates of the vectors are numbered in order of first appearance,
    giving columns 0..m-1, and vector u = k*(dmax+1)+d carries a unit entry in
    its own column m+u, so each row records its combination of the vectors.
    Every entry is rational, so every pivot is 1.  A vector independent of the
    ones before it gets a pivot below m; a dependent one's dependency is kept
    as a pivot row at or past m.  Returns dmax, {coordinate: column} and
    {pivot: row}; the cached result is shared and must not be modified."""
    comps = [b.components() for b in basis]
    degrees = [max((key[2] for key in _coordinates(bc)), default=0) for bc in comps]
    dmax = f_degree + max(degrees) * sum(1 for d in degrees if d)
    vecs = [_coordinates(bc, d) for bc in comps for d in range(dmax + 1)]
    columns: dict[tuple, int] = {}
    for vec in vecs:
        for coord in vec:
            columns.setdefault(coord, len(columns))
    m = len(columns)
    rows = ({**{columns[coord]: Expr.number(c) for coord, c in vec.items()}, m + u: Expr.one()}
            for u, vec in enumerate(vecs))
    return dmax, columns, _echelon(rows)


@dataclass(frozen=True, slots=True)
class Decomposition:
    kind: str  # "coeffs" | "outside"
    coeffs: dict[str, Expr] = field(default_factory=dict)
    infinite_family: bool = False

    @property
    def in_span(self) -> bool:
        return self.kind == "coeffs"


def _has_derived_function_atom(vf: VectorField) -> bool:
    for comp in vf.components():
        for atom in comp.atoms():
            if atom[0] == "f" and atom[2] != ():
                return True
    return False


def decompose_in_basis(f: VectorField, basis: Sequence[VectorField]) -> Decomposition:
    """Exact coefficients lambda_k (polynomials in alpha) with
    f = sum_k lambda_k basis_k, verified componentwise; otherwise outside-span.

    A field whose eta involves derivatives of an opaque function symbol is
    reported as outside the span with the infinite-family marker: it belongs
    to the infinite-dimensional solution family, which the finite table keeps
    symbolic.
    """
    if f.is_zero():
        return Decomposition("coeffs", {})
    if _has_derived_function_atom(f):
        return Decomposition("outside", infinite_family=True)
    if not basis:
        return Decomposition("outside")
    for b in basis:
        if b.n != f.n:
            raise DimensionMismatchError("basis dimension mismatch")

    basis = tuple(basis)
    coords = _coordinates(f.components())
    dmax, columns, pivots = _reduced_basis(basis, max((key[2] for key in coords), default=0))
    if any(coord not in columns for coord in coords):
        return Decomposition("outside")
    # reduce f's row through the independent vectors' pivots only: past m, a
    # pivot row is a dependency, which would move coefficients onto later,
    # dependent vectors
    m = len(columns)
    row = {columns[coord]: Expr.number(c) for coord, c in coords.items()}
    while (col := min(row)) < m:
        if col not in pivots:
            return Decomposition("outside")
        row = _eliminate(row, pivots[col], col)
    # the unknown columns now hold minus the combination
    lambdas: dict[int, Expr] = {}
    for col in sorted(row):
        k, d = divmod(col - m, dmax + 1)
        lambdas[k] = lambdas.get(k, Expr.zero()) - row[col] * alpha() ** d
    # independent verification, componentwise: f - sum_k lambda_k b_k == 0
    terms = [(-lam, basis[k].components()) for k, lam in lambdas.items()]
    for comp, fc in enumerate(f.components()):
        acc = sum_of_products([(Expr.one(), fc)] + [(lam, bc[comp]) for lam, bc in terms])
        if not equals_zero(acc):
            return Decomposition("outside")
    return Decomposition("coeffs", {basis[k].name: lam for k, lam in lambdas.items()})


# ---------------------------------------------------------------------------
# commutator tables
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class TableEntry:
    i: int
    j: int
    decomposition: Decomposition


@dataclass(frozen=True)
class CommutatorTable:
    basis: tuple[VectorField, ...]
    entries: tuple[TableEntry, ...]  # one per pair i < j, row by row
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_index", {b.name: k for k, b in enumerate(self.basis)})

    def bracket(self, a: str, b: str) -> Decomposition:
        """[a, b] for basis names a and b: the stored entry, negated when the
        table holds the pair as (b, a); KeyError for a name outside the basis."""
        i, j = self._index[a], self._index[b]
        if i == j:
            return Decomposition("coeffs")
        lo, hi = min(i, j), max(i, j)
        dec = self.entries[lo * (2 * len(self.basis) - lo - 1) // 2 + hi - lo - 1].decomposition
        if i > j and dec.in_span:
            return Decomposition("coeffs", {k: -c for k, c in dec.coeffs.items()})
        return dec

    def to_json_obj(self) -> dict:
        entries = []
        for e in self.entries:
            if e.decomposition.in_span:
                entries.append({
                    "i": e.i,
                    "j": e.j,
                    "coeffs": {k: str(v) for k, v in sorted(e.decomposition.coeffs.items())},
                })
            else:
                rec = {"i": e.i, "j": e.j, "outside": True}
                if e.decomposition.infinite_family:
                    rec["infinite"] = True
                entries.append(rec)
        return {"basis": [b.name for b in self.basis], "entries": entries}

    def to_latex(self) -> str:
        lines = [r"\begin{tabular}{lll}"]
        cells = []
        for e in self.entries:
            dec = e.decomposition
            if dec.in_span and not dec.coeffs:
                continue
            lhs = rf"$[{_gamma_latex(self.basis[e.i].name)},{_gamma_latex(self.basis[e.j].name)}]_{{LB}}"
            if dec.in_span:
                rhs = _combo(((_gamma_latex(k), c) for k, c in sorted(dec.coeffs.items())), to_latex, "")
            elif dec.infinite_family:
                rhs = r"\text{(infinite family)}"
            else:
                rhs = r"\text{(outside span)}"
            cells.append(lhs + "=" + rhs + "$")
        for k in range(0, len(cells), 3):
            lines.append(" & ".join(cells[k:k + 3]) + r" \\")
        lines.append(r"\end{tabular}")
        return "\n".join(lines)


def _gamma_latex(name: str) -> str:
    if name.startswith("G") and name[1:].isdigit():
        return rf"\Gamma_{{{name[1:]}}}"
    return rf"\mathrm{{{name}}}"


def _combo(terms: Iterable[tuple[str, Expr]], render=str, join: str = "*") -> str:
    """The sum of c*symbol over the (symbol, c) pairs with c nonzero, each
    c rendered by render (str or to_latex) and joined to its symbol by join:
    a unit coefficient as a bare sign, a sum in parentheses with its leading
    sign outside them, "0" for no term."""
    out = ""
    for symbol, c in terms:
        if not c:
            continue
        neg = c.terms[0][1] < 0
        body = render(-c if neg else c)
        if body == "1":
            body = ""
        else:
            body = (f"({body})" if len(c.terms) > 1 else body) + join
        out += ("-" if neg else "+") + body + symbol
    return out.removeprefix("+") or "0"


def commutator_table(basis: Sequence[VectorField]) -> CommutatorTable:
    """Bracket of every pair i < j of the basis, decomposed over the basis:
    the one bracket/decomposition pass that the print audit, closure report,
    derived series and canonical matching all read.  Every bracket goes
    through decompose_in_basis, whose cached reduction of the basis is
    computed once per alpha degree (the basis key hashes cheaply, since each
    field keeps its hash).  Tables are cached per basis content; the cached
    table is shared and must not be modified."""
    return _commutator_table(tuple(basis))


@lru_cache(maxsize=64)
def _commutator_table(basis: tuple[VectorField, ...]) -> CommutatorTable:
    names = [b.name for b in basis]
    if len(set(names)) != len(names):
        raise ValueError("basis names must be pairwise distinct")
    entries = tuple(
        TableEntry(i, j, decompose_in_basis(lie_bracket(basis[i], basis[j]), basis))
        for i in range(len(basis)) for j in range(i + 1, len(basis))
    )
    return CommutatorTable(basis, entries)


@dataclass(frozen=True)
class ClosureReport:
    closed: bool
    offending_pairs: tuple[tuple[str, str], ...]
    infinite_pairs: tuple[tuple[str, str], ...]


def closure_report(basis: Sequence[VectorField]) -> ClosureReport:
    """Closed iff every pairwise bracket decomposes over the basis.  Brackets
    that land in the infinite solution family are reported separately and do
    not break closure when the basis itself contains an infinite generator."""
    table = commutator_table(basis)
    has_infinite = any(b.involves_function_symbols() for b in basis)
    offending = []
    infinite = []
    names = [b.name for b in basis]
    for e in table.entries:
        if e.decomposition.in_span:
            continue
        pair = (names[e.i], names[e.j])
        if e.decomposition.infinite_family and has_infinite:
            infinite.append(pair)
        else:
            offending.append(pair)
    return ClosureReport(not offending, tuple(offending), tuple(infinite))


# ---------------------------------------------------------------------------
# derived series (rank computations over the rational-function field in alpha)
# ---------------------------------------------------------------------------

def _level_brackets(rows: list[dict[int, Expr]], c: dict) -> Iterator[dict[int, Expr]]:
    """[u, w] = sum_{i,j} u_i w_j c[i, j] for every pair of rows."""
    for a, u in enumerate(rows):
        for w in rows[a + 1:]:
            terms: dict[int, list] = {}
            for i, ui in u.items():
                for j, wj in w.items():
                    cij = c.get((i, j))
                    if cij:
                        coef = ui * wj
                        for l, e in cij.items():
                            terms.setdefault(l, []).append((coef, e))
            vec = {l: s for l, pairs in terms.items() if (s := sum_of_products(pairs))}
            if vec:
                yield vec


def derived_series(basis: Sequence[VectorField]) -> list[int]:
    """Dimensions of g, [g,g], [[g,g],[g,g]], ... until stabilization.  The
    table is read once, through CommutatorTable.bracket, into sparse
    structure constants [b_i, b_j] = sum_l c[i, j][l] b_l; each level is kept
    as an echelon basis (_echelon), whose rows are bracketed pairwise for the
    next level."""
    table = commutator_table(basis)
    if any(not e.decomposition.in_span for e in table.entries):
        raise ValueError("basis is not closed; derived series undefined")
    names, index = [b.name for b in table.basis], table._index
    c = {(i, j): {index[name]: v for name, v in coeffs.items()}
         for i, a in enumerate(names) for j, b in enumerate(names)
         if (coeffs := table.bracket(a, b).coeffs)}
    level = [{k: Expr.one()} for k in range(len(table.basis))]
    dims = [len(level)]
    while True:
        level = list(_echelon(_level_brackets(level, c)).values())
        dims.append(len(level))
        if not level or len(level) == dims[-2]:
            return dims


# ---------------------------------------------------------------------------
# canonical pattern matching
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalMatchReport:
    matched: bool
    scaling: tuple[Fraction, ...] = ()
    message: str = ""
    modulo_components: tuple = ()


def identify_rotation(vf: VectorField) -> tuple[int, int, int] | None:
    """Recognize s * (x_p d_q - x_q d_p); returns (p, q, sign) with p < q."""
    if not vf.xi0.is_zero or not vf.eta.is_zero:
        return None
    nz = [i for i, c in enumerate(vf.xi) if not c.is_zero]
    if len(nz) != 2:
        return None
    p, q = nz[0] + 1, nz[1] + 1
    xp, xq = var(spatial_name(p)), var(spatial_name(q))
    for s in (1, -1):
        if vf.xi[q - 1] == Expr.number(s) * xp and vf.xi[p - 1] == Expr.number(-s) * xq:
            return (p, q, s)
    return None


def _so_constants(pairs: Sequence[tuple[int, int]]) -> dict[tuple[int, int], dict[int, int]]:
    """[J_ab, J_cd] = d_bc J_ad - d_ac J_bd - d_bd J_ac + d_ad J_bc over the
    supplied pair labelling; result maps (i, j) -> {k: coeff}."""
    index = {pair: k for k, pair in enumerate(pairs)}

    def j_coeff(a: int, b: int) -> tuple[int, int] | None:
        if a == b:
            return None
        return (index[(a, b)], 1) if (a, b) in index else (index[(b, a)], -1)

    out: dict[tuple[int, int], dict[int, int]] = {}
    for i, (a, b) in enumerate(pairs):
        for j, (c, d) in enumerate(pairs):
            if i >= j:
                continue
            combo: dict[int, int] = {}
            for delta, (p, q) in (
                (1 if b == c else 0, (a, d)),
                (-1 if a == c else 0, (b, d)),
                (-1 if b == d else 0, (a, c)),
                (1 if a == d else 0, (b, c)),
            ):
                if delta == 0:
                    continue
                jc = j_coeff(p, q)
                if jc is None:
                    continue
                k, s = jc
                combo[k] = combo.get(k, 0) + delta * s
            out[(i, j)] = {k: v for k, v in combo.items() if v}
    return out


_SL2_TARGET = {(0, 1): {0: Fraction(2)}, (0, 2): {1: Fraction(1)}, (1, 2): {2: Fraction(2)}}
# basis order (e, h, f): [e,h] = 2e, [e,f] = h, [h,f] = 2f


def match_canonical(
    table: CommutatorTable,
    names: Sequence[str],
    pattern: str,
    modulo: Sequence[str] = (),
) -> CanonicalMatchReport:
    """Check the structure constants of the basis elements `names` of
    `table` against a canonical pattern after an optional rational rescaling.

    pattern "sl2" expects the ordering (translation-like e, dilation-like h,
    projective-like f); pattern "so" recognizes each element as a signed
    rotation generator.  Bracket components along the `modulo` elements (e.g.
    the central homogeneity direction) are projected away and reported; a
    component on any other element outside `names` is outside the span.
    """
    names, modulo = tuple(names), tuple(modulo)
    if pattern == "sl2":
        if len(names) != 3:
            return CanonicalMatchReport(False, message="sl2 requires three elements")
        target = _SL2_TARGET
    elif pattern == "so":
        idents = [identify_rotation(table.basis[table._index[name]]) for name in names]
        if any(r is None for r in idents):
            bad = [names[k] for k, r in enumerate(idents) if r is None]
            return CanonicalMatchReport(False, message=f"not rotation generators: {', '.join(bad)}")
        pairs = [(p, q) for p, q, _s in idents]
        if len(set(pairs)) != len(pairs):
            return CanonicalMatchReport(False, message="duplicate rotation planes")
        target = {
            k: {kk: Fraction(v) for kk, v in vv.items()}
            for k, vv in _so_constants(pairs).items()
        }
    else:
        raise ValueError(f"unknown pattern {pattern!r}")

    m = len(names)
    spanned = set(names) | set(modulo)
    measured: dict[tuple[int, int], dict[int, Fraction]] = {}
    modulo_parts = []
    for i in range(m):
        for j in range(i + 1, m):
            pair = f"[{names[i]},{names[j]}]"
            dec = table.bracket(names[i], names[j])
            if not dec.in_span or not spanned.issuperset(dec.coeffs):
                return CanonicalMatchReport(False, message=f"{pair} outside span")
            row: dict[int, Fraction] = {}
            for k, name in enumerate(names):
                c = dec.coeffs.get(name)
                if c is None:
                    continue
                try:
                    row[k] = c.as_fraction()
                except ExprError:
                    return CanonicalMatchReport(
                        False, message=f"alpha-dependent constant in {pair}")
            measured[(i, j)] = row
            for name in modulo:
                c = dec.coeffs.get(name)
                if c is not None:
                    modulo_parts.append((names[i], names[j], name, str(c)))

    # rescaled basis b_i' = a_i b_i has canonical constants iff
    # a_i a_j m_ij^k = T_ij^k a_k for all i, j, k
    equations = []
    for (i, j), row in measured.items():
        trow = target.get((i, j), {})
        for k in set(row) | set(trow):
            equations.append((i, j, k, row.get(k, Fraction(0)), trow.get(k, Fraction(0))))

    for i, j, k, mv, tv in equations:
        if (mv == 0) != (tv == 0):
            return CanonicalMatchReport(
                False, message=f"constant mismatch on [{names[i]},{names[j]}] -> {names[k]}",
            )

    if pattern == "sl2":
        # a_e = 1; [e,h] = 2e fixes a_h and [e,f] = h then fixes a_f
        a_h = 2 / measured[0, 1][0]
        scale = [Fraction(1), a_h, a_h / measured[0, 2][1]]
    else:
        # the identification already names the rescaling: b_i = s_i J_{p_i q_i}
        scale = [Fraction(s) for _p, _q, s in idents]
    for i, j, k, mv, tv in equations:
        if scale[i] * scale[j] * mv != tv * scale[k]:
            return CanonicalMatchReport(False, message="no rational rescaling matches the pattern")
    return CanonicalMatchReport(True, scaling=tuple(scale), modulo_components=tuple(modulo_parts))
