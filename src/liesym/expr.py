"""Exact symbolic kernel on the jet space of u(t, x1..xn).

An expression is a finite sum of monomials with rational coefficients over a
fixed atom alphabet: independent variables (t, x, y, z, w, x5, ...), jet
coordinates of u (u, u_t, u_{xy}, ...), opaque function symbols (phi, F) with
derivative subscripts generated on demand, fractional time-derivative markers
on jets of u, and the order parameter alpha.  Every constructor returns the
unique normal form, an unordered map {monomial: nonzero coefficient} of
expanded, collected monomials whose atoms are totally ordered and carry
positive integer exponents, so structural equality is semantic equality and
``equals_zero`` is a decision procedure.
Exact arithmetic reads the map, since rational sums do not depend on order;
``Expr.terms`` sorts the terms once, on first read, for the readers whose
output depends on order (printing, float sums, pivot order).

Atoms are plain tuples:

    ('v', name)          independent variable
    ('j', idx)           jet coordinate u_idx; idx is a sorted tuple of
                         variable names, () denotes u itself
    ('f', fname, idx)    opaque function symbol with derivative subscripts
    ('D', idx)           fractional time derivative applied to u_idx
                         (idx spatial only); printed Dalpha[...]
    ('a',)               alpha

All operations are pure; expressions are immutable and hashable.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import Counter
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Union

__all__ = [
    "Expr",
    "ExprError",
    "ParseError",
    "UnknownSymbolError",
    "JetOrderError",
    "SubstitutionError",
    "EvaluationError",
    "number",
    "var",
    "jet",
    "func_sym",
    "alpha",
    "frac_deriv",
    "spatial_name",
    "spatial_names",
    "canonical_var",
    "var_rank",
    "sum_of_products",
    "partial_derivative",
    "total_derivative",
    "point_derivative",
    "substitute",
    "equals_zero",
    "eval_numeric",
    "to_latex",
]


FUNCTION_SYMBOLS = ("phi", "F")

Rat = Union[int, Fraction]


class ExprError(Exception):
    """Base class for kernel errors."""


class ParseError(ExprError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UnknownSymbolError(ExprError):
    pass


class JetOrderError(ExprError):
    pass


class SubstitutionError(ExprError):
    pass


class EvaluationError(ExprError):
    pass


_MAX_JET_ORDER = 4


# ---------------------------------------------------------------------------
# variables
# ---------------------------------------------------------------------------

_ALIAS = {"x1": "x", "x2": "y", "x3": "z", "x4": "w"}
_NAMED_SPATIAL = {"x": 1, "y": 2, "z": 3, "w": 4}


@functools.cache
def canonical_var(name: str) -> str:
    """Canonical variable name; x1..x4 are aliases of x, y, z, w.  Memoised
    like _atom_key (an unknown name raises again on every call)."""
    name = _ALIAS.get(name, name)
    if name == "t" or name in _NAMED_SPATIAL:
        return name
    if name.startswith("x") and name[1:].isdigit():
        k = int(name[1:])
        if k >= 5:
            return name
    raise UnknownSymbolError(f"unknown variable {name!r}")


def var_rank(name: str) -> int:
    """Total order on variables: t < x < y < z < w < x5 < x6 < ..."""
    if name == "t":
        return 0
    if name in _NAMED_SPATIAL:
        return _NAMED_SPATIAL[name]
    return int(name[1:])


def spatial_name(i: int) -> str:
    """Printed name of the i-th spatial variable (1-based)."""
    if i < 1:
        raise ValueError("spatial index must be >= 1")
    return ("x", "y", "z", "w")[i - 1] if i <= 4 else f"x{i}"


@functools.cache
def spatial_names(n: int) -> tuple[str, ...]:
    return tuple(spatial_name(i) for i in range(1, n + 1))


@functools.cache
def _sorted_index(names: tuple[str, ...]) -> tuple[str, ...]:
    return tuple(sorted(map(canonical_var, names), key=var_rank))


# ---------------------------------------------------------------------------
# atoms
# ---------------------------------------------------------------------------

_KIND_RANK = {"v": 0, "j": 1, "f": 2, "D": 3, "a": 4}


@functools.cache
def _atom_key(atom: tuple) -> tuple:
    # memoised: the alphabet is finite (bounded by n and the jet-order cap)
    kind = atom[0]
    rank = _KIND_RANK[kind]
    if kind == "v":
        return (rank, "", (var_rank(atom[1]),))
    if kind == "j":
        return (rank, "", (len(atom[1]),) + tuple(var_rank(v) for v in atom[1]))
    if kind == "f":
        return (rank, atom[1], (len(atom[2]),) + tuple(var_rank(v) for v in atom[2]))
    if kind == "D":
        return (rank, "", (len(atom[1]),) + tuple(var_rank(v) for v in atom[1]))
    return (rank, "", ())


def _index_str(idx: tuple[str, ...]) -> str:
    body = "".join(idx)
    return body if len(body) == 1 else "{" + body + "}"


def atom_name(atom: tuple) -> str:
    """Printed form of a single atom (grammar-compatible)."""
    kind = atom[0]
    if kind == "v":
        return atom[1]
    if kind == "j":
        return "u" if not atom[1] else "u_" + _index_str(atom[1])
    if kind == "f":
        return atom[1] if not atom[2] else atom[1] + "_" + _index_str(atom[2])
    if kind == "D":
        return f"Dalpha[{atom_name(('j', atom[1]))}]"
    return "alpha"


# sorted ((atom, exponent), ...); exponents are positive ints
Monomial = tuple


@functools.cache
def _pair_key(pair: tuple) -> tuple:
    # memoised per (atom, exponent): finite alphabet times the exponents in use
    return (_atom_key(pair[0]), pair[1])


def _term_key(term: tuple) -> tuple:
    return tuple(map(_pair_key, term[0]))


def _insert_power(out: list, atom: tuple, e: int) -> None:
    """Multiply the sorted pair list out by atom**e in place: the position is
    found by bisection over _atom_key and merged with a power already there."""
    key, lo, hi = _atom_key(atom), 0, len(out)
    while lo < hi:
        mid = (lo + hi) // 2
        if _atom_key(out[mid][0]) < key:
            lo = mid + 1
        else:
            hi = mid
    if lo < len(out) and out[lo][0] == atom:
        out[lo] = (atom, e + out[lo][1])
    else:
        out.insert(lo, (atom, e))


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    """Product of two monomials: each atom of the shorter is merged into the
    longer at its bisected position, so nothing is re-sorted."""
    if not m1:
        return m2
    if not m2:
        return m1
    if len(m1) < len(m2):
        m1, m2 = m2, m1
    out = list(m1)
    for atom, e in m2:
        _insert_power(out, atom, e)
    return tuple(out)


def _replace_power(mono: Monomial, i: int, new: tuple) -> Monomial:
    """mono with one power of its i-th atom taken out and, unless new is (),
    one power of the atom new merged in (_insert_power): a derivative step
    without a re-sort."""
    atom, k = mono[i]
    out = list(mono)
    if k == 1:
        del out[i]
    else:
        out[i] = (atom, k - 1)
    if new:
        _insert_power(out, new, 1)
    return tuple(out)


class Expr:
    """Immutable expression in normal form; its sorted terms and its hash are
    built on first use, as most results are only tested for zero."""

    __slots__ = ("_map", "_terms", "_hash")

    def __init__(self, mapping: dict):
        # mapping must already be normalized; use the constructors below
        self._map = mapping
        self._terms = self._hash = None

    @staticmethod
    def _from_map(mapping: dict) -> "Expr":
        """Normal form of a fresh map with zeros allowed; kept, not copied or sorted."""
        if not all(mapping.values()):
            mapping = dict(filter(operator.itemgetter(1), mapping.items()))
        return Expr(mapping) if mapping else _ZERO

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero() -> "Expr":
        return _ZERO

    @staticmethod
    def one() -> "Expr":
        return _ONE

    @staticmethod
    def number(q: Rat) -> "Expr":
        # integral values are stored as int: int and Fraction agree on ==,
        # hash and str, so the normal form does not depend on the type
        if type(q) is not int:
            q = Fraction(q)
            if q.denominator == 1:
                q = q.numerator
        return _ZERO if q == 0 else Expr({(): q})

    @staticmethod
    def from_atom(atom: tuple) -> "Expr":
        return Expr({((atom, 1),): 1})

    # -- structure ----------------------------------------------------------

    @property
    def terms(self) -> tuple:
        """The (monomial, coefficient) pairs in _term_key order."""
        if self._terms is None:
            self._terms = tuple(sorted(self._map.items(), key=_term_key))
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._map

    def atoms(self) -> set:
        return {atom for mono in self._map for atom, _e in mono}

    def as_fraction(self) -> Fraction:
        if self.is_constant():
            return Fraction(self._map.get((), 0))
        raise ExprError(f"not a constant: {self}")

    def is_constant(self) -> bool:
        return not self._map or (len(self._map) == 1 and () in self._map)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        acc = dict(self._map)
        for mono, c in other._map.items():
            prev = acc.get(mono)
            acc[mono] = c if prev is None else prev + c
        return Expr._from_map(acc)

    __radd__ = __add__

    def __neg__(self):
        if not self._map:
            return self  # keeps zero the shared _ZERO, as __mul__ and number() do
        return Expr({m: -c for m, c in self._map.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return sum_of_products(((self, other),))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("exponents must be integers")
        if k < 0:
            raise ExprError("exponents must be non-negative")
        if k == 0:
            return _ONE
        out = self
        for _ in range(k - 1):
            out = out * self
        return out

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.is_constant():
            raise ExprError("division only by rationals")
        if other.is_zero:
            raise ZeroDivisionError("division by zero")
        return self * Expr.number(1 / other.as_fraction())

    # -- comparison / hashing / printing ------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Expr.number(other)
        if not isinstance(other, Expr):
            return NotImplemented
        return self._map == other._map

    def __hash__(self):
        # int and Fraction coefficients that are equal hash alike
        if self._hash is None:
            self._hash = hash(frozenset(self._map.items()))
        return self._hash

    def __bool__(self):
        return not self.is_zero

    def __str__(self):
        if not self._map:
            return "0"
        parts: list[str] = []
        for i, (mono, c) in enumerate(self.terms):
            sign = "-" if c < 0 else "+"
            body = _render_term(mono, abs(c))
            if i == 0:
                parts.append(body if sign == "+" else "-" + body)
            else:
                parts.append(f" {sign} {body}")
        return "".join(parts)

    def __repr__(self):
        return f"Expr({str(self)!r})"


def _render_term(mono: Monomial, c: Fraction) -> str:
    factors = []
    for atom, e in mono:
        name = atom_name(atom)
        factors.append(name if e == 1 else f"{name}^{e}")
    if not factors:
        return str(c)
    body = "*".join(factors)
    return body if c == 1 else f"{c}*{body}"


def sum_of_products(pairs: Iterable[tuple[Expr, Expr]]) -> Expr:
    """Normal form of the sum of a*b over the pairs, accumulated in one map;
    a pair with a zero factor forms no product."""
    acc: dict = {}
    for a, b in pairs:
        _add_products(acc, a._map.items(), b._map)
    return Expr._from_map(acc)


def _add_products(acc: dict, terms, other: dict) -> None:
    """Add c1*c2 * m1*m2 into acc for every term (m1, c1) and entry m2: c2 of other."""
    for m1, c1 in terms:
        for m2, c2 in other.items():
            mono = _mono_mul(m1, m2)
            prev = acc.get(mono)
            acc[mono] = c1 * c2 if prev is None else prev + c1 * c2


def _coerce(value) -> "Expr":
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, Fraction)):
        return Expr.number(value)
    return NotImplemented


_ZERO = Expr({})
_ONE = Expr({(): 1})


# ---------------------------------------------------------------------------
# public atom constructors
# ---------------------------------------------------------------------------

number = Expr.number


def var(name: str) -> Expr:
    return Expr.from_atom(("v", canonical_var(name)))


def jet(*index: str) -> Expr:
    """Jet coordinate u_index; jet() is u itself."""
    idx = _sorted_index(index)
    if len(idx) > _MAX_JET_ORDER:
        raise JetOrderError(f"jet order {len(idx)} exceeds cap {_MAX_JET_ORDER}")
    return Expr.from_atom(("j", idx))


def func_sym(name: str, index: Iterable[str] = ()) -> Expr:
    if name not in FUNCTION_SYMBOLS:
        raise UnknownSymbolError(f"unknown function symbol {name!r}")
    return Expr.from_atom(("f", name, _sorted_index(tuple(index))))


def _func_laplacian(name: str, n: int) -> Expr:
    """Sum of the second spatial derivatives of a function symbol in n dimensions."""
    out = Expr.zero()
    for v in spatial_names(n):
        out = out + func_sym(name, (v, v))
    return out


def alpha() -> Expr:
    return Expr.from_atom(("a",))


def frac_deriv(*spatial_index: str) -> Expr:
    """Fractional time derivative applied to u_spatial_index."""
    idx = _sorted_index(spatial_index)
    if any(v == "t" for v in idx):
        raise ExprError("fractional-derivative marker carries spatial subscripts only")
    return Expr.from_atom(("D", idx))


def _resolve_atom(sym) -> tuple:
    """Accept an atom tuple or a brace-free/printed atom name."""
    if isinstance(sym, tuple):
        return sym
    name = str(sym).strip()
    if name == "alpha":
        return ("a",)
    if name.startswith("Dalpha[") and name.endswith("]"):
        inner = _resolve_atom(name[len("Dalpha["):-1])
        if inner[0] != "j":
            raise UnknownSymbolError(f"Dalpha applies to jet coordinates: {name!r}")
        return ("D", inner[1])
    if "_" in name:
        base, sub = name.split("_", 1)
        sub = sub.strip("{}")
        idx = _parse_index_string(sub)
        if base == "u":
            return ("j", idx)
        if base in FUNCTION_SYMBOLS:
            return ("f", base, idx)
        raise UnknownSymbolError(f"cannot subscript {base!r}")
    if name == "u":
        return ("j", ())
    if name in FUNCTION_SYMBOLS:
        return ("f", name, ())
    return ("v", canonical_var(name))


def _parse_index_string(body: str) -> tuple[str, ...]:
    names: list[str] = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch not in "txyzw":
            raise UnknownSymbolError(f"bad derivative index {body!r}")
        j = i + 1
        if ch == "x":
            while j < len(body) and body[j].isdigit():
                j += 1
        names.append(body[i:j])
        i = j
    return _sorted_index(tuple(names))


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

def _derive(e: Expr, d_atom: Callable[[tuple], tuple | None]) -> Expr:
    """Chain rule over the atoms of e, where d_atom(atom) is the derivative
    of one atom: the atom it becomes, () when it is 1, or None when it is 0."""
    acc: dict = {}
    for mono, c in e._map.items():
        for i, (atom, k) in enumerate(mono):
            datom = d_atom(atom)
            if datom is None:
                continue
            mono_out = _replace_power(mono, i, datom)
            ck = c if k == 1 else c * k
            prev = acc.get(mono_out)
            acc[mono_out] = ck if prev is None else prev + ck
    return Expr._from_map(acc)


def partial_derivative(e: Expr, sym) -> Expr:
    """d e / d sym treating every other atom as an independent symbol."""
    target = _resolve_atom(sym)
    return _derive(e, lambda atom: () if atom == target else None)


@functools.cache
def _atom_total_derivative(v: str, jets_chain: bool, atom: tuple) -> tuple | None:
    """D_v of a single atom (see _derive).  Memoised like _atom_key (an
    error is raised again on every call)."""
    kind = atom[0]
    if kind == "v":
        return () if atom[1] == v else None
    if kind == "a" or (not jets_chain and kind in ("j", "D")):
        # alpha is constant; on point space u, its jets and fractional
        # markers are unrelated coordinates, constant in (t, x)
        return None
    if kind == "D" and v == "t":
        raise ExprError("time total-derivative of a fractional marker is not defined here")
    # a jet, function-symbol or fractional atom carries its index last
    new = atom[:-1] + (_sorted_index(atom[-1] + (v,)),)
    if len(new[-1]) > _MAX_JET_ORDER:
        raise JetOrderError(
            f"total derivative exceeds jet-order cap {_MAX_JET_ORDER}: {atom_name(new)}")
    return new


def total_derivative(e: Expr, v: str) -> Expr:
    """Total derivative D_v: chains through jet coordinates and function symbols."""
    return _derive(e, functools.partial(_atom_total_derivative, canonical_var(v), True))


def point_derivative(e: Expr, v: str) -> Expr:
    """Derivative on (t, x, u)-space: function symbols depend on (t, x),
    while u and its jets are unrelated coordinates."""
    return _derive(e, functools.partial(_atom_total_derivative, canonical_var(v), False))


# ---------------------------------------------------------------------------
# substitution
# ---------------------------------------------------------------------------

def _multiset_diff(big: tuple, small: tuple) -> tuple | None:
    """big minus small as multisets of names, or None when small is not contained."""
    big, small = Counter(big), Counter(small)
    return tuple(sorted((big - small).elements(), key=var_rank)) if small <= big else None


def _rule_base(atom: tuple, rules: dict) -> tuple | None:
    """Base rule atom that `atom` derives from (same family, contained index)."""
    candidates = []
    for base in rules:
        if base[0] != atom[0]:
            continue
        if base[0] == "f" and base[1] != atom[1]:
            continue
        a_idx = atom[1] if atom[0] in ("j", "D") else atom[2]
        b_idx = base[1] if base[0] in ("j", "D") else base[2]
        if _multiset_diff(a_idx, b_idx) is not None:
            candidates.append(base)
    # prefer the deepest base (largest index) for a deterministic choice
    return max(candidates, key=_atom_key, default=None)


class _CompiledRules:
    """A rule set resolved once: atom heads, and each atom's fully reduced
    replacement (derived through total derivatives) on first use."""

    def __init__(self, rules: tuple):
        self.base_rules: dict[tuple, Expr] = {}
        for key, rhs in rules:
            atom = _resolve_atom(key)
            if atom[0] not in ("j", "f", "D"):
                raise SubstitutionError(f"cannot substitute for atom {atom_name(atom)}")
            self.base_rules[atom] = rhs if isinstance(rhs, Expr) else Expr.number(rhs)
        self._replacements: dict[tuple, Expr | None] = {}
        self._chain: set[tuple] = set()

    def replacement(self, atom: tuple) -> Expr | None:
        """The atom's base rule extended by total derivatives and reduced
        with the same memo, or None when no rule reaches the atom.  A chain
        that returns to an atom or outgrows the jet-order cap raises
        SubstitutionError, and is not cached."""
        if atom in self._replacements:
            return self._replacements[atom]
        base = _rule_base(atom, self.base_rules)
        if base is None:
            self._replacements[atom] = None
            return None
        if atom in self._chain:
            raise SubstitutionError(f"cycle in substitution rules at {atom_name(atom)}")
        a_idx = atom[1] if atom[0] in ("j", "D") else atom[2]
        b_idx = base[1] if base[0] in ("j", "D") else base[2]
        self._chain.add(atom)
        try:
            out = self.base_rules[base]
            for v in _multiset_diff(a_idx, b_idx):
                out = total_derivative(out, v)
            out = self.reduce(out)
        except JetOrderError as exc:
            raise SubstitutionError(f"{atom_name(atom)}: reduction exceeds jet order cap") from exc
        finally:
            self._chain.discard(atom)
        self._replacements[atom] = out
        return out

    def reduce(self, e: Expr) -> Expr:
        """e with every atom a rule reaches replaced, in one pass into one map."""
        acc: dict = {}
        for mono, c in e._map.items():
            plain: list = []
            factor = None
            for atom, k in mono:
                rep = self.replacement(atom)
                if rep is None:
                    plain.append((atom, k))
                    continue
                factor = rep ** k if factor is None else factor * rep ** k
            if factor is None:
                prev = acc.get(mono)
                acc[mono] = c if prev is None else prev + c
            else:
                _add_products(acc, ((tuple(plain), c),), factor._map)
        return Expr._from_map(acc)


@functools.lru_cache(maxsize=32)
def _compile_rules(rules: tuple) -> _CompiledRules:
    return _CompiledRules(rules)


def substitute(e: Expr, rules: Mapping) -> Expr:
    """Replace jet / function / fractional atoms by expressions, extending
    each rule through total derivatives (u_tt rewrites via D_t of the u_t
    rule), until no rule applies.

    Raises SubstitutionError when an atom's reduction returns to that atom
    or does not terminate within the jet-order cap.
    """
    return _compile_rules(tuple(rules.items())).reduce(e)


def equals_zero(e: Expr) -> bool:
    return e.is_zero


# ---------------------------------------------------------------------------
# numeric evaluation
# ---------------------------------------------------------------------------

def eval_numeric(e: Expr, binding: Mapping, alpha_value: float | None = None):
    """IEEE-double evaluation at a point or, with numpy float arrays as
    values, on a whole grid: the arrays broadcast against each other.
    Binding keys are atoms or atom names, printed or brace-free ("t",
    "u_{xy}" or "u_xy", "phi_t", "Dalpha[u]").  alpha is supplied
    separately and must lie in (0,1].  Each term is float(c) times value**k
    in term order, and the terms are summed from 0.0 (_in_place).
    """
    if alpha_value is not None and not (0.0 < alpha_value <= 1.0):
        raise EvaluationError(f"alpha_value must lie in (0, 1]: {alpha_value}")
    values = {_resolve_atom(k): v if hasattr(v, "shape") else float(v) for k, v in binding.items()}
    values[("a",)] = alpha_value
    total = 0.0
    for mono, c in e.terms:
        val = float(c)
        for atom, k in mono:
            value = values.get(atom)
            if value is None:
                raise EvaluationError("alpha present but no alpha_value supplied" if atom == ("a",)
                                      else f"unbound symbol {atom_name(atom)!r}")
            val = _in_place(val, value if k == 1 else value ** k, multiply=True)
        total = _in_place(total, val)
    if getattr(total, "ndim", 0):
        import numpy as np  # only array values reach here; they come from numpy

        if not np.isfinite(total).all():
            raise EvaluationError("non-finite evaluation result on the grid")
        return total
    total = float(total)
    if not math.isfinite(total):
        raise EvaluationError(f"non-finite evaluation result: {total}")
    return total


def _in_place(acc, other, multiply: bool = False):
    """acc + other, or acc * other, for eval_numeric.  An array result goes
    in place into acc, or for a sum into either operand, when it already has
    the result's shape and dtype: those operands are temporaries of
    eval_numeric's own (a factor may be a bound value), and IEEE addition and
    multiplication commute, signed zeros included, so the bits are those of
    the plain expression."""
    if getattr(acc, "ndim", 0) or getattr(other, "ndim", 0):
        import numpy as np  # only array values reach here; they come from numpy

        shape = np.broadcast_shapes(np.shape(acc), np.shape(other))
        dtype = np.result_type(acc, other)
        for out in (acc,) if multiply else (acc, other):
            if getattr(out, "shape", None) == shape and out.dtype == dtype:
                return (np.multiply if multiply else np.add)(acc, other, out=out)
    return acc * other if multiply else acc + other


# ---------------------------------------------------------------------------
# LaTeX rendering
# ---------------------------------------------------------------------------

_LATEX_FN = {"phi": r"\phi", "F": "F"}


def _atom_latex(atom: tuple) -> str:
    kind = atom[0]
    if kind == "v":
        return _var_latex(atom[1])
    if kind == "j":
        if not atom[1]:
            return "u"
        return "u_{" + "".join(_var_latex(v) for v in atom[1]) + "}"
    if kind == "f":
        base = _LATEX_FN[atom[1]]
        if not atom[2]:
            return base
        return base + "_{" + "".join(_var_latex(v) for v in atom[2]) + "}"
    if kind == "D":
        return r"D_{t}^{\alpha}" + _atom_latex(("j", atom[1]))
    return r"\alpha"


def _var_latex(name: str) -> str:
    return name if len(name) == 1 else f"x_{{{name[1:]}}}"


def to_latex(e: Expr) -> str:
    if e.is_zero:
        return "0"
    parts: list[str] = []
    for i, (mono, c) in enumerate(e.terms):
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        factors = []
        for atom, k in mono:
            base = _atom_latex(atom)
            factors.append(base if k == 1 else base + f"^{{{k}}}")
        if not factors:
            body = _frac_latex(mag)
        else:
            coeff = "" if mag == 1 else _frac_latex(mag)
            body = coeff + "".join(factors)
        if i == 0:
            parts.append(body if sign == "+" else "-" + body)
        else:
            parts.append(sign + body)
    return "".join(parts)


def _frac_latex(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else rf"\tfrac{{{q.numerator}}}{{{q.denominator}}}"
