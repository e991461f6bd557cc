"""Exact symbolic kernel on the jet space of u(t, x1..xn).

An expression is a finite sum of monomials with rational coefficients over a
fixed atom alphabet: independent variables (t, x, y, z, w, x5, ...), jet
coordinates of u (u, u_t, u_{xy}, ...), opaque function symbols (phi, F) with
derivative subscripts generated on demand, fractional time-derivative markers
on jets of u, and the order parameter alpha.  Every constructor returns the
unique normal form, an unordered map {monomial: nonzero coefficient} of
expanded, collected monomials, so structural equality is semantic equality
and ``equals_zero`` is a decision procedure.
Exact arithmetic reads the map, since rational sums do not depend on order;
``Expr.terms`` sorts the terms once, on first read, for the readers whose
output depends on order (printing, float sums, pivot order).

At the API (constructors, atoms(), terms, bindings, rules) atoms are tuples:

    ('v', name)          independent variable
    ('j', idx)           jet coordinate u_idx; idx is a sorted tuple of
                         variable names, () denotes u itself
    ('f', fname, idx)    opaque function symbol with derivative subscripts
    ('D', idx)           fractional time derivative applied to u_idx
                         (idx spatial only); printed Dalpha[...]
    ('a',)               alpha

Inside the map each atom is packed into one int (_code), which orders like
the atoms and decodes back through a memo (_atom), and a monomial is the
sorted tuple of its codes with one entry per power: x^2*u_x is (c_x, c_x, c_ux).

All operations are pure; expressions are immutable and hashable.
"""

from __future__ import annotations

import bisect
import functools
import itertools
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
_MAX_EXPONENT = 1000   # the largest power of an expression (__pow__, the parser's '^')
_RANK_BITS = 20        # bits per variable rank in an atom code (_code): x5..x1048575


# ---------------------------------------------------------------------------
# variables
# ---------------------------------------------------------------------------

_ALIAS = {"x1": "x", "x2": "y", "x3": "z", "x4": "w"}
_NAMED_SPATIAL = {"x": 1, "y": 2, "z": 3, "w": 4}


@functools.cache
def canonical_var(name: str) -> str:
    """Canonical variable name; x1..x4 are aliases of x, y, z, w, and x5,
    x6, ... are written without leading zeros.  Memoised like _code (an
    unknown name raises again on every call)."""
    name = _ALIAS.get(name, name)
    if name == "t" or name in _NAMED_SPATIAL:
        return name
    if name.startswith("x") and name[1:].isdecimal():
        k = int(name[1:])
        if k > _RANK_MASK:
            raise UnknownSymbolError(f"variable {name!r} is past x{_RANK_MASK}")
        if k >= 5:
            return f"x{k}"
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
_KINDS = tuple(_KIND_RANK)
_FNAMES = ("", *sorted(FUNCTION_SYMBOLS))   # "" (no function) < "F" < "phi"
_RANK_MASK = (1 << _RANK_BITS) - 1


@functools.cache
def _code(atom: tuple) -> int:
    """One int packing, most significant first, the kind rank, the function
    name, the index length and the index's variable ranks (_RANK_BITS each;
    a variable is a one-entry index), so codes order like the atoms.  The one
    place where an atom is checked and made canonical.  Memoised on the
    finite alphabet (an error is raised again on every call)."""
    kind = atom[0]
    if kind not in _KIND_RANK:
        raise UnknownSymbolError(f"unknown atom {atom!r}")
    if kind == "f" and atom[1] not in FUNCTION_SYMBOLS:
        raise UnknownSymbolError(f"unknown function symbol {atom[1]!r}")
    idx = () if kind == "a" else _sorted_index(atom[1:] if kind == "v" else atom[-1])
    if kind == "D" and "t" in idx:
        raise ExprError("fractional-derivative marker carries spatial subscripts only")
    if len(idx) > _MAX_JET_ORDER:
        raise JetOrderError(f"jet order of {atom_name(atom)} exceeds cap {_MAX_JET_ORDER}")
    fname = _FNAMES.index(atom[1]) if kind == "f" else 0
    code = (_KIND_RANK[kind] * len(_FNAMES) + fname) * (_MAX_JET_ORDER + 1) + len(idx)
    for i in range(_MAX_JET_ORDER):
        code = code << _RANK_BITS | (var_rank(idx[i]) if i < len(idx) else 0)
    return code


@functools.cache
def _atom(code: int) -> tuple:
    """The atom of a code (_code), memoised on the finite alphabet."""
    head, length = divmod(code >> _RANK_BITS * _MAX_JET_ORDER, _MAX_JET_ORDER + 1)
    kind, fname = divmod(head, len(_FNAMES))
    kind = _KINDS[kind]
    ranks = (code >> _RANK_BITS * (_MAX_JET_ORDER - 1 - i) & _RANK_MASK for i in range(length))
    idx = tuple(spatial_name(r) if r else "t" for r in ranks)
    if kind == "v":
        return ("v", idx[0])
    if kind == "f":
        return ("f", _FNAMES[fname], idx)
    return ("a",) if kind == "a" else (kind, idx)


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


def _term_key(mono: tuple) -> tuple:
    """The monomial as (code, exponent) pairs, which order like the printed
    (atom, exponent) pairs: Expr.terms sorts by this key."""
    return tuple([(code, len(tuple(run))) for code, run in itertools.groupby(mono)])


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
        return Expr({(_code(atom),): 1})

    # -- structure ----------------------------------------------------------

    @property
    def terms(self) -> tuple:
        """The (((atom, exponent), ...), coefficient) pairs in _term_key order."""
        if self._terms is None:
            keyed = sorted(((_term_key(m), c) for m, c in self._map.items()),
                           key=operator.itemgetter(0))
            self._terms = tuple([(tuple([(_atom(a), k) for a, k in key]), c)
                                 for key, c in keyed])
        return self._terms

    @property
    def is_zero(self) -> bool:
        return not self._map

    def atoms(self) -> set:
        return set(map(_atom, set().union(*self._map)))

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
        _add_terms(acc, other._map.items())
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
        """self**k by repeated squaring, for 0 <= k <= _MAX_EXPONENT."""
        if not isinstance(k, int):
            raise TypeError("exponents must be integers")
        if not 0 <= k <= _MAX_EXPONENT:
            raise ExprError(f"exponent {k} is not in 0..{_MAX_EXPONENT}")
        out, base = _ONE, self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
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


def _render_term(mono: tuple, c: Fraction) -> str:
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
    a pair with a zero factor forms no product, and a pair (Expr.one(), b)
    adds the terms of b as they are."""
    acc: dict = {}
    for a, b in pairs:
        if a is _ONE:
            _add_terms(acc, b._map.items())
        else:
            _add_products(acc, a._map.items(), b._map)
    return Expr._from_map(acc)


def _add_terms(acc: dict, terms) -> None:
    """Add every term (m, c) into acc."""
    for mono, c in terms:
        prev = acc.get(mono)
        acc[mono] = c if prev is None else prev + c


def _add_products(acc: dict, terms, other: dict) -> None:
    """Add c1*c2 * m1*m2 into acc for every term (m1, c1) and entry m2: c2 of
    other; the product of two monomials is one sort of their joined codes."""
    for m1, c1 in terms:
        for m2, c2 in other.items():
            mono = tuple(sorted(m1 + m2))
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
    return Expr.from_atom(("v", name))


def jet(*index: str) -> Expr:
    """Jet coordinate u_index; jet() is u itself."""
    return Expr.from_atom(("j", index))


def func_sym(name: str, index: Iterable[str] = ()) -> Expr:
    return Expr.from_atom(("f", name, tuple(index)))


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
    return Expr.from_atom(("D", spatial_index))


def _resolve_atom(sym) -> tuple:
    """Accept an atom tuple or a brace-free/printed atom name; _code checks the atom."""
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
    return ("v", name)


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
    return tuple(names)


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------

def _derive(e: Expr, d_code: Callable[[int], int | None]) -> Expr:
    """Chain rule over the atoms of e, where d_code(code) is the derivative
    of one atom: the code of the atom it becomes, 0 when it is 1, or None
    when it is 0.  The k entries of a power x^k give k equal steps."""
    acc: dict = {}
    d_codes = {code: d_code(code) for code in set().union(*e._map)}
    for mono, c in e._map.items():
        for i, code in enumerate(mono):
            new = d_codes[code]
            if new is None:
                continue
            out = list(mono)
            del out[i]
            if new:
                bisect.insort(out, new)
            out = tuple(out)
            prev = acc.get(out)
            acc[out] = c if prev is None else prev + c
    return Expr._from_map(acc)


def partial_derivative(e: Expr, sym) -> Expr:
    """d e / d sym treating every other atom as an independent symbol."""
    target = _code(_resolve_atom(sym))
    return _derive(e, lambda code: 0 if code == target else None)


@functools.cache
def _atom_total_derivative(v: str, jets_chain: bool, code: int) -> int | None:
    """D_v of a single atom, by code (see _derive).  Memoised like _code
    (an error is raised again on every call)."""
    atom = _atom(code)
    kind = atom[0]
    if kind == "v":
        return 0 if atom[1] == v else None
    if kind == "a" or (not jets_chain and kind in ("j", "D")):
        # alpha is constant; on point space u, its jets and fractional
        # markers are unrelated coordinates, constant in (t, x)
        return None
    if kind == "D" and v == "t":
        raise ExprError("time total-derivative of a fractional marker is not defined here")
    # a jet, function-symbol or fractional atom carries its index last
    return _code(atom[:-1] + (_sorted_index(atom[-1] + (v,)),))


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


def _rule_base(atom: tuple, rules: dict) -> int | None:
    """Code of the base rule atom that `atom` derives from (same family,
    contained index; a rule atom carries its index last).  The deepest base
    (largest code, so largest index) wins, for a deterministic choice."""
    return max((code for code in rules if _atom(code)[:-1] == atom[:-1]
                and _multiset_diff(atom[-1], _atom(code)[-1]) is not None), default=None)


class _CompiledRules:
    """A rule set resolved once: atom heads, and each atom's fully reduced
    replacement (derived through total derivatives) on first use, by code."""

    def __init__(self, rules: tuple):
        self.base_rules: dict[int, Expr] = {}
        for key, rhs in rules:
            code = _code(_resolve_atom(key))
            if _atom(code)[0] not in ("j", "f", "D"):
                raise SubstitutionError(f"cannot substitute for atom {atom_name(_atom(code))}")
            self.base_rules[code] = rhs if isinstance(rhs, Expr) else Expr.number(rhs)
        self._replacements: dict[int, Expr | None] = {}
        self._chain: set[int] = set()

    def replacement(self, code: int) -> Expr | None:
        """The atom's base rule extended by total derivatives and reduced
        with the same memo, or None when no rule reaches the atom.  A chain
        that returns to an atom or outgrows the jet-order cap raises
        SubstitutionError, and is not cached."""
        if code in self._replacements:
            return self._replacements[code]
        atom = _atom(code)
        base = _rule_base(atom, self.base_rules)
        if base is None:
            self._replacements[code] = None
            return None
        if code in self._chain:
            raise SubstitutionError(f"cycle in substitution rules at {atom_name(atom)}")
        self._chain.add(code)
        try:
            out = self.base_rules[base]
            for v in _multiset_diff(atom[-1], _atom(base)[-1]):
                out = total_derivative(out, v)
            out = self.reduce(out)
        except JetOrderError as exc:
            raise SubstitutionError(f"{atom_name(atom)}: reduction exceeds jet order cap") from exc
        finally:
            self._chain.discard(code)
        self._replacements[code] = out
        return out

    def reduce(self, e: Expr) -> Expr:
        """e with every atom a rule reaches replaced, in one pass into one map."""
        acc: dict = {}
        for mono, c in e._map.items():
            plain: list = []
            factor = None
            for code in mono:
                rep = self.replacement(code)
                if rep is None:
                    plain.append(code)
                else:
                    factor = rep if factor is None else factor * rep
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
    values = {_atom(_code(_resolve_atom(k))): v if hasattr(v, "shape") else float(v)
              for k, v in binding.items()}
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
