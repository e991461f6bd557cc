"""Recursive-descent parser for the expression grammar.

The printer in :mod:`liesym.expr` emits exactly this grammar, so
``parse(str(e)) == e`` for every expression.

    expr  := term (('+' | '-') term)*
    term  := unary (('*' | '/') unary)*
    unary := '-' unary | power
    power := atom ('^' INTEGER)?
    atom  := INTEGER | coordinate | '(' expr ')'

Exponents are integers from 0 to 1000 (a larger one is a ParseError at the
exponent), and a divisor must be a nonzero rational.

Coordinates: the variables t x y z w x5 x6 ... (x1..x4 alias x y z w), the
dependent variable u, alpha, the function symbols phi and F, and derivative
subscripts u_t, u_{xy}, phi_x, F_{tt} (braces required when the subscript
spans more than one character), of order at most 4.  Dalpha[u_..] denotes
the fractional time derivative of a jet coordinate with spatial subscripts
only, as used by fractional conserved vectors.  A coordinate that breaks
these rules is a ParseError at its token.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping

from .expr import Expr, ExprError, ParseError, _resolve_atom

__all__ = ["parse"]

_OPS = set("+-*/^()[]")


class _Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []
        self._scan()
        self.i = 0

    def _scan(self):
        text = self.text
        n = len(text)
        pos = 0
        while pos < n:
            ch = text[pos]
            if ch.isspace():
                pos += 1
                continue
            if ch.isdecimal():
                j = pos
                while j < n and text[j].isdecimal():
                    j += 1
                self.tokens.append(("num", text[pos:j], pos))
                pos = j
                continue
            if ch.isalpha():
                j = pos
                while j < n and (text[j].isalnum()):
                    j += 1
                word = text[pos:j]
                # optional derivative subscript
                sub = None
                if j < n and text[j] == "_":
                    j += 1
                    if j < n and text[j] == "{":
                        k = text.find("}", j)
                        if k < 0:
                            raise ParseError("unterminated subscript brace", j)
                        sub = text[j + 1:k]
                        j = k + 1
                    elif j < n and text[j].isalnum():
                        sub = text[j]
                        j += 1
                    else:
                        raise ParseError("missing subscript after '_'", j)
                self.tokens.append(("name", word if sub is None else f"{word}_{sub}", pos))
                pos = j
                continue
            if ch in _OPS:
                self.tokens.append((ch, ch, pos))
                pos += 1
                continue
            raise ParseError(f"unexpected character {ch!r}", pos)
        self.tokens.append(("end", "", n))

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> tuple[str, str, int]:
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        return tok


class _Parser:
    def __init__(self, text: str, symbols: Mapping[str, Expr] | None):
        self.lex = _Lexer(text)
        self.symbols = dict(symbols or {})

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.lex.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected trailing input {tok[1]!r}", tok[2])
        return e

    def expr(self) -> Expr:
        e = self.term()
        while True:
            kind = self.lex.peek()[0]
            if kind == "+":
                self.lex.next()
                e = e + self.term()
            elif kind == "-":
                self.lex.next()
                e = e - self.term()
            else:
                return e

    def term(self) -> Expr:
        e = self.unary()
        while True:
            kind = self.lex.peek()[0]
            if kind == "*":
                self.lex.next()
                e = e * self.unary()
            elif kind == "/":
                tok = self.lex.next()
                divisor = self.unary()
                try:
                    e = e / divisor
                except (ZeroDivisionError, ExprError) as err:
                    raise ParseError(str(err), tok[2]) from None
            else:
                return e

    def unary(self) -> Expr:
        if self.lex.peek()[0] == "-":
            self.lex.next()
            return -self.unary()
        return self.power()

    def power(self) -> Expr:
        base = self.atom()
        if self.lex.peek()[0] == "^":
            self.lex.next()
            tok = self.lex.expect("num")
            try:
                return base ** _integer(tok)
            except ExprError as err:
                raise ParseError(str(err), tok[2]) from None
        return base

    def atom(self) -> Expr:
        tok = self.lex.next()
        kind, value, pos = tok
        if kind == "num":
            return Expr.number(_integer(tok))
        if kind == "(":
            e = self.expr()
            self.lex.expect(")")
            return e
        if kind == "name":
            if value == "Dalpha":
                self.lex.expect("[")
                inner = self.lex.expect("name")
                self.lex.expect("]")
                return self._coordinate(f"{value}[{inner[1]}]", pos)
            return self._coordinate(value, pos)
        raise ParseError(f"unexpected token {value!r}", pos)

    def _coordinate(self, name: str, pos: int) -> Expr:
        if name in self.symbols:
            return self.symbols[name]
        try:
            return _coordinate_expr(name)
        except ExprError as err:
            raise ParseError(str(err), pos) from None


def _integer(tok: tuple[str, str, int]) -> int:
    try:
        return int(tok[1])
    except ValueError as err:  # more digits than int() converts from a string
        raise ParseError(str(err), tok[2]) from None


@lru_cache(maxsize=512)
def _coordinate_expr(name: str) -> Expr:
    """The shared, immutable one-atom expression of a coordinate name (an
    unknown name raises again on every call, never cached)."""
    return Expr.from_atom(_resolve_atom(name))


def parse(text: str, symbols: Mapping[str, Expr] | None = None) -> Expr:
    """Parse an expression string into normal form.

    ``symbols`` maps extra identifiers (e.g. "W") to expressions; they are
    resolved before the built-in coordinate names.
    """
    return _Parser(text, symbols).parse()
