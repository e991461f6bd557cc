"""Regression audit of the printed reference tables against the computed
ground truth.

The bracket computation and the Noether-operator components are authoritative;
every printed entry is checked and disagreements are reported (never silently
adopted).  The pinned allow-lists in liesym.reference_tables enumerate exactly
the printed entries whose content the symbolic oracle refutes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from .catalog import HeatEquation, generators
from .expr import Expr, equals_zero
from .fields import commutator_table
from .parser import parse
from .reference_tables import BRACKET_TABLES, CONSERVED_TABLES

__all__ = [
    "BracketAuditRecord",
    "bracket_table_audit",
    "conserved_vector_diff",
]

_NAME_RE = re.compile(r"^(.*?)\*?([GX]\d+)$")


def parse_name_combo(text: str) -> dict[str, Expr]:
    """Parse a linear combination of generator names ("-4*G29+G27",
    "2*alpha*G01", "0") into {name: coefficient}."""
    text = text.replace(" ", "")
    if text in ("0", ""):
        return {}
    terms: list[str] = []
    depth = 0
    start = 0
    for k, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0 and k > start:
            terms.append(text[start:k])
            start = k
    terms.append(text[start:])
    combo: dict[str, Expr] = {}
    for term in terms:
        m = _NAME_RE.match(term)
        if m is None:
            raise ValueError(f"cannot read generator combination term {term!r}")
        prefix, name = m.groups()
        sign = Expr.one()
        if prefix.startswith("+"):
            prefix = prefix[1:]
        elif prefix.startswith("-"):
            sign, prefix = -Expr.one(), prefix[1:]
        if prefix in ("",):
            coeff = sign
        else:
            coeff = sign * parse(prefix.rstrip("*"))
        combo[name] = combo.get(name, Expr.zero()) + coeff
    return {k: v for k, v in combo.items() if not v.is_zero}


@dataclass(frozen=True)
class BracketAuditRecord:
    i: str
    j: str
    printed: str | None
    computed: str
    verdict: str  # "match" | "mismatch" | "unknown-name"
    note: str = ""

    @property
    def key(self) -> tuple:
        return (self.i, self.j, self.printed, self.computed)


def _combo_str(coeffs: dict[str, Expr]) -> str:
    if not coeffs:
        return "0"
    parts = []
    for name in sorted(coeffs):
        c = str(coeffs[name])
        if c == "1":
            parts.append(f"+{name}")
        elif c == "-1":
            parts.append(f"-{name}")
        else:
            sign = "+"
            if c.startswith("-") and ("+" not in c[1:] and " - " not in c):
                sign, c = "-", c[1:]
            if "+" in c or " - " in c:
                c = "(" + c + ")"
            parts.append(f"{sign}{c}*{name}")
    out = "".join(parts)
    return out[1:] if out.startswith("+") else out


def bracket_table_audit(eq: HeatEquation) -> list[BracketAuditRecord]:
    """Audit every printed bracket entry for this equation's table against
    the computed commutator table."""
    printed_table = BRACKET_TABLES.get((eq.n, eq.regime))
    if printed_table is None:
        return []
    table = commutator_table([g.field for g in generators(eq)])
    names = {b.name for b in table.basis}
    records = []
    for entry in printed_table:
        try:
            dec = table.bracket(entry.i, entry.j)
        except KeyError:
            records.append(BracketAuditRecord(
                entry.i, entry.j, entry.rhs, "", "unknown-name", entry.note))
            continue
        if entry.infinite:
            ok = (not dec.in_span) and dec.infinite_family
            records.append(BracketAuditRecord(
                entry.i, entry.j, None,
                "(infinite family)" if ok else _combo_str(dec.coeffs or {}),
                "match" if ok else "mismatch", entry.note))
            continue
        computed = dec.coeffs if dec.in_span else None
        if computed is None:
            records.append(BracketAuditRecord(
                entry.i, entry.j, entry.rhs, "(outside span)", "mismatch", entry.note))
            continue
        try:
            printed = parse_name_combo(entry.rhs)
        except ValueError:
            records.append(BracketAuditRecord(
                entry.i, entry.j, entry.rhs, _combo_str(computed), "unknown-name", entry.note))
            continue
        if any(name not in names for name in printed):
            records.append(BracketAuditRecord(
                entry.i, entry.j, entry.rhs, _combo_str(computed), "unknown-name", entry.note))
            continue
        same = set(printed) == set(computed) and all(
            equals_zero(printed[k] - computed[k]) for k in printed
        )
        records.append(BracketAuditRecord(
            entry.i, entry.j, entry.rhs, _combo_str(computed),
            "match" if same else "mismatch", entry.note))
    return records


@lru_cache(maxsize=max(map(len, CONSERVED_TABLES.values())))
def _parsed_entry(n: int, regime: str, symmetry: str) -> dict[str, Expr]:
    """{printed string: parsed Expr} for one printed conserved-vector entry,
    whose other strings may use the symbol W; the cache holds one table."""
    entry = CONSERVED_TABLES[(n, regime)][symmetry]
    w = parse(entry.W)
    strings = (entry.Ct, entry.Ct_local, entry.frac_arg, entry.j_f) + entry.Cx
    return {entry.W: w} | {s: parse(s, {"W": w}) for s in strings if s}


def conserved_vector_diff(cv, eq: HeatEquation) -> list[dict]:
    """Differences between the computed conserved vector and the printed
    component list, part by part.  Empty when the entry matches or when no
    printed entry exists.  Both nonlocal terms of a fractional C^t take W as
    their argument."""
    table = CONSERVED_TABLES.get((eq.n, eq.regime))
    if not table or cv.symmetry not in table:
        return []
    entry = table[cv.symmetry]
    parsed = _parsed_entry(eq.n, eq.regime, cv.symmetry)
    diffs: list[dict] = []

    def check(part: str, printed_str: str, computed: Expr):
        delta = parsed[printed_str] - computed
        if not delta.is_zero:
            diffs.append({
                "part": part,
                "printed": printed_str,
                "computed": str(computed),
                "delta": str(delta),
            })

    check("W", entry.W, cv.W)
    names = "xyzw"
    if eq.regime == "integer":
        check("Ct", entry.Ct, cv.Ct_local)
    else:
        check("Ct_local", entry.Ct_local, cv.Ct_local)
        check("frac_int_arg", entry.frac_arg, cv.W)
        check("J_first_arg", entry.j_f, cv.W)
    for i, printed_cx in enumerate(entry.Cx):
        check(f"C{names[i]}", printed_cx, cv.Cx[i])
    if entry.printed_label and entry.printed_label != cv.symmetry:
        diffs.append({
            "part": "label",
            "printed": entry.printed_label,
            "computed": cv.symmetry,
            "delta": "printed under a shifted label",
        })
    if entry.note:
        for d in diffs:
            d.setdefault("note", entry.note)
    return diffs
