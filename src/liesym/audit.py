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
from .expr import Expr, ExprError
from .fields import CommutatorTable, _combo, commutator_table
from .parser import parse
from .reference_tables import BRACKET_TABLES, CONSERVED_TABLES, BracketEntry

__all__ = [
    "BracketAuditRecord",
    "bracket_table_audit",
    "conserved_vector_diff",
]

# one term [+|-][coefficient*]name; the coefficient holds no sign and no
# parenthesis, so a term ends at the next sign
_TERM_RE = re.compile(r"([+-]?)(?:([^-+()]+)\*)?([GX]\d+)(?=[-+]|$)")


def parse_name_combo(text: str) -> dict[str, Expr]:
    """Parse a linear combination of generator names ("-4*G29+G27",
    "2*alpha*G01", "0") into {name: coefficient}: a sum of terms
    [+|-][coefficient*]name, every term after the first signed.  ValueError
    on anything else, such as a parenthesized coefficient."""
    text = text.replace(" ", "")
    if text == "0":
        return {}
    combo: dict[str, Expr] = {}
    pos = 0
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if m is None or (pos and not m[1]):
            raise ValueError(f"cannot read generator combination {text!r} at {text[pos:]!r}")
        sign, coeff, name = m.groups()
        try:
            c = parse(coeff) if coeff else Expr.one()
        except ExprError as exc:
            raise ValueError(f"cannot read coefficient {coeff!r} in {text!r}: {exc}") from exc
        combo[name] = combo.get(name, Expr.zero()) + (-c if sign == "-" else c)
        pos = m.end()
    return {k: v for k, v in combo.items() if v}


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


def _audit_entry(entry: BracketEntry, table: CommutatorTable,
                 names: set[str]) -> tuple[str | None, str, str]:
    """(printed, computed, verdict) of one printed bracket entry."""
    try:
        dec = table.bracket(entry.i, entry.j)
    except KeyError:
        return entry.rhs, "", "unknown-name"
    computed = _combo(sorted(dec.coeffs.items()))
    if entry.infinite:
        ok = not dec.in_span and dec.infinite_family
        return None, "(infinite family)" if ok else computed, "match" if ok else "mismatch"
    if not dec.in_span:
        return entry.rhs, "(outside span)", "mismatch"
    try:
        printed = parse_name_combo(entry.rhs)
    except ValueError:
        return entry.rhs, computed, "unknown-name"
    if not names.issuperset(printed):
        return entry.rhs, computed, "unknown-name"
    return entry.rhs, computed, "match" if printed == dec.coeffs else "mismatch"


def bracket_table_audit(eq: HeatEquation) -> list[BracketAuditRecord]:
    """Audit every printed bracket entry for this equation's table against
    the computed commutator table."""
    printed_table = BRACKET_TABLES.get((eq.n, eq.regime))
    if printed_table is None:
        return []
    table = commutator_table([g.field for g in generators(eq)])
    names = {b.name for b in table.basis}
    return [BracketAuditRecord(e.i, e.j, *_audit_entry(e, table, names), e.note)
            for e in printed_table]


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
