"""Regression audit of the printed reference tables.

The computed brackets are the ground truth; the printed tables must be
reproduced exactly except on the pinned allow-lists, and every allow-listed
entry must genuinely disagree with the computation (the list never grows
silently and never shields a correct printed entry)."""

import pytest

from liesym.audit import (
    bracket_table_audit,
    conserved_vector_diff,
    parse_name_combo,
)
from liesym.catalog import FRACTIONAL, INTEGER, HeatEquation, generators
from liesym.conservation import conserved_vector
from liesym.expr import Expr
from liesym.reference_tables import (
    ALLOWED_BRACKET_DISCREPANCIES,
    BRACKET_TABLES,
    CONSERVED_TABLES,
)

ALL_CASES = [(n, r) for n in (1, 2, 3, 4) for r in (INTEGER, FRACTIONAL)]


def test_parse_name_combo():
    combo = parse_name_combo("-4*G29+G27")
    assert combo == {"G29": Expr.number(-4), "G27": Expr.one()}
    assert parse_name_combo("0") == {}
    assert parse_name_combo("2*alpha*G01") == {"G01": 2 * __import__("liesym").parse("alpha")}


@pytest.mark.parametrize("text", ["G1+", "(1-alpha)*G2", "G1G2", "2G1", "-", "2**G1"])
def test_parse_name_combo_rejects_text_outside_the_term_grammar(text):
    with pytest.raises(ValueError):
        parse_name_combo(text)


@pytest.mark.parametrize("n,regime", ALL_CASES)
def test_every_printed_right_hand_side_follows_the_term_grammar(n, regime):
    # a transcription outside [+|-][coefficient*]name would otherwise be
    # audited as an unknown name instead of failing here
    for entry in BRACKET_TABLES[(n, regime)]:
        if entry.rhs is not None:
            parse_name_combo(entry.rhs)


@pytest.mark.parametrize("n,regime", ALL_CASES)
def test_printed_entries_match_up_to_allow_list(n, regime):
    eq = HeatEquation(n, regime)
    mismatches = {r.key for r in bracket_table_audit(eq) if r.verdict != "match"}
    assert mismatches == ALLOWED_BRACKET_DISCREPANCIES[(n, regime)]


@pytest.mark.parametrize("n,regime", ALL_CASES)
def test_allow_list_entries_each_refuted(n, regime):
    # every allow-listed key corresponds to an actually printed entry
    printed = {(e.i, e.j, e.rhs) for e in BRACKET_TABLES[(n, regime)]}
    for key in ALLOWED_BRACKET_DISCREPANCIES[(n, regime)]:
        assert key[:3] in printed


def test_expected_fractional_anomalies_present():
    # the two 1D anomalies and the 2D rotation-dilation anomaly
    assert ("G01", "G03", "2*alpha*G01", "0") in ALLOWED_BRACKET_DISCREPANCIES[(1, FRACTIONAL)]
    assert ("G01", "G02", "0", "alpha*G01") in ALLOWED_BRACKET_DISCREPANCIES[(1, FRACTIONAL)]
    assert ("G14", "G13", "-4*G13", "0") in ALLOWED_BRACKET_DISCREPANCIES[(2, FRACTIONAL)]


def test_1d_integer_table_nearly_clean():
    eq = HeatEquation(1, INTEGER)
    records = bracket_table_audit(eq)
    assert len(records) == 8
    bad = [r for r in records if r.verdict != "match"]
    assert [(r.i, r.j) for r in bad] == [("G3", "G2")]
    assert bad[0].computed == "2*G1"


def test_infinite_family_entry_matches():
    eq = HeatEquation(2, FRACTIONAL)
    rec = next(r for r in bracket_table_audit(eq) if (r.i, r.j) == ("G11", "G16"))
    assert rec.verdict == "match"
    assert "infinite" in rec.computed


def test_unknown_names_reported():
    eq = HeatEquation(4, INTEGER)
    verdicts = {(r.i, r.j, r.printed): r.verdict for r in bracket_table_audit(eq)}
    assert verdicts[("G510", "X52", "G54")] == "unknown-name"
    assert verdicts[("G581", "G54", "G518")] == "unknown-name"


@pytest.mark.parametrize("n,regime", ALL_CASES)
def test_every_catalog_symmetry_has_a_printed_entry(n, regime):
    table = CONSERVED_TABLES[(n, regime)]
    names = {g.name for g in generators(HeatEquation(n, regime))}
    assert set(table) == names


@pytest.mark.parametrize("n,regime", ALL_CASES)
def test_conserved_diffs_are_computable(n, regime):
    # each printed component list parses and the diff machinery runs; the
    # "computed" side of every flagged part is the operator value
    eq = HeatEquation(n, regime)
    for g in generators(eq):
        cv = conserved_vector(g, eq, attach_diff=False)
        diffs = conserved_vector_diff(cv, eq)
        for d in diffs:
            assert set(d) >= {"part", "printed", "computed", "delta"}


def test_conserved_diff_counts_stable():
    # snapshot of how many printed conserved entries disagree per table;
    # guards the fixtures against silent edits
    counts = {}
    for (n, regime) in ALL_CASES:
        eq = HeatEquation(n, regime)
        flagged = 0
        for g in generators(eq):
            if conserved_vector(g, eq).paper_diff:
                flagged += 1
        counts[(n, regime)] = flagged
    assert counts == {
        (1, INTEGER): 1, (1, FRACTIONAL): 3,
        (2, INTEGER): 7, (2, FRACTIONAL): 1,
        (3, INTEGER): 11, (3, FRACTIONAL): 4,
        (4, INTEGER): 16, (4, FRACTIONAL): 9,
    }
