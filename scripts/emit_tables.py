#!/usr/bin/env python3
"""Reproduce every catalog, commutator table, conserved-vector list, and
discrepancy report for n = 1..4 in both regimes, as JSON and LaTeX files
under out/tables/."""

import argparse
import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from liesym.audit import bracket_table_audit
from liesym.catalog import (
    FRACTIONAL,
    INTEGER,
    HeatEquation,
    catalog_json_obj,
    catalog_latex,
    generators,
)
from liesym.conservation import (
    conserved_vector,
    conserved_vector_json_obj,
    conserved_vector_latex,
)
from liesym.fields import commutator_table

OUT = pathlib.Path(__file__).resolve().parents[1] / "out" / "tables"


def render(n, regime):
    """The texts of every out/tables file for one (n, regime), by file name."""
    eq = HeatEquation(n, regime)
    stem = f"n{n}_{regime}"
    table = commutator_table([g.field for g in generators(eq)])
    audit = [
        {"i": r.i, "j": r.j, "printed": r.printed,
         "computed": r.computed, "verdict": r.verdict}
        for r in bracket_table_audit(eq)
    ]
    conserved = [conserved_vector(g, eq) for g in generators(eq)]
    return {
        f"catalog_{stem}.json": json.dumps(catalog_json_obj(eq), indent=2, sort_keys=True),
        f"catalog_{stem}.tex": catalog_latex(eq),
        f"brackets_{stem}.json": json.dumps(
            {"table": table.to_json_obj(), "audit": audit}, indent=2, sort_keys=True),
        f"brackets_{stem}.tex": table.to_latex(),
        f"conserved_{stem}.json": json.dumps(
            [conserved_vector_json_obj(cv) for cv in conserved], indent=2, sort_keys=True),
        f"conserved_{stem}.tex": "\n\n".join(conserved_vector_latex(cv) for cv in conserved),
    }


def main(argv=None):
    argparse.ArgumentParser(description=__doc__).parse_args(argv)
    OUT.mkdir(parents=True, exist_ok=True)
    for n in (1, 2, 3, 4):
        for regime in (INTEGER, FRACTIONAL):
            files = render(n, regime)
            for name, text in files.items():
                (OUT / name).write_text(text)
            stem = f"n{n}_{regime}"
            conserved = json.loads(files[f"conserved_{stem}.json"])
            audit = json.loads(files[f"brackets_{stem}.json"])["audit"]
            print(f"wrote {stem}: {len(conserved)} conserved vectors, "
                  f"{sum(1 for a in audit if a['verdict'] != 'match')} print discrepancies")
    print(f"all tables under {OUT}")


if __name__ == "__main__":
    main()
