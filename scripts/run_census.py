#!/usr/bin/env python3
"""Reproduce the 16-vertex symplectic switching-class census and audit it.

Runs the exhaustive census under both enumeration conventions, audits each
against the bundled reference table, and writes artifacts into results/:

  census_up_to_complement.csv
  census_all_subsets.csv
  census_audit.json          both audits plus the exhaustive invariance
                             count: the up-to-complement members whose
                             Seidel matrix the census certified as a
                             switch of the base's

Every file holds exact results only, so a rerun rewrites them byte for
byte; the timings are printed.

Usage: python scripts/run_census.py [--workers N]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))  # this checkout's package, installed or not

from mainspectra import (  # noqa: E402
    Convention,
    bundled_reference_rows,
    census_table,
    compare_to_reference,
    symplectic_graph,
)

RESULTS = ROOT / "results"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)

    RESULTS.mkdir(exist_ok=True)
    base = symplectic_graph(2)
    reference = bundled_reference_rows()
    combined = {"base_graph6": None, "audits": {}, "exhaustive_seidel_invariance_members": None}

    for convention in (Convention.UP_TO_COMPLEMENT, Convention.ALL_SUBSETS):
        t0 = time.perf_counter()
        table = census_table(base, convention, workers=args.workers)
        dt = time.perf_counter() - t0
        name = convention.value.replace("-", "_")
        csv_path = RESULTS / f"census_{name}.csv"
        csv_path.write_text(table.to_csv())
        audit = compare_to_reference(table, reference)
        combined["base_graph6"] = table.base_graph6
        combined["audits"][convention.value] = audit.to_json()
        print(f"{convention.value}: {table.totals} in {dt:.1f}s -> {csv_path}")
        if convention is Convention.UP_TO_COMPLEMENT:
            members = table.verification["seidel_members_checked"]
            combined["exhaustive_seidel_invariance_members"] = members
        mismatched = [r for r in audit.rows if r["verdict"] != "match"]
        print(f"  audit: {audit.totals}")
        for row in mismatched:
            print(f"  {row}")

    audit_path = RESULTS / "census_audit.json"
    audit_path.write_text(json.dumps(combined, indent=1))
    print(f"wrote {audit_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
