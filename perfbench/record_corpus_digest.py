#!/usr/bin/env python3
"""Record perfbench/corpus_digest.tsv: one line per graph of
data/connected_n_le_8.g6 with the digest of the exact fields of its
``analyze --seidel --equitable --format json`` record.

The analyze-corpus gate compares against this file, so record it only from
a commit whose outputs are known to be right.  Run from the repository root:

    python3 perfbench/record_corpus_digest.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from run import import_program
from workloads import exact_digest, float_problem, read_lines, run_cli

HERE = Path(__file__).resolve().parent


def main() -> int:
    root = Path.cwd()
    import_program(root)
    corpus = root / "data" / "connected_n_le_8.g6"
    lines = read_lines(corpus)
    res = run_cli(["analyze", "--seidel", "--equitable", "--format", "json", str(corpus)])
    if res.rc != 0 or res.error:
        print(res.error or res.stderr, file=sys.stderr)
        return 1
    records = [json.loads(r) for r in res.stdout.splitlines()]
    assert len(records) == len(lines)
    out = []
    for line, rec in zip(lines, records):
        problem = float_problem(line, rec)
        if problem:
            print(f"{line}: float oracle disagrees on {problem}", file=sys.stderr)
            return 1
        out.append(f"{line}\t{exact_digest(rec)}\n")
    (HERE / "corpus_digest.tsv").write_text("".join(out))
    print(f"recorded {len(out)} digests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
