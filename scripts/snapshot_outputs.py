#!/usr/bin/env python3
"""Write every CLI output whose bytes a change must keep, for `diff -r`.

Runs this checkout's own `src/` (as `python -m mainspectra` with
PYTHONPATH=src) and writes into OUT_DIR:

  analyze/   analyze --seidel --equitable --format json, and --format csv,
             on each data/*.g6; analyze on a 129-vertex graph6 line next to
             a valid one under the default vertex cap of 128; analyze
             under a malformed MAINSPECTRA_VERTEX_CAP; analyze on a file
             followed by '-' (stdin); analyze --format json on path(40)
             (walk rank 20), on a seeded G(64, 1/2) (full
             walk rank), on K31 + K30 + ... + K2 (walk rank 30, whose
             certificate needs one lift prime beyond the lift target) and
             on a seeded G(128, 1/2) with a pair of twin vertices (walk rank
             127)
  census/    census CSV (with --reference bundled --audit), the audit file
             and --format json, under both conventions, workers 1 and 2;
             all-subsets --format json with workers 3 (an uneven split);
             census --format json on the bases K1, C5 plus an isolated
             vertex and K4, one for each reason the structure checks skip,
             and all-subsets on the last two (representatives included);
             census --format json on K17 and on a K4 base file that starts
             with a blank line;
             census --format json on Paley(13) plus an isolated vertex (a
             conference two-graph) under both conventions; census on the
             path P4, whose class is not a regular two-graph and holds
             members with more than two main eigenvalues;
             census --reference on five malformed reference CSVs (the
             last repeats a row), --audit without --reference, and census
             under a cap above sys.maxsize
  construct/ construct --format json for every recipe (biregular on a
             pair whose high block steps past q22 + 1, splice-chain on a
             seed whose chain falls back to the fresh cross edge),
             symplectic with --r 10^12, and symplectic --r 20 under a cap
             of 10^18
  inputs/    the input graphs of those census bases, cone and splice-chain
  large/     the large-exact inputs of perfbench/run.py --setup-only for
             two seeds, and analyze on them as that workload runs it

Each command leaves NAME.out (stdout) and NAME.err (stderr and the exit
code).  The vertex cap is raised to 1024, as perfbench does, so the larger
constructions (t_lambda_tree(6) has 187 vertices) are built; only the
over-cap analyze case runs under the default cap.  The cap cases run with
their address space limited to 2 GiB, so a graph larger than memory fails
at once instead of filling the machine.  Snapshot two
checkouts into two directories; an empty `diff -r` between them means the
outputs are byte-identical.

Usage: python scripts/snapshot_outputs.py OUT_DIR
"""

from __future__ import annotations

import argparse
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LARGE_SEEDS = (1011, 1012)
ANALYZE_JSON = ["analyze", "--seidel", "--equitable", "--format", "json"]
RANDOM_SEED = 11
ADDRESS_SPACE = 1 << 31


def limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def run(out: Path, name: str, argv: list[str], command=None, stdin=None, preexec_fn=None,
        **env) -> None:
    """Run one command from the repository root, with env overriding the
    environment and preexec_fn run in the child before it starts; keep its
    stdout, stderr and exit code under out/name."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "MAINSPECTRA_VERTEX_CAP": "1024", **env}
    command = command or [sys.executable, "-m", "mainspectra"]
    proc = subprocess.run(command + argv, cwd=ROOT, env=env, input=stdin, capture_output=True,
                          text=True, preexec_fn=preexec_fn)
    (out / f"{name}.out").write_text(proc.stdout)
    (out / f"{name}.err").write_text(f"{proc.stderr}exit {proc.returncode}\n")
    print(f"{out.name}/{name}: exit {proc.returncode}", flush=True)


def graph6_line(n: int, edges) -> str:
    """The graph6 line of the graph on n <= 258047 vertices with these
    edges (pairs u < v); n >= 63 takes the four-byte size field."""
    if n < 63:
        size = chr(n + 63)
    else:
        size = "~" + "".join(chr(((n >> shift) & 63) + 63) for shift in (12, 6, 0))
    bits = [0] * (n * (n - 1) // 2)
    for u, v in edges:
        bits[v * (v - 1) // 2 + u] = 1  # the upper triangle, column by column
    bits += [0] * (-len(bits) % 6)
    return size + "".join(
        chr(int("".join(map(str, bits[i:i + 6])), 2) + 63) for i in range(0, len(bits), 6)
    )


def analyze_outputs(out: Path) -> None:
    for path in sorted((ROOT / "data").glob("*.g6")):
        run(out, f"{path.stem}.json", ANALYZE_JSON + [str(path)])
        run(out, f"{path.stem}.csv", ["analyze", "--format", "csv", str(path)])
    # line 1 is over the default cap of 128 vertices; line 2 is C5
    run(out, "over-cap", ["analyze"], stdin=f"{graph6_line(129, [])}\nDhc\n",
        MAINSPECTRA_VERTEX_CAP="128")
    run(out, "bad-cap", ["analyze"], stdin="Dhc\nDhc\n", MAINSPECTRA_VERTEX_CAP="abc")
    # a file, then '-' for stdin
    run(out, "stdin-dash", ["analyze", "data/graph6_roundtrip.g6", "-"], stdin="Dhc\n")
    rng = random.Random(RANDOM_SEED)
    gnp = [(u, v) for v in range(64) for u in range(v) if rng.random() < 0.5]
    cliques, s = [], 0
    for m in range(31, 1, -1):
        cliques += [(u + s, v + s) for v in range(m) for u in range(v)]
        s += m
    # vertex 127 has the neighbours of vertex 126, and is not adjacent to it
    twin = [(u, v) for v in range(127) for u in range(v) if rng.random() < 0.5]
    twin += [(u, 127) for u, v in twin if v == 126]
    for name, line in (("path40", graph6_line(40, [(v - 1, v) for v in range(1, 40)])),
                       ("gnp64", graph6_line(64, gnp)),
                       ("cliques31", graph6_line(s, cliques)),
                       ("twin128", graph6_line(128, twin))):
        run(out, f"{name}.json", ["analyze", "--format", "json"], stdin=line + "\n")


def census_outputs(out: Path, inputs: Path) -> None:
    for convention in ("up-to-complement", "all-subsets"):
        for workers in ("1", "2"):
            name = f"{convention}.w{workers}"
            common = ["census", "--convention", convention, "--workers", workers,
                      "--reference", "bundled"]
            run(out, f"{name}.csv", common + ["--audit", str(out / f"{name}.audit.json")])
            run(out, f"{name}.json", common + ["--format", "json"])
    run(out, "all-subsets.w3.json", ["census", "--convention", "all-subsets", "--workers", "3",
                                     "--reference", "bundled", "--format", "json"])
    # not a regular two-graph; Seidel eigenvalues +-sqrt(5); trivial
    for name, graph6 in (("k1", "@"), ("c5_k1", "Ehc?"), ("k4", "C~")):
        base = inputs / f"base_{name}.g6"
        base.write_text(f"{graph6}\n")
        run(out, f"base.{name}.json", ["census", "--base", str(base), "--format", "json"])
        if name != "k1":
            run(out, f"base.{name}.all-subsets.json", ["census", "--base", str(base),
                                                       "--convention", "all-subsets",
                                                       "--format", "json"])
    k17 = inputs / "base_k17.g6"
    k17.write_text(graph6_line(17, [(u, v) for v in range(17) for u in range(v)]) + "\n")
    run(out, "base.k17.json", ["census", "--base", str(k17), "--format", "json"])
    padded = inputs / "base_k4_padded.g6"
    padded.write_text("\nC~\n")
    run(out, "base.k4-padded.json", ["census", "--base", str(padded), "--format", "json"])
    squares = {x * x % 13 for x in range(1, 13)}
    paley = inputs / "base_paley13_k1.g6"
    paley.write_text(graph6_line(14, [(u, v) for v in range(13) for u in range(v)
                                      if v - u in squares]) + "\n")
    for convention in ("up-to-complement", "all-subsets"):
        run(out, f"base.paley13_k1.{convention}.json",
            ["census", "--base", str(paley), "--convention", convention, "--format", "json"])
    p4 = inputs / "base_p4.g6"
    p4.write_text("Ch\n")
    run(out, "base.p4", ["census", "--base", str(p4)])
    header = "alpha,beta,mu0,mu1,valencies,count\n"
    row = '8,-9,4+sqrt(7),4-sqrt(7),"3^1,5^3,7^12",240\n'
    malformed = {
        "no-mu0": "alpha,beta,mu1,valencies,count\n" + row.replace("4+sqrt(7),", "", 1),
        "short-row": header + "8,-9,4+sqrt(7)\n",
        "bad-valencies": header + row + "8,-9,4+sqrt(7),4-sqrt(7),5,1\n",
        "row-count": header + row.replace(",240", ",-5"),
        "duplicate-row": header + row + row,
    }
    for name, text in malformed.items():
        reference = inputs / f"reference_{name}.csv"
        reference.write_text(text)
        run(out, f"reference.{name}", ["census", "--reference", str(reference)])
    run(out, "audit-without-reference",
        ["census", "--audit", str(inputs / "unwritten.audit.json")])
    run(out, "huge-cap", ["census"], preexec_fn=limit_address_space,
        MAINSPECTRA_VERTEX_CAP=str(10**30))


def construct_outputs(out: Path, inputs: Path) -> None:
    (inputs / "c5.g6").write_text("Dhc\n")
    (inputs / "cone_c4.g6").write_text("Dl{\n")  # the cone over C4, hub at 4
    (inputs / "diamond.g6").write_text("C^\n")
    recipes = {f"t-lambda.{lam}": ["t-lambda", "--lam", str(lam)] for lam in range(2, 7)}
    recipes["cone.c5"] = ["cone", str(inputs / "c5.g6")]
    # (3, 1) steps its high block to q22 + 2 vertices; the last pair is on
    # the boundary: exit 1 with the impossibility certificate
    for alpha, beta in ((0, 2), (1, 1), (2, 1), (3, 0), (3, 1), (4, -2), (8, -9), (10, 5),
                        (2, 0)):
        recipes[f"biregular.{alpha}.{beta}"] = ["biregular", "--alpha", str(alpha),
                                                "--beta", str(beta)]
    for alpha in (4, 6, 8, 10):
        recipes[f"boundary3.{alpha}"] = ["boundary3", "--alpha", str(alpha)]
    recipes["symplectic.1"] = ["symplectic", "--r", "1"]
    recipes["symplectic.2.component"] = ["symplectic", "--r", "2", "--component"]
    recipes["symplectic.huge-r"] = ["symplectic", "--r", str(10**12)]
    for k in (1, 2, 3, 5):
        recipes[f"splice-chain.{k}"] = ["splice-chain", str(inputs / "cone_c4.g6"),
                                        "--edge", "4,0", "--k", str(k)]
    # the diamond K4 - e: every step falls back to the fresh cross edge
    recipes["splice-chain.fallback"] = ["splice-chain", str(inputs / "diamond.g6"),
                                        "--edge", "2,3", "--k", "3"]
    for name, argv in recipes.items():
        run(out, name, ["construct", *argv, "--format", "json"])
    run(out, "symplectic.out-of-memory", ["construct", "symplectic", "--r", "20"],
        preexec_fn=limit_address_space, MAINSPECTRA_VERTEX_CAP=str(10**18))


def large_outputs(out: Path) -> None:
    for seed in LARGE_SEEDS:
        work = out / f"inputs-{seed}"
        work.mkdir()
        run(out, f"setup-{seed}",
            ["--workload", "large-exact", "--seed", str(seed), "--setup-only", str(work)],
            command=[sys.executable, str(ROOT / "perfbench" / "run.py")])
        for path in sorted(work.glob("sp64-*.g6")):
            run(out, f"{seed}.{path.stem}", ANALYZE_JSON + [str(path)])
        for part in ("t_lambda", "biregular", "boundary_splice"):
            run(out, f"{seed}.{part}",
                ["analyze", "--equitable", "--format", "json", str(work / f"{part}.g6")])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out_dir", type=Path, help="a new or empty directory")
    out = parser.parse_args().out_dir.resolve()
    if out.exists() and any(out.iterdir()):
        parser.error(f"{out} is not empty")
    for section in ("analyze", "census", "construct", "inputs", "large"):
        (out / section).mkdir(parents=True)
    analyze_outputs(out / "analyze")
    census_outputs(out / "census", out / "inputs")
    construct_outputs(out / "construct", out / "inputs")
    large_outputs(out / "large")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
