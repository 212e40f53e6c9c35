"""Workload inputs, operations and correctness gates.

Each workload has a set-up step that builds (or loads) its inputs from the
seed and serialises them into a work directory, and timed parts that make
up one pass.  A part is a list of operations; an operation is one CLI
invocation or library call, timed on its own, followed by an untimed gate
that counts how many of the operation's inputs came out wrong.  A gate
never aborts the run.

All program calls look the entry point up on the module at call time
(``cli.main``, ``census.verify_switching_invariance_exhaustive``), so the
traced run sees the wrapped functions.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import statistics
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

# analyze-corpus: graphs per CLI invocation; four invocations make a pass.
CORPUS_BATCH = 750
# large-exact: Sp(6) members per pass (one per part), and how many
# distinct ones to build; pass p analyses members 3p..3p+2 (cycling).
SP64_PER_PASS = 3
SP64_MEMBERS = 18
T_LAMBDA_RANGE = range(2, 10)
BIREGULAR_ALPHAS = range(0, 11)  # with 5 <= alpha^2 + 4 beta <= 60: 154 pairs
BOUNDARY_ALPHAS = (4, 6, 8, 10)
SPLICE_KS = range(1, 21)
FLOAT_TOL = 1e-6


@dataclass
class Tally:
    """What the gates saw; feeds the failure counts and input properties."""

    attempted: int = 0
    failed: int = 0
    walk_main: int = 0  # sum of main-eigenvalue counts
    walk_n: int = 0  # sum of vertex counts over the same graphs
    census_members: int = 0
    census_rows: int = 0
    notes: list = field(default_factory=list)

    def fail(self, count: int, why: str) -> None:
        self.failed += count
        if len(self.notes) < 20:
            self.notes.append(why)


@dataclass
class Op:
    attempted: int  # operations this call counts as (1, or one per input graph)
    graphs: int  # graphs the call processes, for graphs_per_s
    run: Callable[[], object]
    check: Callable[[object, Tally], None]


@dataclass
class Part:
    name: str
    ops: Callable[[int], list]  # pass index -> operations
    # Census workers.  Parts with more than one run untraced (their work is
    # in child processes) and record their CPU utilisation instead.
    workers: int = 1


@dataclass
class CliResult:
    rc: int | None
    stdout: str
    stderr: str
    error: str | None


def run_cli(argv: list[str]) -> CliResult:
    from mainspectra import cli

    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            error = traceback.format_exc()
    return CliResult(rc, out.getvalue(), err.getvalue(), error)


def run_call(fn) -> tuple:
    try:
        return fn(), None
    except Exception:
        return None, traceback.format_exc()


def cli_failure(res: CliResult) -> str | None:
    if res.error is not None:
        return "exception: " + res.error.strip().splitlines()[-1]
    if res.rc != 0:
        return f"exit code {res.rc}"
    if "Traceback" in res.stderr:
        return "traceback on stderr"
    return None


def json_records(res: CliResult, expected: int, tally: Tally, label: str):
    """Parsed output records, or None after charging every input as failed."""
    why = cli_failure(res)
    records = None
    if why is None:
        try:
            records = [json.loads(line) for line in res.stdout.splitlines()]
        except ValueError:
            why = "output is not JSON lines"
    if why is None and len(records) != expected:
        why = f"{len(records)} records for {expected} inputs"
    if why is not None:
        tally.fail(expected, f"{label}: {why}")
        return None
    return records


def write_lines(path: Path, lines) -> None:
    path.write_text("".join(line + "\n" for line in lines))


def read_lines(path: Path) -> list[str]:
    return [ln for ln in path.read_text().splitlines() if ln.strip()]


# ---------------------------------------------------------------------------
# independent float oracle and exact digest for analyze records


def decode_graph6_small(line: str) -> np.ndarray:
    """Adjacency matrix of a graph6 line with n <= 62 (the benchmark's own
    decoder, independent of the program's)."""
    n = ord(line[0]) - 63
    bits = []
    for ch in line[1:]:
        val = ord(ch) - 63
        bits.extend((val >> (5 - i)) & 1 for i in range(6))
    adj = np.zeros((n, n))
    pos = 0
    for col in range(1, n):
        for row in range(col):
            if bits[pos]:
                adj[row, col] = adj[col, row] = 1
            pos += 1
    return adj


def exact_digest(record: dict) -> str:
    """Digest of a record's exact fields; float fields are checked apart."""
    rec = json.loads(json.dumps(record))
    rec.pop("spectral_radius", None)
    if rec.get("main_values"):
        rec["main_values"].pop("mu0_float", None)
        rec["main_values"].pop("mu1_float", None)
    if rec.get("seidel"):
        rec["seidel"].pop("float_spectrum", None)
    canon = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= FLOAT_TOL * max(1.0, abs(b))


def float_problem(line: str, record: dict) -> str | None:
    adj = decode_graph6_small(line)
    n = len(adj)
    if not _close(record["spectral_radius"], float(np.linalg.eigvalsh(adj).max())):
        return "spectral_radius"
    mv = record.get("main_values")
    if mv:
        a, b = float(Fraction(mv["alpha"])), float(Fraction(mv["beta"]))
        root = math.sqrt(a * a + 4 * b)
        if not (_close(mv["mu0_float"], (a + root) / 2)
                and _close(mv["mu1_float"], (a - root) / 2)):
            return "main value floats"
    seidel = np.ones((n, n)) - np.eye(n) - 2 * adj
    want = np.linalg.eigvalsh(seidel)
    got = sorted(r for r, m in record["seidel"]["float_spectrum"] for _ in range(m))
    if len(got) != n or any(abs(g - w) > 1e-5 for g, w in zip(got, want)):
        return "Seidel float spectrum"
    return None


def load_digest(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        g6, digest = line.split("\t")
        out[g6] = digest
    return out


# ---------------------------------------------------------------------------
# census-sp16


class CensusSp16:
    """The paper's headline census of the 16-vertex symplectic class."""

    name = "census-sp16"
    RUNS = (
        # (part, convention, workers, reference CSV)
        ("census_up_w1", "up-to-complement", 1, "census_up_to_complement.csv"),
        ("census_all_w1", "all-subsets", 1, "census_all_subsets.csv"),
        ("census_up_w2", "up-to-complement", 2, "census_up_to_complement.csv"),
    )

    @staticmethod
    def build(ms, root: Path, work: Path, seed: int) -> None:
        # The class is enumerated exhaustively, so the seed is unused.
        (work / "sp16.g6").write_text(ms.write_graph6(ms.symplectic_graph(2)) + "\n")

    def __init__(self, root: Path, work: Path):
        self.work = work
        audits = json.loads((root / "results" / "census_audit.json").read_text())
        self.audits = audits["audits"]
        self.invariance_members = audits["exhaustive_seidel_invariance_members"]
        self.csv = {
            ref: (root / "results" / ref).read_text() for _, _, _, ref in self.RUNS
        }

    def _census_op(self, part, convention, workers, ref) -> Op:
        audit_path = self.work / f"audit-{part}.json"
        argv = [
            "census", "--base", str(self.work / "sp16.g6"),
            "--convention", convention, "--workers", str(workers),
            "--reference", "bundled", "--audit", str(audit_path),
        ]
        members = 1 << (15 if convention == "up-to-complement" else 16)

        def run():
            audit_path.unlink(missing_ok=True)
            return run_cli(argv)

        def check(res: CliResult, tally: Tally) -> None:
            why = cli_failure(res)
            if why is None and res.stdout != self.csv[ref]:
                why = f"CSV differs from results/{ref}"
            if why is None:
                try:
                    audit = json.loads(audit_path.read_text())
                except (OSError, ValueError):
                    audit = None
                if audit != self.audits[convention]:
                    why = "audit differs from results/census_audit.json"
            if why is not None:
                tally.fail(1, f"{part}: {why}")
                return
            rows = res.stdout.splitlines()[1:]
            counts = [(int(r.split(",")[-2]), r.startswith(",")) for r in rows]
            tally.census_rows += len(rows)
            tally.census_members += sum(c for c, _ in counts)
            # Regular members have one main eigenvalue, the others two; n=16.
            tally.walk_main += sum(c * (1 if regular else 2) for c, regular in counts)
            tally.walk_n += 16 * sum(c for c, _ in counts)

        return Op(1, members, run, check)

    def _invariance_op(self) -> Op:
        from mainspectra import census as ms_census
        from mainspectra import graph6

        base = graph6.parse_graph6((self.work / "sp16.g6").read_text())

        def run():
            return run_call(lambda: ms_census.verify_switching_invariance_exhaustive(base))

        def check(out, tally: Tally) -> None:
            checked, error = out
            if error is not None:
                tally.fail(1, "invariance: " + error.strip().splitlines()[-1])
            elif checked != self.invariance_members:
                tally.fail(1, f"invariance: checked {checked} members")

        return Op(1, self.invariance_members, run, check)

    def named(self, mean: dict, op_times: dict) -> list:
        return [
            ("census_up_s", mean["census_up_w1"], "s", "up-to-complement, workers=1"),
            ("census_all_s", mean["census_all_w1"], "s", "all-subsets, workers=1"),
            ("census_up_w2_s", mean["census_up_w2"], "s", "up-to-complement, workers=2"),
            ("invariance_s", mean["invariance"], "s",
             f"exhaustive, {self.invariance_members} members"),
        ]

    def parts(self) -> list[Part]:
        parts = [
            Part(part, lambda _p, spec=(part, conv, w, ref): [self._census_op(*spec)],
                 workers=w)
            for part, conv, w, ref in self.RUNS
        ]
        invariance = self._invariance_op()
        parts.append(Part("invariance", lambda _p: [invariance]))
        return parts


# ---------------------------------------------------------------------------
# analyze-corpus


class AnalyzeCorpus:
    """Batch screen of the connected graphs on up to 8 vertices."""

    name = "analyze-corpus"

    @staticmethod
    def build(ms, root: Path, work: Path, seed: int) -> None:
        lines = read_lines(root / "data" / "connected_n_le_8.g6")
        random.Random(seed).shuffle(lines)
        for b in range(len(lines) // CORPUS_BATCH):
            chunk = lines[b * CORPUS_BATCH:(b + 1) * CORPUS_BATCH]
            write_lines(work / f"batch-{b:02d}.g6", chunk)

    def __init__(self, root: Path, work: Path):
        self.work = work
        self.digest = load_digest(Path(__file__).resolve().parent / "corpus_digest.tsv")
        self.batches = sorted(work.glob("batch-*.g6"))

    def _op(self, path: Path) -> Op:
        lines = read_lines(path)
        argv = ["analyze", "--seidel", "--equitable", "--format", "json", str(path)]

        def check(res: CliResult, tally: Tally) -> None:
            records = json_records(res, len(lines), tally, path.name)
            if records is None:
                return
            for line, rec in zip(lines, records):
                if self.digest.get(line) != exact_digest(rec):
                    why = "exact fields differ from the recorded digest"
                else:
                    why = float_problem(line, rec)
                if why is not None:
                    tally.fail(1, f"{line}: {why}")
                    continue
                tally.walk_main += rec["main_count"]
                tally.walk_n += rec["n"]

        return Op(len(lines), len(lines), lambda: run_cli(argv), check)

    @staticmethod
    def named(mean: dict, op_times: dict) -> list:
        return []  # its headline, graphs_per_s, is printed for every workload

    def parts(self) -> list[Part]:
        # Pass p analyses batches 4p..4p+3 (cycling), so passes see fresh graphs.
        k = len(self.batches)
        return [
            Part(f"batch{i + 1}", lambda p, i=i: [self._op(self.batches[(4 * p + i) % k])])
            for i in range(4)
        ]


# ---------------------------------------------------------------------------
# large-exact


def _seidel_poly_sp64() -> list[int]:
    """Coefficients (ascending) of (x - 7)^36 (x + 9)^28, the Seidel
    characteristic polynomial of the Sp(6) switching class."""
    poly = [1]
    for root, mult in ((7, 36), (-9, 28)):
        for _ in range(mult):
            nxt = [0] * (len(poly) + 1)
            for i, c in enumerate(poly):
                nxt[i] -= root * c
                nxt[i + 1] += c
            poly = nxt
    return poly


class LargeExact:
    """Few large dense exact kernels (Sp(6) members) and large sparse
    low-rank families."""

    name = "large-exact"
    FAMILIES = ("t_lambda", "biregular", "boundary_splice")
    FAMILIES_PART = "families"

    @staticmethod
    def build(ms, root: Path, work: Path, seed: int) -> None:
        from mainspectra.seidel import switch_mask

        rng = random.Random(seed)
        sp64 = ms.symplectic_graph(3)
        for i in range(SP64_MEMBERS):
            member = switch_mask(sp64, rng.getrandbits(64))
            (work / f"sp64-{i:02d}.g6").write_text(ms.write_graph6(member) + "\n")
        families = {
            "t_lambda": [
                ({"lam": lam}, ms.t_lambda_tree(lam)) for lam in T_LAMBDA_RANGE
            ],
            "biregular": [
                ({"alpha": a, "beta": b}, ms.equitable_biregular_from(a, b))
                for a in BIREGULAR_ALPHAS
                for b in range(math.ceil((5 - a * a) / 4), (60 - a * a) // 4 + 1)
            ],
            "boundary_splice": [
                ({"alpha": a, "beta": 1 - a * a // 4}, ms.three_valenced_boundary(a))
                for a in BOUNDARY_ALPHAS
            ]
            + [
                ({"alpha": 2, "beta": 4},
                 ms.splice_chain(ms.cone_over_regular(ms.cycle(4)), (4, 0), k).graph)
                for k in SPLICE_KS
            ],
        }
        manifest = {}
        for part, items in families.items():
            write_lines(work / f"{part}.g6", [ms.write_graph6(g) for _, g in items])
            manifest[part] = [dict(expect, n=g.n) for expect, g in items]
        (work / "families.json").write_text(json.dumps(manifest))

    def __init__(self, root: Path, work: Path):
        self.work = work
        self.members = sorted(work.glob("sp64-*.g6"))
        self.families = json.loads((work / "families.json").read_text())
        self.seidel_poly = _seidel_poly_sp64()

    @property
    def families_max_n(self) -> int:
        return max(e["n"] for items in self.families.values() for e in items)

    def _member_op(self, path: Path) -> Op:
        argv = ["analyze", "--seidel", "--equitable", "--format", "json", str(path)]

        def check(res: CliResult, tally: Tally) -> None:
            records = json_records(res, 1, tally, path.name)
            if records is None:
                return
            rec = records[0]
            why = None
            if rec["seidel"]["seidel_char_poly"] != self.seidel_poly:
                why = "Seidel char poly differs from the base's"
            elif rec["connected"] and not rec["regular"] and (
                rec["main_count"] != 2 or rec["two_walk"]["alpha"] != 32
            ):
                why = f"main_count {rec['main_count']}, two_walk {rec['two_walk']}"
            if why is not None:
                tally.fail(1, f"{path.name}: {why}")
                return
            tally.walk_main += rec["main_count"]
            tally.walk_n += rec["n"]

        return Op(1, 1, lambda: run_cli(argv), check)

    def _family_op(self, part: str) -> Op:
        path = self.work / f"{part}.g6"
        expected = self.families[part]
        argv = ["analyze", "--equitable", "--format", "json", str(path)]

        def check(res: CliResult, tally: Tally) -> None:
            records = json_records(res, len(expected), tally, part)
            if records is None:
                return
            for want, rec in zip(expected, records):
                if rec["n"] != want["n"]:
                    ok = False
                elif "lam" in want:
                    ok = rec["harmonic_delta"] == want["lam"]
                else:
                    ok = rec["two_walk"] == {"alpha": want["alpha"], "beta": want["beta"]}
                if not ok:
                    tally.fail(1, f"{part}: {want} gave {rec['two_walk']}, "
                                  f"delta {rec['harmonic_delta']}")
                    continue
                tally.walk_main += rec["main_count"]
                tally.walk_n += rec["n"]

        return Op(len(expected), len(expected), lambda: run_cli(argv), check)

    def named(self, mean: dict, op_times: dict) -> list:
        sp64 = [f"sp64_{i}" for i in range(SP64_PER_PASS)]
        members = [t for part in sp64 for t in op_times[part]]
        return [
            ("sp64_s", sum(mean[p] for p in sp64), "s",
             f"{SP64_PER_PASS} Sp(6) members per pass"),
            ("families_s", mean[self.FAMILIES_PART], "s",
             f"{sum(len(v) for v in self.families.values())} graphs, "
             f"largest n={self.families_max_n}"),
            ("sp64_graph_p50_s", statistics.median(members), "s",
             f"median over {len(members)} members"),
        ]

    def parts(self) -> list[Part]:
        k = len(self.members)
        sp64 = [
            Part(f"sp64_{i}", lambda p, i=i: [
                self._member_op(self.members[(SP64_PER_PASS * p + i) % k])])
            for i in range(SP64_PER_PASS)
        ]
        families = Part(self.FAMILIES_PART,
                        lambda _p: [self._family_op(f) for f in self.FAMILIES])
        return [*sp64, families]


WORKLOADS = {w.name: w for w in (CensusSp16, AnalyzeCorpus, LargeExact)}

