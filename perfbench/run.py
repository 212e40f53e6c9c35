#!/usr/bin/env python3
"""Benchmark for mainspectra: three workloads, each ending in a correctness gate.

Run from the repository root:

    python3 perfbench/run.py --workload census-sp16 --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

With ``--trace 0`` the run measures the end-to-end metrics listed in
BENCHMARK.json with tracing off.  With ``--trace 1`` it runs one untraced
and one traced pass and reports the per-layer metrics instead.  ``all``
runs every workload, each in a fresh process, and exits non-zero if any
gate fails.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it name every metric of the run, with units and run context.  See
perfbench/README.md for the metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from probe import SpeedLog
from spans import SpanStats, Tracer
from workloads import WORKLOADS, Op, Tally

# The large-exact families reach n=658; the program's default cap is 128.
VERTEX_CAP = "1024"
# Set-up samples per untraced run, spread over the run (see end_to_end).
SETUP_REPEATS = 6
CHAR_POLY_BUCKETS = {"n_le_8": (1, 8), "n16": (16, 16), "n64": (64, 64)}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=None,
                   help="measuring time (default: run_seconds in BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="WORKDIR",
                   help="build the workload's inputs into WORKDIR and exit")
    return p.parse_args(argv)


def import_program(root: Path):
    """Import mainspectra from this checkout's src/, never from elsewhere."""
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import mainspectra

    if not Path(mainspectra.__file__).resolve().is_relative_to(src):
        raise RuntimeError(f"mainspectra imported from {mainspectra.__file__}, not {src}")
    return mainspectra


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def run_context(root: Path, args, np_version: str) -> dict:
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py"))
    )
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np_version,
        "git_commit": commit,
        "src_lines": src_lines,
    }


def time_setup(root: Path, args, work: Path) -> float:
    """One set-up in a fresh interpreter: import the program, then build and
    serialise the inputs into work (the same bytes every time)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only", str(work)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    return elapsed


class PartLog:
    def __init__(self, part):
        self.part = part
        self.times: list[float] = []  # one per pass
        self.op_times: list[float] = []
        self.op_spans: list[tuple[float, float]] = []  # perf_counter start, end
        self.graphs: list[int] = []
        self.cpu_utilisation: float | None = None


def timed(op: Op, speed: SpeedLog | None) -> tuple[float, object]:
    """Wall time of one operation, less the speed probes that ran inside it."""
    busy0 = speed.busy_s if speed else 0.0
    t0 = time.perf_counter()
    out = op.run()
    busy = speed.busy_s - busy0 if speed else 0.0
    return time.perf_counter() - t0 - busy, out


def run_part(log: PartLog, pass_idx: int, tally: Tally, tracer=None,
             speed: SpeedLog | None = None) -> float:
    part = log.part
    total = 0.0
    graphs = 0
    cpu_total = 0.0
    for op in part.ops(pass_idx):
        cpu0 = cpu_seconds()
        t0 = time.perf_counter()
        if tracer is not None:
            dt, out = tracer.segment(part.name, lambda op=op: timed(op, None))
        elif part.workers > 1 and speed is not None:
            with speed.paused():
                dt, out = timed(op, speed)
        else:
            dt, out = timed(op, speed)
        log.op_spans.append((t0, time.perf_counter()))
        cpu_total += cpu_seconds() - cpu0
        total += dt
        graphs += op.graphs
        log.op_times.append(dt)
        tally.attempted += op.attempted
        op.check(out, tally)
    log.times.append(total)
    log.graphs.append(graphs)
    if part.workers > 1:
        log.cpu_utilisation = cpu_total / (part.workers * total)
    return total


def end_to_end(logs, setup_times, tally: Tally, speed: SpeedLog) -> dict:
    """Times scaled to nominal machine speed by the speed probes taken while
    they ran (see probe.py).  Part times are means, not medians: the machine
    switches between a fast and a slow state, and the mean of a part's few
    samples follows the share of time spent in each, as the probes' mean
    does, while their medians jump between the two states."""
    return {
        "setup_s": statistics.median(setup_times) * speed.scale,
        "wall_s": sum(statistics.mean(log.times) for log in logs) * speed.scale,
        "peak_rss_mb": peak_rss_mb(),
        "ok_op_ratio": (tally.attempted - tally.failed) / tally.attempted,
    }


def per_layer(stats: SpanStats, tally: Tally, logs, untraced: dict, workload) -> dict:
    m = {}
    ct = "census.census_table"
    ct_self = stats.self_s(ct)
    verify = stats.child_s(ct)
    members = tally.census_members
    inv = "census.verify_switching_invariance_exhaustive"
    inv_s = stats.dur_s(inv)
    w2 = [log.cpu_utilisation for log in logs if log.cpu_utilisation is not None]
    m.update({
        "census.census_table.self_s": ct_self,
        "census.members_per_s": members / ct_self if ct_self else 0.0,
        "census.members": members,
        "census.rows": tally.census_rows,
        "census.verify_s": verify,
        "census.verify_share": verify / (ct_self + verify) if ct_self else 0.0,
        "census.seidel_sample_fraction":
            stats.child_calls(ct, "linalg.char_poly") / members if members else 0.0,
        "census.invariance.members_per_s":
            stats.calls(inv) * getattr(workload, "invariance_members", 0) / inv_s
            if inv_s else 0.0,
        "census.w2_cpu_utilisation": w2[0] if w2 else 0.0,
    })
    cp = "linalg.char_poly"
    for bucket, sizes in CHAR_POLY_BUCKETS.items():
        m[f"{cp}.{bucket}.calls"] = stats.calls(cp, sizes)
        m[f"{cp}.{bucket}.self_s"] = stats.self_s(cp, sizes)
        m[f"{cp}.{bucket}.p50_ms"] = stats.percentile_ms(cp, 50, sizes)
    m[f"{cp}.other.calls"] = stats.calls(cp) - sum(
        m[f"{cp}.{b}.calls"] for b in CHAR_POLY_BUCKETS)
    m[f"{cp}.other.self_s"] = stats.self_s(cp) - sum(
        m[f"{cp}.{b}.self_s"] for b in CHAR_POLY_BUCKETS)
    for name in ("distinct_root_count", "extract_integer_roots", "solve_in_span",
                 "eigenvalues_float"):
        m[f"linalg.{name}.self_s"] = stats.self_s(f"linalg.{name}")
    m["linalg.rank_exact.calls"] = stats.calls("linalg.rank_exact")

    mec = "spectrum.main_eigenvalue_count"
    m[f"{mec}.calls"] = stats.calls(mec)
    m[f"{mec}.self_s"] = stats.self_s(mec)
    m[f"{mec}.p50_ms"] = stats.percentile_ms(mec, 50)
    m[f"{mec}.p99_ms"] = stats.percentile_ms(mec, 99)
    for name in ("two_walk_params", "harmonic_delta", "analyze"):
        m[f"spectrum.{name}.self_s"] = stats.self_s(f"spectrum.{name}")
    m["spectrum.walk_rank_fraction"] = (
        tally.walk_main / tally.walk_n if tally.walk_n else 0.0)

    m["seidel.seidel_report.self_s"] = stats.self_s("seidel.seidel_report")
    for name in ("is_strong", "seidel_matrix", "switch_mask", "srg_params",
                 "verify_nonregular_structure"):
        m[f"seidel.{name}.calls"] = stats.calls(f"seidel.{name}")
        m[f"seidel.{name}.self_s"] = stats.self_s(f"seidel.{name}")
    for name in ("refine_to_equitable", "quotient_matrix", "is_equitable", "main_bound"):
        m[f"equitable.{name}.self_s"] = stats.self_s(f"equitable.{name}")

    pg = "graph6.parse_graph6"
    m[f"{pg}.calls"] = stats.calls(pg)
    m[f"{pg}.self_s"] = stats.self_s(pg)
    m[f"{pg}.p50_ms"] = stats.percentile_ms(pg, 50)
    m[f"{pg}.max_ms"] = stats.max_ms(pg)
    m["graph6.write_graph6.self_s"] = stats.self_s("graph6.write_graph6")
    m["families_graph6_max_n"] = stats.max_size(
        pg, labels=(getattr(workload, "FAMILIES_PART", None),))

    for name in ("graphs.is_connected", "graphs.t_lambda_tree",
                 "constructions.symplectic_graph", "constructions.equitable_biregular_from",
                 "constructions.three_valenced_boundary", "constructions.splice_chain"):
        m[f"{name}.self_s"] = stats.self_s(name)
    # main and the cli functions it calls: argparse, formatting, file I/O.
    m["cli.main.self_s"] = stats.module_self_s("cli")

    m["traced_wall_s"] = stats.traced_wall
    m["unattributed_s"] = stats.unattributed
    m["tracing_overhead_s"] = sum(
        log.times[-1] - untraced[log.part.name] for log in logs if log.part.workers == 1)
    return m


def emit(spec_metrics, values: dict) -> dict:
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise RuntimeError(f"benchmark computed no value for {missing}")
    return {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics
    }


def measure(args, root: Path, spec: dict) -> int:
    os.environ["MAINSPECTRA_VERTEX_CAP"] = VERTEX_CAP
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir))
    try:
        cls = WORKLOADS[args.workload]
        setup_times = []
        tracer = None
        speed = SpeedLog()
        if args.trace:
            ms = import_program(root)
            tracer = Tracer()
            tracer.segment("setup", lambda: cls.build(ms, root, work, args.seed))
        else:
            setup_times.append(time_setup(root, args, work))
            import_program(root)
        workload = cls(root, work)
        logs = [PartLog(part) for part in workload.parts()]
        tally = Tally()
        passes = 0
        if args.trace:
            for log in logs:
                run_part(log, 0, tally)
            untraced = {log.part.name: log.times[0] for log in logs}
            traced_tally = Tally()
            for log in logs:
                if log.part.workers == 1:
                    run_part(log, 0, traced_tally, tracer)
            tally.attempted += traced_tally.attempted
            tally.failed += traced_tally.failed
            tally.notes += traced_tally.notes
        else:
            # Set-up samples go between parts, so they see the whole run.
            deadline = time.perf_counter() + args.seconds
            with speed:
                while True:
                    for log in logs:
                        if log.times and (time.perf_counter() + statistics.mean(log.times)
                                          > deadline):
                            break
                        if len(setup_times) < SETUP_REPEATS:
                            setup_times.append(time_setup(root, args, work))
                        run_part(log, passes, tally, speed=speed)
                    else:
                        passes += 1
                        continue
                    break
                while len(setup_times) < SETUP_REPEATS:
                    setup_times.append(time_setup(root, args, work))

        context = run_context(root, args, np.__version__)
        lines = [f"# mainspectra benchmark {json.dumps(context)}"]
        if args.trace:
            stats = SpanStats(tracer)
            tracer.save(out_dir / f"spans-{args.workload}-seed{args.seed}.npz")
            values = per_layer(stats, traced_tally, logs, untraced, workload)
            metrics = emit(spec["per_layer"], values)
            lines.append(
                f"# traced wall {stats.traced_wall:.6f} s = self times "
                f"{float(stats.self_time.sum()):.6f} s + unattributed "
                f"{stats.unattributed:.6f} s (closure error {stats.check_closure():.2e} s)")
        else:
            values = end_to_end(logs, setup_times, tally, speed)
            metrics = emit(spec["end_to_end"], values)
            scale = speed.scale
            mean = {log.part.name: statistics.mean(log.times) * scale for log in logs}
            ops = {log.part.name: [t * scale for t in log.op_times] for log in logs}
            lines.append(f"# {passes} full passes; samples per part: " + ", ".join(
                f"{log.part.name} {len(log.times)}" for log in logs))
            lines.append(
                f"# speed probe: trimmed mean {speed.typical_s * 1e3:.3f} ms over "
                f"{len(speed.times)} probes; times below are scaled by {scale:.4f}; "
                f"unscaled wall_s {values['wall_s'] / scale:.6f} s, "
                f"setup_s {values['setup_s'] / scale:.6f} s")
            graphs = sum(statistics.mean(log.graphs) for log in logs)
            lines.append(f"# graphs_per_s = {graphs / values['wall_s']:.6f} 1/s  "
                         f"({graphs:.0f} graphs per pass)")
            for name, value, unit, note in workload.named(mean, ops):
                lines.append(f"# {name} = {value:.6f} {unit}  ({note})")
            lines.append(f"# failed_op_ratio = {tally.failed / tally.attempted:.6f} "
                         f"({tally.failed} of {tally.attempted} operations)")
        for name, m in metrics.items():
            lines.append(f"# {name} = {m['value']} {m['unit']}")
        for note in tally.notes:
            lines.append(f"# FAILED {note}")
        result = {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": metrics,
        }
        report = {"context": context, "setup_s_samples": setup_times,
                  "probe_s_samples": speed.times, "probe_stamps": speed.stamps,
                  "op_spans": {log.part.name: log.op_spans for log in logs},
                  "parts": {log.part.name: log.times for log in logs},
                  "failures": tally.notes, **result}
        (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
         ).write_text(json.dumps(report, indent=1))
        print("\n".join(lines))
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_all(args, root: Path) -> int:
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"## {name}", flush=True)
        rc = subprocess.run(cmd, cwd=root).returncode
        if rc != 0:
            print(f"## {name}: exit code {rc}", flush=True)
            status = 1
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if args.setup_only:
        os.environ["MAINSPECTRA_VERTEX_CAP"] = VERTEX_CAP
        ms = import_program(root)
        WORKLOADS[args.workload].build(ms, root, Path(args.setup_only), args.seed)
        return 0
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.workload == "all":
        return run_all(args, root)
    return measure(args, root, spec)


if __name__ == "__main__":
    sys.exit(main())
