"""Command-line front end: batch analysis, constructions, and census runs.

graph6 is the pipe-friendly default on stdin/stdout; --format json switches
to full JSON records.  Everything here is deterministic; randomized checks
live in the test suite only.

Exit status: 0 on success; 1 when analyze met unparsable lines or construct
could not build its recipe; 2 for bad arguments or input (argparse usage
errors, unreadable or malformed files, out-of-range parameters); 3 when a
census member contradicts the structure its switching class forces.
Errors are reported as one line on stderr, without a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from .census import (
    ClassificationError,
    Convention,
    bundled_reference_rows,
    census_table,
    compare_to_reference,
    load_reference_csv,
)
from .constructions import (
    boundary_impossibility,
    cone_over_regular,
    equitable_biregular_from,
    splice_chain,
    symplectic_graph,
    sp_component,
    three_valenced_boundary,
)
from .equitable import is_equitable, main_bound, quotient_matrix, refine_to_equitable, valency_partition
from .graph6 import Graph6Error, parse_graph6, write_graph6
from .graphs import Graph, degree_vector, graph_from_adjacency_text, t_lambda_tree
from .seidel import seidel_report
from .spectrum import analyze, two_walk_params


@dataclass
class RunConfig:
    command: str
    fmt: str = "json"
    inputs: list = field(default_factory=list)
    with_seidel: bool = False
    with_equitable: bool = False
    input_format: str = "graph6"
    recipe: str | None = None
    lam: int | None = None
    alpha: int | None = None
    beta: int | None = None
    r: int = 2
    component: bool = False
    edge: tuple[int, int] | None = None
    k: int = 1
    base: str | None = None
    convention: Convention = Convention.UP_TO_COMPLEMENT
    reference: str | None = None
    audit: str | None = None
    workers: int = 1


def _read_lines(inputs: list) -> list[str]:
    if not inputs or inputs == ["-"]:
        return sys.stdin.read().splitlines()
    lines: list[str] = []
    for name in inputs:
        with open(name) as fh:
            lines.extend(fh.read().splitlines())
    return lines


def _parse_input_graph(line: str, input_format: str) -> Graph:
    if input_format == "edges":
        return graph_from_adjacency_text(line.replace(";", "\n"))
    return parse_graph6(line)


def cmd_analyze(cfg: RunConfig) -> int:
    failures = 0
    out_csv_header = False
    for lineno, line in enumerate(_read_lines(cfg.inputs), start=1):
        if not line.strip():
            continue
        try:
            g = _parse_input_graph(line.strip(), cfg.input_format)
        except (Graph6Error, ValueError) as exc:
            print(f"line {lineno}: {exc}", file=sys.stderr)
            failures += 1
            continue
        report = analyze(g)
        record = report.to_json()
        if cfg.with_seidel:
            record["seidel"] = seidel_report(g).to_json()
        if cfg.with_equitable:
            blocks = refine_to_equitable(g, valency_partition(g))
            q = quotient_matrix(g, blocks)
            record["equitable"] = {
                "valency_partition_equitable": is_equitable(g, valency_partition(g)),
                "refined_blocks": [list(b) for b in blocks],
                "quotient": q.to_json(),
                "main_bound": main_bound(g, blocks),
            }
        if cfg.fmt == "csv":
            if not out_csv_header:
                print("n,edges,connected,regular,main_count,alpha,beta,harmonic_delta")
                out_csv_header = True
            tw = report.two_walk
            print(
                f"{report.n},{report.edges},{report.connected},{report.regular},"
                f"{report.main_count},{tw.alpha if tw else ''},{tw.beta if tw else ''},"
                f"{report.harmonic_delta if report.harmonic_delta is not None else ''}"
            )
        else:
            print(json.dumps(record))
    return 1 if failures else 0


def _construct_graph(cfg: RunConfig):
    recipe = cfg.recipe
    meta: dict = {}
    if recipe == "t-lambda":
        g = t_lambda_tree(cfg.lam)
    elif recipe == "cone":
        lines = [ln for ln in _read_lines(cfg.inputs) if ln.strip()]
        if not lines:
            raise ValueError("cone needs an input graph (graph6 line)")
        g = cone_over_regular(_parse_input_graph(lines[0].strip(), cfg.input_format))
    elif recipe == "biregular":
        g = equitable_biregular_from(cfg.alpha, cfg.beta)
    elif recipe == "boundary3":
        g = three_valenced_boundary(cfg.alpha)
    elif recipe == "symplectic":
        g = sp_component(cfg.r) if cfg.component else symplectic_graph(cfg.r)
    elif recipe == "splice-chain":
        lines = [ln for ln in _read_lines(cfg.inputs) if ln.strip()]
        if not lines:
            raise ValueError("splice-chain needs an input graph (graph6 line)")
        base = _parse_input_graph(lines[0].strip(), cfg.input_format)
        if cfg.edge is None:
            raise ValueError("splice-chain needs --edge U,V")
        res = splice_chain(base, cfg.edge, cfg.k)
        g = res.graph
        meta = res.to_json()
    else:
        raise ValueError(f"unknown recipe {recipe!r}")
    return g, meta


def cmd_construct(cfg: RunConfig) -> int:
    try:
        g, meta = _construct_graph(cfg)
    except ValueError as exc:
        record = {"recipe": cfg.recipe, "error": str(exc)}
        if (
            cfg.recipe == "biregular"
            and cfg.alpha is not None
            and cfg.alpha >= 0
            and cfg.alpha * cfg.alpha + 4 * cfg.beta == 4
        ):
            record["impossibility_certificate"] = boundary_impossibility(
                cfg.alpha, cfg.beta
            ).to_json()
        print(json.dumps(record), file=sys.stderr)
        return 1
    tw = two_walk_params(g)
    relevant = {
        "t-lambda": ("lam",),
        "cone": (),
        "biregular": ("alpha", "beta"),
        "boundary3": ("alpha",),
        "symplectic": ("r", "component"),
        "splice-chain": ("edge", "k"),
    }[cfg.recipe]
    params = {
        "lam": cfg.lam,
        "alpha": cfg.alpha,
        "beta": cfg.beta,
        "r": cfg.r,
        "component": cfg.component,
        "edge": list(cfg.edge) if cfg.edge else None,
        "k": cfg.k,
    }
    provenance = {
        "recipe": cfg.recipe,
        "params": {k: params[k] for k in relevant},
        "graph6": write_graph6(g),
        "n": g.n,
        "valencies": sorted(set(degree_vector(g))),
        "two_walk": tw.to_json() if tw else None,
        "metadata": meta,
    }
    if cfg.fmt == "json":
        print(json.dumps(provenance))
    else:
        print(provenance["graph6"])
    return 0


def cmd_census(cfg: RunConfig) -> int:
    if cfg.base:
        with open(cfg.base) as fh:
            base = parse_graph6(fh.readline().strip())
    else:
        base = symplectic_graph(cfg.r)
    table = census_table(base, cfg.convention, workers=cfg.workers)
    audit = None
    if cfg.reference == "bundled":
        audit = compare_to_reference(table, bundled_reference_rows())
    elif cfg.reference:
        with open(cfg.reference) as fh:
            audit = compare_to_reference(table, load_reference_csv(fh.read()))
    if cfg.fmt == "json":
        record = table.to_json()
        if audit:
            record["audit"] = audit.to_json()
        print(json.dumps(record))
    else:
        sys.stdout.write(table.to_csv())
        if audit and not cfg.audit:
            print(json.dumps(audit.to_json(), indent=1), file=sys.stderr)
    if audit and cfg.audit:
        with open(cfg.audit, "w") as fh:
            json.dump(audit.to_json(), fh, indent=1)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mainspectra",
        description="Exact analysis, construction, and censuses of graphs "
        "with two main eigenvalues",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify graph6 inputs line by line")
    p.add_argument("inputs", nargs="*", help="graph6 files ('-' or empty: stdin)")
    p.add_argument("--seidel", action="store_true", help="include the Seidel report")
    p.add_argument("--equitable", action="store_true", help="include the equitable report")
    p.add_argument("--input-format", choices=["graph6", "edges"], default="graph6")
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("construct", help="emit one validated construction")
    p.add_argument(
        "recipe",
        choices=["t-lambda", "cone", "biregular", "boundary3", "symplectic", "splice-chain"],
    )
    p.add_argument("inputs", nargs="*", help="input graph files where required")
    p.add_argument("--lam", type=int, help="t-lambda: tree parameter (>= 2)")
    p.add_argument("--alpha", type=int)
    p.add_argument("--beta", type=int)
    p.add_argument("--r", type=int, default=2, help="symplectic: half the dimension")
    p.add_argument("--component", action="store_true", help="symplectic: drop the zero vector")
    p.add_argument("--edge", help="splice-chain: U,V endpoints of the splice edge")
    p.add_argument("--k", type=int, default=1, help="splice-chain: family member index")
    p.add_argument("--input-format", choices=["graph6", "edges"], default="graph6")
    p.add_argument("--format", choices=["graph6", "json"], default="graph6")

    p = sub.add_parser("census", help="switching-class census (default: 16-vertex symplectic)")
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--base", help="graph6 file overriding the symplectic base")
    p.add_argument(
        "--convention",
        choices=[c.value for c in Convention],
        default=Convention.UP_TO_COMPLEMENT.value,
    )
    p.add_argument("--reference", help="reference CSV to audit against ('bundled' for the shipped table)")
    p.add_argument("--audit", help="write the audit JSON to this path")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    for name in vars(args):
        if name == "format":
            cfg.fmt = args.format
        elif name == "convention":
            cfg.convention = Convention(args.convention)
        elif name == "edge" and args.edge:
            u, v = args.edge.split(",")
            cfg.edge = (int(u), int(v))
        elif name == "seidel":
            cfg.with_seidel = args.seidel
        elif name == "equitable":
            cfg.with_equitable = args.equitable
        elif name == "input_format":
            cfg.input_format = args.input_format
        elif hasattr(cfg, name):
            setattr(cfg, name, getattr(args, name))
    return cfg


EXIT_BAD_INPUT = 2
EXIT_CONTRADICTION = 3

COMMANDS = {"analyze": cmd_analyze, "construct": cmd_construct, "census": cmd_census}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "workers", 1) < 1:
        parser.error("--workers must be >= 1")
    cfg = config_from_args(args)
    try:
        return COMMANDS[cfg.command](cfg)
    except ClassificationError as exc:
        print(f"mainspectra {cfg.command}: {exc}", file=sys.stderr)
        return EXIT_CONTRADICTION
    except (ValueError, OSError) as exc:  # Graph6Error is a ValueError
        print(f"mainspectra {cfg.command}: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
