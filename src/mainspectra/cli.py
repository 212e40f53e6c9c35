"""Command-line front end: batch analysis, constructions, and census runs.

graph6 is the pipe-friendly default on stdin/stdout; --format json switches
to full JSON records.  Everything here is deterministic; randomized checks
live in the test suite only.

Exit status: 0 on success; 1 when analyze met unparsable lines or construct
could not build its recipe; 2 for bad arguments or input (argparse usage
errors, unreadable or malformed files, out-of-range parameters, a
MAINSPECTRA_VERTEX_CAP that is not a positive integer or exceeds
sys.maxsize, a graph that does not fit in memory, analyze --format csv
with --seidel or --equitable, census --audit without --reference, a
census base whose class is not a regular two-graph and holds a member with
more than two main eigenvalues); 3 when a census member contradicts the
structure its switching class forces; 4 when one of the program's own
self-checks fails (the walk rank and the two-walk test disagree,
char_polys' check prime disagrees, the walk-rank certificate runs out of
primes or meets four unlucky primes, a Seidel spectrum forces adjacency
eigenvalues that are not algebraic integers, a census base's Seidel
polynomial disagrees with its exact power sums, or a construction fails
its own post-validation).
Errors are reported as one line on stderr, without a traceback.
"""

from __future__ import annotations

import argparse
import json
import sys

from .census import (
    ClassificationError,
    Convention,
    bundled_reference_rows,
    census_table,
    compare_to_reference,
    load_reference_csv,
)
from .constructions import (
    BoundaryPairError,
    cone_over_regular,
    equitable_biregular_from,
    splice_chain,
    symplectic_graph,
    sp_component,
    three_valenced_boundary,
)
from .equitable import equitable_records
from .graph6 import Graph6Error, parse_graph6, write_graph6
from .graphs import Graph, degree_vector, graph_from_adjacency_text, t_lambda_tree, vertex_cap
from .seidel import seidel_reports
from .spectrum import main_spectrum_reports, two_walk_params


def _read_lines(inputs: list) -> list[str]:
    """The lines of the inputs in order, each '-' (and no input at all)
    standing for stdin."""
    lines: list[str] = []
    for name in inputs or ["-"]:
        if name == "-":
            lines.extend(sys.stdin.read().splitlines())
            continue
        with open(name) as fh:
            lines.extend(fh.read().splitlines())
    return lines


def _parse_input_graph(line: str, input_format: str) -> Graph:
    if input_format == "edges":
        return graph_from_adjacency_text(line.replace(";", "\n"))
    return parse_graph6(line)


# analyze parses, analyses and prints this many graphs at a time, so the
# batched exact kernels see whole chunks while memory stays flat.
ANALYZE_CHUNK = 64


def _print_records(graphs: list, args: argparse.Namespace, header: bool) -> None:
    reports = main_spectrum_reports(graphs)
    seidel = seidel_reports(graphs) if args.seidel else None
    equitable = equitable_records(graphs) if args.equitable else None
    if args.format == "csv" and header:
        print("n,edges,connected,regular,main_count,alpha,beta,harmonic_delta")
    for i, report in enumerate(reports):
        if args.format == "csv":
            tw = report.two_walk
            print(
                f"{report.n},{report.edges},{report.connected},{report.regular},"
                f"{report.main_count},{tw.alpha if tw else ''},{tw.beta if tw else ''},"
                f"{report.harmonic_delta if report.harmonic_delta is not None else ''}"
            )
            continue
        record = report.to_json()
        if seidel:
            record["seidel"] = seidel[i].to_json()
        if equitable:
            record["equitable"] = equitable[i]
        print(json.dumps(record))


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.format == "csv" and (args.seidel or args.equitable):
        raise ValueError("--format csv has no columns for --seidel or --equitable")
    failures = 0
    header = True
    chunk: list[Graph] = []
    for lineno, line in enumerate(_read_lines(args.inputs), start=1):
        if not line.strip():
            continue
        try:
            chunk.append(_parse_input_graph(line.strip(), args.input_format))
        except (Graph6Error, ValueError) as exc:
            print(f"line {lineno}: {exc}", file=sys.stderr)
            failures += 1
            continue
        if len(chunk) == ANALYZE_CHUNK:
            _print_records(chunk, args, header)
            header = False
            chunk = []
    if chunk:
        _print_records(chunk, args, header)
    return 1 if failures else 0


def _first_graph(lines, input_format: str, missing: str) -> Graph:
    """The graph on the first non-blank line; ValueError(missing) if none."""
    line = next((ln.strip() for ln in lines if ln.strip()), None)
    if line is None:
        raise ValueError(missing)
    return _parse_input_graph(line, input_format)


def _input_graph(args: argparse.Namespace) -> Graph:
    return _first_graph(_read_lines(args.inputs), args.input_format,
                        f"{args.recipe} needs an input graph (graph6 line)")


def _splice_chain(args: argparse.Namespace):
    res = splice_chain(_input_graph(args), args.edge, args.k)
    return res.graph, res.to_json()


# recipe -> (the parameters it reads, builder of (graph, metadata)).  Those
# left None are missing (main rejects them); they are the provenance "params".
RECIPES = {
    "t-lambda": (("lam",), lambda a: (t_lambda_tree(a.lam), {})),
    "cone": ((), lambda a: (cone_over_regular(_input_graph(a)), {})),
    "biregular": (("alpha", "beta"), lambda a: (equitable_biregular_from(a.alpha, a.beta), {})),
    "boundary3": (("alpha",), lambda a: (three_valenced_boundary(a.alpha), {})),
    "symplectic": (
        ("r", "component"),
        lambda a: ((sp_component if a.component else symplectic_graph)(a.r), {}),
    ),
    "splice-chain": (("edge", "k"), _splice_chain),
}


def cmd_construct(args: argparse.Namespace) -> int:
    params, build = RECIPES[args.recipe]
    try:
        g, meta = build(args)
    except ValueError as exc:
        record = {"recipe": args.recipe, "error": str(exc)}
        if isinstance(exc, BoundaryPairError):
            record["impossibility_certificate"] = exc.certificate.to_json()
        print(json.dumps(record), file=sys.stderr)
        return 1
    tw = two_walk_params(g)
    provenance = {
        "recipe": args.recipe,
        "params": {name: getattr(args, name) for name in params},
        "graph6": write_graph6(g),
        "n": g.n,
        "valencies": sorted(set(degree_vector(g))),
        "two_walk": tw.to_json() if tw else None,
        "metadata": meta,
    }
    if args.format == "json":
        print(json.dumps(provenance))
    else:
        print(provenance["graph6"])
    return 0


def cmd_census(args: argparse.Namespace) -> int:
    if args.audit and not args.reference:
        raise ValueError("--audit needs --reference: there is nothing to audit against")
    if args.base:
        with open(args.base) as fh:
            base = _first_graph(fh, "graph6", f"--base {args.base} holds no graph6 line")
    else:
        base = symplectic_graph(2)
    reference = None
    if args.reference == "bundled":
        reference = bundled_reference_rows()
    elif args.reference:
        with open(args.reference) as fh:
            reference = load_reference_csv(fh.read())
    table = census_table(base, args.convention, workers=args.workers)
    audit = None if reference is None else compare_to_reference(table, reference)
    if args.format == "json":
        record = table.to_json()
        if audit:
            record["audit"] = audit.to_json()
        print(json.dumps(record))
    else:
        sys.stdout.write(table.to_csv())
        if audit and not args.audit:
            print(json.dumps(audit.to_json(), indent=1), file=sys.stderr)
    if audit and args.audit:
        with open(args.audit, "w") as fh:
            json.dump(audit.to_json(), fh, indent=1)
    return 0


def _edge(text: str) -> tuple[int, int]:
    """argparse type of --edge: two vertex indices written U,V."""
    try:
        u, v = text.split(",")
        return int(u), int(v)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected U,V, got {text!r}") from None


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
    p.add_argument("recipe", choices=list(RECIPES))
    p.add_argument("inputs", nargs="*", help="input graph files where required")
    p.add_argument("--lam", type=int, help="t-lambda: tree parameter (>= 2)")
    p.add_argument("--alpha", type=int)
    p.add_argument("--beta", type=int)
    p.add_argument("--r", type=int, default=2, help="symplectic: half the dimension")
    p.add_argument("--component", action="store_true", help="symplectic: drop the zero vector")
    p.add_argument("--edge", type=_edge, help="splice-chain: U,V endpoints of the splice edge")
    p.add_argument("--k", type=int, default=1, help="splice-chain: family member index")
    p.add_argument("--input-format", choices=["graph6", "edges"], default="graph6")
    p.add_argument("--format", choices=["graph6", "json"], default="graph6")

    # without abbreviations an unknown option such as --r is a usage error, not --reference
    p = sub.add_parser("census", help="switching-class census (default: 16-vertex symplectic)",
                       allow_abbrev=False)
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


EXIT_BAD_INPUT = 2
EXIT_CONTRADICTION = 3
EXIT_SELF_CHECK = 4

COMMANDS = {"analyze": cmd_analyze, "construct": cmd_construct, "census": cmd_census}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "workers", 1) < 1:
        parser.error("--workers must be >= 1")
    if args.command == "construct":
        params, _ = RECIPES[args.recipe]
        missing = [f"--{name}" for name in params if getattr(args, name) is None]
        if missing:
            parser.error(f"construct {args.recipe} needs {' and '.join(missing)}")
    try:
        vertex_cap()  # a malformed cap is one error here, not one per input graph
        return COMMANDS[args.command](args)
    except ClassificationError as exc:
        print(f"mainspectra {args.command}: {exc}", file=sys.stderr)
        return EXIT_CONTRADICTION
    except AssertionError as exc:  # a self-check of the program's own results
        print(f"mainspectra {args.command}: self-check failed: {exc}", file=sys.stderr)
        return EXIT_SELF_CHECK
    except (ValueError, OSError) as exc:  # Graph6Error is a ValueError
        print(f"mainspectra {args.command}: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except MemoryError:  # a vertex cap that admits a graph larger than memory
        print(f"mainspectra {args.command}: out of memory", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
