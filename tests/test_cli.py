import json
import sys
from pathlib import Path

import pytest

from mainspectra import (
    analyze,
    char_poly,
    distinct_root_count,
    graph_from_edges,
    is_equitable,
    parse_graph6,
    seidel_report,
    star,
    symplectic_graph,
    t_lambda_tree,
    valency_partition,
    write_graph6,
)
from mainspectra import census, cli, constructions
from mainspectra.cli import ANALYZE_CHUNK, main
from mainspectra.equitable import _refine

from oracles import quotient_matrix

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def run_cli(capsys, argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        import io
        import sys

        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_t2(capsys, monkeypatch):
    g6 = write_graph6(t_lambda_tree(2))
    code, out, err = run_cli(capsys, ["analyze"], stdin=g6 + "\n", monkeypatch=monkeypatch)
    assert code == 0
    rec = json.loads(out.strip())
    assert rec["main_count"] == 2
    assert rec["two_walk"] == {"alpha": 2, "beta": 0}
    assert rec["harmonic_delta"] == 2


def test_analyze_regular_and_seidel(capsys, monkeypatch):
    code, out, _ = run_cli(
        capsys, ["analyze", "--seidel"], stdin="D~{\n", monkeypatch=monkeypatch
    )
    assert code == 0
    rec = json.loads(out.strip())
    assert rec["regular"] and rec["main_count"] == 1
    assert rec["seidel"]["n"] == 5


def test_analyze_malformed_line(capsys, monkeypatch):
    code, out, err = run_cli(
        capsys, ["analyze"], stdin="@\nnot graph6!!\n", monkeypatch=monkeypatch
    )
    assert code == 1
    assert "line 2" in err
    assert len(out.strip().splitlines()) == 1  # the good line still analyzed


def test_analyze_file_input(capsys, tmp_path):
    f = tmp_path / "in.g6"
    f.write_text(write_graph6(t_lambda_tree(2)) + "\n")
    code = main(["analyze", str(f), "--format", "csv"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.splitlines()[0].startswith("n,edges")


@pytest.mark.parametrize("inputs, orders", [
    (["FILE", "-"], [7, 5]),  # T(2) from the file, then C5 from stdin
    (["-", "FILE"], [5, 7]),
    (["-", "-"], [5]),  # the second '-' finds stdin at its end
])
def test_analyze_reads_stdin_for_each_dash(capsys, monkeypatch, tmp_path, inputs, orders):
    f = tmp_path / "in.g6"
    f.write_text(write_graph6(t_lambda_tree(2)) + "\n")
    argv = ["analyze", *(str(f) if name == "FILE" else name for name in inputs)]
    code, out, err = run_cli(capsys, argv, stdin="Dhc\n", monkeypatch=monkeypatch)
    assert (code, err) == (0, "")
    assert [json.loads(line)["n"] for line in out.splitlines()] == orders


def graph_by_graph_record(g):
    """An analyze --seidel --equitable record built from the one-graph calls."""
    record = analyze(g).to_json()
    record["seidel"] = seidel_report(g).to_json()
    blocks = _refine(g, valency_partition(g))[0]
    quotient = quotient_matrix(g, blocks)
    record["equitable"] = {
        "valency_partition_equitable": is_equitable(g, valency_partition(g)),
        "refined_blocks": [list(b) for b in blocks],
        "quotient": quotient.to_json(),
        "main_bound": distinct_root_count(char_poly(quotient.int_matrix())),
    }
    return json.dumps(record)


def test_analyze_across_chunk_boundaries(capsys, tmp_path):
    lines = (DATA_DIR / "all_n_le_7.g6").read_text().splitlines()
    assert len(lines) == 1252 and ANALYZE_CHUNK == 64
    graphs = [parse_graph6(line) for line in lines]
    # file lines 63 and 65 blank, 64 malformed, and a malformed last line:
    # the first chunk closes on file line 66
    text = lines[:62] + ["", "D?{{", ""] + lines[62:] + ["not graph6!!"]
    path = tmp_path / "in.g6"
    path.write_text("\n".join(text) + "\n")
    code, out, err = run_cli(capsys, ["analyze", "--seidel", "--equitable", str(path)])
    assert code == 1
    assert err.splitlines() == [
        "line 64: payload length 3 != expected 2 for n=5",
        f"line {len(text)}: payload length 11 != expected 181 for n=47",
    ]
    assert out.splitlines() == [graph_by_graph_record(g) for g in graphs]


@pytest.mark.parametrize("flag", ["--seidel", "--equitable"])
def test_analyze_csv_refuses_report_flags(capsys, tmp_path, flag):
    f = tmp_path / "in.g6"
    f.write_text(write_graph6(t_lambda_tree(2)) + "\n")
    err = _one_line_error(capsys, ["analyze", str(f), "--format", "csv", flag], 2)
    assert "--format csv" in err


def test_construct_biregular(capsys):
    code = main(["construct", "biregular", "--alpha", "8", "--beta", "-9"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    g = parse_graph6(out)
    from mainspectra import degree_vector

    assert sorted(set(degree_vector(g))) == [5, 11]


def test_construct_biregular_boundary_error(capsys):
    code = main(["construct", "biregular", "--alpha", "2", "--beta", "0"])
    captured = capsys.readouterr()
    assert code == 1
    rec = json.loads(captured.err.strip())
    assert rec["impossibility_certificate"]["row_sums_equal"] is True


def test_construct_symplectic(capsys):
    code = main(["construct", "symplectic", "--r", "2"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    assert parse_graph6(out).n == 16


def test_construct_t_lambda_json(capsys):
    code = main(["construct", "t-lambda", "--lam", "3", "--format", "json"])
    rec = json.loads(capsys.readouterr().out)
    assert code == 0
    assert rec["two_walk"] == {"alpha": 3, "beta": 0}
    assert rec["n"] == 22


def test_construct_splice_chain(capsys, tmp_path):
    from mainspectra import cone_over_regular, cycle

    seed = tmp_path / "cone.g6"
    seed.write_text(write_graph6(cone_over_regular(cycle(4))) + "\n")
    code = main(
        ["construct", "splice-chain", str(seed), "--edge", "4,0", "--k", "3", "--format", "json"]
    )
    rec = json.loads(capsys.readouterr().out)
    assert code == 0
    assert rec["n"] == 15
    assert rec["two_walk"] == {"alpha": 2, "beta": 4}
    assert len(rec["metadata"]["splice_log"]) == 2


@pytest.mark.parametrize("edge", ["0,9", "-1,0", "0,-1"])
def test_construct_splice_chain_rejects_an_out_of_range_edge(capsys, tmp_path, edge):
    seed = tmp_path / "c5.g6"
    seed.write_text("Dhc\n")  # the 5-cycle
    code = main(["construct", "splice-chain", str(seed), f"--edge={edge}", "--k", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == "" and "Traceback" not in captured.err
    rec = json.loads(captured.err)
    assert rec["recipe"] == "splice-chain" and "outside 0..4" in rec["error"]


@pytest.mark.parametrize(
    "argv, n",
    [
        (["t-lambda", "--lam", "1000000"], 1 + (10**12 - 10**6 + 1) * 10**6),
        (["biregular", "--alpha", "0", "--beta", str(10**9)], 10**9 + 1),  # a star
        # blocks of 5*10^8 + 1 and (5*10^8 + 1) * 25*10^16 vertices
        (
            ["biregular", "--alpha", str(10**9), "--beta", "0"],
            (5 * 10**8 + 1) * (25 * 10**16 + 1),
        ),
        (["boundary3", "--alpha", str(10**9)], 7 * 5 * 10**8),
        (["symplectic", "--r", str(10**12)], f"4^{10**12}"),  # 4^r would not fit in memory
        (["symplectic", "--r", "7"], 16384),
        (["symplectic", "--r", "40"], 2**80),
    ],
)
def test_construct_checks_the_vertex_count_first(capsys, argv, n):
    code = main(["construct", *argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    rec = json.loads(captured.err)
    assert rec["recipe"] == argv[0]
    assert rec["error"].startswith(f"vertex count {n} outside 1..")


def test_analyze_edges_checks_the_vertex_count_first(capsys, monkeypatch):
    # a first line of 2^62 must be refused before any row is allocated
    code, out, err = run_cli(
        capsys,
        ["analyze", "--input-format", "edges"],
        stdin=f"{2**62};0 1\n",
        monkeypatch=monkeypatch,
    )
    assert code == 1 and out == ""
    assert err.startswith("line 1: vertex count 4611686018427387904 outside 1..")
    assert "Traceback" not in err and len(err.splitlines()) == 1


def test_census_small_base(capsys, tmp_path):
    base = tmp_path / "base.g6"
    base.write_text("C~\n")  # K4
    code = main(["census", "--base", str(base)])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "alpha,beta,mu0,mu1,valencies,count,connected"
    assert any('"0^1,2^3"' in ln and ",4," in ln for ln in lines)


def test_census_workers_identical_output(capsys, tmp_path):
    base = tmp_path / "base.g6"
    base.write_text("C~\n")
    outs = []
    for w in ("1", "2"):
        code = main(["census", "--base", str(base), "--workers", w])
        outs.append(capsys.readouterr().out)
        assert code == 0
    assert outs[0] == outs[1]


def test_census_audit_file(capsys, tmp_path):
    audit_path = tmp_path / "audit.json"
    code = main(
        ["census", "--reference", "bundled", "--audit", str(audit_path)]
    )
    capsys.readouterr()
    assert code == 0
    audit = json.loads(audit_path.read_text())
    assert audit["totals"]["verdict_match"] == 30


def test_workers_validation():
    with pytest.raises(SystemExit) as exc:
        main(["census", "--workers", "0"])
    assert exc.value.code == 2


def test_census_json_reports_verification(capsys, tmp_path):
    base = tmp_path / "base.g6"
    base.write_text("C~\n")  # K4
    code = main(["census", "--base", str(base), "--format", "json"])
    rec = json.loads(capsys.readouterr().out)
    assert code == 0
    assert rec["verification"] == {
        "seidel_members_checked": 8,
        "structure_checks": "skipped",
        "structure_skip_reason": "trivial regular two-graph (a simple Seidel eigenvalue)",
    }


# P4, K1,3, C4 and t_2(2): the report lines of analyze, key order included
SHAPE_GRAPH6 = "Ch\nCF\nCr\nFsO__\n"
SHAPE_JSON = [
    '{"n": 4, "edges": 3, "connected": true, "regular": false, "main_count": 2, '
    '"two_walk": {"alpha": 1, "beta": 1}, "harmonic_delta": null, "main_values": '
    '{"alpha": 1, "beta": 1, "mu0": "(1+sqrt(5))/2", "mu1": "(1-sqrt(5))/2", '
    '"mu0_float": 1.618033988749895, "mu1_float": -0.6180339887498949}, '
    '"spectral_radius": 1.6180339887498951}',
    '{"n": 4, "edges": 3, "connected": true, "regular": false, "main_count": 2, '
    '"two_walk": {"alpha": 0, "beta": 3}, "harmonic_delta": null, "main_values": '
    '{"alpha": 0, "beta": 3, "mu0": "0+sqrt(3)", "mu1": "0-sqrt(3)", '
    '"mu0_float": 1.7320508075688772, "mu1_float": -1.7320508075688772}, '
    '"spectral_radius": 1.7320508075688772}',
    '{"n": 4, "edges": 4, "connected": true, "regular": true, "main_count": 1, '
    '"two_walk": null, "harmonic_delta": 2, "main_values": null, "spectral_radius": 2.0}',
    '{"n": 7, "edges": 6, "connected": true, "regular": false, "main_count": 2, '
    '"two_walk": {"alpha": 2, "beta": 0}, "harmonic_delta": 2, "main_values": '
    '{"alpha": 2, "beta": 0, "mu0": "2", "mu1": "0", "mu0_float": 2.0, "mu1_float": 0.0}, '
    '"spectral_radius": 2.0000000000000004}',
]
SHAPE_CSV = [
    "n,edges,connected,regular,main_count,alpha,beta,harmonic_delta",
    "4,3,True,False,2,1,1,",
    "4,3,True,False,2,0,3,",
    "4,4,True,True,1,,,2",
    "7,6,True,False,2,2,0,2",
]
SP4_ROW = (
    '{"kind": "nonregular", "alpha": "8", "beta": "-5", "main_values": '
    '{"alpha": 8, "beta": -5, "mu0": "4+sqrt(11)", "mu1": "4-sqrt(11)", '
    '"mu0_float": 7.3166247903554, "mu1_float": 0.6833752096446002}, '
    '"valencies": "3^1,5^3,7^8,9^4", "connected": true, "count": 2880, '
    '"representative_subset": 11}'
)


@pytest.mark.parametrize("fmt, lines", [("json", SHAPE_JSON), ("csv", SHAPE_CSV)])
def test_analyze_output_shape(capsys, tmp_path, fmt, lines):
    inputs = tmp_path / "shape.g6"
    inputs.write_text(SHAPE_GRAPH6)
    code = main(["analyze", "--format", fmt, str(inputs)])
    assert code == 0
    assert capsys.readouterr().out.splitlines() == lines


def test_census_json_row_shape(capsys):
    assert main(["census", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out.count(SP4_ROW) == 1


def _one_line_error(capsys, argv, code):
    assert main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert len(captured.err.splitlines()) == 1
    return captured.err


@pytest.mark.parametrize(
    "text, message",
    [(write_graph6(graph_from_edges(25, [])) + "\n", "n=25 > 24"), (None, "No such file")],
    ids=["over-24", "missing"],
)
def test_census_bad_input_exits_2(capsys, tmp_path, text, message):
    base = tmp_path / "base.g6"
    if text is not None:
        base.write_text(text)
    assert message in _one_line_error(capsys, ["census", "--base", str(base)], 2)


def test_census_has_no_r_option(capsys):
    # the base is --base or the default Sp(4); --r is no prefix of --reference
    with pytest.raises(SystemExit) as exc:
        main(["census", "--r", "2"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: mainspectra") and "unrecognized arguments: --r 2" in err


def test_census_audit_without_reference_exits_2(capsys, tmp_path):
    audit = tmp_path / "audit.json"
    err = _one_line_error(capsys, ["census", "--audit", str(audit)], 2)
    assert "--audit needs --reference" in err
    assert not audit.exists()


def test_census_base_skips_leading_blank_lines(capsys, tmp_path):
    plain, padded = tmp_path / "plain.g6", tmp_path / "padded.g6"
    plain.write_text("Ehc?\n")  # C5 plus an isolated vertex
    padded.write_text("\n  \nEhc?\n")
    outs = []
    for base in (plain, padded):
        assert main(["census", "--base", str(base)]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1] != ""


# a malformed cap -> what it must be; no list holds more than sys.maxsize rows
MALFORMED_CAPS = {"abc": "a positive integer", "0": "a positive integer",
                  str(10**30): f"at most {sys.maxsize}"}


@pytest.mark.parametrize("cap", list(MALFORMED_CAPS))
@pytest.mark.parametrize(
    "argv",
    [["analyze"], ["construct", "t-lambda", "--lam", "2", "--format", "json"],
     ["census"]],
    ids=["analyze", "construct", "census"],
)
def test_malformed_vertex_cap_is_one_error(capsys, monkeypatch, cap, argv):
    # one line naming the variable and exit 2, not one error per input graph
    monkeypatch.setenv("MAINSPECTRA_VERTEX_CAP", cap)
    code, out, err = run_cli(capsys, argv, stdin="Dhc\nDhc\n", monkeypatch=monkeypatch)
    assert (code, out) == (2, "")
    assert err == (f"mainspectra {argv[0]}: MAINSPECTRA_VERTEX_CAP must be "
                   f"{MALFORMED_CAPS[cap]}, got {cap!r}\n")


@pytest.mark.parametrize(
    "argv", [["construct", "symplectic", "--r", "20"], ["census"]],
    ids=["construct", "census"],
)
def test_out_of_memory_is_one_error(capsys, monkeypatch, argv):
    # a cap that admits a graph larger than memory: one line and exit 2
    def too_large(r):
        raise MemoryError

    monkeypatch.setattr(cli, "symplectic_graph", too_large)
    err = _one_line_error(capsys, argv, 2)
    assert err == f"mainspectra {argv[0]}: out of memory\n"


def test_census_malformed_base_exits_2(capsys, tmp_path):
    empty = tmp_path / "empty.g6"
    empty.write_text("")
    assert "graph6" in _one_line_error(capsys, ["census", "--base", str(empty)], 2)


def test_census_contradiction_exits_3(capsys, monkeypatch, tmp_path):
    # K4's class is a (trivial) regular two-graph, where every member has at
    # most two main eigenvalues; the kernel is made to flag one that has more
    keys = census._BlockKernel.keys

    def flagged(self, adj):
        out, no_two_walk = keys(self, adj)
        no_two_walk[1] = True
        return out, no_two_walk

    monkeypatch.setattr(census._BlockKernel, "keys", flagged)
    base = tmp_path / "k4.g6"
    base.write_text("C~\n")
    err = _one_line_error(capsys, ["census", "--base", str(base)], 3)
    assert "at subset 1 without two-walk parameters" in err


def test_census_base_that_is_not_a_regular_two_graph_exits_2(capsys, tmp_path):
    base = tmp_path / "p4.g6"
    base.write_text("Ch\n")  # the 4-path: 4 distinct Seidel eigenvalues
    err = _one_line_error(capsys, ["census", "--base", str(base)], 2)
    assert err == (
        "mainspectra census: member at subset 1 has more than two main eigenvalues, and no "
        "census row holds such a member (base is not a regular two-graph)\n"
    )


SELF_CHECK_FAULTS = [
    # (module, name, stand-in, analyze flags, input graph, message)
    ("spectrum", "_walk_ranks", lambda a: [3] * len(a), [], star(4),
     "walk rank and two-walk test disagree"),
    ("spectrum", "primes_below", lambda top: iter([2]), [], star(4),
     "walk rank certificate ran out of primes"),
    # rank 2 with a lift whose bound passes (2D)^2 = 36: the floor rises to
    # 3, which no prime reaches
    ("spectrum", "_walk_dependencies",
     lambda a, q: ([2] * len(a), [[q // 2, q // 2, 1]] * len(a)), [], star(4),
     "walk rank certificate met 4 unlucky primes"),
    ("linalg", "_coefficient_bound", lambda stack: 1, ["--seidel"], symplectic_graph(2),
     "check prime disagrees"),
]


@pytest.mark.parametrize(
    "module, name, fake, flags, graph, message", SELF_CHECK_FAULTS,
    ids=["walk-rank", "primes", "unlucky-primes", "check-prime"],
)
def test_failed_self_check_exits_4(capsys, tmp_path, monkeypatch, module, name, fake, flags,
                                   graph, message):
    from importlib import import_module

    monkeypatch.setattr(import_module(f"mainspectra.{module}"), name, fake)
    path = tmp_path / "g.g6"
    path.write_text(write_graph6(graph) + "\n")
    err = _one_line_error(capsys, ["analyze", *flags, str(path)], cli.EXIT_SELF_CHECK)
    assert cli.EXIT_SELF_CHECK == 4
    assert err.startswith("mainspectra analyze: self-check failed: ") and message in err


def test_census_base_polynomial_self_check_exits_4(capsys, monkeypatch, tmp_path):
    # a wrong constant term changes p_n alone among the base's power sums
    base = tmp_path / "k1_k3.g6"
    base.write_text("CJ\n")  # K1 + K3, the Sp(2) graph
    report = census.seidel_report

    def wrong_polynomial(g):
        rep = report(g)
        rep.seidel_char_poly = (rep.seidel_char_poly[0] + 1, *rep.seidel_char_poly[1:])
        return rep

    monkeypatch.setattr(census, "seidel_report", wrong_polynomial)
    err = _one_line_error(capsys, ["census", "--base", str(base)], cli.EXIT_SELF_CHECK)
    assert err == (
        "mainspectra census: self-check failed: base's Seidel characteristic polynomial "
        "disagrees with its power sum p_4\n"
    )


def test_failed_construction_check_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(constructions, "two_walk_params", lambda g: None)
    err = _one_line_error(capsys, ["construct", "biregular", "--alpha", "1", "--beta", "1"],
                          cli.EXIT_SELF_CHECK)
    assert err == ("mainspectra construct: self-check failed: "
                   "(1, 1) realization has parameters None\n")


HEADER = "alpha,beta,mu0,mu1,valencies,count\n"
MALFORMED_REFERENCES = [
    ("alpha,beta,mu1,valencies,count\n8,-9,4-sqrt(7),\"3^1,5^3,7^12\",240\n",
     "reference CSV line 1: no column mu0"),
    (HEADER + "8,-9,4+sqrt(7)\n", "reference CSV line 2: expected 6 fields, like the header"),
    (HEADER + "8,-9,4+sqrt(7),4-sqrt(7),5^1,1,1\n",
     "reference CSV line 2: expected 6 fields, like the header"),
    (HEADER + "8,-9,4+sqrt(7),4-sqrt(7),\"3^1,5^3,7^12\",240\n8,-9,4+sqrt(7),4-sqrt(7),5,1\n",
     "reference CSV line 3: value does not parse (valencies '5': expected DEGREE^COUNT items)"),
    (HEADER + "1/0,-9,4+sqrt(7),4-sqrt(7),5^1,1\n",
     "reference CSV line 2: value does not parse (Fraction(1, 0))"),
    (HEADER + "8,-9,4+sqrt(7),4-sqrt(7),\"3^1,3^2\",1\n",
     "reference CSV line 2: value does not parse (valencies '3^1,3^2': degree 3 repeated)"),
    (HEADER + "8,-9,4+sqrt(7),4-sqrt(7),\"3^0,5^16\",1\n",
     "reference CSV line 2: value does not parse "
     "(valencies '3^0,5^16': 3^0 needs degree >= 0, count >= 1)"),
    (HEADER + "8,-9,4+sqrt(7),4-sqrt(7),5^-1,1\n",
     "reference CSV line 2: value does not parse "
     "(valencies '5^-1': 5^-1 needs degree >= 0, count >= 1)"),
    (HEADER + "8,-9,4+sqrt(7),4-sqrt(7),-5^1,1\n",
     "reference CSV line 2: value does not parse "
     "(valencies '-5^1': -5^1 needs degree >= 0, count >= 1)"),
    (HEADER + "8,-9,4+sqrt(7),4-sqrt(7),5^1,-5\n", "reference CSV line 2: count -5 is below 1"),
    # the same key with the valency items in another order is the same row
    (HEADER + "8,-9,4+sqrt(7),4-sqrt(7),\"3^1,5^3\",240\n8,0,8,0,5^1,1\n"
     "8,-9,4+sqrt(7),4-sqrt(7),\"5^3,3^1\",7\n",
     "reference CSV line 4: repeats the alpha, beta, valencies of line 2"),
]


@pytest.mark.parametrize(
    "text, message", MALFORMED_REFERENCES,
    ids=["column", "short", "long", "value", "zero", "repeated-degree", "zero-count",
         "negative-count", "negative-degree", "row-count", "duplicate-row"],
)
def test_census_malformed_reference_exits_2(capsys, tmp_path, text, message):
    reference = tmp_path / "reference.csv"
    reference.write_text(text)
    err = _one_line_error(capsys, ["census", "--reference", str(reference)], 2)
    assert err == f"mainspectra census: {message}\n"


def test_census_reads_the_reference_first(capsys, tmp_path, monkeypatch):
    def no_census(*args, **kwargs):
        raise AssertionError("the census ran before the reference was read")

    monkeypatch.setattr(cli, "census_table", no_census)
    text, message = MALFORMED_REFERENCES[0]
    reference = tmp_path / "reference.csv"
    reference.write_text(text)
    err = _one_line_error(capsys, ["census", "--reference", str(reference)], 2)
    assert err == f"mainspectra census: {message}\n"
    missing = str(tmp_path / "missing.csv")
    assert "No such file" in _one_line_error(capsys, ["census", "--reference", missing], 2)


def test_analyze_graph6_obeys_the_vertex_cap(capsys, monkeypatch):
    monkeypatch.setenv("MAINSPECTRA_VERTEX_CAP", "1024")
    big = write_graph6(graph_from_edges(129, [(0, 1)]))
    monkeypatch.delenv("MAINSPECTRA_VERTEX_CAP")
    code, out, err = run_cli(capsys, ["analyze"], stdin=f"{big}\nDhc\n", monkeypatch=monkeypatch)
    assert code == 1
    assert [json.loads(line)["n"] for line in out.splitlines()] == [5]
    assert err == "line 1: vertex count 129 outside 1..128 (set MAINSPECTRA_VERTEX_CAP to " \
        "raise the cap)\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "t-lambda"],
        ["construct", "biregular", "--alpha", "3"],
        ["construct", "biregular", "--beta", "3"],
        ["construct", "boundary3"],
        ["construct", "splice-chain", "--edge", "1"],
        ["construct", "splice-chain", "--edge", "a,b"],
    ],
)
def test_construct_bad_arguments_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "Traceback" not in capsys.readouterr().err
