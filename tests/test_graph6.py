import random

import networkx as nx
import pytest
from hypothesis import given

from mainspectra import (
    Graph6Error,
    complete,
    graph_from_edges,
    parse_graph6,
    parse_graph6_lines,
    write_graph6,
)
from mainspectra.graphs import star

from conftest import graphs


def test_d_brace_is_a_5_vertex_star():
    # independent oracle: networkx parse of the same string
    g = parse_graph6("D?{")
    ref = nx.from_graph6_bytes(b"D?{")
    assert g.n == ref.number_of_nodes() == 5
    assert sorted(tuple(sorted(e)) for e in g.edges()) == sorted(ref.edges())
    assert write_graph6(g) == "D?{"


def test_k1_is_at_sign():
    assert write_graph6(graph_from_edges(1, [])) == "@"
    assert parse_graph6("@").n == 1


def test_header_accepted():
    assert parse_graph6(">>graph6<<D?{").n == 5


def test_roundtrip_on_corpus(roundtrip_corpus_lines):
    assert len(roundtrip_corpus_lines) == 100
    for line in roundtrip_corpus_lines:
        assert write_graph6(parse_graph6(line)) == line


def test_corpus_agrees_with_networkx(roundtrip_corpus_lines):
    for line in roundtrip_corpus_lines:
        mine = parse_graph6(line)
        ref = nx.from_graph6_bytes(line.encode())
        assert mine.n == ref.number_of_nodes()
        assert sorted(tuple(sorted(e)) for e in mine.edges()) == sorted(
            tuple(sorted(e)) for e in ref.edges()
        )


def test_extended_size_field(monkeypatch):
    monkeypatch.setenv("MAINSPECTRA_VERTEX_CAP", "80")
    g = complete(63)
    s = write_graph6(g)
    assert s.startswith("~")
    assert parse_graph6(s) == g
    assert nx.from_graph6_bytes(s.encode()).number_of_edges() == g.edge_count()


@pytest.mark.parametrize(
    "bad",
    [
        "",  # empty
        "D?",  # truncated payload
        "D?{{",  # overlong payload
        "D?\x1f",  # byte below bias
        "~??",  # truncated extended size field
        "~???",  # extended size field encoding n < 63
        "?",  # zero vertices
    ],
)
def test_malformed_inputs_rejected(bad):
    with pytest.raises(Graph6Error):
        parse_graph6(bad)


def test_nonzero_padding_rejected():
    line = write_graph6(star(4))
    # star(4) on 4 vertices uses 6 bits exactly; build a 3-vertex case with padding
    s3 = write_graph6(graph_from_edges(3, [(0, 1)]))
    tampered = s3[:-1] + chr(((ord(s3[-1]) - 63) | 1) + 63)
    with pytest.raises(Graph6Error):
        parse_graph6(tampered)
    assert parse_graph6(line) is not None


def test_parse_lines():
    text = "@\nD?{\n\n"
    assert [g.n for g in parse_graph6_lines(text)] == [1, 5]


@given(graphs(max_n=12))
def test_roundtrip_identity(g):
    assert parse_graph6(write_graph6(g)) == g


@given(graphs(max_n=10))
def test_write_matches_networkx(g):
    ref = nx.empty_graph(g.n)
    ref.add_edges_from(g.edges())
    expected = nx.to_graph6_bytes(ref, header=False).decode().strip()
    assert write_graph6(g) == expected


def test_size_field_boundary(monkeypatch):
    monkeypatch.setenv("MAINSPECTRA_VERTEX_CAP", "70")
    g62 = complete(62)
    s62 = write_graph6(g62)
    assert not s62.startswith("~") and parse_graph6(s62) == g62
    g63 = graph_from_edges(63, [(0, 62)])
    s63 = write_graph6(g63)
    assert s63.startswith("~") and parse_graph6(s63) == g63
    assert nx.from_graph6_bytes(s63.encode()).number_of_edges() == 1


@pytest.mark.parametrize("n", [62, 63, 64, 658])
def test_roundtrip_large(n, monkeypatch):
    monkeypatch.setenv("MAINSPECTRA_VERTEX_CAP", "1024")
    rng = random.Random(n)
    pairs = [(u, v) for v in range(n) for u in range(v) if rng.random() < 0.5]
    g = graph_from_edges(n, pairs)
    s = write_graph6(g)
    assert s.startswith("~") == (n > 62)
    assert parse_graph6(s) == g
    assert write_graph6(parse_graph6(s)) == s
    ref = nx.from_graph6_bytes(s.encode())
    assert sorted(tuple(sorted(e)) for e in ref.edges()) == sorted(
        tuple(sorted(e)) for e in g.edges()
    )


def test_nonzero_padding_rejected_extended_size(monkeypatch):
    monkeypatch.setenv("MAINSPECTRA_VERTEX_CAP", "80")
    s = write_graph6(complete(63))  # 1953 bits in 326 groups: 3 padding bits
    assert s.startswith("~")
    tampered = s[:-1] + chr(((ord(s[-1]) - 63) | 1) + 63)
    with pytest.raises(Graph6Error, match="nonzero padding bits"):
        parse_graph6(tampered)
