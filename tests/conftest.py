from pathlib import Path

import pytest
from hypothesis import strategies as st

from mainspectra import Graph, graph_from_edges, main_spectrum_reports, parse_graph6

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def load_corpus(name: str) -> list[Graph]:
    text = (DATA_DIR / name).read_text()
    return [parse_graph6(line) for line in text.splitlines() if line.strip()]


def paley_plus_k1(q: int) -> Graph:
    """The Paley graph on GF(q), q a prime = 1 (mod 4), plus an isolated
    vertex q: a conference two-graph's class, Seidel eigenvalues +-sqrt(q)."""
    squares = {x * x % q for x in range(1, q)}
    edges = [(u, v) for v in range(q) for u in range(v) if v - u in squares]
    return graph_from_edges(q + 1, edges)


@pytest.fixture(scope="session")
def all_n_le_7() -> list[Graph]:
    return load_corpus("all_n_le_7.g6")


@pytest.fixture(scope="session")
def connected_n_le_8() -> list[Graph]:
    return load_corpus("connected_n_le_8.g6")


@pytest.fixture(scope="session")
def connected_n_le_8_reports(connected_n_le_8):
    """The main-spectrum reports of connected_n_le_8, one batch shared by the
    tests that check the corpus against an oracle."""
    return main_spectrum_reports(connected_n_le_8)


@pytest.fixture(scope="session")
def roundtrip_corpus_lines() -> list[str]:
    text = (DATA_DIR / "graph6_roundtrip.g6").read_text()
    return [line for line in text.splitlines() if line.strip()]


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 8):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    picked = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    return graph_from_edges(n, picked)
