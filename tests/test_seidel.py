

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mainspectra import (
    SeidelReport,
    char_poly,
    cycle,
    distinct_root_count,
    graph_from_edges,
    seidel_matrix,
    seidel_report,
    seidel_reports,
    srg_params,
    symplectic_graph,
)
from mainspectra.linalg import poly_mul
from mainspectra.seidel import non_main_factor, structure_skip_reason

from conftest import graphs, paley_plus_k1
from oracles import complete, non_main_factor_from_spectrum, path, poly_pow, rank_exact, switch


# -- independent strong-graph oracle ------------------------------------------


def strong_oracle(g):
    """S^2 lies in <S, I, J> iff appending S^2 to S, I, J (each flattened to
    one row of n^2 exact integers) leaves the rank unchanged."""
    n = g.n
    s = np.array(seidel_matrix(g), dtype=np.int64)
    rows = [s, np.eye(n, dtype=np.int64), np.ones((n, n), dtype=np.int64)]
    span = [m.ravel().tolist() for m in rows]
    return rank_exact(span + [(s @ s).ravel().tolist()]) == rank_exact(span)


def test_seidel_matrix_examples():
    assert seidel_matrix(complete(2)).tolist() == [[0, -1], [-1, 0]]
    empty3 = graph_from_edges(3, [])
    assert seidel_matrix(empty3).tolist() == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    assert seidel_matrix(complete(3)).tolist() == [[0, -1, -1], [-1, 0, -1], [-1, -1, 0]]


def test_switch_trivials():
    g = cycle(5)
    assert switch(g, []) == g
    assert switch(g, range(5)) == g
    assert switch(complete(2), [0]).edge_count() == 0
    with pytest.raises(ValueError):
        switch(g, [7])


def test_is_strong_examples():
    assert [r.strong for r in seidel_reports([cycle(5), complete(6), path(5)])] == [
        True, True, False
    ]


def test_strong_matches_oracle_small(all_n_le_7):
    small = [g for g in all_n_le_7 if g.n <= 5]
    assert [r.strong for r in seidel_reports(small)] == [strong_oracle(g) for g in small]


def test_seidel_report_symplectic16():
    rep = seidel_report(symplectic_graph(2))
    assert rep.regular_two_graph and rep.strong
    assert rep.spectrum == ((3, 10), (-5, 6))
    assert rep.distinct_seidel_count == 2


def test_no_float_feeds_a_decision(monkeypatch):
    # Float eigenvalues that miss every root change only the reported
    # float_spectrum: the integer Seidel spectrum, and the census structure
    # checks it enables, are decided exactly.
    from mainspectra import census_table

    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: np.zeros(m.shape[:-1]))
    assert seidel_report(symplectic_graph(2)).spectrum == ((3, 10), (-5, 6))
    table = census_table(symplectic_graph(2))
    assert table.verification["structure_checks"] == "ran"


def test_seidel_reports_match_one_graph_calls(all_n_le_7):
    # the batch groups graphs of orders 1..7 and must return them in order
    sample = all_n_le_7[::-3] + [symplectic_graph(2)] + all_n_le_7[1::40]
    reports = seidel_reports(sample)
    assert [r.to_json() for r in reports] == [seidel_report(g).to_json() for g in sample]
    assert [r.seidel_char_poly for r in reports] == [char_poly(seidel_matrix(g)) for g in sample]
    assert seidel_reports([]) == []


def test_seidel_report_c5():
    rep = seidel_report(cycle(5))
    assert rep.distinct_seidel_count == 3
    assert not rep.regular_two_graph
    assert rep.strong  # strongly regular pentagon
    assert rep.spectrum is None  # eigenvalues 0, +/- sqrt(5) do not split over Z


def test_seidel_report_p4():
    rep = seidel_report(path(4))
    assert rep.strong == strong_oracle(path(4))
    assert rep.distinct_seidel_count == len(
        {round(r, 6) for r, _ in rep.float_spectrum}
    )


def test_seidel_report_k1():
    rep = seidel_report(graph_from_edges(1, []))
    assert rep.distinct_seidel_count == 1
    assert not rep.regular_two_graph


def test_srg_params_examples():
    assert srg_params(cycle(5)) == (5, 2, 0, 1)
    from mainspectra import sp_component

    assert srg_params(sp_component(2)) == (15, 8, 4, 4)
    assert srg_params(path(4)) is None
    assert srg_params(complete(4)) == (4, 3, 2, 2)
    assert srg_params(graph_from_edges(1, [])) == (1, 0, 0, 0)
    # disconnected union of equal cliques: degenerate strongly regular, mu = 0
    two_triangles = graph_from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert srg_params(two_triangles) == (6, 2, 1, 0)
    # disconnected but not a clique union
    two_squares = graph_from_edges(
        8, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4)]
    )
    assert srg_params(two_squares) is None
    assert srg_params(cycle(6)) is None  # mu is 1 at distance 2, 0 at distance 3
    assert srg_params(graph_from_edges(3, [])) == (3, 0, 0, 0)


SP4_NON_MAIN = poly_mul(poly_pow((2, 1), 9), poly_pow((-2, 1), 5))  # (x + 2)^9 (x - 2)^5


def test_structure_of_the_sp4_class():
    rep = seidel_report(symplectic_graph(2))
    assert structure_skip_reason(rep) is None
    # Seidel spectrum 3^10, (-5)^6
    assert non_main_factor(rep) == SP4_NON_MAIN == non_main_factor_from_spectrum(rep.spectrum)
    assert non_main_factor(rep)[-2] == 8  # alpha


PETERSEN = graph_from_edges(
    10, [(i, (i + 1) % 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
)


def test_structure_of_the_petersen_class():
    rep = seidel_report(PETERSEN)
    assert structure_skip_reason(rep) is None
    assert rep.spectrum == ((3, 5), (-3, 5))
    assert non_main_factor(rep) == non_main_factor_from_spectrum(rep.spectrum)
    assert non_main_factor(rep)[-2] == 4


@pytest.mark.parametrize("q", [5, 13, 17])
def test_structure_of_conference_classes(q):
    # Seidel eigenvalues +-sqrt(q), each (q + 1)/2 times: no integral
    # spectrum, and theta_i are the roots of x^2 + x - (q - 1)/4
    rep = seidel_report(paley_plus_k1(q))
    assert rep.spectrum is None and structure_skip_reason(rep) is None
    assert non_main_factor(rep) == poly_pow((-(q - 1) // 4, 1, 1), (q - 1) // 2)
    assert non_main_factor(rep)[-2] == (q - 1) // 2


def test_non_main_factor_rejects_an_even_seidel_eigenvalue():
    # theta = -5/2 and 1/2: the self-check that no regular two-graph reaches
    rep = SeidelReport(
        n=9,
        seidel_char_poly=poly_mul(poly_pow((-4, 1), 3), poly_pow((2, 1), 6)),
        distinct_seidel_count=2,
        strong=True,
        regular_two_graph=True,
        spectrum=((4, 3), (-2, 6)),
        float_spectrum=(),
    )
    assert structure_skip_reason(rep) is None
    with pytest.raises(AssertionError, match="not algebraic integers"):
        non_main_factor(rep)


def test_sp4_census_member_carries_the_forced_factor():
    # (alpha, beta) = (8, 15): x^2 - 8x - 15 times the class's non-main factor
    base = symplectic_graph(2)
    assert non_main_factor(seidel_report(base)) == SP4_NON_MAIN
    cp = char_poly(switch(base, [0]).adjacency_matrix())
    assert cp == poly_mul((-15, -8, 1), SP4_NON_MAIN)
    assert distinct_root_count(cp) == 4


def test_structure_skip_reason_of_a_path():
    # P4's class is not a regular two-graph, so the census skips its structure checks
    assert structure_skip_reason(seidel_report(path(4))) == (
        "base is not a regular two-graph (distinct Seidel eigenvalues: 4)"
    )


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=2, max_n=8), st.integers(0, 255))
def test_switching_involution(g, bits):
    subset = [v for v in range(g.n) if (bits >> v) & 1]
    assert switch(switch(g, subset), subset) == g
    comp = [v for v in range(g.n) if v not in subset]
    assert switch(g, subset) == switch(g, comp)


@settings(max_examples=40, deadline=None)
@given(graphs(min_n=2, max_n=7), st.integers(0, 127))
def test_seidel_char_poly_switching_invariant(g, bits):
    subset = [v for v in range(g.n) if (bits >> v) & 1]
    assert char_poly(seidel_matrix(g)) == char_poly(seidel_matrix(switch(g, subset)))


def test_strong_iff_srg_or_two_seidel(all_n_le_7):
    for g, rep in zip(all_n_le_7, seidel_reports(all_n_le_7)):
        rhs = srg_params(g) is not None or rep.distinct_seidel_count == 2
        assert rep.strong == rhs, f"strong-graph biconditional fails on {g!r}"


def test_regular_two_graph_eigenvalue_product(all_n_le_7):
    for g in all_n_le_7:
        rep = seidel_report(g)
        if rep.regular_two_graph and rep.spectrum is not None:
            prod = 1
            for r, _ in rep.spectrum:
                prod *= r
            assert prod == -(g.n - 1)
