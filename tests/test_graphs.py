import math

import pytest
from hypothesis import given

from mainspectra import (
    cone,
    cycle,
    degree_vector,
    graph_from_adjacency_text,
    graph_from_edges,
    induced_subgraph,
    is_connected,
    star,
    t_lambda_tree,
)
from mainspectra.graphs import CAP_ENV_VAR, Graph

from conftest import graphs
from oracles import circulant, complete, diameter, path, relabel


def test_graph_from_edges_p3():
    g = graph_from_edges(3, [(0, 1), (1, 2)])
    assert degree_vector(g) == (1, 2, 1)
    assert g.edges() == [(0, 1), (1, 2)]


def test_graph_from_edges_k1_and_c4():
    assert graph_from_edges(1, []).n == 1
    c4 = graph_from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert degree_vector(c4) == (2, 2, 2, 2)
    assert c4 == cycle(4)


def test_graph_from_edges_duplicates_collapse():
    g = graph_from_edges(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count() == 1


@pytest.mark.parametrize("edges", [[(0, 0)], [(0, 3)], [(-1, 0)]])
def test_graph_from_edges_rejects(edges):
    with pytest.raises(ValueError):
        graph_from_edges(3, edges)


def test_vertex_cap_env_override(monkeypatch):
    with pytest.raises(ValueError, match=CAP_ENV_VAR):
        complete(200)
    monkeypatch.setenv(CAP_ENV_VAR, "256")
    assert complete(200).n == 200


def test_degree_vector_t2():
    degs = sorted(degree_vector(t_lambda_tree(2)), reverse=True)
    assert degs == [3, 2, 2, 2, 1, 1, 1]


@pytest.mark.parametrize("n", [3, 5, 8])
def test_cycle_degrees(n):
    assert set(degree_vector(cycle(n))) == {2}


def test_connectivity_and_diameter():
    assert is_connected(path(3)) and diameter(path(3)) == 2
    two_isolated = graph_from_edges(2, [])
    assert not is_connected(two_isolated)
    assert diameter(two_isolated) == math.inf
    assert diameter(cycle(6)) == 3


def test_cone_over_c4():
    g = cone(cycle(4))
    assert g.degree(4) == 4
    assert [g.degree(v) for v in range(4)] == [3, 3, 3, 3]


def test_cone_two_valencies_property():
    # cone over a k-regular graph on n vertices has valencies {n, k+1} when distinct
    g = cone(cycle(5))
    assert sorted(set(degree_vector(g))) == [3, 5]


def test_circulant_c5():
    assert circulant(5, {1}) == cycle(5)
    with pytest.raises(ValueError):
        circulant(5, {3})


def test_t_lambda_vertex_count():
    for lam in (2, 3, 4):
        c = lam * lam - lam + 1
        g = t_lambda_tree(lam)
        assert g.n == 1 + c * lam
        assert g.degree(0) == c
    with pytest.raises(ValueError):
        t_lambda_tree(1)


def test_star_and_complete():
    assert degree_vector(star(4)) == (3, 1, 1, 1)
    assert set(degree_vector(complete(5))) == {4}


def test_relabel_preserves_structure():
    g = path(4)
    h = relabel(g, [3, 2, 1, 0])
    assert sorted(degree_vector(h)) == sorted(degree_vector(g))
    assert h == relabel(relabel(g, [3, 2, 1, 0]), [0, 1, 2, 3])


def test_induced_subgraph():
    g = cone(cycle(4))
    assert induced_subgraph(g, range(4)) == cycle(4)


def test_adjacency_text():
    g = graph_from_adjacency_text("3\n0 1\n1 2\n")
    assert g == path(3)


def test_constructor_rejects_asymmetric_rows():
    with pytest.raises(ValueError):
        Graph(2, (1 << 1, 0))


@given(graphs())
def test_degree_sum_is_twice_edges(g):
    assert sum(degree_vector(g)) == 2 * g.edge_count()


@given(graphs(min_n=2))
def test_diameter_at_least_one_bit(g):
    d = diameter(g)
    assert d == math.inf or d >= (1 if g.edge_count() else 0)


@pytest.mark.parametrize(
    "build", [complete, cycle, star, path, lambda n: circulant(n, [1])],
    ids=["complete", "cycle", "star", "path", "circulant"],
)
def test_builders_check_the_vertex_count_first(build):
    # refused before the edge list of 10^12 vertices is built
    with pytest.raises(ValueError, match=f"vertex count {10**12} outside 1.."):
        build(10**12)
