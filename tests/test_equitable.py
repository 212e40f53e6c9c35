import fractions
from fractions import Fraction

import pytest
from hypothesis import given, settings

from mainspectra import (
    analyze,
    char_poly,
    cycle,
    distinct_root_count,
    equitable_records,
    is_equitable,
    symplectic_graph,
    t_lambda_tree,
    valency_partition,
)
from mainspectra.equitable import _refine

from conftest import graphs
from oracles import path, quotient_matrix


def test_valency_partition_examples():
    t2 = t_lambda_tree(2)
    blocks = valency_partition(t2)
    assert [len(b) for b in blocks] == [3, 3, 1]
    assert blocks[2] == (0,)  # the centre has the top valency
    assert valency_partition(cycle(6)) == (tuple(range(6)),)
    assert valency_partition(path(4)) == ((0, 3), (1, 2))


def test_is_equitable_examples():
    t2 = t_lambda_tree(2)
    assert is_equitable(t2, valency_partition(t2))
    assert is_equitable(path(4), valency_partition(path(4)))
    assert not is_equitable(path(5), valency_partition(path(5)))


def test_partition_validation():
    with pytest.raises(ValueError):
        is_equitable(path(3), [(0, 1)])
    with pytest.raises(ValueError):
        is_equitable(path(3), [(0, 1), (1, 2)])
    with pytest.raises(ValueError):
        is_equitable(path(3), [(0, 1, 2), ()])


def refined(g, blocks):
    return _refine(g, blocks)[0]


def quotient_bound(g, blocks):
    """The distinct quotient eigenvalues of an equitable partition, from the
    averaged-count oracle."""
    return distinct_root_count(char_poly(quotient_matrix(g, blocks).int_matrix()))


def test_refine_p5():
    blocks = refined(path(5), valency_partition(path(5)))
    assert set(map(frozenset, blocks)) == {
        frozenset({0, 4}),
        frozenset({1, 3}),
        frozenset({2}),
    }
    assert is_equitable(path(5), blocks)


def test_refine_idempotent_and_trivial():
    p5 = path(5)
    once = refined(p5, valency_partition(p5))
    assert refined(p5, once) == once
    assert refined(cycle(6), [tuple(range(6))]) == (tuple(range(6)),)


def test_quotient_examples():
    t2 = t_lambda_tree(2)
    q = quotient_matrix(t2, valency_partition(t2))
    assert [[int(x) for x in row] for row in q.entries] == [
        [0, 1, 0],
        [1, 0, 1],
        [0, 3, 0],
    ]
    q4 = quotient_matrix(path(4), valency_partition(path(4)))
    assert [[int(x) for x in row] for row in q4.entries] == [[0, 1], [1, 1]]
    qc = quotient_matrix(cycle(4), [tuple(range(4))])
    assert qc.entries == ((Fraction(2),),)


def test_quotient_json():
    q = quotient_matrix(path(4), valency_partition(path(4)))
    assert q.to_json() == {"block_sizes": [2, 2], "entries": [[0, 1], [1, 1]]}


def test_main_bound_examples():
    t2 = t_lambda_tree(2)
    records = equitable_records([t2, path(4), cycle(4), path(5)])
    assert [r["main_bound"] for r in records] == [3, 2, 1, 3]
    assert analyze(t2).main_count == 2
    # P5's valency partition is not equitable: the bound is its refinement's
    assert [r["valency_partition_equitable"] for r in records] == [True, True, True, False]


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_quotient_edge_count_symmetry(g):
    blocks = valency_partition(g)
    q = quotient_matrix(g, blocks)
    t = len(blocks)
    for i in range(t):
        for j in range(t):
            assert q.block_sizes[i] * q.entries[i][j] == q.block_sizes[j] * q.entries[j][i]


@settings(max_examples=60, deadline=None)
@given(graphs())
def test_refinement_refines_and_is_equitable(g):
    blocks = refined(g, valency_partition(g))
    assert is_equitable(g, blocks)
    assert refined(g, blocks) == blocks
    # every refined block sits inside one valency class
    degs = {v: g.degree(v) for v in range(g.n)}
    for b in blocks:
        assert len({degs[v] for v in b}) == 1


def test_quotient_bound_on_corpus(connected_n_le_8, connected_n_le_8_reports):
    # equitable refinement of the valency partition bounds the main count
    records = equitable_records(connected_n_le_8)
    for rep, rec in zip(connected_n_le_8_reports, records, strict=True):
        assert rep.main_count <= rec["main_bound"]


def test_equitable_records_match_one_graph_calls(all_n_le_7):
    # one char_polys call over graphs of every order 1..7; the valency
    # partition is equitable exactly when refinement leaves it unchanged
    records = equitable_records(all_n_le_7)
    assert len(records) == len(all_n_le_7)
    for g, rec in zip(all_n_le_7, records):
        blocks = refined(g, valency_partition(g))
        assert rec == {
            "valency_partition_equitable": is_equitable(g, valency_partition(g)),
            "refined_blocks": [list(b) for b in blocks],
            "quotient": quotient_matrix(g, blocks).to_json(),
            "main_bound": quotient_bound(g, blocks),
        }


def test_stable_round_rows_are_the_quotient(all_n_le_7):
    # the signatures of refinement's last round against the averaged
    # counts, from the valency partition, from one block (the coarsest
    # equitable partition either way) and from the discrete partition
    for g in all_n_le_7:
        starts = (valency_partition(g), [tuple(range(g.n))], [(v,) for v in range(g.n)])
        for start in starts:
            blocks, rows = _refine(g, start)
            assert [list(row) for row in rows] == quotient_matrix(g, blocks).int_matrix()
        assert rows == [tuple(row) for row in g.adjacency_matrix()]


def test_equitable_path_builds_no_fraction(monkeypatch, all_n_le_7):
    # the quotient of an equitable partition is integral: records over a
    # chunk of mixed orders come out right with Fraction unusable
    chunk = all_n_le_7[::25] + [t_lambda_tree(3), symplectic_graph(2), path(5)]
    blocks = [refined(g, valency_partition(g)) for g in chunk]
    expected = [quotient_matrix(g, b).to_json() for g, b in zip(chunk, blocks)]

    def refuse(cls, *args, **kwargs):
        raise AssertionError("Fraction built on the equitable path")

    monkeypatch.setattr(fractions.Fraction, "__new__", refuse)
    records = equitable_records(chunk)
    monkeypatch.undo()
    assert [r["quotient"] for r in records] == expected
    assert [r["main_bound"] for r in records] == [
        quotient_bound(g, b) for g, b in zip(chunk, blocks)
    ]
