from fractions import Fraction

import pytest

from mainspectra import (
    BoundaryPairError,
    SpliceError,
    analyze,
    boundary_impossibility,
    cone_over_regular,
    cycle,
    degree_vector,
    equitable_biregular_from,
    graph_from_edges,
    is_connected,
    is_equitable,
    parse_graph6,
    sp_component,
    splice,
    splice_chain,
    srg_params,
    star,
    symplectic_graph,
    three_valenced_boundary,
    two_walk_params,
    valency_partition,
)
from mainspectra.constructions import quotient_for
from mainspectra.spectrum import TwoWalkParams

from oracles import biregular_block_sizes, classify_member, complete, diameter, quotient_matrix


def tw(alpha, beta):
    return TwoWalkParams(Fraction(alpha), Fraction(beta))


# -- symplectic ----------------------------------------------------------------


def test_symplectic_r1():
    g = symplectic_graph(1)
    assert g.n == 4
    assert g.degree(0) == 0
    assert srg_params(sp_component(1)) == (3, 2, 1, 1)


def test_symplectic_r2():
    g = symplectic_graph(2)
    assert g.n == 16 and g.degree(0) == 0
    assert sorted(set(degree_vector(g))) == [0, 8]
    assert srg_params(sp_component(2)) == (15, 8, 4, 4)


def test_symplectic_rejects():
    with pytest.raises(ValueError):
        symplectic_graph(0)
    with pytest.raises(ValueError):
        symplectic_graph(4)  # 256 vertices exceeds the default cap


def test_symplectic_names_a_huge_vertex_count():
    # 4^r is named in the error rather than computed or built
    with pytest.raises(ValueError, match=r"^vertex count 4\^1000000000000 outside 1\.\."):
        symplectic_graph(10**12)


# -- cones ----------------------------------------------------------------------


def test_cone_over_c4():
    g = cone_over_regular(cycle(4))
    assert two_walk_params(g) == tw(2, 4)
    assert analyze(g).main_count == 2
    assert is_equitable(g, valency_partition(g))


def test_cone_over_complete_is_complete():
    g = cone_over_regular(complete(4))
    assert g == complete(5)
    assert analyze(g).harmonic_delta == 4


def test_cone_over_matching():
    two_k2 = graph_from_edges(4, [(0, 1), (2, 3)])
    g = cone_over_regular(two_k2)
    assert two_walk_params(g) == tw(1, 4)


def test_cone_rejects_nonregular():
    with pytest.raises(ValueError):
        cone_over_regular(star(4))


# -- equitable biregular --------------------------------------------------------


def test_quotient_for_examples():
    assert quotient_for(1, 1) == ((0, 1), (1, 1))
    assert quotient_for(0, 3) == ((0, 1), (3, 0))
    assert quotient_for(8, -9) == ((4, 1), (7, 4))


def test_biregular_1_1_is_p4_shaped():
    g = equitable_biregular_from(1, 1)
    assert g.n == 4
    assert sorted(degree_vector(g)) == [1, 1, 2, 2]
    assert two_walk_params(g) == tw(1, 1)


def test_biregular_star_cases():
    for beta in (2, 3, 7):
        g = equitable_biregular_from(0, beta)
        assert sorted(set(degree_vector(g))) == [1, beta]
        assert two_walk_params(g) == tw(0, beta)


def test_biregular_8_minus9():
    g = equitable_biregular_from(8, -9)
    assert sorted(set(degree_vector(g))) == [5, 11]
    assert two_walk_params(g) == tw(8, -9)


def test_biregular_order_matches_the_block_size_search(monkeypatch):
    # every feasible pair with alpha <= 12 and beta < 8; the largest has
    # n2 = 8 (q22 = 6) and q21 = 43
    monkeypatch.setenv("MAINSPECTRA_VERTEX_CAP", "512")
    stepped = 0
    for alpha in range(13):
        for beta in range(-(alpha * alpha) // 4, 8):
            if alpha * alpha + 4 * beta > 4:
                n1, n2 = biregular_block_sizes(alpha, beta)
                assert equitable_biregular_from(alpha, beta).n == n1 + n2, (alpha, beta)
                stepped += n2 == quotient_for(alpha, beta)[1][1] + 2
    assert stepped > 0


def test_biregular_rejects_boundary_and_below():
    with pytest.raises(ValueError, match="boundary"):
        equitable_biregular_from(2, 0)
    with pytest.raises(ValueError):
        equitable_biregular_from(1, 0)
    with pytest.raises(ValueError):
        equitable_biregular_from(-1, 5)


# -- boundary -------------------------------------------------------------------


def test_boundary_certificates():
    cert = boundary_impossibility(2, 0)
    assert cert.quotient == ((1, 1), (1, 1))
    assert cert.row_sums == (2, 2) and cert.row_sums_equal and cert.verify()
    cert = boundary_impossibility(4, -3)
    assert cert.quotient == ((2, 1), (1, 2))
    with pytest.raises(ValueError):
        boundary_impossibility(3, 1)


@pytest.mark.parametrize("alpha, beta", [(2, 0), (4, -3), (0, 1)])
def test_boundary_pair_error_carries_the_certificate(alpha, beta):
    with pytest.raises(BoundaryPairError, match=rf"^boundary pair \({alpha}, {beta}\)") as info:
        equitable_biregular_from(alpha, beta)
    assert info.value.certificate == boundary_impossibility(alpha, beta)


def test_three_valenced_boundary_alpha4():
    g = three_valenced_boundary(4)
    assert two_walk_params(g) == tw(4, -3)
    blocks = valency_partition(g)
    assert len(blocks) == 3 and is_equitable(g, blocks)
    q = quotient_matrix(g, blocks)
    assert [[int(x) for x in row] for row in q.entries] == [
        [1, 1, 0],
        [1, 1, 1],
        [0, 3, 1],
    ]


def test_three_valenced_boundary_alpha6():
    g = three_valenced_boundary(6)
    assert two_walk_params(g) == tw(6, -8)


def test_three_valenced_rejects():
    with pytest.raises(ValueError):
        three_valenced_boundary(3)
    with pytest.raises(ValueError):
        three_valenced_boundary(2)


# -- splice ---------------------------------------------------------------------


def cone_c4():
    return cone_over_regular(cycle(4))


def test_splice_double_cone():
    g = cone_c4()
    out = splice(g, (4, 0), g, (4, 0))
    assert out.n == 10
    assert two_walk_params(out) == tw(2, 4)
    assert sorted(degree_vector(out)) == sorted(degree_vector(g) * 2)
    assert is_connected(out)


def test_splice_rejects_bridge():
    with pytest.raises(SpliceError, match="disconnects"):
        splice(star(4), (0, 1), star(4), (0, 1))


def test_splice_rejects_out_of_range_endpoints():
    g = cone_c4()
    for edge in ((0, 9), (9, 0), (-1, 4), (4, -1)):
        with pytest.raises(SpliceError, match=r"endpoint outside 0\.\.4"):
            splice(g, (4, 0), g, edge)
        with pytest.raises(SpliceError, match=r"endpoint outside 0\.\.4"):
            splice_chain(g, edge, 2)


def test_splice_rejects_degree_mismatch():
    g = cone_c4()
    with pytest.raises(SpliceError, match="degree mismatch"):
        splice(g, (4, 0), g, (0, 1))


def test_splice_rejects_parameter_mismatch():
    # rim-rim edges have degrees (3, 3) in both cones, but (2, 4) vs (2, 6)
    g = cone_over_regular(cycle(4))
    h = cone_over_regular(cycle(6))
    assert two_walk_params(h) == tw(2, 6)
    with pytest.raises(SpliceError, match="parameter mismatch"):
        splice(g, (0, 1), h, (0, 1))


def test_splice_rejects_regular_inputs():
    with pytest.raises(SpliceError, match="non-regular"):
        splice(cycle(5), (0, 1), cycle(5), (0, 1))


def test_splice_chain_members():
    g = cone_c4()
    res1 = splice_chain(g, (4, 0), 1)
    assert res1.graph == g and res1.designated_edge == (4, 0)
    res3 = splice_chain(g, (4, 0), 3)
    assert res3.graph.n == 15
    assert two_walk_params(res3.graph) == tw(2, 4)
    assert len(res3.splice_log) == 2


def test_splice_chain_falls_back_to_the_cross_edge():
    # the diamond K4 - e: its one (3, 3) edge is the middle edge, which each
    # step removes from the new copy, so each step falls back
    g = parse_graph6("C^")
    res = splice_chain(g, (2, 3), 3)
    assert res.designated_edge == (10, 3)
    assert res.splice_log == (
        ((2, 3), (6, 7), ((2, 7), (3, 6))),
        ((6, 3), (10, 11), ((6, 11), (3, 10))),
    )
    assert is_connected(res.graph)
    assert sorted(degree_vector(res.graph)) == sorted(degree_vector(g) * 3)
    assert two_walk_params(res.graph) == tw(1, 4)


def test_splice_chain_diameters_increase():
    g = cone_c4()
    diams = [diameter(splice_chain(g, (4, 0), k).graph) for k in range(1, 5)]
    assert all(b > a for a, b in zip(diams, diams[1:]))
    maxdegs = {max(degree_vector(splice_chain(g, (4, 0), k).graph)) for k in range(1, 5)}
    assert maxdegs == {4}


def test_harmonic_splice_stays_harmonic():
    h = equitable_biregular_from(3, 0)
    assert analyze(h).harmonic_delta == 3
    edge = next((a, b) for a, b in h.edges() if is_connected_without(h, a, b))
    out = splice(h, edge, h, edge)
    assert analyze(out).harmonic_delta == 3
    assert two_walk_params(out) == tw(3, 0)


def is_connected_without(g, a, b):
    from mainspectra.constructions import _without_edge

    return is_connected(_without_edge(g, a, b))


def test_splice_two_census_members():
    # two non-isomorphic (8, -9) members splice into an (8, -9) graph on 32 vertices
    from mainspectra.constructions import _without_edge
    from mainspectra.seidel import switch_mask

    base = symplectic_graph(2)
    wanted = {((3, 1), (5, 3), (7, 12)): None, ((5, 6), (7, 9), (9, 1)): None}
    for sub in range(1 << 15):
        member = switch_mask(base, sub << 1)
        key = classify_member(member)
        if key[0] == "nonregular" and key[2] == -9 and wanted.get(key[3], 0) is None:
            wanted[key[3]] = member
            if all(v is not None for v in wanted.values()):
                break
    g, h = wanted.values()

    def pick_edge(x):
        for a, b in x.edges():
            if x.degree(a) == 7 and x.degree(b) == 7 and is_connected(_without_edge(x, a, b)):
                return (a, b)
        raise AssertionError("no splice edge")

    out = splice(g, pick_edge(g), h, pick_edge(h))
    assert out.n == 32
    assert two_walk_params(out) == tw(8, -9)
