import ast
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

from mainspectra import (
    analyze,
    char_poly,
    cone,
    cycle,
    degree_vector,
    graph_from_edges,
    harmonic_delta,
    main_eigenvalue_count,
    main_values,
    path,
    seidel_matrix,
    star,
    t_lambda_tree,
    three_valenced_boundary,
    two_walk_params,
)
from mainspectra.spectrum import QuadraticPair, TwoWalkParams

from conftest import graphs
from oracles import (
    existence_check,
    harmonic_delta_walk,
    poly_divides,
    rank_exact,
    walk_matrix,
)


def petersen():
    verts = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    idx = {p: i for i, p in enumerate(verts)}
    edges = [
        (idx[p], idx[q])
        for p in verts
        for q in verts
        if p < q and not (set(p) & set(q))
    ]
    return graph_from_edges(10, edges)


def test_walk_matrix_examples():
    assert walk_matrix(path(3)) == [[1, 1, 2], [1, 2, 2], [1, 1, 2]]
    assert walk_matrix(cycle(4)) == [[1, 2, 4, 8]] * 4
    assert walk_matrix(graph_from_edges(1, [])) == [[1]]


def test_main_count_regular_graphs():
    assert main_eigenvalue_count(cycle(5)) == 1
    assert main_eigenvalue_count(petersen()) == 1


def test_main_count_small():
    assert main_eigenvalue_count(path(3)) == 2
    assert main_eigenvalue_count(t_lambda_tree(2)) == 2


def test_main_count_equals_full_rank(connected_n_le_8):
    for g in connected_n_le_8:
        assert main_eigenvalue_count(g) == rank_exact(walk_matrix(g))


def test_main_count_stops_at_first_dependent_walk(monkeypatch):
    from mainspectra import spectrum

    monkeypatch.setenv("MAINSPECTRA_VERTEX_CAP", "256")
    calls = []
    apply = spectrum._apply_adjacency

    def counted(g, vec):
        calls.append(vec)
        return apply(g, vec)

    monkeypatch.setattr(spectrum, "_apply_adjacency", counted)
    g = t_lambda_tree(6)
    assert g.n == 187
    assert main_eigenvalue_count(g) == 2
    assert len(calls) <= 2


def test_two_walk_params_oracle(all_n_le_7):
    # Independent of the cross-multiplied test: A d lies in <d, j> iff the
    # rank of (d, j, A d) stays 2.
    for g in all_n_le_7:
        d = list(degree_vector(g))
        if len(set(d)) == 1:
            continue
        ad = [sum(d[u] for u in g.neighbors(v)) for v in range(g.n)]
        tw = two_walk_params(g)
        assert (tw is not None) == (rank_exact([d, [1] * g.n, ad]) == 2)
        if tw is not None:
            assert [tw.alpha * x + tw.beta for x in d] == ad


def test_two_walk_params_examples():
    assert two_walk_params(star(4)) == TwoWalkParams(Fraction(0), Fraction(3))
    assert two_walk_params(path(4)) == TwoWalkParams(Fraction(1), Fraction(1))
    assert two_walk_params(cycle(6)) is None


def test_main_values_examples():
    mv = main_values(TwoWalkParams(Fraction(0), Fraction(3)))
    assert mv.floats() == pytest.approx((math.sqrt(3), -math.sqrt(3)))
    mv = main_values(TwoWalkParams(Fraction(8), Fraction(0)))
    assert mv.exact_strings() == ("8", "0")
    mv = main_values(TwoWalkParams(Fraction(2), Fraction(4)))
    assert mv.floats() == pytest.approx((1 + math.sqrt(5), 1 - math.sqrt(5)))
    with pytest.raises(ValueError):
        main_values(TwoWalkParams(Fraction(0), Fraction(-1)))


def test_exact_strings_forms():
    assert QuadraticPair(Fraction(8), Fraction(7)).exact_strings() == (
        "4+sqrt(23)",
        "4-sqrt(23)",
    )
    assert QuadraticPair(Fraction(1), Fraction(1)).exact_strings() == (
        "(1+sqrt(5))/2",
        "(1-sqrt(5))/2",
    )


def test_harmonic_examples():
    assert harmonic_delta(t_lambda_tree(2)) == 2
    assert harmonic_delta(t_lambda_tree(3)) == 3
    assert harmonic_delta(path(4)) is None
    assert harmonic_delta(cycle(7)) == 2  # regular: valency
    assert harmonic_delta(graph_from_edges(2, [])) == 0


def test_harmonic_delta_matches_oracle(all_n_le_7, connected_n_le_8):
    # the beta = 0 case of the two-walk decision against a Fraction walk of
    # its own: the same value and the same type on every graph
    families = [t_lambda_tree(lam) for lam in range(2, 6)]
    families += [three_valenced_boundary(alpha) for alpha in (4, 6, 8, 10)]
    nonregular_harmonic = 0
    for g in all_n_le_7 + connected_n_le_8 + families:
        delta = harmonic_delta(g)
        want = harmonic_delta_walk(g)
        assert delta == want and type(delta) is type(want), f"{g!r}: {delta!r} != {want!r}"
        nonregular_harmonic += delta is not None and len(set(degree_vector(g))) > 1
    assert nonregular_harmonic == 41  # entries, the four trees among them


def test_existence_check():
    assert not existence_check(0, 1)
    assert existence_check(2, 0)
    assert not existence_check(1, 0)
    assert existence_check(0, 2)
    with pytest.raises(ValueError):
        existence_check(-1, 5)


def test_analyze_t2():
    rep = analyze(t_lambda_tree(2))
    assert rep.main_count == 2
    assert rep.two_walk == TwoWalkParams(Fraction(2), Fraction(0))
    assert rep.harmonic_delta == 2
    assert rep.main_values.exact_strings() == ("2", "0")
    assert rep.spectral_radius == pytest.approx(2.0)
    assert not rep.regular and rep.connected


def test_analyze_cone_c4():
    rep = analyze(cone(cycle(4)))
    assert rep.main_count == 2
    assert rep.two_walk == TwoWalkParams(Fraction(2), Fraction(4))
    assert rep.main_values.floats() == pytest.approx((1 + math.sqrt(5), 1 - math.sqrt(5)))


def test_analyze_regular():
    rep = analyze(cycle(5))
    assert rep.regular and rep.main_count == 1
    assert rep.two_walk is None and rep.main_values is None
    assert rep.harmonic_delta == 2


def test_analyze_disconnected_harmonic():
    # isolated vertex next to a 4-cycle: harmonic with delta 2
    g = graph_from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 1)])
    rep = analyze(g)
    assert not rep.connected
    assert rep.main_count == 2
    assert rep.two_walk == TwoWalkParams(Fraction(2), Fraction(0))
    assert rep.harmonic_delta == 2


SRC = Path(__file__).resolve().parent.parent / "src"


def test_src_has_no_assert_statement():
    # python -O strips assert statements, and with them the checks they make
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"assert statements in {path.name} at lines {lines}"


def test_analyze_checks_the_walk_rank_under_python_O():
    script = (
        "import sys\n"
        "from mainspectra import spectrum, star\n"
        "spectrum.main_eigenvalue_count = lambda g: 3\n"
        "try:\n"
        "    spectrum.analyze(star(4))\n"
        "except AssertionError as exc:\n"
        "    print(sys.flags.optimize, exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.stdout == "1 walk rank and two-walk test disagree\n", proc.stderr


def test_report_json_roundtrips():
    rep = analyze(cone(cycle(4)))
    blob = json.loads(json.dumps(rep.to_json()))
    assert blob["two_walk"] == {"alpha": 2, "beta": 4}
    assert blob["main_values"]["mu0"] == "1+sqrt(5)"


def test_t_lambda_reports():
    for lam in (2, 3, 4):
        rep = analyze(t_lambda_tree(lam))
        assert rep.harmonic_delta == lam
        assert rep.main_values.exact_strings() == (str(lam), "0")
        assert rep.spectral_radius == pytest.approx(lam, abs=1e-9)


@settings(max_examples=80, deadline=None)
@given(graphs(min_n=2, max_n=7))
def test_two_walk_iff_two_main(g):
    k = main_eigenvalue_count(g)
    tw = two_walk_params(g)
    assert (tw is not None) == (k == 2)


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=2, max_n=7))
def test_quadratic_divides_char_poly(g):
    tw = two_walk_params(g)
    if tw is None:
        return
    quad = (-tw.beta, -tw.alpha, Fraction(1))
    ok, _ = poly_divides(quad, char_poly(g.adjacency_matrix()))
    assert ok


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=2, max_n=7))
def test_mu0_is_spectral_radius_when_connected(g):
    from mainspectra import is_connected

    tw = two_walk_params(g)
    if tw is None or not is_connected(g):
        return
    mu0, _ = main_values(tw).floats()
    rho = max(np.linalg.eigvalsh(np.array(g.adjacency_matrix(), dtype=float)))
    assert abs(mu0 - rho) < 1e-9


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=2, max_n=7))
def test_nonregular_harmonic_has_beta_zero(g):
    delta = harmonic_delta_walk(g)
    if delta is None or len(set(degree_vector(g))) == 1:
        return
    assert two_walk_params(g) == TwoWalkParams(delta, Fraction(0))


def test_one_main_iff_regular_on_corpus(connected_n_le_8):
    for g in connected_n_le_8[::5]:
        regular = len(set(degree_vector(g))) == 1
        assert (main_eigenvalue_count(g) == 1) == regular


def test_spectral_radius_from_the_bitset_adjacency(all_n_le_7):
    # the unpacked adjacency and Seidel arrays equal the matrices built entry
    # by entry from has_edge, across the byte boundaries of the unpacking; so
    # eigvalsh sees the same matrix and the float is bit-identical
    rng = random.Random(5)
    sized = [
        graph_from_edges(n, [(u, v) for u in range(n) for v in range(u) if rng.random() < 0.5])
        for n in (1, 7, 8, 9, 63, 64, 65)
    ]
    for g in all_n_le_7[::7] + [t_lambda_tree(4)] + sized:
        vs = range(g.n)
        a = [[int(g.has_edge(u, v)) for v in vs] for u in vs]
        s = [[0 if u == v else 1 - 2 * g.has_edge(u, v) for v in vs] for u in vs]
        for got, want in ((g.adjacency_matrix(), a), (seidel_matrix(g), s)):
            assert got.dtype == np.int64 and got.tolist() == want
        rho = max(np.linalg.eigvalsh(np.array(a, dtype=float)).tolist())
        assert analyze(g).spectral_radius == rho
