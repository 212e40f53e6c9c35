import ast
import itertools
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
    main_spectrum_reports,
    seidel_matrix,
    sp_component,
    star,
    symplectic_graph,
    t_lambda_tree,
    three_valenced_boundary,
    two_walk_params,
)
from mainspectra.seidel import switch_mask
from mainspectra.spectrum import TwoWalkParams

from conftest import graphs
from oracles import (
    circulant,
    complete,
    existence_check,
    harmonic_delta_walk,
    neighbours,
    path,
    poly_divides,
    rank_exact,
    walk_matrix,
    walk_rank_echelon,
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


def main_counts(graphs):
    return [r.main_count for r in main_spectrum_reports(graphs)]


def test_walk_matrix_examples():
    assert walk_matrix(path(3)) == [[1, 1, 2], [1, 2, 2], [1, 1, 2]]
    assert walk_matrix(cycle(4)) == [[1, 2, 4, 8]] * 4
    assert walk_matrix(graph_from_edges(1, [])) == [[1]]


def test_main_count_regular_graphs():
    assert analyze(cycle(5)).main_count == 1
    assert analyze(petersen()).main_count == 1


def test_main_count_small():
    assert analyze(path(3)).main_count == 2
    assert analyze(t_lambda_tree(2)).main_count == 2


def test_main_count_equals_full_rank(connected_n_le_8, connected_n_le_8_reports):
    counts = [r.main_count for r in connected_n_le_8_reports]
    assert counts == [rank_exact(walk_matrix(g)) for g in connected_n_le_8]


def test_main_count_stops_at_first_dependent_walk(monkeypatch):
    from mainspectra import spectrum

    monkeypatch.setenv("MAINSPECTRA_VERTEX_CAP", "256")
    products = []
    step = spectrum._walk_step

    def counted(a, x, p):
        products.append(len(x))  # one matrix-vector product per lane
        return step(a, x, p)

    monkeypatch.setattr(spectrum, "_walk_step", counted)
    g = t_lambda_tree(6)
    assert g.n == 187
    assert analyze(g).main_count == 2
    assert sum(products) <= 2


def _gnp(n: int, p: float, rng: random.Random):
    return graph_from_edges(n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p])


def test_main_counts_equal_the_echelon_oracle_on_the_corpora(
    all_n_le_7, connected_n_le_8, connected_n_le_8_reports
):
    assert main_counts(all_n_le_7) == [walk_rank_echelon(g) for g in all_n_le_7]
    counts = [r.main_count for r in connected_n_le_8_reports]
    assert counts == [walk_rank_echelon(g) for g in connected_n_le_8]


@pytest.mark.parametrize("terms", [None, 3], ids=["one-block", "blocks-of-3"])
def test_main_counts_equal_the_echelon_oracle_on_random_graphs(monkeypatch, terms):
    # blocks of 3 terms run the blocked reduction that n > 1024 needs
    from mainspectra import spectrum

    if terms:
        monkeypatch.setattr(spectrum, "_DOT_TERMS", terms)
    rng = random.Random(40)
    sample = [_gnp(n, p, rng) for n in range(1, 41, 3) for p in (0.1, 0.3, 0.5, 0.8)]
    counts = main_counts(sample)
    assert counts == [walk_rank_echelon(g) for g in sample]
    assert len(set(counts)) > 10


def test_main_counts_equal_the_echelon_oracle_on_families(monkeypatch):
    monkeypatch.setenv("MAINSPECTRA_VERTEX_CAP", "256")  # t_lambda_tree(6) has 187 vertices
    rng = random.Random(6)
    sp6 = symplectic_graph(3)
    families = [t_lambda_tree(lam) for lam in range(2, 7)]
    families += [switch_mask(sp6, rng.getrandbits(64)) for _ in range(4)]
    regular = [cycle(9), complete(12), petersen(), sp_component(3), circulant(20, [1, 4, 6])]
    graphs = families + regular
    counts = main_counts(graphs)
    assert counts == [walk_rank_echelon(g) for g in graphs]
    assert counts[len(families):] == [1] * len(regular)
    assert counts[:5] == [2] * 5


def test_path_40_lifts_its_main_polynomial_over_two_primes(monkeypatch):
    # walk rank 20 and lift bound 2 * 3^20 > 2^32: one prime below 2^26 is
    # too few, so the dependency is rebuilt by CRT from two
    from mainspectra import spectrum

    lifts = []
    crt = spectrum._crt

    def recorded(residues):
        lifts.append(len(residues))
        return crt(residues)

    monkeypatch.setattr(spectrum, "_crt", recorded)
    assert analyze(path(40)).main_count == walk_rank_echelon(path(40)) == 20
    assert lifts == [1, 2]


def _primes_from(first, top=None):
    """A stand-in for linalg.primes_below that yields first, then the real
    primes below top (or nothing more when top is None)."""
    from mainspectra import linalg

    return lambda _top: itertools.chain(first, linalg.primes_below(top) if top else ())


def test_an_unlucky_prime_is_outvoted(monkeypatch):
    # modulo 2 the star K_{1,3} has A j = (3, 1, 1, 1) = j: walk rank 1, not 2
    from mainspectra import spectrum

    g = star(4)
    assert spectrum._walk_dependencies(g.adjacency_matrix()[None].astype(float), 2)[0] == [1]
    dependencies = spectrum._walk_dependencies
    seen = []

    def recorded(a, q):
        seen.append(q)
        return dependencies(a, q)

    monkeypatch.setattr(spectrum, "primes_below", _primes_from([2], 1 << 26))
    monkeypatch.setattr(spectrum, "_walk_dependencies", recorded)
    assert analyze(g).main_count == 2
    assert seen[0] == 2 and len(seen) >= 2


def test_the_kernel_raises_when_the_primes_run_out(monkeypatch):
    from mainspectra import spectrum

    monkeypatch.setattr(spectrum, "primes_below", _primes_from([2]))
    with pytest.raises(AssertionError, match="ran out of primes"):
        analyze(star(4))


def _complete_union(sizes):
    """The disjoint union of the complete graphs K_m, m in sizes."""
    edges, s = [], 0
    for m in sizes:
        edges += [(u + s, v + s) for v in range(m) for u in range(v)]
        s += m
    return graph_from_edges(s, edges)


def _recorded_eliminations(monkeypatch):
    """The prime of each _walk_dependencies call, as the calls happen."""
    from mainspectra import spectrum

    calls = []
    dependencies = spectrum._walk_dependencies

    def recorded(a, q):
        calls.append(q)
        return dependencies(a, q)

    monkeypatch.setattr(spectrum, "_walk_dependencies", recorded)
    return calls


def test_the_certificate_adds_a_lift_prime(monkeypatch):
    # K11 + K10 + K9: main polynomial (x - 10)(x - 9)(x - 8), largest degree
    # 10, so the lift needs primes above 2 * 11^3 = 2662 while |M(A) j| is
    # bounded by 20 * 19 * 18 = 6840 <= 20^3; the one prime 4093 lifts M but
    # is too small for that bound, so the next prime joins the lift
    from mainspectra import linalg, spectrum

    g = _complete_union((11, 10, 9))
    monkeypatch.setattr(spectrum, "primes_below", lambda _top: linalg.primes_below(1 << 12))
    calls = _recorded_eliminations(monkeypatch)
    assert analyze(g).main_count == walk_rank_echelon(g) == 3
    assert calls == [4093, 4091]


def test_the_certificate_adds_a_lift_prime_with_real_primes(monkeypatch):
    # K31 + K30 + ... + K2 (n = 495): rank 30, largest degree 30; six primes
    # pass the lift target 2 * 31^30 (about 2^150), but |M(A) j| is bounded
    # by 60!/30! (about 2^164), so a seventh prime joins the lift
    monkeypatch.setenv("MAINSPECTRA_VERTEX_CAP", "512")
    g = _complete_union(range(31, 1, -1))
    calls = _recorded_eliminations(monkeypatch)
    assert analyze(g).main_count == 30
    assert len(calls) == 7


def test_a_closed_lane_leaves_the_round(monkeypatch):
    # K11 + K10 + K9 and C30 share one stack of order 30; C30 (rank 1) is
    # proven by the first prime, so only the clique union takes the second
    from mainspectra import linalg, spectrum

    monkeypatch.setattr(spectrum, "primes_below", lambda _top: linalg.primes_below(1 << 12))
    dependencies = spectrum._walk_dependencies
    calls = []

    def recorded(a, q):
        calls.append((len(a), q))
        return dependencies(a, q)

    monkeypatch.setattr(spectrum, "_walk_dependencies", recorded)
    reports = main_spectrum_reports([_complete_union((11, 10, 9)), cycle(30)])
    assert [r.main_count for r in reports] == [3, 1]
    assert calls == [(2, 4093), (1, 4091)]


def test_a_wrong_dependency_is_caught_and_never_returned(monkeypatch):
    # every dependency the elimination reports is replaced by one whose lift
    # has large coefficients: its bound B exceeds (2D)^R, which raises the
    # floor, the lane looks for a higher rank that no prime gives, and the
    # kernel raises
    from mainspectra import spectrum

    dependencies = spectrum._walk_dependencies

    def corrupted(a, q):
        ranks, deps = dependencies(a, q)
        return ranks, [None if d is None else [q // 2] * (len(d) - 1) + [1] for d in deps]

    monkeypatch.setattr(spectrum, "_walk_dependencies", corrupted)
    with pytest.raises(AssertionError, match="unlucky primes"):
        analyze(path(5))


def test_analyze_gnp_128_has_full_walk_rank():
    g = _gnp(128, 0.5, random.Random(128))
    assert analyze(g).main_count == 128


def test_two_walk_params_oracle(all_n_le_7):
    # Independent of the cross-multiplied test: A d lies in <d, j> iff the
    # rank of (d, j, A d) stays 2.
    for g in all_n_le_7:
        d = list(degree_vector(g))
        if len(set(d)) == 1:
            continue
        ad = [sum(d[u] for u in neighbours(g, v)) for v in range(g.n)]
        tw = two_walk_params(g)
        assert (tw is not None) == (rank_exact([d, [1] * g.n, ad]) == 2)
        if tw is not None:
            assert [tw.alpha * x + tw.beta for x in d] == ad


def test_two_walk_params_examples():
    assert two_walk_params(star(4)) == TwoWalkParams(Fraction(0), Fraction(3))
    assert two_walk_params(path(4)) == TwoWalkParams(Fraction(1), Fraction(1))
    assert two_walk_params(cycle(6)) is None


def test_main_values_examples():
    tw = TwoWalkParams(Fraction(0), Fraction(3))
    assert tw.floats() == pytest.approx((math.sqrt(3), -math.sqrt(3)))
    tw = TwoWalkParams(Fraction(8), Fraction(0))
    assert tw.exact_strings() == ("8", "0")
    tw = TwoWalkParams(Fraction(2), Fraction(4))
    assert tw.floats() == pytest.approx((1 + math.sqrt(5), 1 - math.sqrt(5)))
    with pytest.raises(ValueError):
        TwoWalkParams(Fraction(0), Fraction(-1))


def test_exact_strings_forms():
    assert TwoWalkParams(Fraction(8), Fraction(7)).exact_strings() == (
        "4+sqrt(23)",
        "4-sqrt(23)",
    )
    assert TwoWalkParams(Fraction(1), Fraction(1)).exact_strings() == (
        "(1+sqrt(5))/2",
        "(1-sqrt(5))/2",
    )


def test_harmonic_examples():
    graphs = [t_lambda_tree(2), t_lambda_tree(3), path(4), cycle(7), graph_from_edges(2, [])]
    # regular graphs give their valency
    assert [r.harmonic_delta for r in main_spectrum_reports(graphs)] == [2, 3, None, 2, 0]


def test_harmonic_delta_matches_oracle(all_n_le_7, connected_n_le_8, connected_n_le_8_reports):
    # the beta = 0 case of the two-walk decision against a Fraction walk of
    # its own: the same value and the same type on every graph
    families = [t_lambda_tree(lam) for lam in range(2, 6)]
    families += [three_valenced_boundary(alpha) for alpha in (4, 6, 8, 10)]
    reports = main_spectrum_reports(all_n_le_7) + connected_n_le_8_reports
    reports += main_spectrum_reports(families)
    nonregular_harmonic = 0
    for g, rep in zip(all_n_le_7 + connected_n_le_8 + families, reports, strict=True):
        delta = rep.harmonic_delta
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
    assert rep.two_walk.exact_strings() == ("2", "0")
    assert rep.spectral_radius == pytest.approx(2.0)
    assert not rep.regular and rep.connected


def test_analyze_cone_c4():
    rep = analyze(cone(cycle(4)))
    assert rep.main_count == 2
    assert rep.two_walk == TwoWalkParams(Fraction(2), Fraction(4))
    assert rep.two_walk.floats() == pytest.approx((1 + math.sqrt(5), 1 - math.sqrt(5)))


def test_analyze_regular():
    rep = analyze(cycle(5))
    assert rep.regular and rep.main_count == 1
    assert rep.two_walk is None
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
        "spectrum._walk_ranks = lambda a: [3] * len(a)\n"
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
        assert rep.two_walk.exact_strings() == (str(lam), "0")
        assert rep.spectral_radius == pytest.approx(lam, abs=1e-9)


@settings(max_examples=80, deadline=None)
@given(graphs(min_n=2, max_n=7))
def test_two_walk_iff_two_main(g):
    k = analyze(g).main_count
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
    mu0, _ = tw.floats()
    rho = max(np.linalg.eigvalsh(np.array(g.adjacency_matrix(), dtype=float)))
    assert abs(mu0 - rho) < 1e-9


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=2, max_n=7))
def test_nonregular_harmonic_has_beta_zero(g):
    delta = harmonic_delta_walk(g)
    if delta is None or len(set(degree_vector(g))) == 1:
        return
    assert two_walk_params(g) == TwoWalkParams(delta, Fraction(0))


def test_one_main_iff_regular_on_corpus(connected_n_le_8, connected_n_le_8_reports):
    for g, rep in zip(connected_n_le_8[::5], connected_n_le_8_reports[::5]):
        regular = len(set(degree_vector(g))) == 1
        assert (rep.main_count == 1) == regular


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
