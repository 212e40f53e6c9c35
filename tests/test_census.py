import random
from fractions import Fraction
from math import comb, prod
from pathlib import Path

import numpy as np
import pytest

from mainspectra import (
    ClassificationError,
    Convention,
    bundled_reference_rows,
    census_table,
    char_poly,
    classify_member,
    compare_to_reference,
    complete,
    cycle,
    enumerate_switching_class,
    graph_from_edges,
    relabel,
    switch,
    symplectic_graph,
    verify_switching_invariance_exhaustive,
)
from mainspectra.census import (
    BLOCK,
    _BlockKernel,
    _census_key,
    _power_sum_moduli,
    _power_sum_targets,
    parse_valencies,
    valencies_str,
)
from mainspectra.seidel import seidel_matrix, switch_mask


def test_enumerate_k2():
    members = list(enumerate_switching_class(complete(2)))
    assert len(members) == 2
    assert members[0][1] == complete(2)
    assert members[1][1].edge_count() == 0


def test_enumerate_counts_and_conventions():
    base = cycle(5)
    up = list(enumerate_switching_class(base, Convention.UP_TO_COMPLEMENT))
    full = list(enumerate_switching_class(base, Convention.ALL_SUBSETS))
    assert len(up) == 16 and len(full) == 32
    # all-subsets contains every labelled graph exactly twice
    seen = {}
    for _, g in full:
        seen[g] = seen.get(g, 0) + 1
    assert set(seen.values()) == {2}


def test_enumerate_size_guard(monkeypatch):
    monkeypatch.setenv("MAINSPECTRA_VERTEX_CAP", "64")
    with pytest.raises(ValueError, match="too large"):
        next(enumerate_switching_class(complete(25)))


def test_classify_examples():
    base = symplectic_graph(2)
    assert classify_member(base) == (
        "nonregular",
        Fraction(8),
        Fraction(0),
        ((0, 1), (8, 15)),
        False,
    )
    assert classify_member(switch(base, [0])) == (
        "nonregular",
        Fraction(8),
        Fraction(15),
        ((9, 15), (15, 1)),
        True,
    )
    assert classify_member(cycle(5))[0] == "regular"


def test_classify_aborts_on_contradiction():
    # the 5-path is non-regular with three main eigenvalues
    p5 = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    with pytest.raises(ClassificationError):
        classify_member(p5)


def test_census_matches_streaming_enumeration():
    base = complete(4)
    table = census_table(base, verify=True)
    counts = {}
    for _, g in enumerate_switching_class(base):
        key = classify_member(g)
        counts[key] = counts.get(key, 0) + 1
    table_counts = {
        (r.kind, r.alpha, r.beta, r.valencies, r.connected): r.count for r in table.rows
    }
    assert counts == table_counts
    assert table.totals["graphs"] == 8


def test_census_k4_rows():
    table = census_table(complete(4))
    rows = {(r.kind, r.valencies, r.connected): r.count for r in table.rows}
    assert rows == {
        ("regular", ((3, 4),), True): 1,  # K4 itself
        ("regular", ((1, 4),), False): 3,  # perfect matchings
        ("nonregular", ((0, 1), (2, 3)), False): 4,  # isolated vertex + triangle
    }


def test_census_all_subsets_doubles():
    base = complete(4)
    up = census_table(base, Convention.UP_TO_COMPLEMENT)
    full = census_table(base, Convention.ALL_SUBSETS)
    up_counts = {(r.kind, r.alpha, r.beta, r.valencies, r.connected): r.count for r in up.rows}
    full_counts = {
        (r.kind, r.alpha, r.beta, r.valencies, r.connected): r.count for r in full.rows
    }
    assert full_counts == {k: 2 * v for k, v in up_counts.items()}


def test_census_worker_determinism_small():
    base = symplectic_graph(1)
    csvs = {census_table(base, workers=w).to_csv() for w in (1, 2, 3)}
    assert len(csvs) == 1


def test_census_relabel_invariance():
    base = cone_free_scramble()
    table1 = census_table(symplectic_graph(1))
    table2 = census_table(base)
    strip = lambda t: [
        (r.kind, r.alpha, r.beta, r.valencies, r.connected, r.count) for r in t.rows
    ]
    assert strip(table1) == strip(table2)


def cone_free_scramble():
    g = symplectic_graph(1)
    perm = [2, 0, 3, 1]
    return relabel(g, perm)


def test_valencies_string_roundtrip():
    v = ((0, 1), (8, 15))
    assert valencies_str(v) == "0^1,8^15"
    assert parse_valencies("0^1,8^15") == v
    assert parse_valencies("8^15,0^1") == v


def test_reference_table_shape():
    rows = bundled_reference_rows()
    assert len(rows) == 31
    assert sum(r.count for r in rows) == 33172
    assert {r.alpha for r in rows} == {Fraction(8)}
    betas = sorted(set(int(r.beta) for r in rows))
    assert betas == [-9, -8, -5, -4, -1, 0, 3, 4, 7, 8, 11, 12, 15]


def test_compare_self_roundtrip():
    table = census_table(complete(4))
    # build a fake reference from the computed nonregular rows
    from mainspectra.census import ReferenceRow

    ref = [
        ReferenceRow(
            alpha=r.alpha,
            beta=r.beta,
            mu0=r.main_values.exact_strings()[0],
            mu1=r.main_values.exact_strings()[1],
            valencies=r.valencies,
            count=r.count,
        )
        for r in table.rows
        if r.kind == "nonregular"
    ]
    audit = compare_to_reference(table, ref)
    assert audit.all_match
    # perturb one count: exactly one mismatch
    ref[0] = ReferenceRow(
        alpha=ref[0].alpha,
        beta=ref[0].beta,
        mu0=ref[0].mu0,
        mu1=ref[0].mu1,
        valencies=ref[0].valencies,
        count=ref[0].count + 1,
    )
    audit = compare_to_reference(census_table(complete(4)), ref)
    verdicts = [r["verdict"] for r in audit.rows]
    assert verdicts.count("count-mismatch") == 1
    assert verdicts.count("match") == len(verdicts) - 1


def test_quadratic_divides_member_char_poly():
    # x^2 - 8x + 9 divides the characteristic polynomial of any (8, -9) member
    from mainspectra import poly_divides

    base = symplectic_graph(2)
    for sub in range(1 << 15):
        member = switch_mask(base, sub << 1)
        key = classify_member(member)
        if key[0] == "nonregular" and key[2] == -9:
            ok, quo = poly_divides((9, -8, 1), char_poly(member.adjacency_matrix()))
            assert ok and len(quo) == 15
            return
    raise AssertionError("no (8, -9) member found")


# ---------------------------------------------------------------------------
# batched kernel against the single-graph oracle


def _kernel_keys(base, convention):
    """Per-subset (key or None when the member has no two-walk parameters)
    from the batched kernel, over the whole class."""
    shift = 1 if Convention(convention) is Convention.UP_TO_COMPLEMENT else 0
    kernel = _BlockKernel(np.array(base.adjacency_matrix(), dtype=float), shift)
    out = {}
    for subs, adj in kernel.blocks(0, 1 << (base.n - shift)):
        keys, no_two_walk = kernel.keys(adj)
        for sub, row, bad in zip(subs.tolist(), keys.tolist(), no_two_walk.tolist()):
            out[sub] = None if bad else _census_key(row)
    return out


def _oracle_keys(base, convention):
    out = {}
    for sub, (_, member) in enumerate(enumerate_switching_class(base, convention)):
        try:
            out[sub] = classify_member(member)
        except ClassificationError:
            out[sub] = None
    return out


def _rows_of(table):
    return {
        (r.kind, r.alpha, r.beta, r.valencies, r.connected): (r.count, r.representative_subset)
        for r in table.rows
    }


@pytest.mark.parametrize("convention", list(Convention))
def test_batched_keys_match_oracle_on_small_bases(all_n_le_7, convention):
    for base in all_n_le_7:
        oracle = _oracle_keys(base, convention)
        assert _kernel_keys(base, convention) == oracle
        bad = [sub for sub, key in oracle.items() if key is None]
        if bad:
            with pytest.raises(ClassificationError, match=rf"at subset {bad[0]} "):
                census_table(base, convention, verify=False)
            continue
        expected = {}
        for sub, key in oracle.items():
            count, rep = expected.get(key, (0, sub))
            expected[key] = (count + 1, rep)
        assert _rows_of(census_table(base, convention, verify=False)) == expected
        checked = verify_switching_invariance_exhaustive(base, convention)
        assert checked == len(oracle)


@pytest.mark.parametrize("convention", list(Convention))
def test_batched_keys_match_oracle_on_sp4_chunks(convention):
    base = symplectic_graph(2)
    shift = 1 if convention is Convention.UP_TO_COMPLEMENT else 0
    kernel = _BlockKernel(np.array(base.adjacency_matrix(), dtype=float), shift)
    rng = random.Random(20160830)
    for start in rng.sample(range((1 << (16 - shift)) - BLOCK), 6):
        for subs, adj in kernel.blocks(start, start + BLOCK):
            keys, no_two_walk = kernel.keys(adj)
            assert not no_two_walk.any()
            for sub, row in zip(subs.tolist(), keys.tolist()):
                member = switch_mask(base, sub << shift)
                assert _census_key(row) == classify_member(member)


def test_census_workers_byte_identical_and_verified():
    results = Path(__file__).resolve().parent.parent / "results"
    base = symplectic_graph(2)
    expected = (results / "census_up_to_complement.csv").read_text()
    for workers in (1, 2, 4):
        table = census_table(base, workers=workers)
        assert table.to_csv() == expected, f"CSV differs with {workers} workers"
        assert table.verification == {
            "seidel_members_checked": 1 << 15,
            "structure_checks": "ran",
            "structure_skip_reason": None,
        }
    table = census_table(base, Convention.ALL_SUBSETS, workers=2)
    assert table.to_csv() == (results / "census_all_subsets.csv").read_text()
    assert table.verification["seidel_members_checked"] == 1 << 16
    assert "verification" in table.to_json()


@pytest.mark.parametrize(
    "base, reason",
    [
        (complete(1), "base is not a regular two-graph"),
        # C5 plus an isolated vertex: Seidel eigenvalues +-sqrt(5)
        (
            graph_from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
            "Seidel spectrum is not two integral eigenvalues",
        ),
        (complete(4), "trivial regular two-graph"),
    ],
)
def test_verification_reports_skipped_structure_checks(base, reason):
    record = census_table(base).verification
    assert record["structure_checks"] == "skipped"
    assert record["structure_skip_reason"].startswith(reason)
    assert record["seidel_members_checked"] == 1 << (base.n - 1)
    record = census_table(base, verify=False).verification
    assert record == {
        "seidel_members_checked": 0,
        "structure_checks": "skipped",
        "structure_skip_reason": "verify=False",
    }


def _corrupt(monkeypatch, subset):
    """Flip edge {0, 1} in the member with the given subset index."""
    blocks = _BlockKernel.blocks

    def corrupted(self, start, stop):
        for subs, adj in blocks(self, start, stop):
            hit = (subs == subset).nonzero()[0]
            if hit.size:
                i = hit[0]
                adj[i, 0, 1] = adj[i, 1, 0] = 1 - adj[i, 0, 1]
            yield subs, adj

    monkeypatch.setattr(_BlockKernel, "blocks", corrupted)


def test_corrupted_member_is_named(monkeypatch):
    _corrupt(monkeypatch, 777)
    base = symplectic_graph(2)
    with pytest.raises(ClassificationError, match=r"at subset 777 "):
        census_table(base)
    with pytest.raises(ClassificationError, match=r"at subset 777$"):
        verify_switching_invariance_exhaustive(base)


def test_corrupted_member_caught_by_power_sums(monkeypatch):
    # K4 minus an edge still has two-walk parameters (1, 4), so only the
    # Seidel check can see that it is not a switch of K4.
    _corrupt(monkeypatch, 0)
    assert classify_member(graph_from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]))
    with pytest.raises(ClassificationError, match=r"Seidel power sums changed .* subset 0$"):
        census_table(complete(4))


def test_power_sum_moduli():
    for n in range(1, 17):
        assert _power_sum_moduli(n) == ()
    for n in range(17, 25):
        moduli = _power_sum_moduli(n)
        assert all(m < 1 << 24 for m in moduli)
        assert prod(moduli) > 2 * n * n * (n - 1) ** (n - 2)
        assert prod(moduli[:-1]) <= 2 * n * n * (n - 1) ** (n - 2)
    assert len(_power_sum_moduli(24)) == 5
    with pytest.raises(ValueError):
        _power_sum_moduli(30)
    # the largest primes below 2^24, as chosen before they came from linalg.primes_below
    primes = (16777213, 16777199, 16777183, 16777153, 16777141)
    counts = {16: 0, 17: 3, 18: 4, 19: 4, 20: 4, 21: 4, 22: 5, 23: 5, 24: 5}
    for n, count in counts.items():
        assert _power_sum_moduli(n) == primes[:count]


def test_n17_census_takes_the_modular_route(monkeypatch):
    base = complete(17)
    # S = I - J has eigenvalue -16, so p_17 = 16 - 2^68 does not fit int64.
    targets = _power_sum_targets(char_poly(seidel_matrix(base)))
    assert len(targets) == 3 and all(modulus for modulus, _ in targets)
    table = census_table(base)
    assert table.verification["seidel_members_checked"] == 1 << 16
    # switching K17 by a set U leaves K_|U| + K_(17-|U|); U or its complement
    # avoids vertex 0, so a split a + (17 - a) occurs comb(17, a) times
    counts = {r.valencies: r.count for r in table.rows}
    for a in range(1, 9):
        assert counts[((a - 1, a), (16 - a, 17 - a))] == comb(17, a)
    _corrupt(monkeypatch, 5)
    with pytest.raises(ClassificationError, match=r"Seidel power sums changed .* subset 5$"):
        verify_switching_invariance_exhaustive(base)
