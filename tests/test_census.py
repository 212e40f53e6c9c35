import os
import random
import re
from fractions import Fraction
from math import comb
from multiprocessing import get_context
from pathlib import Path

import numpy as np
import pytest

from mainspectra import (
    ClassificationError,
    Convention,
    bundled_reference_rows,
    census_table,
    char_poly,
    compare_to_reference,
    cycle,
    degree_vector,
    graph_from_edges,
    is_connected,
    star,
    symplectic_graph,
    verify_switching_invariance_exhaustive,
    write_graph6,
)
from mainspectra import census
from mainspectra.census import (
    BLOCK,
    _BlockKernel,
    _census_key,
    load_reference_csv,
    parse_valencies,
    valencies_str,
)
from mainspectra.cli import main
from mainspectra.seidel import seidel_report, switch_mask

from conftest import paley_plus_k1
from oracles import (
    classify_member,
    complete,
    enumerate_switching_class,
    path,
    poly_divides,
    relabel,
    switch,
)


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
    table = census_table(base)
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


def _fake_pool(monkeypatch, max_jobs):
    """Make census pools map in this process; return the list of (processes,
    jobs) each pool saw.  A pool handed more than max_jobs jobs fails before
    running any of them."""
    pools = []

    class FakePool:
        def __init__(self, processes):
            self.processes = processes

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            pools.append((self.processes, len(jobs)))
            assert len(jobs) <= max_jobs
            return [fn(job) for job in jobs]

    monkeypatch.setattr(census, "Pool", FakePool)
    return pools


def test_census_starts_at_most_one_process_per_cpu(monkeypatch):
    # 1,000 workers split K7's 64 subsets into 64 ranges, one per subset,
    # and start no more processes than there are CPUs
    base = complete(7)
    one = census_table(base, workers=1)
    pools = _fake_pool(monkeypatch, 1000)
    many = census_table(base, workers=1000)
    assert len(pools) == 1 and 1 <= pools[0][0] <= (os.cpu_count() or 1)
    assert pools[0][1] == 64
    assert many.to_csv() == one.to_csv()
    assert many.verification == one.verification


@pytest.mark.parametrize("convention", list(Convention))
def test_census_huge_worker_count_on_a_small_base(monkeypatch, convention):
    # a million workers on the 8 subset indices of Sp(2) build 8 ranges
    base = symplectic_graph(1)
    one = census_table(base, convention, workers=1)
    pools = _fake_pool(monkeypatch, 8)
    many = census_table(base, convention, workers=10**6)
    assert pools == [(min(8, os.cpu_count() or 1), 8)]
    assert many.to_csv() == one.to_csv()
    assert many.to_json() == one.to_json()


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
            mu0=r.two_walk.exact_strings()[0],
            mu1=r.two_walk.exact_strings()[1],
            valencies=r.valencies,
            count=r.count,
        )
        for r in table.rows
        if r.kind == "nonregular"
    ]
    audit = compare_to_reference(table, ref)
    assert all(r["verdict"] == "match" for r in audit.rows)
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


def test_compare_rejects_a_repeated_reference_row():
    # the CSV loader names the line of a repeat; rows built in code meet the same check
    table = census_table(complete(4))
    ref = load_reference_csv('alpha,beta,mu0,mu1,valencies,count\n2,0,2,0,"0^1,2^3",4\n')
    assert compare_to_reference(table, ref).totals["reference_rows"] == 1
    message = r"^reference rows repeat alpha 2, beta 0, valencies 0\^1,2\^3$"
    with pytest.raises(ValueError, match=message):
        compare_to_reference(table, ref + ref[:1])


def test_quadratic_divides_member_char_poly():
    # x^2 - 8x + 9 divides the characteristic polynomial of any (8, -9) member
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
        # a member of a regular two-graph has at most two main eigenvalues
        assert bool(bad) == (base.n >= 4 and not seidel_report(base).regular_two_graph)
        if bad:
            message = rf"^member at subset {bad[0]} has more than two main eigenvalues"
            with pytest.raises(ValueError, match=message):
                census_table(base, convention)
            continue
        expected = {}
        for sub, key in oracle.items():
            count, rep = expected.get(key, (0, sub))
            expected[key] = (count + 1, rep)
        assert _rows_of(census_table(base, convention)) == expected
        checked = verify_switching_invariance_exhaustive(base, convention)
        assert checked == len(oracle)


def test_complementary_masks_give_one_member(all_n_le_7):
    # all-subsets builds one member per complementary pair and counts it twice
    for base in all_n_le_7:
        full = (1 << base.n) - 1
        for mask in range(1 << (base.n - 1)):  # the pairs {mask, full ^ mask}
            assert switch_mask(base, mask) == switch_mask(base, full ^ mask)
        kernel = _BlockKernel(base.adjacency_matrix(), 0)
        tensor = np.concatenate([adj.copy() for _, adj in kernel.blocks(0, full + 1)])
        assert np.array_equal(tensor, tensor[::-1])  # index full - m is full ^ m


def test_invariance_check_counts_all_subsets():
    for base in (complete(1), complete(4), cycle(5), symplectic_graph(2)):
        checked = verify_switching_invariance_exhaustive(base, Convention.ALL_SUBSETS)
        assert checked == 1 << base.n
        assert verify_switching_invariance_exhaustive(base) == 1 << (base.n - 1)


def test_merge_unites_raw_rows_with_the_same_alpha_and_beta():
    # a raw kernel row (q, p, b, connected, valency counts) is not in lowest
    # terms, so the census must reduce it to (alpha, beta) before the merge
    counts = [0] * 16
    counts[5], counts[9] = 10, 6
    rows = [[-8, -64, 0, 1, *counts], [8, 64, 0, 1, *counts]]
    merged = census._merge(
        (_census_key(row), count, rep) for row, count, rep in zip(rows, (3, 5), (40, 7))
    )
    assert merged == {("nonregular", 8, 0, ((5, 10), (9, 6)), True): [8, 7]}
    base = symplectic_graph(2)
    raw = census._census_chunk((base.adjacency_matrix(), 1, True, 0, 1 << 15))
    keys = {_census_key(np.frombuffer(key, dtype=np.int64).tolist()) for key in raw}
    assert len(raw) > len(keys) == len(census_table(base).rows)


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


def test_census_needs_no_fork(monkeypatch):
    # workers started by spawn inherit nothing from this process
    base = symplectic_graph(2)
    one = census_table(base, Convention.ALL_SUBSETS, workers=1)
    monkeypatch.setattr(census, "Pool", get_context("spawn").Pool)
    two = census_table(base, Convention.ALL_SUBSETS, workers=2)
    assert two.to_json() == one.to_json()


@pytest.mark.parametrize(
    "base, reason",
    [
        (complete(1), "base is not a regular two-graph"),
        # C5 plus an isolated vertex: Seidel eigenvalues +-sqrt(5), and the checks run
        (graph_from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]), None),
        (complete(4), "trivial regular two-graph"),
    ],
)
def test_verification_reports_skipped_structure_checks(base, reason):
    record = census_table(base).verification
    assert record["structure_checks"] == ("ran" if reason is None else "skipped")
    skip = record["structure_skip_reason"]
    assert skip is None if reason is None else skip.startswith(reason)
    assert record["seidel_members_checked"] == 1 << (base.n - 1)


@pytest.mark.parametrize("convention", list(Convention))
def test_paley_13_class_runs_every_structure_check(convention, capsys, monkeypatch, tmp_path):
    # a conference two-graph: Seidel eigenvalues +-sqrt(13) force alpha = 6
    base = paley_plus_k1(13)
    table = census_table(base, convention)
    assert table.verification["structure_checks"] == "ran"
    assert {r.alpha for r in table.rows if r.kind == "nonregular"} == {6}
    assert len(table.rows) == 26
    path = tmp_path / "paley13_k1.g6"
    path.write_text(write_graph6(base) + "\n")
    _edit_keys(lambda key: (key[0], key[1] + 1, *key[2:]) if key[0] == "nonregular" else key)(
        monkeypatch, []
    )
    assert main(["census", "--base", str(path), "--convention", convention.value]) == 3
    assert "alpha 7 != 6 forced by the Seidel spectrum" in capsys.readouterr().err


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


def test_corrupted_all_subsets_member_is_named(monkeypatch):
    # index 777 is the mask 777 itself under all-subsets (vertex 0 switched)
    _corrupt(monkeypatch, 777)
    base = symplectic_graph(2)
    with pytest.raises(ClassificationError, match=r"at subset 777\b"):
        census_table(base, Convention.ALL_SUBSETS)
    with pytest.raises(ClassificationError, match=r"at subset 777$"):
        verify_switching_invariance_exhaustive(base, Convention.ALL_SUBSETS)


def test_corrupted_member_caught_by_similarity(monkeypatch):
    # K4 minus an edge still has two-walk parameters (1, 4), so only the
    # Seidel check can see that it is not a switch of K4.
    _corrupt(monkeypatch, 0)
    assert classify_member(graph_from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]))
    with pytest.raises(ClassificationError, match=r"not a switch of the base's at subset 0$"):
        census_table(complete(4))


# ---------------------------------------------------------------------------
# the row checks of the Sp(4) census, each made to fail once


def _regular(g):
    return len(set(degree_vector(g))) == 1


def _swap_members(wanted, replacement):
    """Patch census.switch_mask to hand the row checks replacement for every
    row representative that wanted accepts; the patch records their subset
    indices (mask >> 1 under the default up-to-complement convention)."""

    def patch(monkeypatch, subsets):
        real = census.switch_mask

        def fake(base, mask):
            member = real(base, mask)
            if wanted(member):
                subsets.append(mask >> 1)
                return replacement
            return member

        monkeypatch.setattr(census, "switch_mask", fake)

    return patch


def _edit_keys(edit):
    """Patch census._census_key to pass every row key through edit."""

    def patch(monkeypatch, subsets):
        real = census._census_key
        monkeypatch.setattr(census, "_census_key", lambda row: edit(real(row)))

    return patch


SP4_ROW = ((3, 1), (5, 3), (7, 12))  # connected, (alpha, beta) = (8, -9)
K14_2K1 = graph_from_edges(16, [(u, v) for u in range(14) for v in range(u + 1, 14)])
K1_C15 = graph_from_edges(16, [(1 + i, 1 + (i + 1) % 15) for i in range(15)])


@pytest.mark.parametrize(
    "patch, message",
    [
        (
            _swap_members(_regular, cycle(16)),
            "regular member at subset {} is not strongly regular",
        ),
        (
            _swap_members(lambda g: not _regular(g) and is_connected(g), star(16)),
            "four-eigenvalue structure failed at subset {}",
        ),
        (
            # regular, so no two-walk parameters: the structure fails, not the input
            _swap_members(lambda g: not _regular(g) and is_connected(g), cycle(16)),
            "four-eigenvalue structure failed at subset {}",
        ),
        (
            _swap_members(lambda g: not _regular(g) and is_connected(g), path(16)),
            "four-eigenvalue structure failed at subset {}",
        ),
        (
            _swap_members(lambda g: not is_connected(g), K14_2K1),
            "disconnected member at subset {} is not isolated vertex plus strongly regular graph",
        ),
        (
            _swap_members(lambda g: not is_connected(g), K1_C15),
            "disconnected member at subset {}: remainder is not strongly regular",
        ),
        (
            _edit_keys(lambda key: key[:4] + (False,) if key[0] == "regular" else key),
            "regular disconnected member at subset {}",
        ),
        (
            _edit_keys(
                lambda key: (key[0], key[1] + 1, *key[2:]) if key[0] == "nonregular" else key
            ),
            "alpha 9 != 8 forced by the Seidel spectrum at subset {}",
        ),
        (
            _edit_keys(lambda key: (*key[:2], key[2] + 1, *key[3:]) if key[3] == SP4_ROW else key),
            r"row nonregular 8,-8 3\^1,5\^3,7\^12 connected but its representative is "
            r"nonregular 8,-9 3\^1,5\^3,7\^12 connected at subset {}",
        ),
        (
            _edit_keys(lambda key: (*key[:3], ((3, 1), (5, 4), (7, 11)), key[4])
                       if key[3] == SP4_ROW else key),
            r"row nonregular 8,-9 3\^1,5\^4,7\^11 connected but its representative is "
            r"nonregular 8,-9 3\^1,5\^3,7\^12 connected at subset {}",
        ),
    ],
    ids=["regular-not-srg", "four-eigenvalue", "four-eigenvalue-regular",
         "four-eigenvalue-no-two-walk", "two-isolated", "remainder-not-srg",
         "regular-disconnected", "alpha", "beta", "valencies"],
)
def test_row_checks_name_the_failing_row(monkeypatch, patch, message):
    subsets = []
    patch(monkeypatch, subsets)
    with pytest.raises(ClassificationError) as info:
        census_table(symplectic_graph(2))
    subset = str(subsets[0]) if subsets else r"\d+"
    assert re.fullmatch(message.format(subset), str(info.value))


@pytest.mark.parametrize("convention", list(Convention))
def test_row_checks_make_one_char_polys_batch(monkeypatch, convention):
    batches, factors = [], []
    real_char_polys, real_factor = census.char_polys, census.non_main_factor

    def char_polys_spy(mats):
        mats = list(mats)
        batches.append(len(mats))
        return real_char_polys(mats)

    def factor_spy(rep):
        factors.append(rep)
        return real_factor(rep)

    monkeypatch.setattr(census, "char_polys", char_polys_spy)
    monkeypatch.setattr(census, "non_main_factor", factor_spy)
    table = census_table(symplectic_graph(2), convention)
    assert sum(r.kind == "nonregular" and r.connected for r in table.rows) == 30
    assert batches == [30]
    assert len(factors) == 1


def test_row_key_is_checked_where_structure_checks_skip(monkeypatch):
    assert census_table(complete(4)).verification["structure_checks"] == "skipped"
    edit = _edit_keys(
        lambda key: (*key[:2], key[2] + 1, *key[3:]) if key[0] == "nonregular" else key
    )
    edit(monkeypatch, [])
    message = (
        r"^row nonregular 2,1 0\^1,2\^3 disconnected but its representative is "
        r"nonregular 2,0 0\^1,2\^3 disconnected at subset 1$"
    )
    with pytest.raises(ClassificationError, match=message):
        census_table(complete(4))


def _old_sort_key(row):
    """The census order spelled out: non-regular first, then alpha and beta
    (None read as 0), valencies and connectivity."""
    return (
        0 if row.kind == "nonregular" else 1,
        row.alpha if row.alpha is not None else Fraction(0),
        row.beta if row.beta is not None else Fraction(0),
        row.valencies,
        row.connected,
    )


@pytest.mark.parametrize("convention", list(Convention))
@pytest.mark.parametrize(
    "base",
    [complete(4), graph_from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
     symplectic_graph(2)],
    ids=["k4", "c5_k1", "sp4"],
)
def test_rows_sort_by_their_own_fields(base, convention):
    rows = list(census_table(base, convention).rows)
    assert rows == sorted(rows, key=_old_sort_key)
    assert rows == sorted(reversed(rows))


def test_k17_census_counts_and_names_a_corrupted_member(monkeypatch):
    base = complete(17)
    table = census_table(base)
    assert table.verification["seidel_members_checked"] == 1 << 16
    # switching K17 by a set U leaves K_|U| + K_(17-|U|); U or its complement
    # avoids vertex 0, so a split a + (17 - a) occurs comb(17, a) times
    counts = {r.valencies: r.count for r in table.rows}
    for a in range(1, 9):
        assert counts[((a - 1, a), (16 - a, 17 - a))] == comb(17, a)
    _corrupt(monkeypatch, 5)
    with pytest.raises(ClassificationError, match=r"not a switch of the base's at subset 5$"):
        verify_switching_invariance_exhaustive(base)


def test_similarity_certificate_on_a_24_vertex_block():
    # n = 24 is the census cap; every entry is 0 or +-1, so any n is exact
    rng = random.Random(2016)
    base = graph_from_edges(24, [(u, v) for u in range(24) for v in range(u) if rng.random() < 0.5])
    kernel = _BlockKernel(base.adjacency_matrix(), 1)
    start = (1 << 22) + 12345
    subs, adj = next(kernel.blocks(start, start + BLOCK))
    flipped = adj.copy()
    flipped[17, 20, 23] = flipped[17, 23, 20] = 1 - flipped[17, 20, 23]
    kernel.check_similarity(adj, subs)  # a clean block passes
    with pytest.raises(ClassificationError, match=rf"at subset {start + 17}$"):
        kernel.check_similarity(flipped, subs)


def test_similarity_takes_its_signs_from_the_subsets():
    # a right block with wrong subset indices: the switching signs are not
    # read back from the block, so the certificate fails
    base = symplectic_graph(2)
    kernel = _BlockKernel(base.adjacency_matrix(), 1)
    subs, adj = next(kernel.blocks(640, 640 + BLOCK))
    wrong = subs.copy()
    wrong[9] ^= 1 << 4
    with pytest.raises(ClassificationError, match=rf"at subset {wrong[9]}$"):
        kernel.check_similarity(adj.copy(), wrong)
    kernel.check_similarity(adj, subs)
