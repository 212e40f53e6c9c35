"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`.
"""

import importlib.util
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

from mainspectra import (
    Convention,
    analyze,
    boundary_impossibility,
    bundled_reference_rows,
    census_table,
    char_poly,
    compare_to_reference,
    cone_over_regular,
    cycle,
    degree_vector,
    distinct_root_count,
    equitable_biregular_from,
    is_connected,
    is_equitable,
    seidel_reports,
    sp_component,
    splice_chain,
    srg_params,
    symplectic_graph,
    t_lambda_tree,
    three_valenced_boundary,
    two_walk_params,
    valency_partition,
    verify_switching_invariance_exhaustive,
)
from mainspectra.census import valencies_str
from mainspectra.linalg import poly_mul
from mainspectra.seidel import switch_mask

from oracles import classify_member, diameter, poly_pow, relabel

RESULTS = Path(__file__).resolve().parent.parent / "results"

EXPECTED_BETAS = [-9, -8, -5, -4, -1, 0, 3, 4, 7, 8, 11, 12, 15]


@pytest.fixture(scope="session")
def base16():
    return symplectic_graph(2)


@pytest.fixture(scope="session")
def census_run(base16):
    t0 = time.perf_counter()
    table = census_table(base16, Convention.UP_TO_COMPLEMENT, workers=1)
    elapsed = time.perf_counter() - t0
    return table, elapsed


def test_criterion_1_table_reproduction(census_run):
    table, elapsed = census_run
    assert elapsed < 60.0, f"census took {elapsed:.1f}s"

    nonreg = [r for r in table.rows if r.kind == "nonregular"]
    keys = sorted({(r.alpha, r.beta) for r in nonreg}, key=lambda p: p[1])
    assert all(a == 8 for a, _ in keys)
    assert [int(b) for _, b in keys] == EXPECTED_BETAS

    for r in nonreg:
        disc16 = 16 + r.beta
        got = r.two_walk.exact_strings()
        if r.beta == 0:  # disc16 = 16: integral roots 8 and 0
            assert got == ("8", "0")
        else:
            assert got == (f"4+sqrt({disc16})", f"4-sqrt({disc16})")

    reference = bundled_reference_rows()
    computed_patterns = {valencies_str(r.valencies) for r in nonreg}
    for ref in reference:
        assert valencies_str(ref.valencies) in computed_patterns, (
            f"reference valency pattern {valencies_str(ref.valencies)} absent"
        )

    audit = compare_to_reference(table, reference)
    verdicts = {r["verdict"] for r in audit.rows}
    assert audit.totals["verdict_match"] >= 30
    for row in audit.rows:
        if row["verdict"] in ("match", "count-mismatch"):
            assert row["main_values_match"]

    artifact = RESULTS / "census_audit.json"
    assert artifact.exists(), "run scripts/run_census.py to produce the audit artifact"
    stored = json.loads(artifact.read_text())
    assert stored["audits"]["up-to-complement"]["totals"] == audit.totals
    print(
        f"\n[acceptance] criterion 1: PASS (census {elapsed:.1f}s, "
        f"{len(nonreg)} nonregular rows, audit verdicts {sorted(verdicts)})"
    )


def test_criterion_2_convention_stable_counts(census_run):
    table, _ = census_run
    index = table.nonregular_index()
    row_a = index[(Fraction(8), Fraction(0), ((0, 1), (8, 15)))]
    row_b = index[(Fraction(8), Fraction(15), ((9, 15), (15, 1)))]
    assert row_a.count == 16
    assert row_b.count == 16
    print("\n[acceptance] criterion 2: PASS (both convention-stable rows count 16)")


def test_criterion_3_symplectic_parameters():
    t0 = time.perf_counter()
    assert srg_params(sp_component(2)) == (15, 8, 4, 4)
    assert srg_params(sp_component(3)) == (63, 32, 16, 16)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\n[acceptance] criterion 3: PASS ({elapsed:.2f}s)")


def _expected_member_poly(beta) -> tuple:
    quad = (-beta, -8, 1)
    return poly_mul(quad, poly_mul(poly_pow((2, 1), 9), poly_pow((-2, 1), 5)))


def test_criterion_4_member_structure(base16, census_run):
    table, _ = census_run
    # one representative per row
    for row in table.rows:
        if row.kind != "nonregular":
            continue
        member = switch_mask(base16, row.representative_subset << 1)
        cp = char_poly(member.adjacency_matrix())
        assert cp == _expected_member_poly(int(row.beta))
        assert distinct_root_count(cp) == 4

    # >= 500 deterministic samples of non-regular members (subset stride 61)
    samples = 0
    for sub in range(0, 1 << 15, 61):
        member = switch_mask(base16, sub << 1)
        key = classify_member(member)
        if key[0] != "nonregular":
            continue
        samples += 1
        cp = char_poly(member.adjacency_matrix())
        assert cp == _expected_member_poly(int(key[2]))
        assert distinct_root_count(cp) == 4
    assert samples >= 500, f"only {samples} non-regular samples"
    print(f"\n[acceptance] criterion 4: PASS ({samples} sampled members + row representatives)")


def test_criterion_5_harmonic_fixtures(connected_n_le_8, connected_n_le_8_reports, monkeypatch):
    t0 = time.perf_counter()
    monkeypatch.setenv("MAINSPECTRA_VERTEX_CAP", "256")
    for lam in range(2, 7):
        rep = analyze(t_lambda_tree(lam))
        assert rep.harmonic_delta == lam
        assert rep.two_walk.exact_strings() == (str(lam), "0")
        assert abs(rep.two_walk.floats()[0] - rep.spectral_radius) < 1e-9

    two_harmonic = [
        g for g, rep in zip(connected_n_le_8, connected_n_le_8_reports) if rep.harmonic_delta == 2
    ]
    t2 = t_lambda_tree(2)
    t2_nx = nx.Graph(t2.edges())
    cycles = 0
    t2_hits = 0
    for g in two_harmonic:
        degs = set(degree_vector(g))
        if degs == {2}:
            cycles += 1
        else:
            assert nx.is_isomorphic(nx.Graph(g.edges()), t2_nx)
            t2_hits += 1
    assert cycles == 6  # C_3 .. C_8
    assert t2_hits == 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"\n[acceptance] criterion 5: PASS ({elapsed:.1f}s, {len(two_harmonic)} two-harmonic graphs)")


def test_criterion_6_biregular_sweep():
    pairs = 0
    for alpha in range(0, 11):
        for beta in range(-30, 31):
            disc = alpha * alpha + 4 * beta
            if not 5 <= disc <= 60:
                continue
            g = equitable_biregular_from(alpha, beta)
            assert is_connected(g)
            blocks = valency_partition(g)
            assert len(blocks) == 2
            assert is_equitable(g, blocks)
            assert two_walk_params(g) == analyze(g).two_walk
            assert two_walk_params(g).alpha == alpha and two_walk_params(g).beta == beta
            pairs += 1
    assert pairs == 154

    boundary = 0
    for alpha in range(0, 11, 2):
        beta = 1 - alpha * alpha // 4
        cert = boundary_impossibility(alpha, beta)
        assert cert.verify() and cert.row_sums_equal
        boundary += 1
        if alpha >= 4:
            g = three_valenced_boundary(alpha)
            blocks = valency_partition(g)
            assert len(blocks) == 3 and is_equitable(g, blocks)
            assert two_walk_params(g).alpha == alpha
            assert two_walk_params(g).beta == beta
    print(f"\n[acceptance] criterion 6: PASS ({pairs} pairs, {boundary} boundary certificates)")


def test_criterion_7_splice_family():
    seed = cone_over_regular(cycle(4))
    diams = []
    for k in range(1, 6):
        g = splice_chain(seed, (4, 0), k).graph
        tw = two_walk_params(g)
        assert (tw.alpha, tw.beta) == (2, 4)
        assert max(degree_vector(g)) == 4
        diams.append(diameter(g))
    assert all(b > a for a, b in zip(diams, diams[1:])), diams
    print(f"\n[acceptance] criterion 7: PASS (diameters {diams})")


def _float_main_count(g) -> int:
    a = np.array(g.adjacency_matrix(), dtype=float)
    w, v = np.linalg.eigh(a)
    j = np.ones(g.n)
    count = 0
    start = 0
    for i in range(1, g.n + 1):
        if i == g.n or w[i] - w[i - 1] > 1e-6:
            block = v[:, start:i]
            if np.linalg.norm(block.T @ j) > 1e-6:
                count += 1
            start = i
    return count


def test_criterion_8_oracle_equivalence(connected_n_le_8, connected_n_le_8_reports, all_n_le_7):
    mismatches = [
        g
        for g, rep in zip(connected_n_le_8, connected_n_le_8_reports)
        if rep.main_count != _float_main_count(g)
    ]
    assert not mismatches, f"{len(mismatches)} main-count mismatches"

    prop31 = [
        g
        for g, rep in zip(all_n_le_7, seidel_reports(all_n_le_7))
        if rep.strong != (srg_params(g) is not None or rep.distinct_seidel_count == 2)
    ]
    assert not prop31, f"{len(prop31)} strong-graph mismatches"
    print(
        f"\n[acceptance] criterion 8: PASS ({len(connected_n_le_8)} connected graphs, "
        f"{len(all_n_le_7)} graphs for the strong biconditional, zero mismatches)"
    )


def test_criterion_9_worker_determinism(base16, census_run):
    table1, _ = census_run
    csv1 = table1.to_csv()
    for workers in (4, 8):
        other = census_table(base16, Convention.UP_TO_COMPLEMENT, workers=workers)
        assert other.to_csv() == csv1, f"CSV differs with {workers} workers"
        assert other.verification == table1.verification, (
            f"verification differs with {workers} workers"
        )
    print("\n[acceptance] criterion 9: PASS (same CSV and verification for 1, 4, 8 workers)")


def test_exhaustive_switching_invariance(base16):
    checked = verify_switching_invariance_exhaustive(base16, Convention.UP_TO_COMPLEMENT)
    assert checked == 1 << 15
    print(f"\n[acceptance] switching invariance: PASS ({checked} members, exact)")


def test_census_relabel_invariance(base16, census_run):
    table, _ = census_run
    perm = [(5 * v + 3) % 16 for v in range(16)]
    scrambled = census_table(relabel(base16, perm))
    strip = lambda t: [
        (r.kind, r.alpha, r.beta, r.valencies, r.connected, r.count) for r in t.rows
    ]
    assert strip(scrambled) == strip(table)
    print("\n[acceptance] relabeled-base census: PASS (identical table)")


def test_run_census_reproduces_results(tmp_path, monkeypatch, capsys):
    # the script that makes results/ rewrites its three files byte for byte
    script = RESULTS.parent / "scripts" / "run_census.py"
    spec = importlib.util.spec_from_file_location("run_census", script)
    run_census = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_census)
    monkeypatch.setattr(run_census, "RESULTS", tmp_path)
    assert run_census.main([]) == 0
    capsys.readouterr()
    names = ["census_up_to_complement.csv", "census_all_subsets.csv", "census_audit.json"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
    for name in names:
        assert (tmp_path / name).read_bytes() == (RESULTS / name).read_bytes(), name
    print("\n[acceptance] run_census.py: PASS (results/ reproduced byte for byte)")


def test_run_census_runs_from_a_plain_checkout(tmp_path):
    # neither installed nor on PYTHONPATH: the script finds this checkout's src/
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    script = RESULTS.parent / "scripts" / "run_census.py"
    done = subprocess.run([sys.executable, str(script), "--help"], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
