import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mainspectra import (
    char_poly,
    cycle,
    distinct_root_count,
    eigenvalues_float,
    path,
    poly_divides,
    rank_exact,
    squarefree_part,
)
from mainspectra.linalg import (
    cluster_floats,
    poly_derivative,
    poly_eval,
    poly_gcd,
    poly_mul,
    poly_pow,
)


# -- oracles -----------------------------------------------------------------


def det_cofactor(m):
    """Independent determinant by cofactor expansion (exact, small n only)."""
    n = len(m)
    if n == 1:
        return m[0][0]
    total = 0
    for j in range(n):
        if m[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1 :] for row in m[1:]]
        total += (-1) ** j * m[0][j] * det_cofactor(minor)
    return total


# -- rank --------------------------------------------------------------------


def test_rank_basics():
    assert rank_exact([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert rank_exact([[1, 1, 1], [1, 1, 1], [1, 1, 1]]) == 1


def test_rank_walk_matrix_p3():
    # columns j, Aj, A^2 j for the 3-path: A^2 j = 2 j
    m = [[1, 1, 2], [1, 2, 2], [1, 1, 2]]
    assert rank_exact(m) == 2


def test_rank_fractions():
    # second row is 3x the first: rank 1
    m = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), Fraction(1, 1)]]
    assert rank_exact(m) == 1
    m[1][1] = Fraction(2)
    assert rank_exact(m) == 2


@settings(max_examples=60)
@given(st.integers(0, 10**6))
def test_rank_invariant_under_permutation_and_transpose(seed):
    rng = random.Random(seed)
    nr, nc = rng.randint(1, 5), rng.randint(1, 5)
    m = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
    r = rank_exact(m)
    rows = list(m)
    rng.shuffle(rows)
    cols = list(range(nc))
    rng.shuffle(cols)
    shuffled = [[row[c] for c in cols] for row in rows]
    assert rank_exact(shuffled) == r
    assert rank_exact([[m[i][j] for i in range(nr)] for j in range(nc)]) == r


# -- characteristic polynomials ----------------------------------------------


def test_char_poly_small_graphs():
    k2 = [[0, 1], [1, 0]]
    assert char_poly(k2) == (-1, 0, 1)  # x^2 - 1
    assert char_poly(cycle(4).adjacency_matrix()) == (0, 0, -4, 0, 1)  # x^4 - 4 x^2
    assert char_poly(path(3).adjacency_matrix()) == (0, -2, 0, 1)  # x^3 - 2 x


def test_char_poly_rejects_nonsquare():
    with pytest.raises(ValueError):
        char_poly([[1, 2, 3], [4, 5, 6]])


@settings(max_examples=40)
@given(st.integers(0, 10**6))
def test_char_poly_matches_cofactor_oracle(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    m = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
    p = char_poly(m)
    for x in (-2, -1, 0, 1, 2, 3):
        shifted = [
            [x - m[i][j] if i == j else -m[i][j] for j in range(n)] for i in range(n)
        ]
        assert poly_eval(p, x) == det_cofactor(shifted)


# -- squarefree / divisibility -----------------------------------------------


def test_squarefree_examples():
    p = poly_mul(poly_pow((-1, 1), 2), (2, 1))  # (x-1)^2 (x+2)
    assert squarefree_part(p) == poly_mul((-1, 1), (2, 1))
    assert distinct_root_count(p) == 2
    c4 = char_poly(cycle(4).adjacency_matrix())
    assert squarefree_part(c4) == (0, -4, 0, 1)  # x (x^2 - 4)
    assert distinct_root_count(c4) == 3
    assert squarefree_part((-2, 0, 1)) == (-2, 0, 1)
    with pytest.raises(ValueError):
        squarefree_part(())


def test_poly_gcd_basics():
    a = poly_mul((1, 1), (-3, 1))
    b = poly_mul((1, 1), (5, 1))
    assert poly_gcd(a, b) == (1, 1)
    assert poly_gcd((0,), (2, 2)) == (1, 1)


def test_divides_examples():
    ok, quo = poly_divides((-1, 0, 1), (-1, 0, 0, 0, 1))  # (x^2-1) | (x^4-1)
    assert ok and quo == (1, 0, 1)
    ok, quo = poly_divides((-3, 1), (-2, 0, 1))  # (x-3) does not divide x^2-2
    assert not ok and quo is None


def test_divides_rational_divisor():
    divisor = (Fraction(-1, 2), Fraction(1))  # x - 1/2
    target = poly_mul(divisor, (2, 2))
    ok, _ = poly_divides(divisor, target)
    assert ok


# -- float channel -----------------------------------------------------------


def test_eigenvalues_float_examples():
    assert eigenvalues_float([[0, 1], [1, 0]]) == pytest.approx([-1, 1])
    import math

    expected = sorted(2 * math.cos(2 * math.pi * k / 5) for k in range(5))
    assert eigenvalues_float(cycle(5).adjacency_matrix()) == pytest.approx(expected)
    assert eigenvalues_float(path(3).adjacency_matrix()) == pytest.approx(
        [-math.sqrt(2), 0, math.sqrt(2)]
    )
    with pytest.raises(ValueError):
        eigenvalues_float([[0, 1], [0, 0]])


@settings(max_examples=40)
@given(st.integers(0, 10**6))
def test_float_eigs_near_char_poly_roots(seed):
    import numpy as np

    rng = random.Random(seed)
    n = rng.randint(1, 7)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            val = rng.choice((0, 0, 1, -1, 2))
            m[i][j] = m[j][i] = val
    p = char_poly(m)
    eigs = eigenvalues_float(m)
    # roots of the squarefree part are simple, hence well-conditioned
    roots = np.roots(list(reversed(squarefree_part(p))))
    for lam in eigs:
        assert min(abs(lam - r) for r in roots) < 1e-9
    clusters = cluster_floats(eigs, tol=1e-6)
    assert len(clusters) == distinct_root_count(p)


def test_derivative():
    assert poly_derivative((5, 3, 2)) == (3, 4)
    assert poly_derivative((7,)) == ()
