import random
from fractions import Fraction

import numpy as np
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
    quotient_matrix,
    rank_exact,
    refine_to_equitable,
    seidel_matrix,
    squarefree_part,
    symplectic_graph,
    valency_partition,
)
from mainspectra import linalg
from mainspectra.linalg import (
    cluster_floats,
    poly_derivative,
    poly_eval,
    poly_gcd,
    poly_mul,
    poly_pow,
    primes_below,
)
from mainspectra.seidel import switch_mask


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


def char_poly_object(mat):
    """Faddeev-LeVerrier on numpy object arrays of Python ints; the division
    by k is exact over the integers."""
    n = len(mat)
    a = np.array([[int(x) for x in row] for row in mat], dtype=object).reshape(n, n)
    ident = np.array([[int(i == j) for j in range(n)] for i in range(n)], dtype=object)
    m = np.zeros((n, n), dtype=object)
    c = 1
    coeffs_desc = [1]
    for k in range(1, n + 1):
        m = a @ (m + c * ident)
        t = int(np.trace(m))
        assert t % k == 0
        c = -(t // k)
        coeffs_desc.append(c)
    return tuple(reversed(coeffs_desc))


def sp6_member():
    """A seeded switch of Sp(6): n = 64, Seidel spectrum {7^36, -9^28}."""
    return switch_mask(symplectic_graph(3), random.Random(901).getrandbits(64))


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


def test_char_poly_one_vertex():
    assert char_poly([[0]]) == (0, 1)
    assert char_poly([[5]]) == (-5, 1)
    assert char_poly([[-(10**30)]]) == (10**30, 1)  # A reduced modulo each prime


def test_char_poly_matches_object_oracle(all_n_le_7):
    mats = [m for g in all_n_le_7 for m in (seidel_matrix(g), g.adjacency_matrix())]
    sp4 = symplectic_graph(2)
    mats += [seidel_matrix(sp4), sp4.adjacency_matrix()]
    for m in mats:
        assert char_poly(m) == char_poly_object(m)


def test_char_poly_sp6_member():
    g = sp6_member()
    assert char_poly(seidel_matrix(g)) == poly_mul(poly_pow((-7, 1), 36), poly_pow((9, 1), 28))
    q = quotient_matrix(g, refine_to_equitable(g, valency_partition(g))).int_matrix()
    assert len(q) == 64
    assert char_poly(q) == char_poly_object(q)


def test_char_poly_check_prime_catches_a_low_bound(monkeypatch):
    # with the bound at 1 one prime is used for the CRT, far too few for the
    # Sp(6) coefficients, and the check prime must notice
    monkeypatch.setattr(linalg, "_coefficient_bound", lambda rows: 1)
    with pytest.raises(AssertionError, match="check prime"):
        char_poly(seidel_matrix(sp6_member()))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_char_poly_large_entries(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    m = [[rng.randint(-(10**12), 10**12) for _ in range(n)] for _ in range(n)]
    p = char_poly(m)
    assert p == char_poly_object(m)
    x = rng.randint(-(10**12), 10**12)
    shifted = [[x - m[i][j] if i == j else -m[i][j] for j in range(n)] for i in range(n)]
    assert poly_eval(p, x) == det_cofactor(shifted)


def test_char_poly_refuses_without_enough_primes(monkeypatch):
    # C4's Seidel bound is 81: the primes 11, 7, 5 in 5..11 cover 2 * 81, and
    # no prime is left above n = 4 for the check
    monkeypatch.setattr(linalg, "_PRIME_TOP", 12)
    with pytest.raises(ValueError, match="too few primes"):
        char_poly(seidel_matrix(cycle(4)))


def test_primes_below():
    assert list(primes_below(30)) == [29, 23, 19, 17, 13, 11, 7, 5, 3, 2]
    assert list(primes_below(2)) == []
    first = primes_below(1 << 26)
    assert [next(first), next(first)] == [67108859, 67108837]


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
    with pytest.raises(ValueError, match=r"^matrix not symmetric at \(0, 1\)$"):
        eigenvalues_float([[0, 1], [0, 0]])
    # asymmetric at (0, 3) and (1, 2): the first in row-major order is named
    m = [[0] * 4 for _ in range(4)]
    m[0][3] = m[1][2] = 1
    with pytest.raises(ValueError, match=r"^matrix not symmetric at \(0, 3\)$"):
        eigenvalues_float(m)
    with pytest.raises(ValueError, match="^matrix is not square$"):
        eigenvalues_float([[1, 2, 3], [4, 5, 6]])


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
