import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mainspectra import (
    char_poly,
    char_polys,
    cycle,
    distinct_root_count,
    seidel_matrix,
    symplectic_graph,
    valency_partition,
)
from mainspectra import linalg
from mainspectra.equitable import _refine
from mainspectra.linalg import (
    cluster_floats,
    extract_integer_roots,
    order_stacks,
    poly_derivative,
    poly_mul,
    poly_primitive,
    poly_trim,
    primes_below,
)
from mainspectra.seidel import switch_mask

from oracles import (
    path,
    poly_divides,
    poly_eval,
    poly_gcd,
    poly_pow,
    quotient_matrix,
    rank_exact,
    squarefree_part,
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


def squarefree_part_fraction(p):
    """p / gcd(p, p') by long division over the rationals, primitive with
    positive leading coefficient."""
    p = poly_trim(p)
    if len(p) == 1:
        return (1,)
    g = poly_gcd(p, poly_derivative(p))
    rem = [Fraction(c) for c in p]
    quo = [Fraction(0)] * (len(p) - len(g) + 1)
    while len(rem) >= len(g) and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) < len(g):
            break
        shift = len(rem) - len(g)
        factor = rem[-1] / Fraction(g[-1])
        quo[shift] = factor
        for j, c in enumerate(g):
            rem[shift + j] -= factor * c
        rem.pop()
    assert not any(rem)
    assert all(c.denominator == 1 for c in quo)
    quo = poly_primitive([int(c) for c in quo])
    return tuple([-c for c in quo]) if quo[-1] < 0 else quo


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
    with pytest.raises(ValueError):  # ragged: numpy refuses the array
        char_poly([[0, 1], [1]])
    for mat in ([0, 1], np.zeros((2, 2, 2), dtype=np.int64)):  # 1-D, 3-D
        with pytest.raises(ValueError, match="^matrix is not square$"):
            char_poly(mat)


def test_char_polys_reject_non_integer_and_wide_matrices():
    top = 1 << 26  # the largest absolute row sum char_polys accepts
    assert char_poly([[-top]]) == (top, 1)
    assert char_poly([[top // 2, -top // 2], [1, 0]]) == (top // 2, -top // 2, 1)
    assert char_poly(np.array([[0, 1], [1, 0]], dtype=np.uint8)) == (-1, 0, 1)
    refused = [
        [[0.5]],  # a float would be truncated
        np.eye(2),
        [[2**63]],  # beyond int64: an object array
        np.array([[2**64 - 1]], dtype=np.uint64),
        np.array([[np.iinfo(np.int64).min]]),  # np.abs of it is negative
        [[top // 2, top // 2 + 1], [0, 0]],  # row sum top + 1
        [[top + 1]],
    ]
    for mat in refused:
        with pytest.raises(ValueError):
            char_poly(mat)
        with pytest.raises(ValueError):  # also inside a stack of valid matrices
            char_polys([[[0, 1], [1, 0]], mat, [[1]]])


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
    with pytest.raises(ValueError):  # beyond int64
        char_poly([[-(10**30)]])


def test_char_poly_matches_object_oracle(all_n_le_7):
    mats = [m for g in all_n_le_7 for m in (seidel_matrix(g), g.adjacency_matrix())]
    sp4 = symplectic_graph(2)
    mats += [seidel_matrix(sp4), sp4.adjacency_matrix()]
    for m in mats:
        assert char_poly(m) == char_poly_object(m)


def test_char_poly_sp6_member():
    g = sp6_member()
    assert char_poly(seidel_matrix(g)) == poly_mul(poly_pow((-7, 1), 36), poly_pow((9, 1), 28))
    q = quotient_matrix(g, _refine(g, valency_partition(g))[0]).int_matrix()
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
    # absolute row sums up to 2^26, where the float64 exactness proof is tight
    rng = random.Random(seed)
    n = rng.randint(1, 9)
    top = 1 << 26
    m = [[rng.randint(-(top // n), top // n) for _ in range(n)] for _ in range(n)]
    cuts = sorted(rng.randint(0, top) for _ in range(n - 1))
    m[rng.randrange(n)] = [rng.choice((-1, 1)) * (b - a) for a, b in zip([0, *cuts], [*cuts, top])]
    p = char_poly(m)
    assert p == char_poly_object(m)
    x = rng.randint(-top, top)
    shifted = [[x - m[i][j] if i == j else -m[i][j] for j in range(n)] for i in range(n)]
    assert poly_eval(p, x) == det_cofactor(shifted)


def test_char_polys_mixed_stack():
    rng = random.Random(7)
    mats = [seidel_matrix(g) for g in (cycle(4), path(5), symplectic_graph(2))]
    # the n = 4 group mixes C4's S (bound 81) with entries up to 10^4 (|det| ~ 10^16)
    for n in (2, 4, 4, 7):
        mats.append([[rng.randint(-(10**4), 10**4) for _ in range(n)] for _ in range(n)])
    mats += [[[0]], [[-3]], seidel_matrix(path(4))]
    assert char_polys(mats) == [char_poly_object(m) for m in mats]
    assert char_polys([]) == []
    mats.insert(3, [[1, 2, 3], [4, 5, 6], [7, 8, -(10**9)]])  # row sum > 2^26
    with pytest.raises(ValueError):
        char_polys(mats)


def test_char_polys_splits_at_the_element_budget(monkeypatch):
    # order_stacks cuts 40 n = 8 Seidel matrices under a budget of 1,920
    # elements into stacks of 30 and 10, and the n = 16 matrix runs alone
    stacks = []
    original = linalg._char_poly_stack
    monkeypatch.setattr(linalg, "_STACK_ELEMENTS", 1920)

    def recording(stack, *args):
        stacks.append(len(stack))
        return original(stack, *args)

    monkeypatch.setattr(linalg, "_char_poly_stack", recording)
    rng = random.Random(3)
    graphs = [switch_mask(cycle(8), rng.getrandbits(8)) for _ in range(20)]
    graphs += [switch_mask(path(8), rng.getrandbits(8)) for _ in range(20)]
    mats = [seidel_matrix(g) for g in graphs] + [seidel_matrix(symplectic_graph(2))]
    assert char_polys(mats) == [char_poly_object(m) for m in mats]
    assert stacks == [30, 10, 1]


def test_char_polys_splits_the_primes_of_a_large_matrix(monkeypatch):
    # a budget of two n = 16 lanes: Sp(4)'s two matrices share one stack and
    # run its 3 primes one at a time, and the n = 64 Sp(6) Seidel matrix its
    # 9 one by one
    groups = []
    original = linalg._residues

    def recording(stack, a, moduli, *constants):
        groups.append((len(stack[0]), len(moduli)))
        return original(stack, a, moduli, *constants)

    monkeypatch.setattr(linalg, "_STACK_ELEMENTS", 3 * 16 * 16 * 2)
    monkeypatch.setattr(linalg, "_residues", recording)
    sp4 = symplectic_graph(2)
    mats = [seidel_matrix(sp4), sp4.adjacency_matrix()]
    assert char_polys(mats) == [char_poly_object(m) for m in mats]
    assert groups == [(16, 1)] * 3
    groups.clear()
    s = seidel_matrix(sp6_member())
    assert char_poly(s) == poly_mul(poly_pow((-7, 1), 36), poly_pow((9, 1), 28))
    assert groups == [(64, 1)] * 9
    # the check prime still runs after the last group
    monkeypatch.setattr(linalg, "_coefficient_bound", lambda rows: 1)
    with pytest.raises(AssertionError, match="check prime"):
        char_poly(s)


def test_order_zero_is_a_stack_and_has_char_poly_one():
    assert order_stacks([0, 3, 0]) == [[0, 2], [1]]
    assert char_polys([np.zeros((0, 0), np.int64)]) == [(1,)]


def test_char_polys_check_prime_catches_a_low_bound_in_a_stack(monkeypatch):
    monkeypatch.setattr(linalg, "_coefficient_bound", lambda rows: 1)
    g = sp6_member()
    with pytest.raises(AssertionError, match="check prime"):
        char_polys([seidel_matrix(g), g.adjacency_matrix(), seidel_matrix(symplectic_graph(2))])


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


# the largest odd primes below 2^26 and some small ones
_CRT_PRIMES = [q for q, _ in zip(primes_below(1 << 26), range(40))] + [3, 5, 7, 101, 65537]


@st.composite
def crt_cases(draw):
    """1-6 distinct primes and integers of mixed sign within +-floor(P/2),
    P their product, both ends of that range included."""
    primes = draw(st.lists(st.sampled_from(_CRT_PRIMES), min_size=1, max_size=6, unique=True))
    half = math.prod(primes) // 2
    return primes, draw(st.lists(st.integers(-half, half), max_size=8)) + [-half, half]


@settings(max_examples=300, deadline=None)
@given(crt_cases())
def test_crt_rebuilds_the_symmetric_range(case):
    primes, values = case
    residues = [(q, [x % q for x in values]) for q in primes]
    assert linalg._crt(residues) == (values, math.prod(primes))


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


@st.composite
def integer_polys(draw):
    """Products of powers of small integer factors times a content: not
    monic and often not primitive."""
    p = (draw(st.sampled_from([1, -1, 2, -3, 6, 12])),)
    for _ in range(draw(st.integers(0, 4))):
        f = draw(st.lists(st.integers(-4, 4), min_size=2, max_size=3))
        if poly_trim(f):
            p = poly_mul(p, poly_pow(f, draw(st.integers(1, 3))))
    return p


@st.composite
def wide_integer_polys(draw):
    """Products of powers of factors with coefficients up to 10^9 times a
    content: their gcd with the derivative needs several primes."""
    p = (draw(st.sampled_from([1, -1, 2, -3, 6, 12])),)
    for _ in range(draw(st.integers(1, 4))):
        f = draw(st.lists(st.integers(-(10**9), 10**9), min_size=2, max_size=4))
        if poly_trim(f):
            p = poly_mul(p, poly_pow(f, draw(st.integers(1, 4))))
    return p


@settings(max_examples=250, deadline=None)
@given(st.one_of(integer_polys(), wide_integer_polys()))
def test_squarefree_part_matches_fraction_oracle(p):
    # the modular gcd against the pseudo-remainder one
    p = poly_trim(p)
    g = poly_gcd(p, poly_derivative(p))
    assert linalg._derivative_gcd(p) == g
    assert distinct_root_count(p) == len(p) - len(g)
    assert squarefree_part(p) == squarefree_part_fraction(p)


def _primes_from(first):
    """A prime source that yields first, then the package's own primes."""
    def primes(top):
        yield first
        yield from primes_below(top)
    return primes


def test_modular_gcd_skips_a_prime_dividing_the_lead(monkeypatch):
    # (3x + 1)^2 is 1 modulo 3, whose gcd with its derivative is constant
    # there: taken as proof, 3 would call p squarefree
    monkeypatch.setattr(linalg, "primes_below", _primes_from(3))
    p = poly_pow((1, 3), 2)
    assert squarefree_part(p) == (1, 3)
    assert distinct_root_count(p) == 1
    p = poly_mul(p, poly_pow((-5, 1), 3))  # lead 9 still
    assert squarefree_part(p) == poly_mul((1, 3), (-5, 1))
    assert distinct_root_count(p) == 2


def test_modular_gcd_recovers_from_an_unlucky_prime(monkeypatch):
    # p = x (x - q) (x - 1)^2 is x^2 (x - 1)^2 modulo q, where the gcd with
    # p' is x (x - 1): the candidate x^2 - x divides p but not p', and the
    # next prime, of lower degree, discards it
    q = 101
    p = poly_mul(poly_mul((0, 1), (-q, 1)), poly_pow((-1, 1), 2))
    results = []
    exact_quotient = linalg._exact_quotient

    def recording(a, b):
        results.append((a, b, exact_quotient(a, b)))
        return results[-1][2]

    monkeypatch.setattr(linalg, "primes_below", _primes_from(q))
    monkeypatch.setattr(linalg, "_exact_quotient", recording)
    assert linalg._derivative_gcd(p) == (-1, 1)
    dp = poly_derivative(p)
    assert (p, (0, -1, 1)) == results[0][:2] and results[0][2] is not None
    assert results[1] == (dp, (0, -1, 1), None)
    assert distinct_root_count(p) == 3
    assert squarefree_part(p) == poly_mul((0, 1), poly_mul((-q, 1), (-1, 1)))


def test_modular_gcd_never_lifts_a_prime_of_higher_degree(monkeypatch):
    # p = x (x - 101) (x - 10^9)^2: its gcd with p' is x - 10^9, which one
    # prime near 2^26 cannot lift; modulo 101 the gcd is x (x - 10), of
    # higher degree, so 101 is skipped and the lift takes the next prime
    p = poly_mul(poly_mul((0, 1), (-101, 1)), poly_pow((-(10**9), 1), 2))
    primes = [67108859, 101, 67108837, 67108819]
    lifted = []
    crt = linalg._crt

    def recorded(residues):
        lifted.append([q for q, _ in residues])
        return crt(residues)

    monkeypatch.setattr(linalg, "primes_below", lambda _top: iter(primes))
    monkeypatch.setattr(linalg, "_crt", recorded)
    assert linalg._derivative_gcd(p) == (-(10**9), 1)
    assert lifted == [[67108859], [67108859, 67108837]]


def test_squarefree_part_needs_a_divisor(monkeypatch):
    monkeypatch.setattr(linalg, "_derivative_gcd", lambda p: (1, 1))  # x + 1
    with pytest.raises(AssertionError, match="gcd does not divide"):
        squarefree_part((1, 0, 1))  # x^2 + 1
    # 3x^2 = (3/2)x * 2x: the quotient is not integral, though the remainder is 0
    monkeypatch.setattr(linalg, "_derivative_gcd", lambda p: (0, 2))
    with pytest.raises(AssertionError, match="gcd does not divide"):
        squarefree_part((0, 0, 3))


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
    eigs = np.linalg.eigvalsh(np.array(m, dtype=float)).tolist()
    # roots of the squarefree part are simple, hence well-conditioned
    roots = np.roots(list(reversed(squarefree_part(p))))
    for lam in eigs:
        assert min(abs(lam - r) for r in roots) < 1e-9
    clusters = cluster_floats(eigs)
    assert len(clusters) == distinct_root_count(p)


def test_derivative():
    assert poly_derivative((5, 3, 2)) == (3, 4)
    assert poly_derivative((7,)) == ()


def test_extract_integer_roots_peels_multiplicities():
    p = poly_mul(poly_mul(poly_mul((-3, 1), (-3, 1)), (1, 1)), (1, 0, 1))
    assert extract_integer_roots(p, range(-5, 6)) == ([(3, 2), (-1, 1)], (1, 0, 1))
    # a root outside the candidates stays in the residual factor
    assert extract_integer_roots(p, range(-5, 3)) == ([(-1, 1)], (9, -6, 10, -6, 1))
    # the rational root 1/2 is no integer root
    q = poly_mul(poly_mul((-1, 2), (0, 1)), (-1, 1))
    assert extract_integer_roots(q, range(-3, 4)) == ([(1, 1), (0, 1)], (-1, 2))
