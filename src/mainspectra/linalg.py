"""Exact integer/rational linear algebra plus a float cross-check channel.

Every classification decision in this package (ranks, characteristic
polynomials, integer roots, divisibility) runs in exact arithmetic;
floating-point eigenvalues exist only for reports and cross-checks.

Polynomials are tuples of arbitrary-precision coefficients in ascending
order of degree, trimmed of trailing zeros; () is the zero polynomial.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from fractions import Fraction
from functools import lru_cache
from itertools import takewhile
from operator import mul

import numpy as np

Poly = tuple


# ---------------------------------------------------------------------------
# matrices


def rank_exact(mat) -> int:
    """Rank over the rationals by fraction-free (Bareiss) elimination.

    Accepts int or Fraction entries; rows are scaled integral first, which
    leaves the rank unchanged.
    """
    rows = []
    width = None
    for row in mat:
        row = list(row)
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValueError("ragged matrix")
        den = 1
        for x in row:
            if isinstance(x, Fraction):
                den = den * x.denominator // math.gcd(den, x.denominator)
        rows.append([int(x * den) for x in row])
    if not rows or width == 0:
        return 0
    nr, nc = len(rows), width
    rank = 0
    prev = 1
    for col in range(nc):
        piv = next((r for r in range(rank, nr) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][col]
        for r in range(rank + 1, nr):
            rc = rows[r][col]
            rr = rows[r]
            rp = rows[rank]
            for c in range(col + 1, nc):
                rr[c] = (rr[c] * pv - rc * rp[c]) // prev
            rr[col] = 0
        prev = pv
        rank += 1
        if rank == nr:
            break
    return rank


# char_poly's primes lie below this: p^2 < 2^52 keeps a reduced trace times
# k^-1 exact in float64.
_PRIME_TOP = 1 << 26

_PRIMES: dict[int, list[int]] = {}


def _is_prime(q: int) -> bool:
    if q < 4:
        return q >= 2
    return q % 2 != 0 and all(q % f for f in range(3, math.isqrt(q) + 1, 2))


def primes_below(top: int) -> Iterator[int]:
    """The primes below top, in descending order.

    Found by trial division on first use and memoised per top, so later
    calls with the same top walk a list.
    """
    found = _PRIMES.setdefault(top, [])
    i = 0
    while True:
        if i == len(found):
            q = found[-1] if found else top
            while True:
                q -= 1
                if q < 2:
                    return
                if _is_prime(q):
                    break
            found.append(q)
        yield found[i]
        i += 1


def _coefficient_bound(rows) -> int:
    """prod(1 + ceil(r_i)) over the Euclidean row norms r_i (see char_poly)."""
    bound = 1
    for row in rows:
        sq = sum(map(mul, row, row))
        bound *= 2 + math.isqrt(sq - 1) if sq else 1  # ceil(sqrt(sq)) = isqrt(sq - 1) + 1
    return bound


@lru_cache(maxsize=64)
def _modular_constants(moduli: tuple[int, ...], n: int):
    """char_poly's per-prime constants: the primes as a column, -k^-1 modulo
    each for k = 1..n, and the CRT weights of all primes but the last."""
    p = np.array(moduli, dtype=np.float64).reshape(-1, 1)
    negated_inverses = np.array(
        [[q - pow(k, -1, q) for q in moduli] for k in range(1, n + 1)], dtype=np.float64
    ).reshape(n, len(moduli), 1)
    product = math.prod(moduli[:-1])
    weights = [(product // q) * pow(product // q, -1, q) for q in moduli[:-1]]
    p.setflags(write=False)  # shared by every call with these primes
    negated_inverses.setflags(write=False)
    return p, negated_inverses, weights


def char_poly(mat) -> Poly:
    """det(xI - M) for an integer square matrix, exact coefficients.

    Faddeev-LeVerrier, M_k = A (M_(k-1) + c_(k-1) I) and c_k = -tr(M_k) / k
    from M_0 = 0, c_0 = 1, run modulo several primes p > n at once as one
    batched float64 matmul per step; k^-1 exists modulo each p.

    Bound: c_k is (-1)^k times the sum of the k x k principal minors of A.
    By Hadamard's inequality each minor is at most the product of the norms
    of its rows, so with r_i the Euclidean norm of row i,
    |c_k| <= e_k(r) <= prod(1 + r_i) <= B = prod(1 + ceil(r_i)).  The
    coefficients are rebuilt by CRT in the symmetric range modulo the
    fewest primes whose product exceeds 2B, which makes them unique; one
    further prime must agree with every coefficient, else AssertionError.

    Exactness: float64 holds every integer below 2^53 exactly.  Each step
    reduces M_k to M_k - p floor(M_k fl(1/p)); while |M_k| < 2^53 the float
    quotient is within 2/p of M_k / p, so this product is exact and the
    residues lie in [-2, p + 2] (c_k alone is reduced exactly into [0, p)).
    The entries of M_(k-1) + c_(k-1) I then lie in [-2, 2p + 1], and every
    partial sum of a product row by column is at most w (2p + 1), with w
    the largest absolute row sum of the A used.  The primes lie below 2^26,
    so w <= 2^26 keeps these sums below 2^53 with A as given; a larger w is
    met by reducing A modulo each prime into [0, p), so w <= n (p - 1), and
    taking the primes below sqrt(2^52 / n).  Traces stay below n (p + 2),
    and a reduced trace times k^-1 below p^2 < 2^52.
    """
    rows = [list(map(int, row)) for row in mat]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    width = max((sum(map(abs, row)) for row in rows), default=0)
    reduced = width > _PRIME_TOP
    top = math.isqrt((1 << 52) // n) if reduced else _PRIME_TOP
    bound = 2 * _coefficient_bound(rows)
    moduli: list[int] = []
    product = 1
    for q in takewhile(lambda q: q > n, primes_below(top)):
        moduli.append(q)
        if product > bound:  # q is the check prime
            break
        product *= q
    else:
        raise ValueError(f"too few primes in {n + 1}..{top - 1} for an exact char_poly")

    count = len(moduli)
    p, negated_inverses, weights = _modular_constants(tuple(moduli), n)
    if reduced:
        a = np.array([[[x % q for x in row] for row in rows] for q in moduli], dtype=np.float64)
    else:
        a = np.array(rows, dtype=np.float64).reshape(n, n)
    residues = np.empty((n + 1, count, 1))
    residues[0] = 1
    # M_(k-1), M_k and scratch for the float quotient, with diagonal views
    m, m_next, quotient = buffers = np.zeros((3, count, n, n))
    diag, diag_next, _ = buffers.reshape(3, count, n * n)[:, :, :: n + 1]
    p_col = p[:, :, None]
    p_inv = 1 / p_col
    for k in range(1, n + 1):
        diag += residues[k - 1]
        np.matmul(a, m, out=m_next)
        np.multiply(m_next, p_inv, out=quotient)
        np.floor(quotient, out=quotient)
        np.multiply(quotient, p_col, out=quotient)
        np.subtract(m_next, quotient, out=m_next)
        trace = diag_next.sum(axis=1, keepdims=True)
        np.remainder(trace, p, out=trace)
        np.multiply(trace, negated_inverses[k - 1], out=trace)
        np.remainder(trace, p, out=residues[k])
        m, m_next, diag, diag_next = m_next, m, diag_next, diag
    residues = residues.reshape(n + 1, count)

    check = moduli[-1]
    coeffs = []
    for res in residues.astype(np.int64).tolist():
        x = sum(map(mul, weights, res)) % product
        if x > product // 2:
            x -= product
        if x % check != res[-1]:
            raise AssertionError("check prime disagrees with char_poly's CRT reconstruction")
        coeffs.append(x)
    return tuple(reversed(coeffs))


def eigenvalues_float(mat) -> list[float]:
    """Sorted float eigenvalues of a symmetric integer matrix (cross-check only)."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("matrix is not square")
    a = np.array(mat, dtype=float).reshape(n, n)
    if (a != a.T).any():
        i, j = np.argwhere(np.triu(a != a.T))[0].tolist()
        raise ValueError(f"matrix not symmetric at ({i}, {j})")
    return sorted(np.linalg.eigvalsh(a).tolist())


def cluster_floats(values, tol: float = 1e-6) -> list[tuple[float, int]]:
    """Group a sorted list of floats into clusters separated by more than tol."""
    out: list[tuple[float, int]] = []
    group: list[float] = []
    for x in values:
        if group and x - group[-1] > tol:
            out.append((sum(group) / len(group), len(group)))
            group = []
        group.append(x)
    if group:
        out.append((sum(group) / len(group), len(group)))
    return out


# ---------------------------------------------------------------------------
# polynomials


def poly_trim(p) -> Poly:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def poly_degree(p) -> int:
    p = poly_trim(p)
    return len(p) - 1 if p else -1


def poly_mul(p, q) -> Poly:
    p, q = poly_trim(p), poly_trim(q)
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_trim(out)


def poly_pow(p, e: int) -> Poly:
    out: Poly = (1,)
    for _ in range(e):
        out = poly_mul(out, p)
    return out


def poly_derivative(p) -> Poly:
    p = poly_trim(p)
    return poly_trim([i * c for i, c in enumerate(p)][1:])


def poly_eval(p, x):
    acc = 0
    for c in reversed(poly_trim(p)):
        acc = acc * x + c
    return acc


def poly_divmod(p, q) -> tuple[Poly, Poly]:
    """Division with remainder over the rationals."""
    p, q = poly_trim(p), poly_trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = [Fraction(c) for c in p]
    quo = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    lead = Fraction(q[-1])
    while len(rem) >= len(q) and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) < len(q):
            break
        shift = len(rem) - len(q)
        factor = rem[-1] / lead
        quo[shift] = factor
        for j, c in enumerate(q):
            rem[shift + j] -= factor * c
        rem.pop()
    return poly_trim(quo), poly_trim(rem)


def poly_divides(p, q) -> tuple[bool, Poly | None]:
    """Does p divide q exactly (over the rationals)?  Returns the quotient too."""
    p = poly_trim(p)
    if not p:
        raise ValueError("zero divisor polynomial")
    quo, rem = poly_divmod(q, p)
    if rem:
        return False, None
    if all(isinstance(c, Fraction) and c.denominator == 1 for c in quo):
        quo = tuple([int(c) for c in quo])
    return True, quo


def poly_content(p) -> int:
    g = 0
    for c in p:
        g = math.gcd(g, int(c))
    return g or 1


def poly_primitive(p) -> Poly:
    p = poly_trim(p)
    if not p:
        return ()
    g = poly_content(p)
    return tuple([int(c) // g for c in p])


def _pseudo_rem(p: list, q: list) -> list:
    dq = len(q) - 1
    lead = q[-1]
    r = list(p)
    while True:
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < dq:
            return r
        top = r[-1]
        shift = len(r) - 1 - dq
        r = [lead * c for c in r]
        for j in range(dq + 1):
            r[shift + j] -= top * q[j]
        r.pop()


def poly_gcd(p, q) -> Poly:
    """GCD of integer polynomials, primitive with positive leading coefficient.

    Primitive pseudo-remainder sequence, which keeps coefficient growth in
    check for the degree-60-plus characteristic polynomials seen here.
    """
    a = list(poly_primitive(p))
    b = list(poly_primitive(q))
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _pseudo_rem(a, b)
        a, b = b, list(poly_primitive(r))
    a = poly_primitive(a)
    if a and a[-1] < 0:
        a = tuple([-c for c in a])
    return tuple(a)


def squarefree_part(p) -> Poly:
    """p / gcd(p, p'), primitive with positive leading coefficient."""
    p = poly_trim(p)
    if not p:
        raise ValueError("zero polynomial has no squarefree part")
    if len(p) == 1:
        return (1,)
    g = poly_gcd(p, poly_derivative(p))
    quo, rem = poly_divmod(p, g)
    if rem:
        raise AssertionError("gcd does not divide its polynomial")
    quo = poly_primitive([int(c) if isinstance(c, Fraction) else c for c in quo])
    if quo and quo[-1] < 0:
        quo = tuple([-c for c in quo])
    return quo


def distinct_root_count(p) -> int:
    """Number of distinct complex roots: the degree of the squarefree part."""
    return poly_degree(squarefree_part(p))


def _synthetic_div(p: Poly, r: int) -> tuple[Poly, int]:
    """Divide by (x - r); returns (quotient, remainder)."""
    out = []
    acc = 0
    for c in reversed(p):
        acc = acc * r + c
        out.append(acc)
    rem = out.pop()
    return tuple(reversed([c for c in out])), rem


def extract_integer_roots(p, candidates) -> tuple[list[tuple[int, int]], Poly]:
    """Peel the integer roots among the candidates off p with multiplicities.

    candidates are integers, each tested by exact evaluation of p; callers
    pass a range known to hold every integer root.  Returns ((root,
    multiplicity) pairs sorted descending, residual factor).  The residual
    is (1,) exactly when p splits over the integers within the candidates.
    """
    p = poly_trim(p)
    if not p:
        raise ValueError("zero polynomial")
    roots = []
    for r in sorted(set(candidates), reverse=True):
        mult = 0
        while len(p) > 1 and poly_eval(p, r) == 0:
            p, rem = _synthetic_div(p, r)
            assert rem == 0
            mult += 1
        if mult:
            roots.append((r, mult))
    return roots, p
