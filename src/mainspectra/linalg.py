"""Exact integer/rational linear algebra plus a float cross-check channel.

Every classification decision in this package (ranks, characteristic
polynomials, integer roots, divisibility) runs in exact arithmetic;
floating-point eigenvalues exist only for reports and cross-checks.

Polynomials are tuples of arbitrary-precision coefficients in ascending
order of degree, trimmed of trailing zeros; () is the zero polynomial.
"""

from __future__ import annotations

import math
from fractions import Fraction

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


def _object_matrix(mat) -> np.ndarray:
    n = len(mat)
    a = np.empty((n, n), dtype=object)
    for i, row in enumerate(mat):
        if len(row) != n:
            raise ValueError("matrix is not square")
        for j, x in enumerate(row):
            a[i, j] = int(x)
    return a


def char_poly(mat) -> Poly:
    """det(xI - M) for an integer square matrix, exact coefficients.

    Faddeev-LeVerrier recurrence; the division by k is always exact over
    the integers.
    """
    n = len(mat)
    a = _object_matrix(mat)
    ident = np.empty((n, n), dtype=object)
    for i in range(n):
        for j in range(n):
            ident[i, j] = 1 if i == j else 0
    m = np.zeros((n, n), dtype=object)
    c = 1
    coeffs_desc = [1]
    for k in range(1, n + 1):
        m = a @ (m + c * ident)
        t = int(np.trace(m))
        if t % k:
            raise AssertionError("inexact trace division in char_poly")
        c = -(t // k)
        coeffs_desc.append(c)
    return tuple(reversed(coeffs_desc))


def eigenvalues_float(mat) -> list[float]:
    """Sorted float eigenvalues of a symmetric integer matrix (cross-check only)."""
    n = len(mat)
    for i in range(n):
        if len(mat[i]) != n:
            raise ValueError("matrix is not square")
        for j in range(i + 1, n):
            if mat[i][j] != mat[j][i]:
                raise ValueError(f"matrix not symmetric at ({i}, {j})")
    return sorted(np.linalg.eigvalsh(np.array(mat, dtype=float)).tolist())


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
        quo = tuple(int(c) for c in quo)
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
        a = tuple(-c for c in a)
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
        quo = tuple(-c for c in quo)
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
