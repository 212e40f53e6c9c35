"""Slow, independent implementations that the package replaced; the tests
check the package against them.

- quotient_matrix: the averaged neighbour counts between blocks, as
  Fractions, for any partition.
- poly_gcd: the primitive pseudo-remainder sequence.
- poly_divmod / poly_divides: long division over the rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from mainspectra.linalg import Poly, poly_primitive, poly_trim
from mainspectra.spectrum import fraction_to_json


@dataclass(frozen=True)
class QuotientMatrix:
    entries: tuple  # rows of Fractions
    block_sizes: tuple

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for row in self.entries for x in row)

    def int_matrix(self) -> list[list[int]]:
        if not self.is_integral():
            raise ValueError("quotient matrix is not integral")
        return [[int(x) for x in row] for row in self.entries]

    def to_json(self) -> dict:
        return {
            "block_sizes": list(self.block_sizes),
            "entries": [[fraction_to_json(x) for x in row] for row in self.entries],
        }


def quotient_matrix(g, blocks) -> QuotientMatrix:
    """Average neighbour counts b_ij between blocks, exact rationals."""
    blocks = [sorted(b) for b in blocks]
    entries = []
    for b in blocks:
        totals = [sum(g.has_edge(v, u) for v in b for u in other) for other in blocks]
        entries.append(tuple(Fraction(t, len(b)) for t in totals))
    return QuotientMatrix(tuple(entries), tuple(len(b) for b in blocks))


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
    """GCD of integer polynomials, primitive with positive leading coefficient,
    by the primitive pseudo-remainder sequence."""
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
