"""Slow, independent implementations that the package replaced; the tests
check the package against them.

- quotient_matrix: the averaged neighbour counts between blocks, as
  Fractions, for any partition.
- poly_pow: repeated multiplication.
- poly_eval: Horner's rule.
- non_main_factor_from_spectrum: the non-main factor of a regular
  two-graph with odd integral Seidel spectrum, from theta_i = (-1 - rho_i)/2
  one eigenvalue at a time; the reference of `seidel.non_main_factor`.
- poly_gcd: the primitive pseudo-remainder sequence.
- poly_divmod / poly_divides: long division over the rationals.
- squarefree_part: p over linalg's modular gcd(p, p'), by exact integer
  division; the package reads gcd(P, P') itself.
- rank_exact: rank over the rationals by fraction-free elimination of the
  whole matrix; the walk-rank and strong-graph reference.
- walk_matrix: the full walk matrix (columns j, Aj, A^2 j, ...).
- walk_rank_echelon: the main-eigenvalue count by a fraction-free echelon
  of the walk vectors over the integers, stopping at the first dependent
  one; the reference of the modular walk-rank kernel.
- existence_check: which integer pairs (alpha, beta) some connected graph
  realizes.
- biregular_block_sizes: the block sizes of `equitable_biregular_from`,
  found by searching n2 upward from q22 + 1; the reference of its closed
  form.
- harmonic_delta_walk: the delta with A d = delta d from its own Fraction
  walk, independent of the two-walk test.
- switch / enumerate_switching_class / classify_member: one member at a
  time, on bitset graphs; the census kernel's reference.
- relabel: a graph under a vertex permutation, for invariance tests.
- neighbours / diameter / circulant / complete / path: the set bits of a
  row, the exact diameter by a BFS from every vertex, the circulant graph
  on given connections, the complete graph and the path; graph helpers
  that the package itself does not need.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from mainspectra import linalg
from mainspectra.census import ClassificationError, Convention, _check_size
from mainspectra.constructions import quotient_for
from mainspectra.graphs import (
    Graph,
    _check_vertex_count,
    degree_vector,
    graph_from_edges,
    is_connected,
)
from mainspectra.linalg import Poly, poly_mul, poly_primitive, poly_trim
from mainspectra.seidel import switch_mask
from mainspectra.spectrum import fraction_to_json, two_walk_params


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


def poly_pow(p, e: int) -> Poly:
    out: Poly = (1,)
    for _ in range(e):
        out = poly_mul(out, p)
    return out


def poly_eval(p, x):
    acc = 0
    for c in reversed(poly_trim(p)):
        acc = acc * x + c
    return acc


def non_main_factor_from_spectrum(spectrum) -> Poly:
    """prod (x - theta_i)^(m_i - 1) with theta_i = (-1 - rho_i)/2, for an
    integral Seidel spectrum ((rho_i, m_i), ...) of odd eigenvalues."""
    out: Poly = (1,)
    for rho, m in spectrum:
        if (1 + rho) % 2:
            raise ValueError(f"even Seidel eigenvalue {rho}")
        out = poly_mul(out, poly_pow(((1 + rho) // 2, 1), m - 1))
    return out


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


def squarefree_part(p) -> Poly:
    """p / gcd(p, p'), primitive with positive leading coefficient.  The gcd
    is linalg._derivative_gcd, looked up on the module when called, and
    primitive, so by Gauss's lemma exact integer long division finds the
    quotient."""
    p = poly_trim(p)
    if not p:
        raise ValueError("zero polynomial has no squarefree part")
    quo = linalg._exact_quotient(p, linalg._derivative_gcd(p))
    if quo is None:
        raise AssertionError("gcd does not divide its polynomial")
    return linalg._primitive_positive(quo)


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


def _apply_adjacency(g: Graph, vec) -> list[int]:
    return [sum(vec[u] for u in neighbours(g, v)) for v in range(g.n)]


def walk_matrix(g: Graph) -> list[list[int]]:
    """n x n integer matrix whose column i is A^i applied to the all-ones vector."""
    cols = [[1] * g.n]
    for _ in range(g.n - 1):
        cols.append(_apply_adjacency(g, cols[-1]))
    return [[cols[j][i] for j in range(g.n)] for i in range(g.n)]


def walk_rank_echelon(g: Graph) -> int:
    """Rank of the walk matrix, found incrementally on the walk vectors.

    Fraction-free echelon: each new walk vector v is reduced against every
    basis row b with pivot p as v <- b[p] v - v[p] b, then divided by its
    content, so every entry stays an integer.  The count stops at the first
    walk vector that depends on its predecessors.
    """
    basis: list[tuple[int, list[int]]] = []
    vec = [1] * g.n
    for _ in range(g.n):
        red = vec
        for pivot, row in basis:
            f = red[pivot]
            if f:
                b = row[pivot]
                red = [b * x - f * y for x, y in zip(red, row)]
        pivot = next((i for i, x in enumerate(red) if x), None)
        if pivot is None:
            break
        content = math.gcd(*red)
        basis.append((pivot, [x // content for x in red]))
        vec = _apply_adjacency(g, vec)
    return len(basis)


def existence_check(alpha: int, beta: int) -> bool:
    """Is some connected graph 2-walk (alpha, beta)-linear, for integer inputs?"""
    if alpha < 0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    return alpha * alpha + 4 * beta >= 4 and (alpha, beta) != (0, 1)


def _circulant_connected(nv: int, degree: int) -> bool:
    if degree == 0:
        return nv == 1
    if degree == 1:
        return nv == 2
    return True  # generator 1 is in the connection set


def biregular_block_sizes(alpha: int, beta: int) -> tuple[int, int]:
    """(n1, n2) for a feasible pair: the least n2 > q22 with n2 q22 and
    n1 q11 even, n1 = n2 q21 > q11, and a connected high circulant when
    q11 <= 1."""
    (q11, _), (q21, q22) = quotient_for(alpha, beta)
    n2 = q22 + 1
    while True:
        n1 = n2 * q21
        if (
            n2 * q22 % 2 == 0
            and n1 > q11
            and n1 * q11 % 2 == 0
            and (q11 > 1 or _circulant_connected(n2, q22))
        ):
            return n1, n2
        n2 += 1
        if n2 > q22 + 64:
            raise AssertionError(f"no feasible block size for ({alpha}, {beta})")


def harmonic_delta_walk(g: Graph) -> Fraction | None:
    """The delta with A d = delta d, if any; regular graphs return their valency."""
    d = degree_vector(g)
    pivot = next((v for v in range(g.n) if d[v]), None)
    if pivot is None:
        return Fraction(0)
    ad = _apply_adjacency(g, d)
    delta = Fraction(ad[pivot], d[pivot])
    for v in range(g.n):
        if ad[v] != delta * d[v]:
            return None
    return delta


def switch(g: Graph, subset) -> Graph:
    """Complement all adjacencies between the subset and its complement."""
    mask = 0
    for v in subset:
        if not 0 <= v < g.n:
            raise ValueError(f"subset element {v} outside vertex range")
        mask |= 1 << v
    return switch_mask(g, mask)


def enumerate_switching_class(base: Graph, convention=Convention.UP_TO_COMPLEMENT):
    """Yield (subset mask, member graph) in binary-counter order."""
    _check_size(base.n)
    shift = 1 if Convention(convention) is Convention.UP_TO_COMPLEMENT else 0
    for sub in range(1 << (base.n - shift)):
        yield sub << shift, switch_mask(base, sub << shift)


def classify_member(g: Graph) -> tuple:
    """Census key of one graph: regular flag or exact (alpha, beta), the
    valency multiset, and connectivity."""
    degs = degree_vector(g)
    connected = is_connected(g)
    valencies = tuple(sorted(Counter(degs).items()))
    if len(valencies) == 1:
        return ("regular", None, None, valencies, connected)
    tw = two_walk_params(g)
    if tw is None:
        raise ClassificationError(
            "non-regular member without two-walk parameters: "
            f"degrees {sorted(set(degs))}"
        )
    return ("nonregular", tw.alpha, tw.beta, valencies, connected)


def relabel(g: Graph, perm) -> Graph:
    """Apply the vertex permutation v -> perm[v]."""
    perm = tuple(perm)
    if sorted(perm) != list(range(g.n)):
        raise ValueError("not a permutation of the vertex set")
    return graph_from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def neighbours(g: Graph, v: int) -> list[int]:
    """The set bits of g.rows[v], lowest first."""
    row, out = g.rows[v], []
    while row:
        low = row & -row
        out.append(low.bit_length() - 1)
        row ^= low
    return out


def diameter(g: Graph) -> int | float:
    """Exact diameter by a BFS from every vertex; ``math.inf`` when disconnected."""
    best = 0
    for src in range(g.n):
        dist = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for v in frontier:
                for u in neighbours(g, v):
                    if u not in dist:
                        dist[u] = dist[v] + 1
                        nxt.append(u)
            frontier = nxt
        if len(dist) < g.n:
            return math.inf
        best = max(best, max(dist.values()))
    return best


def circulant(n: int, connections) -> Graph:
    """The circulant graph on n vertices, v ~ v + s for each connection s;
    the vertex count is checked before any edge is built."""
    conns = sorted(set(connections))
    for s in conns:
        if not 1 <= s <= n // 2:
            raise ValueError(f"connection {s} outside 1..{n // 2}")
    return graph_from_edges(n, ((v, (v + s) % n) for v in range(n) for s in conns))


def complete(n: int) -> Graph:
    """K_n; the vertex count is checked before any row is built."""
    _check_vertex_count(n)
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << v) for v in range(n)))


def path(n: int) -> Graph:
    """P_n; the vertex count is checked before any edge is built."""
    _check_vertex_count(n)
    return graph_from_edges(n, [(v, v + 1) for v in range(n - 1)])
