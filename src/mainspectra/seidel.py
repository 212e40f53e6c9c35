"""Seidel matrices, switching, strong graphs, and regular two-graph structure.

The Seidel matrix is S = J - I - 2A.  Switching with respect to a vertex
subset complements adjacency across the cut and conjugates S by a +/-1
diagonal matrix, so the Seidel spectrum is a switching-class invariant.
A graph is strong when S^2 lies in the span of S, I, J.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .graphs import Graph, degree_vector
from .linalg import (
    Poly,
    _derivative_gcd,
    char_polys,
    cluster_floats,
    distinct_root_count,
    extract_integer_roots,
    order_stacks,
    poly_mul,
    poly_trim,
)


def seidel_matrix(g: Graph) -> np.ndarray:
    """S = J - I - 2A as an int64 array."""
    s = 1 - 2 * g.adjacency_matrix()
    np.fill_diagonal(s, 0)
    return s


def switch_mask(g: Graph, mask: int) -> Graph:
    full = (1 << g.n) - 1
    inv = full & ~mask
    rows = []
    for v in range(g.n):
        flip = inv & ~(1 << v) if (mask >> v) & 1 else mask & ~(1 << v)
        rows.append(g.rows[v] ^ flip)
    return Graph(g.n, rows, _validate=False)


def _is_strong(s: np.ndarray) -> bool:
    """Strength of the graph with int64 Seidel matrix s: the exact test of
    S^2 in <S, I, J>.

    Diagonal entries of S^2 are constant (n-1), so the condition reduces to
    the off-diagonal entries of S^2 being constant on edges (S = -1) and
    constant on non-edges (S = 1); an empty class imposes nothing.
    """
    return _square_values(s, s) is not None


def _square_values(m: np.ndarray, marks: np.ndarray) -> tuple | None:
    """The single value M^2 takes where marks is -1 and where it is 1 (the
    edges and the non-edges when marks is the Seidel matrix), each None for
    an empty class; None when a class holds two values."""
    m2 = m @ m
    values = []
    for mark in (-1, 1):
        cls = m2[marks == mark]
        if cls.size and (cls != cls[0]).any():
            return None
        values.append(int(cls[0]) if cls.size else None)
    return tuple(values)


@dataclass
class SeidelReport:
    n: int
    seidel_char_poly: tuple
    distinct_seidel_count: int
    strong: bool
    regular_two_graph: bool
    spectrum: tuple | None  # ((root, multiplicity), ...) when S splits over Z
    float_spectrum: tuple  # ((approx root, multiplicity), ...)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "seidel_char_poly": list(self.seidel_char_poly),
            "distinct_seidel_count": self.distinct_seidel_count,
            "strong": self.strong,
            "regular_two_graph": self.regular_two_graph,
            "spectrum": [list(p) for p in self.spectrum] if self.spectrum else None,
            "float_spectrum": [[round(r, 9), m] for r, m in self.float_spectrum],
        }


@lru_cache(maxsize=1024)
def _seidel_root_data(cp: tuple) -> tuple[int, tuple | None]:
    """(distinct root count, integer spectrum or None) of a Seidel
    characteristic polynomial of degree n: the facts that depend on the
    polynomial alone, computed once per polynomial.

    The integer Seidel eigenvalues are found by exact evaluation over
    -(n-1)..n-1, which holds every root: |rho| <= n-1, the largest absolute
    row sum of S.  Two distinct eigenvalues that split over Z multiply to
    -(n-1), as the diagonal of (S - rho0 I)(S - rho1 I) = 0 forces.
    """
    n = len(cp) - 1
    distinct = distinct_root_count(cp)
    roots, residual = extract_integer_roots(cp, range(-(n - 1), n))
    spectrum = tuple(roots) if poly_trim(residual) == (1,) else None
    if n >= 2 and distinct == 2 and spectrum is not None:
        prod = 1
        for r, _ in spectrum:
            prod *= r
        if prod != -(n - 1):
            raise AssertionError("Seidel eigenvalue product != -(n-1)")
    return distinct, spectrum


def seidel_reports(graphs) -> list[SeidelReport]:
    """Exact Seidel characteristic polynomial and what it decides, for each
    graph; one char_polys call for all of them.

    The float eigenvalues are only reported (float_spectrum); no decision
    reads them.  They come from one eigvalsh per stack of same-order
    Seidel matrices (see linalg.order_stacks), each row in ascending order.
    """
    graphs = list(graphs)
    mats = [seidel_matrix(g) for g in graphs]
    floats: list = [None] * len(mats)
    for stack in order_stacks([len(s) for s in mats]):
        values = np.linalg.eigvalsh(np.array([mats[i] for i in stack], dtype=float))
        for i, row in zip(stack, values.tolist()):
            floats[i] = row
    reports = []
    for g, s, cp, values in zip(graphs, mats, char_polys(mats), floats):
        distinct, spectrum = _seidel_root_data(cp)
        reports.append(
            SeidelReport(
                n=g.n,
                seidel_char_poly=cp,
                distinct_seidel_count=distinct,
                strong=_is_strong(s),
                regular_two_graph=g.n >= 2 and distinct == 2,
                spectrum=spectrum,
                float_spectrum=tuple(cluster_floats(values)),
            )
        )
    return reports


def seidel_report(g: Graph) -> SeidelReport:
    """The Seidel report of one graph (see seidel_reports)."""
    return seidel_reports([g])[0]


def structure_skip_reason(rep: SeidelReport) -> str | None:
    """None when rep's class is a non-trivial regular two-graph, so the
    structure checks apply; else why not.  A trivial one has a simple Seidel
    eigenvalue, which is rational, so its spectrum is integral."""
    if not rep.regular_two_graph:
        return (
            "base is not a regular two-graph "
            f"(distinct Seidel eigenvalues: {rep.distinct_seidel_count})"
        )
    if rep.spectrum is not None and min(m for _, m in rep.spectrum) < 2:
        return "trivial regular two-graph (a simple Seidel eigenvalue)"
    return None


def non_main_factor(rep: SeidelReport) -> Poly:
    """Q = prod (x - theta_i)^(m_i - 1), theta_i = (-1 - rho_i)/2, for the
    Seidel spectrum rho_i^(m_i) of a class that structure_skip_reason
    passes: the adjacency eigenvalues its non-regular members carry besides
    their two main ones (Seidel and Taylor, 1981).  As tr A = 0, those two
    sum to alpha = Q[-2], minus the sum of Q's roots.

    The Seidel polynomial at y = -1 - 2x is (-2)^n P with
    P = prod (x - theta_i)^(m_i), and Q = P / prod (x - theta_i) =
    gcd(P, P'), monic as P is.  P is integral: either the rho_i are odd, or
    they are +-sqrt(n - 1) with n = 2 (mod 4) and prod (x - theta_i) is
    x^2 + x - (n - 2)/4.
    """
    cp = rep.seidel_char_poly
    scaled: list = []
    for c in reversed(cp):  # Horner's rule in y = -1 - 2x
        scaled = list(poly_mul(scaled, (-1, -2))) or [0]
        scaled[0] += c
    scale = (-2) ** (len(cp) - 1)
    if any(c % scale for c in scaled):
        raise AssertionError("forced adjacency eigenvalues are not algebraic integers")
    p = tuple(c // scale for c in scaled)
    return _derivative_gcd(p)


def srg_params(g: Graph) -> tuple[int, int, int, int] | None:
    """(n, k, lambda, mu) when strongly regular, else None.

    Regular with constant common-neighbour counts over the adjacent and the
    non-adjacent pairs.  Degenerate cases follow the classical convention:
    complete graphs report mu = lambda = n - 2 (mu vacuous), disconnected
    unions of equal cliques report mu = 0, and vacuous lambda is 0.  These
    are exactly the conventions under which strength is equivalent to
    "strongly regular or two Seidel eigenvalues".
    """
    d = degree_vector(g)
    if len(set(d)) != 1:
        return None
    if g.n == 1:
        return (1, 0, 0, 0)
    values = _square_values(g.adjacency_matrix(), seidel_matrix(g))
    if values is None:
        return None
    lam, mu = values
    lam = 0 if lam is None else lam
    return (g.n, d[0], lam, lam if mu is None else mu)
