"""Seidel matrices, switching, strong graphs, and regular two-graph structure.

The Seidel matrix is S = J - I - 2A.  Switching with respect to a vertex
subset complements adjacency across the cut and conjugates S by a +/-1
diagonal matrix, so the Seidel spectrum is a switching-class invariant.
A graph is strong when S^2 lies in the span of S, I, J.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .graphs import Graph, degree_vector, is_connected
from .linalg import (
    char_poly,
    char_polys,
    cluster_floats,
    distinct_root_count,
    extract_integer_roots,
    poly_mul,
    poly_pow,
    poly_trim,
)
from .spectrum import TwoWalkParams, two_walk_params


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


def is_strong(g: Graph) -> bool:
    """Exact test of S^2 in <S, I, J>."""
    return _is_strong(seidel_matrix(g))


def _is_strong(s: np.ndarray) -> bool:
    """Strength of the graph with int64 Seidel matrix s.

    Diagonal entries of S^2 are constant (n-1), so the condition reduces to
    the off-diagonal entries of S^2 being constant on edges (S = -1) and
    constant on non-edges (S = 1); an empty class imposes nothing.
    """
    s2 = s @ s
    for mark in (-1, 1):
        values = s2[s == mark]
        if values.size and (values != values[0]).any():
            return False
    return True


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
        assert prod == -(n - 1), "Seidel eigenvalue product != -(n-1)"
    return distinct, spectrum


def seidel_reports(graphs) -> list[SeidelReport]:
    """Exact Seidel characteristic polynomial and what it decides, for each
    graph; one char_polys call for all of them.

    The float eigenvalues are only reported (float_spectrum); no decision
    reads them.
    """
    graphs = list(graphs)
    mats = [seidel_matrix(g) for g in graphs]
    reports = []
    for g, s, cp in zip(graphs, mats, char_polys(mats)):
        distinct, spectrum = _seidel_root_data(cp)
        floats = np.linalg.eigvalsh(s.astype(float)).tolist()
        reports.append(
            SeidelReport(
                n=g.n,
                seidel_char_poly=cp,
                distinct_seidel_count=distinct,
                strong=_is_strong(s),
                regular_two_graph=g.n >= 2 and distinct == 2,
                spectrum=spectrum,
                float_spectrum=tuple(cluster_floats(sorted(floats))),
            )
        )
    return reports


def seidel_report(g: Graph) -> SeidelReport:
    """The Seidel report of one graph (see seidel_reports)."""
    return seidel_reports([g])[0]


def srg_params(g: Graph) -> tuple[int, int, int, int] | None:
    """(n, k, lambda, mu) when strongly regular, else None.

    Regular with constant common-neighbour counts over the adjacent and the
    non-adjacent pairs.  Degenerate cases follow the classical convention:
    complete graphs report mu = lambda = n - 2 (mu vacuous), disconnected
    unions of equal cliques report mu = 0, and vacuous lambda is 0.  These
    are exactly the conventions under which strength is equivalent to
    "strongly regular or two Seidel eigenvalues".
    """
    n = g.n
    d = degree_vector(g)
    if len(set(d)) != 1:
        return None
    if n == 1:
        return (1, 0, 0, 0)
    k = d[0]
    lam = None
    mu = None
    for v in range(n):
        row_v = g.rows[v]
        for u in range(v + 1, n):
            common = (row_v & g.rows[u]).bit_count()
            if (row_v >> u) & 1:
                if lam is None:
                    lam = common
                elif lam != common:
                    return None
            else:
                if mu is None:
                    mu = common
                elif mu != common:
                    return None
    if lam is None:
        lam = 0
    if mu is None:
        mu = lam
    return (n, k, lam, mu)


@dataclass
class NonregularStructure:
    """Outcome of the four-eigenvalue check for a non-regular member of a
    non-trivial regular two-graph."""

    seidel_spectrum: tuple
    theta0: int
    theta1: int
    m0: int
    m1: int
    params: TwoWalkParams
    adjacency_char_poly: tuple
    char_poly_matches: bool
    distinct_adjacency_count: int

    @property
    def passed(self) -> bool:
        return self.char_poly_matches and self.distinct_adjacency_count == 4

    def to_json(self) -> dict:
        return {
            "seidel_spectrum": [list(p) for p in self.seidel_spectrum],
            "theta0": self.theta0,
            "theta1": self.theta1,
            "m0": self.m0,
            "m1": self.m1,
            "alpha": str(self.params.alpha),
            "beta": str(self.params.beta),
            "char_poly_matches": self.char_poly_matches,
            "distinct_adjacency_count": self.distinct_adjacency_count,
            "passed": self.passed,
        }


def verify_nonregular_structure(
    g: Graph, seidel: SeidelReport | None = None
) -> NonregularStructure:
    """Check the forced adjacency spectrum of a connected non-regular graph
    whose switching class is a non-trivial regular two-graph.

    With Seidel spectrum rho_i^(m_i) and theta_i = (-1 - rho_i)/2, the
    adjacency characteristic polynomial must factor as
    (x^2 - alpha x - beta) * (x - theta0)^(m0-1) * (x - theta1)^(m1-1)
    and carry exactly four distinct eigenvalues.  seidel is the Seidel
    report of a graph already shown to be switching-equivalent to g (the
    Seidel spectrum is a switching invariant); by default it is computed
    from g.
    """
    d = degree_vector(g)
    if len(set(d)) == 1:
        raise ValueError("regular input: the strongly-regular branch applies instead")
    if not is_connected(g):
        raise ValueError(
            "disconnected input: isolated-vertex plus strongly-regular branch applies"
        )
    rep = seidel if seidel is not None else seidel_report(g)
    if not rep.regular_two_graph or rep.spectrum is None or len(rep.spectrum) != 2:
        raise ValueError("Seidel spectrum is not two integral eigenvalues")
    (rho0, m0), (rho1, m1) = rep.spectrum
    if (1 + rho0) % 2 or (1 + rho1) % 2:
        raise ValueError("Seidel eigenvalues do not yield integral adjacency eigenvalues")
    theta0 = (-1 - rho0) // 2
    theta1 = (-1 - rho1) // 2
    if m0 < 2 or m1 < 2:
        raise ValueError("Seidel multiplicities too small for the four-eigenvalue form")
    tw = two_walk_params(g)
    if tw is None:
        raise ValueError("no two-walk parameters: hypothesis violated")
    quad = poly_trim((-tw.beta, -tw.alpha, Fraction(1)))
    expected = poly_mul(
        quad,
        poly_mul(poly_pow((-theta0, 1), m0 - 1), poly_pow((-theta1, 1), m1 - 1)),
    )
    cp = char_poly(g.adjacency_matrix())
    matches = len(expected) == len(cp) and all(a == b for a, b in zip(expected, cp))
    return NonregularStructure(
        seidel_spectrum=rep.spectrum,
        theta0=theta0,
        theta1=theta1,
        m0=m0,
        m1=m1,
        params=tw,
        adjacency_char_poly=cp,
        char_poly_matches=matches,
        distinct_adjacency_count=distinct_root_count(cp),
    )
