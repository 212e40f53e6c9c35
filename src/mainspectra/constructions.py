"""Generative recipes for graphs with exactly two main eigenvalues.

Covers the symplectic graphs over GF(2)^(2r), cones over regular graphs,
equitable biregular realizations for every feasible integer (alpha, beta),
the three-valenced witnesses on the boundary alpha^2 + 4 beta = 4, and the
edge-splice operation that grows infinite families with fixed parameters.

The biregular, three-valenced and splice constructions post-validate
their output exactly; a validation failure raises RealizationError and
means a bug, never bad input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .equitable import is_equitable, valency_partition
from .graphs import Graph, cone, degree_vector, graph_from_edges, is_connected, star
from .graphs import CAP_ENV_VAR, _check_vertex_count, vertex_cap
from .spectrum import TwoWalkParams, two_walk_params


class RealizationError(AssertionError):
    """A constructed graph failed its own post-validation."""


class BoundaryPairError(ValueError):
    """(alpha, beta) lies on the boundary alpha^2 + 4 beta = 4, where no
    connected equitable biregular graph exists; carries the certificate."""

    def __init__(self, alpha: int, beta: int):
        super().__init__(
            f"boundary pair ({alpha}, {beta}): no connected equitable biregular "
            "graph exists; see boundary_impossibility"
        )
        self.certificate = boundary_impossibility(alpha, beta)


# ---------------------------------------------------------------------------
# symplectic graphs


def symplectic_graph(r: int) -> Graph:
    """Graph on all of GF(2)^(2r): u ~ v iff the standard symplectic form is 1.

    Vertex i encodes the vector with coordinate bits of i; the form pairs
    adjacent coordinates, so <u, v> = parity(u & swap_pairs(v)).  The zero
    vector (vertex 0) is isolated.
    """
    if r < 1:
        raise ValueError(f"need r >= 1, got {r}")
    width = 2 * r
    if r > 64 and width >= vertex_cap().bit_length():
        # 4^r > cap, named rather than built: for a huge r it does not fit in memory
        raise ValueError(
            f"vertex count 4^{r} outside 1..{vertex_cap()} (set {CAP_ENV_VAR} to raise the cap)"
        )
    n = 1 << width
    _check_vertex_count(n)
    lo_mask = (n - 1) // 3  # 0b0101...01: the even coordinates
    hi_mask = lo_mask << 1
    rows = [0] * n
    for v in range(n):
        swapped = ((v & lo_mask) << 1) | ((v & hi_mask) >> 1)
        for u in range(v + 1, n):
            if (u & swapped).bit_count() & 1:
                rows[u] |= 1 << v
                rows[v] |= 1 << u
    return Graph(n, rows)


def sp_component(r: int) -> Graph:
    """The nonzero-vector component Sp(2r): strongly regular on 2^(2r)-1 vertices."""
    g = symplectic_graph(r)
    rows = [row >> 1 for row in g.rows[1:]]
    return Graph(g.n - 1, rows, _validate=False)


# ---------------------------------------------------------------------------
# cones


def cone_over_regular(g: Graph) -> Graph:
    """Cone over a k-regular graph: equitable biregular unless it collapses
    to a complete graph."""
    d = degree_vector(g)
    if len(set(d)) != 1:
        raise ValueError("cone_over_regular requires a regular base graph")
    return cone(g)


# ---------------------------------------------------------------------------
# equitable biregular realizations


def _circulant_connections(nv: int, degree: int) -> tuple[int, ...]:
    """Connection set giving a degree-regular circulant on nv vertices."""
    if degree >= nv or degree < 0:
        raise ValueError(f"no {degree}-regular graph on {nv} vertices")
    if degree % 2 == 0:
        return tuple(range(1, degree // 2 + 1))
    if nv % 2:
        raise ValueError(f"odd degree {degree} needs an even vertex count, got {nv}")
    return tuple(range(1, (degree - 1) // 2 + 1)) + (nv // 2,)


def _circulant_edges(offset: int, nv: int, degree: int) -> list[tuple[int, int]]:
    conns = _circulant_connections(nv, degree)
    edges = []
    for v in range(nv):
        for s in conns:
            edges.append((offset + v, offset + (v + s) % nv))
    return edges


def quotient_for(alpha: int, beta: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The 2x2 quotient [[a', 1], [a'(a-a') + b, a - a']] with a' = floor(a/2)."""
    a1 = alpha // 2
    return ((a1, 1), (a1 * (alpha - a1) + beta, alpha - a1))


def equitable_biregular_from(alpha: int, beta: int) -> Graph:
    """Connected equitable biregular graph with two-walk parameters (alpha, beta).

    Feasible exactly when alpha >= 0 and alpha^2 + 4 beta > 4.  Low-degree
    part: n2 * q21 vertices carrying a q11-regular circulant, one neighbour
    each in the high part; high part: n2 vertices carrying a q22-regular
    circulant, q21 join-neighbours each.

    n2 = q22 + 1, the fewest vertices a q22-regular graph takes, plus one
    exactly when q22 is even and q11 q21 odd, the one case where n1 q11 is
    odd at q22 + 1.  Then n2 q22 and n1 q11 are even, n1 >= n2 > q22 >= q11,
    and the high circulant is connected (q22 >= 2 when n2 = q22 + 2, so
    generator 1 is in its connection set), which connects the graph.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be non-negative, got {alpha}")
    disc = alpha * alpha + 4 * beta
    if disc == 4:
        raise BoundaryPairError(alpha, beta)
    if disc < 4:
        raise ValueError(f"infeasible pair ({alpha}, {beta}): alpha^2 + 4 beta < 4")
    (q11, _), (q21, q22) = quotient_for(alpha, beta)
    if q21 < 1:
        raise AssertionError(f"quotient for ({alpha}, {beta}) has no edge between its blocks")
    if q11 == 0 and q22 == 0:
        return _validated(star(q21 + 1), f"({alpha}, {beta}) realization", 2, alpha, beta)
    n2 = q22 + 1 + (q22 % 2 == 0 and q11 * q21 % 2 == 1)
    n1 = n2 * q21
    _check_vertex_count(n1 + n2)
    edges = _circulant_edges(0, n1, q11)
    edges += _circulant_edges(n1, n2, q22)
    edges += [(i, n1 + i // q21) for i in range(n1)]
    out = graph_from_edges(n1 + n2, edges)
    return _validated(out, f"({alpha}, {beta}) realization", 2, alpha, beta)


def _validated(g: Graph, name: str, classes: int, alpha: int, beta: int) -> Graph:
    """g, after checking that it is connected, has `classes` valency
    classes, is equitable over them and has two-walk parameters
    (alpha, beta); RealizationError names it otherwise."""
    if not is_connected(g):
        raise RealizationError(f"{name} is disconnected")
    blocks = valency_partition(g)
    if len(blocks) != classes:
        raise RealizationError(f"{name} has {len(blocks)} valency classes, not {classes}")
    if not is_equitable(g, blocks):
        raise RealizationError(f"{name} is not equitable")
    tw = two_walk_params(g)
    if tw != TwoWalkParams(Fraction(alpha), Fraction(beta)):
        raise RealizationError(f"{name} has parameters {tw}")
    return g


@dataclass(frozen=True)
class BoundaryCertificate:
    """Why no connected equitable biregular graph exists on the boundary.

    Trace and determinant force the quotient [[alpha/2, 1], [1, alpha/2]],
    whose two row sums (the would-be valencies) coincide.
    """

    alpha: int
    beta: int
    quotient: tuple
    row_sums: tuple

    @property
    def row_sums_equal(self) -> bool:
        return self.row_sums[0] == self.row_sums[1]

    def verify(self) -> bool:
        (a, b), (c, d) = self.quotient
        return (
            a + d == self.alpha
            and a * d - b * c == -self.beta
            and self.row_sums == (a + b, c + d)
            and self.row_sums_equal
        )

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "quotient": [list(r) for r in self.quotient],
            "row_sums": list(self.row_sums),
            "row_sums_equal": self.row_sums_equal,
        }


def boundary_impossibility(alpha: int, beta: int) -> BoundaryCertificate:
    if alpha * alpha + 4 * beta != 4:
        raise ValueError(f"({alpha}, {beta}) is not on the boundary alpha^2 + 4 beta = 4")
    half = alpha // 2
    cert = BoundaryCertificate(
        alpha=alpha,
        beta=beta,
        quotient=((half, 1), (1, half)),
        row_sums=(half + 1, half + 1),
    )
    if not cert.verify():
        raise AssertionError(f"boundary certificate for ({alpha}, {beta}) fails its own check")
    return cert


def three_valenced_boundary(alpha: int) -> Graph:
    """Connected equitable 3-valenced graph with parameters (alpha, 1 - alpha^2/4).

    Realizes the quotient [[a-1, 1, 0], [1, a-1, 1], [0, 3, a-1]] with
    a = alpha/2: two blocks of size 3*n3 and one of size n3, internal
    (a-1)-regular circulants, an identity matching between blocks 1 and 2,
    and consecutive triples of block 2 joined to block 3.
    """
    if alpha % 2 or alpha < 4:
        raise ValueError(f"need even alpha >= 4, got {alpha}")
    a1 = alpha // 2
    beta = 1 - alpha * alpha // 4
    internal = a1 - 1
    n3 = a1  # a1 (a1 - 1) is even, so the internal circulant exists
    n12 = 3 * n3
    _check_vertex_count(2 * n12 + n3)
    edges = _circulant_edges(0, n12, internal)
    edges += _circulant_edges(n12, n12, internal)
    edges += _circulant_edges(2 * n12, n3, internal)
    edges += [(i, n12 + i) for i in range(n12)]
    edges += [(n12 + i, 2 * n12 + i // 3) for i in range(n12)]
    g = graph_from_edges(2 * n12 + n3, edges)
    return _validated(g, f"three-valenced boundary graph for alpha={alpha}", 3, alpha, beta)


# ---------------------------------------------------------------------------
# splicing


class SpliceError(ValueError):
    """Invalid splice arguments."""


def _without_edge(g: Graph, u: int, v: int) -> Graph:
    rows = list(g.rows)
    rows[u] ^= 1 << v
    rows[v] ^= 1 << u
    return Graph(g.n, rows, _validate=False)


def _check_splice_side(g: Graph, edge, name: str) -> None:
    x, y = edge
    if not (0 <= x < g.n and 0 <= y < g.n):
        raise SpliceError(f"{name}: ({x}, {y}) has an endpoint outside 0..{g.n - 1}")
    if not g.has_edge(x, y):
        raise SpliceError(f"{name}: ({x}, {y}) is not an edge")
    if not is_connected(_without_edge(g, x, y)):
        raise SpliceError(f"{name}: removing ({x}, {y}) disconnects the graph")


def splice(g: Graph, e: tuple[int, int], h: Graph, f: tuple[int, int]) -> Graph:
    """Swap the matched edges across the disjoint union: xy, uv -> xv, yu.

    Needs an edge e = (x, y) of g and f = (u, v) of h with deg(x) = deg(u)
    and deg(y) = deg(v), both g - e and h - f connected, and g and h
    non-regular with the same two-walk parameters; SpliceError names the
    first that fails.  Preserves every degree and the two-walk parameters;
    the result is connected and non-regular.
    """
    (x, y), (u, v) = e, f
    _check_splice_side(g, e, "first graph")
    _check_splice_side(h, f, "second graph")
    if g.degree(x) != h.degree(u) or g.degree(y) != h.degree(v):
        raise SpliceError(
            f"degree mismatch: ({g.degree(x)}, {g.degree(y)}) vs "
            f"({h.degree(u)}, {h.degree(v)})"
        )
    pg = two_walk_params(g)
    ph = two_walk_params(h)
    if pg is None or ph is None:
        raise SpliceError("both graphs must be non-regular with two main eigenvalues")
    if pg != ph:
        raise SpliceError(f"parameter mismatch: {pg} vs {ph}")
    off = g.n
    edges = [e for e in g.edges() if set(e) != {x, y}]
    edges += [
        (a + off, b + off) for a, b in h.edges() if set((a, b)) != {u, v}
    ]
    edges += [(x, v + off), (y, u + off)]
    out = graph_from_edges(g.n + h.n, edges)
    if two_walk_params(out) != pg or not is_connected(out):
        raise RealizationError("splice output failed validation")
    return out


@dataclass
class SpliceChainResult:
    graph: Graph
    designated_edge: tuple[int, int]
    splice_log: tuple

    def to_json(self) -> dict:
        return {
            "n": self.graph.n,
            "designated_edge": list(self.designated_edge),
            "splice_log": [list(map(list, step)) for step in self.splice_log],
        }


def _next_designated(
    chain: Graph, offset: int, block: Graph, dx: int, dy: int, fallback
) -> tuple[int, int]:
    """Edge to splice at next: prefer a degree-matched edge inside the newest
    copy whose removal keeps the chain connected, else the fresh cross edge."""
    for a, b in sorted(chain.edges()):
        if not (offset <= a < offset + block.n and offset <= b < offset + block.n):
            continue
        for cand in ((a, b), (b, a)):
            if chain.degree(cand[0]) == dx and chain.degree(cand[1]) == dy:
                if is_connected(_without_edge(chain, *cand)):
                    return cand
    return fallback


def splice_chain(g: Graph, edge: tuple[int, int], k: int) -> SpliceChainResult:
    """k-th member of the self-splice family seeded by (g, edge).

    Each step splices one fresh copy of g onto the chain at the designated
    edge; degrees and two-walk parameters never change while the diameter
    grows.  The log records (removed chain edge, removed copy edge, added
    edges) per step.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    x, y = edge
    _check_splice_side(g, edge, "seed graph")
    if two_walk_params(g) is None:
        raise SpliceError("seed graph must be non-regular with two main eigenvalues")
    dx, dy = g.degree(x), g.degree(y)
    chain = g
    designated = (x, y)
    log = []
    for _ in range(k - 1):
        off = chain.n
        chain = splice(chain, designated, g, edge)
        added = ((designated[0], y + off), (designated[1], x + off))
        log.append((designated, (x + off, y + off), added))
        designated = _next_designated(chain, off, g, dx, dy, (x + off, designated[1]))
    return SpliceChainResult(graph=chain, designated_edge=designated, splice_log=tuple(log))
