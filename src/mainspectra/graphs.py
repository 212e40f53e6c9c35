"""Dense simple-graph core: bitset adjacency, builders, and traversals.

Vertices are the integers 0..n-1.  Adjacency is stored as one Python int
per vertex (bit u of ``rows[v]`` set iff u ~ v), which keeps the census
inner loop at O(1) per edge flip and makes popcount-based degree and
common-neighbour counts cheap.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Iterable, Iterator

import numpy as np

DEFAULT_VERTEX_CAP = 128
CAP_ENV_VAR = "MAINSPECTRA_VERTEX_CAP"


def vertex_cap() -> int:
    """Current vertex-count cap; the env var overrides the default of 128."""
    raw = os.environ.get(CAP_ENV_VAR)
    if raw is None:
        return DEFAULT_VERTEX_CAP
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"{CAP_ENV_VAR} must be a positive integer, got {raw!r}")
    if cap > sys.maxsize:  # no list holds more rows
        raise ValueError(f"{CAP_ENV_VAR} must be at most {sys.maxsize}, got {raw!r}")
    return cap


def _check_vertex_count(n: int) -> None:
    cap = vertex_cap()
    if not 1 <= n <= cap:
        raise ValueError(f"vertex count {n} outside 1..{cap} (set {CAP_ENV_VAR} to raise the cap)")


def _bits(x: int) -> Iterator[int]:
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


class Graph:
    """Immutable simple undirected graph.

    Construct through :func:`graph_from_edges` or the builders below; the
    raw constructor expects one adjacency bitmask per vertex.  Every graph,
    parsed graph6 included, passes the vertex cap (`vertex_cap`).
    """

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: Iterable[int], _validate: bool = True):
        _check_vertex_count(n)
        rows = tuple(rows)
        if _validate:
            if len(rows) != n:
                raise ValueError(f"expected {n} adjacency rows, got {len(rows)}")
            full = (1 << n) - 1
            for v, row in enumerate(rows):
                if row & ~full:
                    raise ValueError(f"row {v} has adjacency bits beyond vertex range")
                if (row >> v) & 1:
                    raise ValueError(f"loop at vertex {v}")
            for v in range(n):
                for u in _bits(rows[v]):
                    if not (rows[u] >> v) & 1:
                        raise ValueError(f"adjacency not symmetric at ({u}, {v})")
        self.n = n
        self.rows = rows

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.rows[v] >> u) & 1)

    def degree(self, v: int) -> int:
        return self.rows[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for v in range(self.n):
            row = self.rows[v] >> (v + 1)
            for u in _bits(row):
                out.append((v, u + v + 1))
        return out

    def edge_count(self) -> int:
        return sum(r.bit_count() for r in self.rows) // 2

    def adjacency_matrix(self) -> np.ndarray:
        """The int64 adjacency matrix, unpacked from the row bitsets."""
        width = (self.n + 7) // 8
        packed = b"".join([row.to_bytes(width, "little") for row in self.rows])
        bits = np.frombuffer(packed, dtype=np.uint8).reshape(self.n, width)
        return np.unpackbits(bits, axis=1, count=self.n, bitorder="little").astype(np.int64)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.rows == other.rows

    def __hash__(self) -> int:
        return hash((self.n, self.rows))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.edge_count()})"


def graph_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; duplicate edges collapse."""
    _check_vertex_count(n)  # before the rows are allocated
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop edge ({u}, {v}) rejected")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph(n, rows)


def graph_from_adjacency_text(text: str) -> Graph:
    """Convenience parser: first non-blank line is n, remaining lines 'u v' edges."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty adjacency text")
    n = int(lines[0])
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise ValueError(f"expected 'u v' edge line, got {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
    return graph_from_edges(n, edges)


def degree_vector(g: Graph) -> tuple[int, ...]:
    return tuple(r.bit_count() for r in g.rows)


def is_connected(g: Graph) -> bool:
    """Whether a BFS from vertex 0 reaches every vertex."""
    reach = frontier = 1
    while frontier:
        new = 0
        for v in _bits(frontier):
            new |= g.rows[v]
        frontier = new & ~reach
        reach |= frontier
    return reach == (1 << g.n) - 1


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> Graph:
    verts = sorted(set(vertices))
    index = {v: i for i, v in enumerate(verts)}
    rows = [0] * len(verts)
    for v in verts:
        for u in _bits(g.rows[v]):
            if u in index:
                rows[index[v]] |= 1 << index[u]
    return Graph(len(verts), rows, _validate=False)


# ---------------------------------------------------------------------------
# builders


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs at least 3 vertices, got {n}")
    _check_vertex_count(n)
    return graph_from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def star(n: int) -> Graph:
    """Star K_{1,n-1} with centre 0."""
    if n < 1:
        raise ValueError("star needs at least one vertex")
    _check_vertex_count(n)
    return graph_from_edges(n, [(0, v) for v in range(1, n)])


def t_lambda_tree(lam: int) -> Graph:
    """Harmonic tree: centre of degree lam^2-lam+1, its neighbours of degree lam.

    Vertex 0 is the centre, 1..c the middle vertices, the rest leaves.
    """
    if lam < 2:
        raise ValueError(f"need lam >= 2, got {lam}")
    c = lam * lam - lam + 1
    _check_vertex_count(1 + c * lam)
    edges = [(0, m) for m in range(1, c + 1)]
    nxt = c + 1
    for m in range(1, c + 1):
        for _ in range(lam - 1):
            edges.append((m, nxt))
            nxt += 1
    return graph_from_edges(nxt, edges)


def cone(g: Graph) -> Graph:
    """Add one hub vertex (index n) adjacent to every vertex of g."""
    n = g.n
    hub = (1 << n) - 1
    rows = [row | (1 << n) for row in g.rows] + [hub]
    return Graph(n + 1, rows)
