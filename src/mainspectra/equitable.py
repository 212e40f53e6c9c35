"""Vertex partitions: valency partition, equitable refinement, quotient matrices.

A partition is a tuple of blocks (sorted vertex tuples).  It is equitable
when every vertex's count of neighbours in each block depends only on its
own block; the quotient matrix collects those counts (averages in general).
An equitable partition with r distinct quotient eigenvalues bounds the
number of main eigenvalues by r.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph, degree_vector
from .linalg import char_polys, distinct_root_count
from .spectrum import fraction_to_json

Partition = tuple

def _check_partition(g: Graph, blocks) -> tuple:
    blocks = tuple(tuple(sorted(b)) for b in blocks)
    seen: set[int] = set()
    for b in blocks:
        if not b:
            raise ValueError("empty block")
        for v in b:
            if not 0 <= v < g.n:
                raise ValueError(f"vertex {v} outside range")
            if v in seen:
                raise ValueError(f"vertex {v} in two blocks")
            seen.add(v)
    if len(seen) != g.n:
        raise ValueError("partition does not cover the vertex set")
    return blocks


def valency_partition(g: Graph) -> Partition:
    """Blocks are the degree classes, ordered by increasing valency."""
    d = degree_vector(g)
    by_deg: dict[int, list[int]] = {}
    for v in range(g.n):
        by_deg.setdefault(d[v], []).append(v)
    return tuple(tuple(by_deg[k]) for k in sorted(by_deg))


def _block_masks(blocks) -> list[int]:
    masks = []
    for b in blocks:
        m = 0
        for v in b:
            m |= 1 << v
        masks.append(m)
    return masks


def _signature(g: Graph, v: int, masks) -> tuple[int, ...]:
    row = g.rows[v]
    return tuple((row & m).bit_count() for m in masks)


def is_equitable(g: Graph, blocks) -> bool:
    blocks = _check_partition(g, blocks)
    masks = _block_masks(blocks)
    for b in blocks:
        ref = _signature(g, b[0], masks)
        for v in b[1:]:
            if _signature(g, v, masks) != ref:
                return False
    return True


def refine_to_equitable(g: Graph, blocks) -> Partition:
    """Coarsest equitable partition refining the input; idempotent.

    Each round splits every block by the vector of neighbour counts into the
    current blocks; sub-blocks are ordered by signature, so the result is
    deterministic.
    """
    blocks = _check_partition(g, blocks)
    while True:
        masks = _block_masks(blocks)
        new_blocks: list[tuple[int, ...]] = []
        changed = False
        for b in blocks:
            groups: dict[tuple[int, ...], list[int]] = {}
            for v in b:
                groups.setdefault(_signature(g, v, masks), []).append(v)
            if len(groups) > 1:
                changed = True
            for sig in sorted(groups):
                new_blocks.append(tuple(groups[sig]))
        blocks = tuple(new_blocks)
        if not changed:
            return blocks


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


def quotient_matrix(g: Graph, blocks) -> QuotientMatrix:
    """Average neighbour counts b_ij between blocks, exact rationals."""
    blocks = _check_partition(g, blocks)
    masks = _block_masks(blocks)
    entries = []
    for b in blocks:
        totals = [0] * len(blocks)
        for v in b:
            for j, m in enumerate(masks):
                totals[j] += (g.rows[v] & m).bit_count()
        entries.append(tuple(Fraction(t, len(b)) for t in totals))
    return QuotientMatrix(tuple(entries), tuple(len(b) for b in blocks))


def _quotient_bounds(pairs) -> list[tuple[QuotientMatrix, int]]:
    """Quotient matrix and distinct quotient eigenvalue count for each
    (graph, equitable partition) pair; one char_polys call for all."""
    quotients = []
    for g, blocks in pairs:
        if not is_equitable(g, blocks):
            raise ValueError("partition is not equitable")
        quotients.append(quotient_matrix(g, blocks))
    polys = char_polys([q.int_matrix() for q in quotients])
    return [(q, distinct_root_count(cp)) for q, cp in zip(quotients, polys)]


def main_bound(g: Graph, blocks) -> int:
    """Distinct quotient eigenvalues of an equitable partition.

    The number of main eigenvalues of g never exceeds this.
    """
    return _quotient_bounds([(g, blocks)])[0][1]


def equitable_records(graphs) -> list[dict]:
    """The analyze CLI's equitable record of each graph: the valency
    partition refined to equitable, its quotient and the main bound.

    The valency partition is equitable exactly when refinement leaves it
    unchanged: the first round splits a block iff two of its vertices
    differ in neighbour counts.
    """
    graphs = list(graphs)
    valency = [valency_partition(g) for g in graphs]
    refined = [refine_to_equitable(g, blocks) for g, blocks in zip(graphs, valency)]
    return [
        {
            "valency_partition_equitable": blocks == start,
            "refined_blocks": [list(b) for b in blocks],
            "quotient": q.to_json(),
            "main_bound": bound,
        }
        for start, blocks, (q, bound) in zip(
            valency, refined, _quotient_bounds(zip(graphs, refined))
        )
    ]
