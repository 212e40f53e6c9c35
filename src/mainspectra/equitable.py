"""Vertex partitions: valency partition, equitable refinement, quotient matrices.

A partition is a tuple of blocks (sorted vertex tuples).  It is equitable
when every vertex's count of neighbours in each block depends only on its
own block; the integer quotient matrix collects those counts, one row per
block.  An equitable partition with r distinct quotient eigenvalues bounds
the number of main eigenvalues by r.
"""

from __future__ import annotations

from .graphs import Graph, degree_vector
from .linalg import char_polys, distinct_root_count

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


def _signature_groups(g: Graph, blocks) -> list[dict[tuple, list[int]]]:
    """One signature pass: each block's vertices grouped by their signature,
    the count of their neighbours in every block."""
    masks = _block_masks(blocks)
    rows = g.rows
    out = []
    for b in blocks:
        groups: dict[tuple, list[int]] = {}
        for v in b:
            row = rows[v]
            groups.setdefault(tuple([(row & m).bit_count() for m in masks]), []).append(v)
        out.append(groups)
    return out


def is_equitable(g: Graph, blocks) -> bool:
    groups = _signature_groups(g, _check_partition(g, blocks))
    return all(len(sigs) == 1 for sigs in groups)


def _refine(g: Graph, blocks) -> tuple[Partition, list[tuple[int, ...]]]:
    """The coarsest equitable partition refining blocks, and its integer
    quotient rows, one per block.

    Each round splits every block by the vector of neighbour counts into the
    current blocks; sub-blocks are ordered by signature, so the result is
    deterministic.  The first round that splits no block leaves exactly one
    signature in each block, and those signatures are the quotient rows.
    """
    blocks = _check_partition(g, blocks)
    while True:
        groups = _signature_groups(g, blocks)
        refined = tuple(tuple(sigs[sig]) for sigs in groups for sig in sorted(sigs))
        if len(refined) == len(blocks):
            return blocks, [next(iter(sigs)) for sigs in groups]
        blocks = refined


def equitable_records(graphs) -> list[dict]:
    """The analyze CLI's equitable record of each graph: the valency
    partition refined to equitable, its quotient and the main bound.

    The valency partition is equitable exactly when refinement leaves it
    unchanged: the first round splits a block iff two of its vertices
    differ in neighbour counts.
    """
    graphs = list(graphs)
    valency = [valency_partition(g) for g in graphs]
    refined = [_refine(g, blocks) for g, blocks in zip(graphs, valency)]
    bounds = [distinct_root_count(cp) for cp in char_polys([rows for _, rows in refined])]
    return [
        {
            "valency_partition_equitable": blocks == start,
            "refined_blocks": [list(b) for b in blocks],
            "quotient": {
                "block_sizes": [len(b) for b in blocks],
                "entries": [list(row) for row in rows],
            },
            "main_bound": bound,
        }
        for start, (blocks, rows), bound in zip(valency, refined, bounds)
    ]
