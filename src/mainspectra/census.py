"""Exhaustive census of a switching class.

Enumerates every switch of a base graph (one subset per bipartition, i.e.
2^(n-1) subsets avoiding vertex 0, or all 2^n subsets, whose complementary
pairs are built once and counted twice), classifies each
member exactly, and aggregates counts keyed by (two-walk parameters or
regular, valency multiset, connectivity).  Members are processed in blocks:
one numpy pass over a block's adjacency tensor computes every member's
integer census key and certifies that its Seidel matrix is D S D, where S
is the base's and D = diag(d) with d = 1 - 2 (switching indicator).  D is
orthogonal, so every member has the base's Seidel characteristic
polynomial (Seidel and Taylor, "Two-graphs, a second survey", 1981).  That
polynomial is cross-checked once per census against the base's power sums
p_1..p_n from exact integer powers of S.

Every member of a regular two-graph has at most two main eigenvalues, so
there a non-regular member without two-walk parameters contradicts the
structure theory and aborts the run loudly (ClassificationError).  In any
other class such a member has no census row, and the base is refused
(ValueError).
"""

from __future__ import annotations

import csv
import io
import os
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from importlib import resources
from multiprocessing import Pool

import numpy as np

from .graph6 import write_graph6
from .graphs import Graph, degree_vector, induced_subgraph, is_connected
from .linalg import Poly, char_polys, distinct_root_count, poly_mul
from .seidel import (
    SeidelReport,
    non_main_factor,
    seidel_matrix,
    seidel_report,
    srg_params,
    structure_skip_reason,
    switch_mask,
)
from .spectrum import TwoWalkParams, two_walk_params

# The census visits 2^(n-1) members (8.4 million at n = 24).  That count
# sets the cap, not the arithmetic, which is exact at any n.
MAX_CENSUS_VERTICES = 24
# Members per kernel pass.  Larger blocks buy little speed at n=16 and cost
# peak memory: a kernel holds three (BLOCK, n, n) arrays of 8-byte numbers.
BLOCK = 64


class Convention(str, Enum):
    UP_TO_COMPLEMENT = "up-to-complement"
    ALL_SUBSETS = "all-subsets"


class ClassificationError(RuntimeError):
    """A member violated the structure forced by its switching class."""


def _check_size(n: int) -> None:
    if n > MAX_CENSUS_VERTICES:
        raise ValueError(f"switching class too large: n={n} > {MAX_CENSUS_VERTICES}")


def _enumeration(convention: Convention) -> tuple[int, int]:
    """(shift, weight) of a convention.

    Both conventions run the subset indices 0..2^(n-1)-1; index sub
    switches the mask sub << shift, and its member counts weight times.
    Switching by U and by its complement gives the same graph, so under
    all-subsets the mask sub, which never switches vertex n-1, also stands
    for its complement, the larger mask of the pair, whose member is
    bit-identical to the one built and checked."""
    if convention is Convention.UP_TO_COMPLEMENT:
        return 1, 1
    return 0, 2


# ---------------------------------------------------------------------------
# batched kernel
#
# A block is the float64 adjacency tensor (B, n, n) of B members.  Every
# float64 number below is an integer of absolute value at most n^2: the
# products A d (at most n(n-1) per entry), the reachability squarings
# (entries 0 or 1, so partial sums at most n) and the Seidel entries 0 and
# +-1 of the similarity certificate.  So BLAS and numpy compute them
# exactly at any n; results are cast to int64 before any decision is taken.


def _census_key(row: list[int]) -> tuple:
    """(kind, alpha, beta, valencies, connected): a `CensusRow`'s leading fields."""
    q, p, b, connected, *counts = row
    valencies = tuple((d, m) for d, m in enumerate(counts) if m)
    if q == 0:
        return ("regular", None, None, valencies, bool(connected))
    return ("nonregular", Fraction(p, q), Fraction(b, q), valencies, bool(connected))


def _check_base_power_sums(seidel: np.ndarray, seidel_char_poly: tuple) -> None:
    """Self-check: the base's Seidel polynomial, by Newton's identities,
    gives the power sums p_1..p_n of exact integer powers of its Seidel
    matrix.  They determine the monic polynomial, so a disagreement is a
    fault of the polynomial's kernel, not of the class."""
    n = len(seidel)
    c = seidel_char_poly[::-1]  # x^n + c_1 x^(n-1) + ... + c_n
    s = seidel.astype(object)  # Python integers: exact at any n
    power = np.identity(n, dtype=object)
    sums: list[int] = []
    for k in range(1, n + 1):
        power = power.dot(s)
        sums.append(-k * c[k] - sum(c[i] * sums[k - 1 - i] for i in range(1, k)))
        if sums[-1] != sum(power.diagonal().tolist()):
            raise AssertionError(
                f"base's Seidel characteristic polynomial disagrees with its power sum p_{k}"
            )


def _census_setup(base: Graph, convention) -> tuple[Convention, int, int, SeidelReport]:
    """(convention, shift, weight, the base's Seidel report) of a census of
    base, once its size passes and its Seidel polynomial matches its power
    sums."""
    convention = Convention(convention)
    _check_size(base.n)
    shift, weight = _enumeration(convention)
    base_rep = seidel_report(base)
    _check_base_power_sums(seidel_matrix(base), base_rep.seidel_char_poly)
    return convention, shift, weight, base_rep


class _BlockKernel:
    """Switches of one base graph, BLOCK members at a time.

    Owns the block buffers and reuses them from block to block: fresh
    arrays for every block cost more in page faults than the arithmetic
    does.
    """

    def __init__(self, base_adj: np.ndarray, shift: int):
        n = base_adj.shape[0]
        self.base_adj = base_adj.astype(np.float64)
        self.base_seidel = 1.0 - np.eye(n) - 2.0 * self.base_adj
        self.shift = shift
        self.vertex = np.arange(n)
        # low and high serve keys() as reachability buffers, and low serves
        # check_similarity() as the expected Seidel matrices.
        self.adj, self.low, self.high = np.empty((3, BLOCK, n, n))

    def blocks(self, start: int, stop: int):
        """Yield (subset indices, member adjacency tensor) for start..stop-1;
        the tensor is overwritten by the next block."""
        for lo in range(start, stop, BLOCK):
            subs = np.arange(lo, min(lo + BLOCK, stop), dtype=np.int64)
            side = (((subs << self.shift)[:, None] >> self.vertex) & 1).astype(np.float64)
            adj = self.adj[: len(subs)]
            np.subtract(side[:, :, None], side[:, None, :], out=adj)
            np.abs(adj, out=adj)
            np.subtract(self.base_adj, adj, out=adj)
            np.abs(adj, out=adj)
            yield subs, adj

    def keys(self, adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Integer census keys of a block, and the members that have none.

        Key row: q, p, b, connected, then the count of each valency 0..n-1.
        Non-regular members have q != 0, alpha = p/q and beta = b/q, from
        the cross-multiplied test q (A d) = p d + b j anchored at vertex 0
        and the first vertex whose degree differs; regular members have
        q = p = b = 0.  The second array flags non-regular members failing
        that test.

        This is `spectrum.two_walk_params` and `graphs.is_connected` over a
        block, kept apart because the traffic differs.  keys() only sees
        census blocks of 64 members with n <= 24, where the squarings below
        take 90 us per block at n = 16 (250 us at n = 24) against 335 us
        (440 us) for `seidel.switch_mask` and is_connected member by member
        (2 cores).  analyze spends 20-30 ms per 3,000 corpus graphs in
        two_walk_params, so batching it there gains nothing.
        """
        bsz, n, _ = adj.shape
        deg_f = adj.sum(axis=2)
        ad = np.matmul(adj, deg_f[:, :, None])[:, :, 0].astype(np.int64)
        deg = deg_f.astype(np.int64)
        j = (deg != deg[:, :1]).argmax(axis=1)  # 0 for regular members
        rows = np.arange(bsz)
        q = deg[:, 0] - deg[rows, j]
        p = ad[:, 0] - ad[rows, j]
        b = ad[:, 0] * q - p * deg[:, 0]
        no_two_walk = (q[:, None] * ad != p[:, None] * deg + b[:, None]).any(axis=1)

        reach, square = self.low[:bsz], self.high[:bsz]
        np.add(adj, np.eye(n), out=reach)
        for _ in range((n - 2).bit_length()):  # 2^squarings >= n - 1
            np.matmul(reach, reach, out=square)
            np.minimum(square, 1.0, out=reach)
        connected = reach[:, 0, :].all(axis=1)

        valency_counts = (deg[:, :, None] == np.arange(n)).sum(axis=1)
        keys = np.column_stack((q, p, b, connected, valency_counts))
        return keys, no_two_walk

    def check_similarity(self, adj: np.ndarray, subs: np.ndarray) -> None:
        """Raise unless every member's Seidel matrix J - I - 2A is
        (d d^T) o S for the base's S, with d = 1 - 2 (switching indicator)
        taken from the subset indices alone.  That is D S D with D = diag(d)
        orthogonal, so the member has the base's Seidel polynomial.  Every
        entry is 0 or +-1, so the test is exact.  Overwrites adj with the
        members' Seidel matrices."""
        bsz, n, _ = adj.shape
        d = 1.0 - 2.0 * (((subs << self.shift)[:, None] >> self.vertex) & 1)
        adj *= -2.0
        adj += 1.0 - np.eye(n)
        want = self.low[:bsz]
        np.multiply(d[:, :, None], d[:, None, :], out=want)
        want *= self.base_seidel
        differ = (adj != want).any(axis=(1, 2))
        if differ.any():
            raise ClassificationError(
                f"Seidel matrix is not a switch of the base's at subset {subs[differ.argmax()]}"
            )


def _census_chunk(args) -> dict:
    """Integer-key counts of subsets start..stop-1, each member's Seidel
    matrix certified a switch of the base's.  two_graph says whether the
    class is a regular two-graph (see the module docstring)."""
    base_adj, shift, two_graph, start, stop = args
    kernel = _BlockKernel(base_adj, shift)
    out: dict[tuple, list] = {}
    for subs, adj in kernel.blocks(start, stop):
        keys, no_two_walk = kernel.keys(adj)
        if no_two_walk.any():
            i = no_two_walk.argmax()
            if not two_graph:
                raise ValueError(
                    f"member at subset {subs[i]} has more than two main eigenvalues, and no "
                    "census row holds such a member (base is not a regular two-graph)"
                )
            degs = sorted(set(adj[i].sum(axis=1).astype(int).tolist()))
            raise ClassificationError(
                f"non-regular member at subset {subs[i]} without two-walk "
                f"parameters: degrees {degs}"
            )
        kernel.check_similarity(adj, subs)
        rows = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
        for key, sub in zip(rows.tolist(), subs.tolist()):
            slot = out.get(key)
            if slot is None:
                out[key] = [1, sub]
            else:
                slot[0] += 1
    return out


def _merge(items) -> dict:
    """Add (key, count, representative) items up by key, keeping the
    smallest representative."""
    total: dict[tuple, list] = {}
    for key, count, rep in items:
        slot = total.get(key)
        if slot is None:
            total[key] = [count, rep]
        else:
            slot[0] += count
            slot[1] = min(slot[1], rep)
    return total


def valencies_str(valencies) -> str:
    return ",".join(f"{d}^{m}" for d, m in valencies)


# Rows sort by their fields: nonregular first, regular rows (alpha = beta = None) by valencies.
@dataclass(order=True)
class CensusRow:
    kind: str
    alpha: Fraction | None
    beta: Fraction | None
    valencies: tuple
    connected: bool
    count: int
    representative_subset: int

    @property
    def two_walk(self) -> TwoWalkParams | None:
        if self.kind != "nonregular":
            return None
        return TwoWalkParams(self.alpha, self.beta)

    def csv_fields(self) -> list[str]:
        if self.kind == "nonregular":
            mu0, mu1 = self.two_walk.exact_strings()
            a, b = str(self.alpha), str(self.beta)
        else:
            mu0 = mu1 = a = b = ""
        return [
            a,
            b,
            mu0,
            mu1,
            valencies_str(self.valencies),
            str(self.count),
            "true" if self.connected else "false",
        ]


@dataclass
class CensusTable:
    base_graph6: str
    convention: Convention
    rows: tuple
    totals: dict
    # What the census checked: seidel_members_checked (members whose Seidel
    # matrix was certified D S D for the base's S, so that they share its
    # Seidel polynomial), structure_checks
    # ("ran" or "skipped") and structure_skip_reason (why, or None).
    verification: dict

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["alpha", "beta", "mu0", "mu1", "valencies", "count", "connected"])
        for row in self.rows:
            writer.writerow(row.csv_fields())
        return buf.getvalue()

    def to_json(self) -> dict:
        return {
            "base_graph6": self.base_graph6,
            "convention": self.convention.value,
            "totals": self.totals,
            "verification": self.verification,
            "rows": [
                {
                    "kind": r.kind,
                    "alpha": None if r.alpha is None else str(r.alpha),
                    "beta": None if r.beta is None else str(r.beta),
                    "main_values": r.two_walk.main_values_json() if r.two_walk else None,
                    "valencies": valencies_str(r.valencies),
                    "connected": r.connected,
                    "count": r.count,
                    "representative_subset": r.representative_subset,
                }
                for r in self.rows
            ],
        }

    def nonregular_index(self) -> dict:
        return {
            (r.alpha, r.beta, r.valencies): r for r in self.rows if r.kind == "nonregular"
        }


def _member_key(member: Graph) -> tuple:
    """A member's census key from the one-graph code; alpha and beta are
    None for a regular member or one without two-walk parameters."""
    valencies = tuple(sorted(Counter(degree_vector(member)).items()))
    tw = two_walk_params(member)
    return (
        "regular" if len(valencies) == 1 else "nonregular",
        tw.alpha if tw else None,
        tw.beta if tw else None,
        valencies,
        is_connected(member),
    )


def _key_text(kind, alpha, beta, valencies, connected) -> str:
    params = f" {alpha},{beta}" if kind == "nonregular" else ""
    return f"{kind}{params} {valencies_str(valencies)} " + (
        "connected" if connected else "disconnected"
    )


def _verify_rows(base: Graph, rows, shift: int, q: Poly | None) -> None:
    """Raise unless each row's representative reproduces the row's whole
    key under the one-graph code and, when q (the class's non_main_factor)
    is given, has the structure its class forces.  Rows are checked in
    order, the structure before the key.  A connected non-regular
    representative must have adjacency polynomial (x^2 - alpha x - beta) Q,
    for its own alpha and beta, with four distinct roots: every member's
    Seidel matrix is D S D for the base's S, so the base's Seidel spectrum,
    which forces Q, is the member's.  Those polynomials come from one
    char_polys call."""
    members = [switch_mask(base, row.representative_subset << shift) for row in rows]
    got_keys = [_member_key(member) for member in members]
    four = [] if q is None else [
        i for i, row in enumerate(rows) if row.kind == "nonregular" and row.connected
    ]
    polys = dict(zip(four, char_polys([members[i].adjacency_matrix() for i in four])))
    for i, (row, member, got) in enumerate(zip(rows, members, got_keys)):
        at = f"at subset {row.representative_subset}"
        if q is None:
            pass
        elif row.kind == "regular":
            if not row.connected:
                raise ClassificationError(f"regular disconnected member {at}")
            if srg_params(member) is None:
                raise ClassificationError(f"regular member {at} is not strongly regular")
        elif row.alpha != q[-2]:
            raise ClassificationError(
                f"alpha {row.alpha} != {q[-2]} forced by the Seidel spectrum {at}"
            )
        elif row.connected:
            _, alpha, beta, _, _ = got
            cp = polys[i]
            factors = alpha is not None and cp == poly_mul((-beta, -alpha, 1), q)
            if not factors or distinct_root_count(cp) != 4:
                raise ClassificationError(f"four-eigenvalue structure failed {at}")
        else:
            isolated = [v for v in range(member.n) if member.degree(v) == 0]
            if len(isolated) != 1:
                raise ClassificationError(
                    f"disconnected member {at} is not isolated vertex plus strongly regular graph"
                )
            rest = induced_subgraph(member, [v for v in range(member.n) if v != isolated[0]])
            if srg_params(rest) is None:
                raise ClassificationError(
                    f"disconnected member {at}: remainder is not strongly regular"
                )
        want = (row.kind, row.alpha, row.beta, row.valencies, row.connected)
        if got != want:
            raise ClassificationError(
                f"row {_key_text(*want)} but its representative is {_key_text(*got)} {at}"
            )


def census_table(
    base: Graph,
    convention=Convention.UP_TO_COMPLEMENT,
    workers: int = 1,
) -> CensusTable:
    """Aggregate the full switching-class census of the base graph.

    Deterministic for any worker count: the 2^(n-1) subset indices split
    into min(workers, 2^(n-1)) disjoint ranges, run on at most one process
    per CPU, and the merge adds exact counts keyed identically.  Under
    all-subsets each index builds one member of a complementary pair, which
    counts twice (see `_enumeration`); its representative, the smaller mask
    of the pair, is the one a 2^n enumeration would keep.  Inside the
    workers every member's Seidel matrix is certified to be D S D for the
    base's S, with D = diag(d) from the subset's switching signs (see
    `_BlockKernel.check_similarity`; entries 0 and +-1, so exact at any n).
    D is orthogonal, so each member has the base's Seidel polynomial, which
    is itself cross-checked once against the power sums of exact integer
    powers of S (`_check_base_power_sums`).  When the class is a
    non-trivial regular two-graph the representative of every row is also
    re-checked against the forced spectral structure.  For every base, each
    row's representative must reproduce the row's whole key under the
    one-graph code.  ``verification`` on the result says what was checked
    and what skipped; its seidel_members_checked counts members (2^n under
    all-subsets), each of whose Seidel matrices is bit-identical to one
    the kernel certified.
    """
    convention, shift, weight, base_rep = _census_setup(base, convention)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    subsets = 1 << (base.n - 1)
    base_adj = base.adjacency_matrix()
    ranges = min(workers, subsets)
    bounds = [subsets * i // ranges for i in range(ranges + 1)]
    two_graph = base_rep.regular_two_graph
    jobs = [(base_adj, shift, two_graph, bounds[i], bounds[i + 1]) for i in range(ranges)]
    if ranges == 1:
        parts = [_census_chunk(jobs[0])]
    else:
        with Pool(min(ranges, os.cpu_count() or 1)) as pool:
            parts = pool.map(_census_chunk, jobs)
    merged = _merge(
        (_census_key(np.frombuffer(key, dtype=np.int64).tolist()), weight * count, rep)
        for counts in parts
        for key, (count, rep) in counts.items()
    )
    rows = tuple(sorted(CensusRow(*key, count, rep) for key, (count, rep) in merged.items()))
    totals = {
        "graphs": sum(r.count for r in rows),
        "regular": sum(r.count for r in rows if r.kind == "regular"),
        "nonregular": sum(r.count for r in rows if r.kind == "nonregular"),
        "disconnected": sum(r.count for r in rows if not r.connected),
        "rows": len(rows),
    }
    skip_reason = structure_skip_reason(base_rep)
    _verify_rows(base, rows, shift, None if skip_reason else non_main_factor(base_rep))
    return CensusTable(
        base_graph6=write_graph6(base),
        convention=convention,
        rows=rows,
        totals=totals,
        verification={
            "seidel_members_checked": weight * subsets,
            "structure_checks": "skipped" if skip_reason else "ran",
            "structure_skip_reason": skip_reason,
        },
    )


# ---------------------------------------------------------------------------
# exhaustive switching invariance


def verify_switching_invariance_exhaustive(
    base: Graph, convention=Convention.UP_TO_COMPLEMENT
) -> int:
    """Check every member's Seidel characteristic polynomial against the base's.

    Runs the census kernel's similarity certificate alone, after the
    once-per-census cross-check of the base's Faddeev-LeVerrier polynomial
    against its exact power sums (see `census_table`).  Returns the number
    of members checked: 2^(n-1) up to complement, 2^n under all-subsets,
    where each of the 2^(n-1) matrices built stands for itself and its
    complement's bit-identical one (see `_enumeration`).
    """
    _, shift, weight, _ = _census_setup(base, convention)
    subsets = 1 << (base.n - 1)
    kernel = _BlockKernel(base.adjacency_matrix(), shift)
    for subs, adj in kernel.blocks(0, subsets):
        kernel.check_similarity(adj, subs)
    return weight * subsets


# ---------------------------------------------------------------------------
# reference table audit


@dataclass(frozen=True)
class ReferenceRow:
    alpha: Fraction
    beta: Fraction
    mu0: str
    mu1: str
    valencies: tuple
    count: int


def parse_valencies(text: str) -> tuple:
    """The valency multiset ((degree, count), ...) by increasing degree, from
    DEGREE^COUNT items; a repeated degree, a negative degree or a count
    below 1 raises ValueError."""
    out: dict[int, int] = {}
    for part in text.split(","):
        deg, caret, mult = part.strip().partition("^")
        if not caret:
            raise ValueError(f"valencies {text!r}: expected DEGREE^COUNT items")
        deg, mult = int(deg), int(mult)
        if deg in out:
            raise ValueError(f"valencies {text!r}: degree {deg} repeated")
        if deg < 0 or mult < 1:
            raise ValueError(f"valencies {text!r}: {deg}^{mult} needs degree >= 0, count >= 1")
        out[deg] = mult
    return tuple(sorted(out.items()))


_REFERENCE_COLUMNS = ("alpha", "beta", "mu0", "mu1", "valencies", "count")


def load_reference_csv(text: str) -> list[ReferenceRow]:
    """Reference rows from CSV text with the _REFERENCE_COLUMNS.  A missing
    column, a row longer or shorter than the header, a value that does not
    parse, a count below 1 or a repeat of an earlier row's key (alpha, beta,
    valencies), which compare_to_reference would overwrite, raises
    ValueError naming its line."""
    reader = csv.DictReader(io.StringIO(text))
    missing = [c for c in _REFERENCE_COLUMNS if c not in (reader.fieldnames or ())]
    if missing:
        raise ValueError(f"reference CSV line 1: no column {', '.join(missing)}")
    rows, line_of = [], {}
    for rec in reader:
        where = f"reference CSV line {reader.line_num}"
        if None in rec or None in rec.values():  # how DictReader marks a long or short row
            raise ValueError(f"{where}: expected {len(reader.fieldnames)} fields, like the header")
        try:
            row = ReferenceRow(
                alpha=Fraction(rec["alpha"]),
                beta=Fraction(rec["beta"]),
                mu0=rec["mu0"],
                mu1=rec["mu1"],
                valencies=parse_valencies(rec["valencies"]),
                count=int(rec["count"]),
            )
        except (ValueError, ZeroDivisionError) as exc:  # Fraction("1/0") divides
            raise ValueError(f"{where}: value does not parse ({exc})") from None
        if row.count < 1:
            raise ValueError(f"{where}: count {row.count} is below 1")
        key = (row.alpha, row.beta, row.valencies)
        if key in line_of:
            raise ValueError(f"{where}: repeats the alpha, beta, valencies of line {line_of[key]}")
        line_of[key] = reader.line_num
        rows.append(row)
    return rows


def bundled_reference_rows() -> list[ReferenceRow]:
    """The published census counts for the 16-vertex symplectic class."""
    text = (
        resources.files("mainspectra.data")
        .joinpath("symplectic16_reference.csv")
        .read_text()
    )
    return load_reference_csv(text)


@dataclass
class AuditReport:
    convention: Convention
    rows: list
    totals: dict

    def to_json(self) -> dict:
        return {
            "convention": self.convention.value,
            "totals": self.totals,
            "rows": self.rows,
        }


def compare_to_reference(table: CensusTable, reference) -> AuditReport:
    """Per-row audit of a computed census against reference rows.

    Verdicts: match, count-mismatch, missing (reference row never computed),
    extra (computed row absent from the reference).  Regular members are not
    part of the reference and are reported only in the totals.  Nothing is
    normalized away; mismatches stay visible.  Reference rows repeating a
    key (alpha, beta, valencies) raise ValueError.
    """
    computed = table.nonregular_index()
    ref_by_key = {}
    for r in reference:
        key = (r.alpha, r.beta, r.valencies)
        if key in ref_by_key:
            raise ValueError(
                f"reference rows repeat alpha {r.alpha}, beta {r.beta}, "
                f"valencies {valencies_str(r.valencies)}"
            )
        ref_by_key[key] = r
    rows = []
    for key in sorted(set(computed) | set(ref_by_key)):
        got = computed.get(key)
        ref = ref_by_key.get(key)
        entry = {
            "alpha": str(key[0]),
            "beta": str(key[1]),
            "valencies": valencies_str(key[2]),
            "computed_count": got.count if got else None,
            "reference_count": ref.count if ref else None,
        }
        if got is None:
            entry["verdict"] = "missing"
        elif ref is None:
            entry["verdict"] = "extra"
        else:
            entry["verdict"] = "match" if got.count == ref.count else "count-mismatch"
            mu = got.two_walk.exact_strings()
            entry["main_values_match"] = mu == (ref.mu0, ref.mu1)
        rows.append(entry)
    verdict_counts = Counter(r["verdict"] for r in rows)
    totals = {
        "computed_members": table.totals["graphs"],
        "computed_nonregular": table.totals["nonregular"],
        "reference_row_sum": sum(r.count for r in reference),
        "reference_rows": len(reference),
        "computed_nonregular_rows": len(computed),
        **{f"verdict_{k}": v for k, v in sorted(verdict_counts.items())},
    }
    return AuditReport(convention=table.convention, rows=rows, totals=totals)
