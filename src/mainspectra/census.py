"""Exhaustive census of a switching class.

Enumerates every switch of a base graph (one subset per bipartition, i.e.
2^(n-1) subsets avoiding vertex 0, or all 2^n subsets), classifies each
member exactly, and aggregates counts keyed by (two-walk parameters or
regular, valency multiset, connectivity).  Members are processed in blocks:
one numpy pass over a block's adjacency tensor computes every member's
integer census key and checks its Seidel power sums against the base's.

A non-regular member without two-walk parameters contradicts the structure
theory of non-trivial regular two-graphs and aborts the run loudly.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from importlib import resources
from multiprocessing import get_context

import numpy as np

from .graph6 import write_graph6
from .graphs import Graph, degree_vector, induced_subgraph, is_connected
from .linalg import char_poly, primes_below
from .seidel import (
    seidel_matrix,
    seidel_report,
    srg_params,
    switch_mask,
    verify_nonregular_structure,
)
from .spectrum import QuadraticPair, two_walk_params

MAX_CENSUS_VERTICES = 24
# Members per kernel pass.  Larger blocks buy little speed at n=16 and cost
# peak memory: a kernel holds six (BLOCK, n, n) arrays of 8-byte numbers.
BLOCK = 64


class Convention(str, Enum):
    UP_TO_COMPLEMENT = "up-to-complement"
    ALL_SUBSETS = "all-subsets"


class ClassificationError(RuntimeError):
    """A member violated the structure forced by its switching class."""


def _check_size(n: int) -> None:
    if n > MAX_CENSUS_VERTICES:
        raise ValueError(f"switching class too large: n={n} > {MAX_CENSUS_VERTICES}")


def _shift(convention: Convention) -> int:
    """Subset index sub stands for the switching mask sub << shift."""
    return 1 if convention is Convention.UP_TO_COMPLEMENT else 0


def enumerate_switching_class(base: Graph, convention=Convention.UP_TO_COMPLEMENT):
    """Yield (subset mask, member graph) in binary-counter order."""
    _check_size(base.n)
    shift = _shift(Convention(convention))
    for sub in range(1 << (base.n - shift)):
        yield sub << shift, switch_mask(base, sub << shift)


Key = tuple  # (kind, alpha, beta, ((valency, multiplicity), ...), connected)


def classify_member(g: Graph) -> Key:
    """Census key of one graph: regular flag or exact (alpha, beta), the
    valency multiset, and connectivity.

    The single-graph reference for the batched kernel (`_BlockKernel.keys`)."""
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


# ---------------------------------------------------------------------------
# batched kernel
#
# A block is the float64 adjacency tensor (B, n, n) of B members.  Every
# float64 matrix product below has integer entries whose partial sums stay
# below 2^52 in absolute value (see _power_sum_moduli), so BLAS computes
# them exactly; results are cast to int64 before any decision is taken.


def _census_key(row: list[int]) -> Key:
    q, p, b, connected, *counts = row
    valencies = tuple((d, m) for d, m in enumerate(counts) if m)
    if q == 0:
        return ("regular", None, None, valencies, bool(connected))
    return ("nonregular", Fraction(p, q), Fraction(b, q), valencies, bool(connected))


def _power_sum_moduli(n: int) -> tuple[int, ...]:
    """Moduli under which the Seidel power sums p_1..p_n are compared.

    For the Seidel matrix S of an n-vertex graph |S^k|_ij <= (n-1)^(k-1), so
    the float64 powers up to ceil(n/2) are exact integers while
    (n-1)^(ceil(n/2)-1) < 2^52, which holds for every n <= 24 (the margin
    keeps their reduction modulo a prime exact in float64 too).  The sums
    p_(a+b) = <S^a, S^b> satisfy |p_k| <= n^2 (n-1)^(k-2).  While that bound
    fits int64 (n <= 16) they are compared exactly and no modulus is needed.
    Otherwise they are compared modulo the largest primes below 2^24 whose
    product exceeds twice the bound, so equal residues mean equal sums; each
    residue product is below 2^48 and n^2 of them sum below 2^63.
    """
    half = -(-n // 2)
    if (n - 1) ** (half - 1) >= 2**52 or n * n >= 2**15:
        raise ValueError(f"Seidel power sums are not exact in 64-bit arithmetic for n={n}")
    bound = n * n * (n - 1) ** max(n - 2, 0)
    moduli: list[int] = []
    product = 1
    if bound >= 2**63:
        for q in primes_below(1 << 24):
            if product > 2 * bound:
                break
            moduli.append(q)
            product *= q
    return tuple(moduli)


def _power_sum_targets(seidel_char_poly: tuple) -> list[tuple[int, list[int]]]:
    """(modulus, [p_1..p_n]) pairs every member must reproduce; modulus 0
    means exact.  The power sums come from the base's Seidel characteristic
    polynomial by Newton's identities."""
    n = len(seidel_char_poly) - 1
    c = seidel_char_poly[::-1]  # x^n + c_1 x^(n-1) + ... + c_n
    sums: list[int] = []
    for k in range(1, n + 1):
        sums.append(-k * c[k] - sum(c[i] * sums[k - 1 - i] for i in range(1, k)))
    moduli = _power_sum_moduli(n)
    if not moduli:
        return [(0, sums)]
    return [(m, [s % m for s in sums]) for m in moduli]


class _BlockKernel:
    """Switches of one base graph, BLOCK members at a time.

    Owns the block buffers and reuses them from block to block: fresh
    arrays for every block cost more in page faults than the arithmetic
    does (about twice the time of the power-sum check at n=16).
    """

    def __init__(self, base_adj: np.ndarray, shift: int):
        n = base_adj.shape[0]
        self.base_adj = base_adj
        self.shift = shift
        self.vertex = np.arange(n)
        # low and high hold consecutive Seidel powers, and serve keys() as
        # reachability buffers; scratch is touched only on the modular route.
        self.adj, self.low, self.high, self.scratch = np.empty((4, BLOCK, n, n))
        self.low_image, self.high_image = np.empty((2, BLOCK, n, n), dtype=np.int64)

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

    def _image(self, power: np.ndarray, modulus: int, out: np.ndarray) -> None:
        """power as int64, reduced modulo modulus unless it is 0."""
        if modulus:
            # x - q floor(x / q) is exact in float64 for |x| < 2^52.
            rest = self.scratch[: len(power)]
            np.divide(power, modulus, out=rest)
            np.floor(rest, out=rest)
            rest *= -modulus
            rest += power
            power = rest
        out[...] = power

    def check_power_sums(self, adj: np.ndarray, subs: np.ndarray, targets) -> None:
        """Raise unless every member's Seidel power sums p_1..p_n equal the
        targets (see `_power_sum_targets`).  Overwrites adj with the Seidel
        matrices S = J - I - 2A.

        p_k = <S^a, S^b> with a = k // 2 and b = k - a, walking k upwards
        with S^a and S^b (b = a or a + 1) as the only powers held.
        """
        bsz, n, _ = adj.shape
        s = adj
        s *= -2.0
        s += 1.0 - np.eye(n)
        differ = np.zeros(bsz, dtype=bool)
        for modulus, want in targets:
            low, high = self.low[:bsz], self.high[:bsz]
            low_image, high_image = self.low_image[:bsz], self.high_image[:bsz]
            low[...] = np.eye(n)
            low_image[...] = np.eye(n, dtype=np.int64)
            for k in range(1, n + 1):
                if k % 2:  # b = a + 1
                    np.matmul(low, s, out=high)
                    self._image(high, modulus, high_image)
                else:  # a = b: the higher power becomes the lower one
                    low, high = high, low
                    low_image, high_image = high_image, low_image
                got = np.einsum("bij,bij->b", low_image, high_image if k % 2 else low_image)
                if modulus:
                    got %= modulus
                differ |= got != want[k - 1]
        if differ.any():
            raise ClassificationError(
                f"Seidel power sums changed under switching at subset {subs[differ.argmax()]}"
            )


def _census_chunk(args) -> tuple[dict, int]:
    """Integer-key counts of subsets start..stop-1 and the number of members
    whose Seidel power sums were checked (targets None: unchecked)."""
    base_adj, shift, targets, start, stop = args
    kernel = _BlockKernel(base_adj, shift)
    out: dict[tuple, list] = {}
    for subs, adj in kernel.blocks(start, stop):
        keys, no_two_walk = kernel.keys(adj)
        if no_two_walk.any():
            i = no_two_walk.argmax()
            degs = sorted(set(adj[i].sum(axis=1).astype(int).tolist()))
            raise ClassificationError(
                f"non-regular member at subset {subs[i]} without two-walk "
                f"parameters: degrees {degs}"
            )
        if targets is not None:
            kernel.check_power_sums(adj, subs, targets)
        rows = keys.view(np.dtype((np.void, keys.itemsize * keys.shape[1]))).ravel()
        for key, sub in zip(rows.tolist(), subs.tolist()):
            slot = out.get(key)
            if slot is None:
                out[key] = [1, sub]
            else:
                slot[0] += 1
    return out, 0 if targets is None else stop - start


def _merge(items) -> dict:
    """Add (key, count, representative) items up by key, keeping the
    smallest representative."""
    total: dict[Key, list] = {}
    for key, count, rep in items:
        slot = total.get(key)
        if slot is None:
            total[key] = [count, rep]
        else:
            slot[0] += count
            slot[1] = min(slot[1], rep)
    return total


def _sort_key(key: Key):
    kind, alpha, beta, valencies, connected = key
    return (
        0 if kind == "nonregular" else 1,
        alpha if alpha is not None else Fraction(0),
        beta if beta is not None else Fraction(0),
        valencies,
        connected,
    )


def valencies_str(valencies) -> str:
    return ",".join(f"{d}^{m}" for d, m in valencies)


@dataclass
class CensusRow:
    kind: str
    alpha: Fraction | None
    beta: Fraction | None
    valencies: tuple
    connected: bool
    count: int
    representative_subset: int

    @property
    def main_values(self) -> QuadraticPair | None:
        if self.kind != "nonregular":
            return None
        return QuadraticPair(self.alpha, self.beta)

    def csv_fields(self) -> list[str]:
        if self.kind == "nonregular":
            mu0, mu1 = self.main_values.exact_strings()
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
    # What verify checked: seidel_members_checked (members whose Seidel
    # power sums p_1..p_n were compared with the base's), structure_checks
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
                    "main_values": r.main_values.to_json() if r.main_values else None,
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


def _structure_skip_reason(rep) -> str | None:
    """None when the class is a non-trivial regular two-graph with integral
    Seidel spectrum (the structure checks apply), else why they do not."""
    if not rep.regular_two_graph:
        return (
            "base is not a regular two-graph "
            f"(distinct Seidel eigenvalues: {rep.distinct_seidel_count})"
        )
    if rep.spectrum is None or len(rep.spectrum) != 2:
        return "Seidel spectrum is not two integral eigenvalues"
    if min(m for _, m in rep.spectrum) < 2:
        return "trivial regular two-graph (a simple Seidel eigenvalue)"
    return None


def _expected_alpha(spectrum) -> Fraction | None:
    # Trace identity: 0 = alpha + sum (m_i - 1) theta_i over the non-main part.
    tot = Fraction(0)
    for rho, mult in spectrum:
        theta = Fraction(-1 - rho, 2)
        tot += (mult - 1) * theta
    return -tot


def _verify_row(base: Graph, row: CensusRow, shift: int, base_rep) -> None:
    mask = row.representative_subset << shift
    member = switch_mask(base, mask)
    if row.kind == "regular":
        if not row.connected:
            raise ClassificationError(
                f"regular disconnected member at subset {row.representative_subset}"
            )
        if srg_params(member) is None:
            raise ClassificationError(
                f"regular member at subset {row.representative_subset} is not strongly regular"
            )
        return
    expected = _expected_alpha(base_rep.spectrum)
    if expected is not None and row.alpha != expected:
        raise ClassificationError(
            f"alpha {row.alpha} != {expected} forced by the Seidel spectrum"
        )
    if row.connected:
        # Every member's Seidel power sums matched the base's, so the base's
        # Seidel spectrum is the member's.
        verdict = verify_nonregular_structure(member, base_rep)
        if not verdict.passed:
            raise ClassificationError(
                f"four-eigenvalue structure failed at subset {row.representative_subset}"
            )
    else:
        isolated = [v for v in range(member.n) if member.degree(v) == 0]
        if len(isolated) != 1:
            raise ClassificationError(
                f"disconnected member at subset {row.representative_subset} is not "
                "isolated vertex plus strongly regular graph"
            )
        rest = induced_subgraph(
            member, [v for v in range(member.n) if v != isolated[0]]
        )
        if srg_params(rest) is None:
            raise ClassificationError(
                f"disconnected member at subset {row.representative_subset}: "
                "remainder is not strongly regular"
            )


def census_table(
    base: Graph,
    convention=Convention.UP_TO_COMPLEMENT,
    workers: int = 1,
    verify: bool = True,
) -> CensusTable:
    """Aggregate the full switching-class census of the base graph.

    Deterministic for any worker count: workers own disjoint subset ranges
    and the merge adds exact counts keyed identically.  With verify=True
    every member's Seidel power sums p_1..p_n are checked, inside the
    workers, against those of the base's Seidel characteristic polynomial
    (exactly in int64 for n <= 16, modulo primes whose product exceeds twice
    the bound n^2 (n-1)^(n-2) for 17 <= n <= 24; see `_power_sum_moduli`),
    and when the class is a non-trivial regular two-graph the representative
    of every row is re-checked against the forced spectral structure.
    ``verification`` on the result says what was checked and what skipped.
    """
    convention = Convention(convention)
    _check_size(base.n)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    shift = _shift(convention)
    total = 1 << (base.n - shift)
    base_rep = seidel_report(base) if verify else None
    targets = _power_sum_targets(base_rep.seidel_char_poly) if verify else None
    base_adj = np.array(base.adjacency_matrix(), dtype=np.float64)
    bounds = [total * i // workers for i in range(workers + 1)]
    jobs = [(base_adj, shift, targets, bounds[i], bounds[i + 1]) for i in range(workers)]
    if workers == 1:
        parts = [_census_chunk(jobs[0])]
    else:
        with get_context("fork").Pool(workers) as pool:
            parts = pool.map(_census_chunk, jobs)
    merged = _merge(
        (_census_key(np.frombuffer(key, dtype=np.int64).tolist()), count, rep)
        for counts, _ in parts
        for key, (count, rep) in counts.items()
    )

    rows = tuple(
        CensusRow(
            kind=key[0],
            alpha=key[1],
            beta=key[2],
            valencies=key[3],
            connected=key[4],
            count=count,
            representative_subset=rep,
        )
        for key, (count, rep) in sorted(merged.items(), key=lambda kv: _sort_key(kv[0]))
    )
    totals = {
        "graphs": sum(r.count for r in rows),
        "regular": sum(r.count for r in rows if r.kind == "regular"),
        "nonregular": sum(r.count for r in rows if r.kind == "nonregular"),
        "disconnected": sum(r.count for r in rows if not r.connected),
        "rows": len(rows),
    }
    skip_reason = _structure_skip_reason(base_rep) if verify else "verify=False"
    if skip_reason is None:
        for row in rows:
            _verify_row(base, row, shift, base_rep)
    return CensusTable(
        base_graph6=write_graph6(base),
        convention=convention,
        rows=rows,
        totals=totals,
        verification={
            "seidel_members_checked": sum(checked for _, checked in parts),
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

    Runs the census kernel's power-sum check alone: each member's p_1..p_n
    from exact matrix powers against the base's, derived from its
    Faddeev-LeVerrier characteristic polynomial by Newton's identities.
    Returns the number of members checked.
    """
    convention = Convention(convention)
    _check_size(base.n)
    shift = _shift(convention)
    total = 1 << (base.n - shift)
    targets = _power_sum_targets(char_poly(seidel_matrix(base)))
    kernel = _BlockKernel(np.array(base.adjacency_matrix(), dtype=np.float64), shift)
    for subs, adj in kernel.blocks(0, total):
        kernel.check_power_sums(adj, subs, targets)
    return total


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
    out = []
    for part in text.split(","):
        deg, mult = part.strip().split("^")
        out.append((int(deg), int(mult)))
    return tuple(sorted(out))


def load_reference_csv(text: str) -> list[ReferenceRow]:
    rows = []
    for rec in csv.DictReader(io.StringIO(text)):
        rows.append(
            ReferenceRow(
                alpha=Fraction(rec["alpha"]),
                beta=Fraction(rec["beta"]),
                mu0=rec["mu0"],
                mu1=rec["mu1"],
                valencies=parse_valencies(rec["valencies"]),
                count=int(rec["count"]),
            )
        )
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

    @property
    def all_match(self) -> bool:
        return all(r["verdict"] == "match" for r in self.rows)


def compare_to_reference(table: CensusTable, reference) -> AuditReport:
    """Per-row audit of a computed census against reference rows.

    Verdicts: match, count-mismatch, missing (reference row never computed),
    extra (computed row absent from the reference).  Regular members are not
    part of the reference and are reported only in the totals.  Nothing is
    normalized away; mismatches stay visible.
    """
    computed = table.nonregular_index()
    ref_by_key = {(r.alpha, r.beta, r.valencies): r for r in reference}
    rows = []
    for key in sorted(
        set(computed) | set(ref_by_key),
        key=lambda k: (k[0], k[1], k[2]),
    ):
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
            mu = got.main_values.exact_strings()
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
