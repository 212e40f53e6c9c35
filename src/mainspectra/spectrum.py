"""Main-eigenvalue classification: walk vectors, two-walk parameters, harmonicity.

The number of main eigenvalues of a graph equals the rank of its walk
matrix (columns j, Aj, A^2 j, ...).  A non-regular graph has exactly two
main eigenvalues iff A d = alpha d + beta j for the degree vector d; the
two main eigenvalues are then the roots of x^2 - alpha x - beta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .graphs import Graph, degree_vector, is_connected
from .linalg import _PRIME_TOP, _crt, order_stacks, primes_below


def fraction_to_json(f):
    """Fractions serialize as ints when integral, else as 'p/q' strings."""
    if f is None:
        return None
    f = Fraction(f)
    return int(f) if f.denominator == 1 else str(f)


def _sqrt_if_square(f: Fraction) -> Fraction | None:
    if f < 0:
        return None
    ns = math.isqrt(f.numerator)
    ds = math.isqrt(f.denominator)
    if ns * ns == f.numerator and ds * ds == f.denominator:
        return Fraction(ns, ds)
    return None


@dataclass(frozen=True)
class TwoWalkParams:
    """Coefficients of A d = alpha d + beta j, and the graph's two main
    eigenvalues: the ordered roots mu0 > mu1 of x^2 - alpha x - beta, kept exact."""

    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        if self.discriminant <= 0:
            raise ValueError(
                f"non-positive discriminant for (alpha, beta) = "
                f"({self.alpha}, {self.beta}); no graph realizes this"
            )

    @property
    def discriminant(self) -> Fraction:
        return self.alpha * self.alpha + 4 * self.beta

    def floats(self) -> tuple[float, float]:
        root = math.sqrt(self.discriminant)
        a = float(self.alpha)
        return ((a + root) / 2.0, (a - root) / 2.0)

    def exact_strings(self) -> tuple[str, str]:
        """Render the roots exactly: rationals, or 'a+sqrt(D)' / '(a+sqrt(D))/2'."""
        disc = self.discriminant
        s = _sqrt_if_square(disc)
        if s is not None:
            return (str((self.alpha + s) / 2), str((self.alpha - s) / 2))
        half = self.alpha / 2
        quarter = disc / 4
        if quarter.denominator == 1:
            a = str(half)
            return (f"{a}+sqrt({quarter})", f"{a}-sqrt({quarter})")
        a = str(self.alpha)
        return (f"({a}+sqrt({disc}))/2", f"({a}-sqrt({disc}))/2")

    def to_json(self) -> dict:
        return {"alpha": fraction_to_json(self.alpha), "beta": fraction_to_json(self.beta)}

    def main_values_json(self) -> dict:
        mu0, mu1 = self.floats()
        s0, s1 = self.exact_strings()
        return {
            **self.to_json(),
            "mu0": s0,
            "mu1": s1,
            "mu0_float": mu0,
            "mu1_float": mu1,
        }


@dataclass
class MainSpectrumReport:
    n: int
    edges: int
    connected: bool
    regular: bool
    main_count: int
    two_walk: TwoWalkParams | None
    spectral_radius: float

    @property
    def harmonic_delta(self) -> Fraction | None:
        """The delta with A d = delta d, if any (regular graphs give their
        valency): harmonicity as the beta = 0 case of the two-walk decision.

        A non-regular graph has d outside span(j), so A d = delta d puts A d in
        span(d, j) with beta = 0, and the coefficients there are unique.
        """
        if self.two_walk is not None:
            return self.two_walk.alpha if self.two_walk.beta == 0 else None
        return Fraction(2 * self.edges, self.n) if self.regular else None

    def to_json(self) -> dict:
        tw = self.two_walk
        return {
            "n": self.n,
            "edges": self.edges,
            "connected": self.connected,
            "regular": self.regular,
            "main_count": self.main_count,
            "two_walk": tw.to_json() if tw else None,
            "harmonic_delta": fraction_to_json(self.harmonic_delta),
            "main_values": tw.main_values_json() if tw else None,
            "spectral_radius": self.spectral_radius,
        }


def _apply_adjacency(g: Graph, vec) -> list[int]:
    out = []
    for v in range(g.n):
        row = g.rows[v]
        acc = 0
        while row:
            low = row & -row
            acc += vec[low.bit_length() - 1]
            row ^= low
        out.append(acc)
    return out


# A lane that has discarded this many primes as unlucky (the walk rank
# modulo them fell below the true one) raises; near 2^26 none is expected.
_UNLUCKY_PRIMES = 4
# _reduce subtracts this many products below 2^52 at a time, staying below 2^63.
_DOT_TERMS = 1 << 10


def _walk_step(a, x, q):
    """A x modulo the prime q, for a float64 adjacency stack a (b, n, n) and
    residues x (b, n): exact in float64, as every partial sum stays below
    n q < 2^53."""
    return np.remainder(np.matmul(a, x[:, :, None])[:, :, 0], q)


def _reduce(x, f, rows, q):
    """x - sum_i f[:, i] rows[:, i] modulo the prime q, in int64: x (b, m),
    f (b, k) and rows (b, k, m) hold residues below q < 2^26."""
    for s in range(0, f.shape[1], _DOT_TERMS):
        x = (x - np.matmul(f[:, None, s:s + _DOT_TERMS], rows[:, s:s + _DOT_TERMS])[:, 0]) % q
    return x


def _walk_dependencies(a, q) -> tuple[list[int], list]:
    """The walk rank of each matrix of a float64 adjacency stack a (b, n, n)
    modulo the prime q, and the monic dependency there.

    The walk vectors j, A j, A^2 j, ... are made one step at a time modulo
    q and reduced against a reduced echelon basis whose pivots are 1.  Each
    basis row carries, in its last n columns, its combination of the walk
    vectors, so a walk vector A^k j enters as itself next to e_k.  A lane
    stops at its first walk vector A^r j that reduces to zero: its rank is
    r, and the combination's coefficients [m_0, ..., m_r = 1], in [0, q),
    give m(A) j = 0 modulo q.  A lane independent to the end has rank n and
    dependency None.
    """
    b, n = a.shape[:2]
    ranks, deps = [n] * b, [None] * b
    lanes = np.arange(b)
    walk = np.ones((b, n))
    basis = np.zeros((b, 0, 2 * n), np.int64)
    pivots = np.zeros((b, 0), np.intp)
    for k in range(n):
        x = np.zeros((len(walk), 2 * n), np.int64)
        x[:, :n] = walk
        x[:, n + k] = 1
        rows = np.arange(len(x))
        x = _reduce(x, x[rows[:, None], pivots], basis, q)
        dependent = ~x[:, :n].any(axis=1)
        if dependent.any():
            for lane, dep in zip(lanes[dependent].tolist(), x[dependent, n:n + k + 1].tolist()):
                ranks[lane], deps[lane] = k, dep
            keep = ~dependent
            if not keep.any():
                break
            a, lanes, walk, x, basis, pivots = (
                y[keep] for y in (a, lanes, walk, x, basis, pivots)
            )
            rows = rows[: len(x)]
        pivot = (x[:, :n] != 0).argmax(axis=1)
        x = x * np.array([[pow(c, -1, q)] for c in x[rows, pivot].tolist()]) % q
        column = basis[rows, :, pivot][:, :, None]
        basis = np.concatenate([(basis - column * x[:, None]) % q, x[:, None]], 1)
        pivots = np.concatenate([pivots, pivot[:, None]], axis=1)
        walk = _walk_step(a, walk, q)
    return ranks, deps


def _walk_ranks(a) -> list[int]:
    """The main-eigenvalue count of each matrix of a float64 adjacency stack
    a (b, n, n), each one proven.

    Each round takes a fresh prime and runs every open lane (a matrix with
    no proven count yet) modulo it.  The walk rank modulo a prime never
    exceeds the rank over Q, so rank n modulo a prime is proof, and a lower
    rank R is a floor.  The dependencies modulo the lane's primes of rank R
    are lifted by CRT to M once their product P exceeds 2 (1 + D)^R, D the
    largest degree.  If the rank is R, those primes are all lucky and M is
    the main polynomial m, whose roots are distinct eigenvalues of absolute
    value at most D: |m_i| <= C(R, i) D^(R - i).  Let B = sum |M_i| D^i.  If
    B < P, the rank is R: M is monic of degree R, M(A) j vanishes modulo
    every lift prime and |M(A) j| <= B, so M(A) j = 0.  No other count below
    n is returned.  If B > (2D)^R, which bounds B(m), M is not m: every
    prime of rank R was unlucky, and the floor rises to R + 1.  Otherwise
    the lane takes the next round's prime.  A prime of lower rank than
    another is unlucky too, so a floor raised in error cannot give a wrong
    count, only unlucky primes; after _UNLUCKY_PRIMES of them, or when the
    primes run out, AssertionError.
    """
    b, n = a.shape[:2]
    degrees = a.sum(axis=2).max(axis=1).astype(np.int64).tolist()
    primes = primes_below(_PRIME_TOP)
    counts: list = [None] * b
    floor = [0] * b  # the rank over Q is at least this
    found: list = [[] for _ in range(b)]  # (q, dependency) for the primes of rank floor
    unlucky = [0] * b
    open_lanes = list(range(b))
    while open_lanes:
        q = next(primes, None)
        if q is None:
            raise AssertionError("walk rank certificate ran out of primes")
        ranks, deps = _walk_dependencies(a if len(open_lanes) == b else a[open_lanes], q)
        for lane, r, dep in zip(open_lanes, ranks, deps):
            if r == n:
                counts[lane] = n
                continue
            if r > floor[lane]:
                unlucky[lane] += len(found[lane])
                floor[lane], found[lane] = r, [(q, dep)]
            elif r == floor[lane]:
                found[lane].append((q, dep))
            else:
                unlucky[lane] += 1
            if unlucky[lane] >= _UNLUCKY_PRIMES:
                raise AssertionError(f"walk rank certificate met {unlucky[lane]} unlucky primes")
            lift, product = _crt(found[lane])
            delta, rank = degrees[lane], floor[lane]
            if product > 2 * (1 + delta) ** rank:  # the lift target
                bound = sum(abs(c) * delta**i for i, c in enumerate(lift))  # B
                if product > bound:
                    counts[lane] = rank
                elif bound > (2 * delta) ** rank:
                    unlucky[lane] += len(found[lane])
                    floor[lane], found[lane] = rank + 1, []
        open_lanes = [lane for lane in open_lanes if counts[lane] is None]
    return counts


def two_walk_params(g: Graph) -> TwoWalkParams | None:
    """(alpha, beta) with A d = alpha d + beta j, or None (regular or no solution).

    For a non-regular graph d and j are independent, so the coefficients are
    unique when they exist.  They are decided in integers by the
    cross-multiplied test q (A d) = p d + b j, anchored at vertex 0 and the
    first vertex u whose degree differs: q = d_0 - d_u, p = (Ad)_0 - (Ad)_u
    and b = (Ad)_0 q - p d_0, so alpha = p/q and beta = b/q.
    """
    d = degree_vector(g)
    u = next((v for v in range(g.n) if d[v] != d[0]), None)
    if u is None:
        return None
    ad = _apply_adjacency(g, d)
    q = d[0] - d[u]
    p = ad[0] - ad[u]
    b = ad[0] * q - p * d[0]
    if any(q * x != p * y + b for x, y in zip(ad, d)):
        return None
    if p * p + 4 * b * q <= 0:
        raise AssertionError("two-walk parameters with a non-positive discriminant")
    return TwoWalkParams(Fraction(p, q), Fraction(b, q))


def main_spectrum_reports(graphs) -> list[MainSpectrumReport]:
    """Full main-spectrum report for each graph.  The main count is the rank
    of the walk matrix (columns j, A j, A^2 j, ...), found modulo primes and
    proven exactly (see _walk_ranks).  The graphs of one order share an
    adjacency stack (see linalg.order_stacks): one walk-rank kernel and one
    eigvalsh for the spectral radius (reported only; no decision reads it).
    Each stack is freed before the next is built."""
    graphs = list(graphs)
    counts, radii = [0] * len(graphs), [0.0] * len(graphs)
    for stack in order_stacks([g.n for g in graphs]):
        a = np.array([graphs[i].adjacency_matrix() for i in stack], dtype=float)
        for i, k, rho in zip(stack, _walk_ranks(a), np.linalg.eigvalsh(a).max(axis=1).tolist()):
            counts[i], radii[i] = k, rho
        del a
    reports = []
    for g, k, rho in zip(graphs, counts, radii):
        d = degree_vector(g)
        tw = two_walk_params(g)
        if (tw is not None) != (k == 2):
            raise AssertionError("walk rank and two-walk test disagree")
        reports.append(
            MainSpectrumReport(
                n=g.n,
                edges=sum(d) // 2,
                connected=is_connected(g),
                regular=len(set(d)) == 1,
                main_count=k,
                two_walk=tw,
                spectral_radius=rho,
            )
        )
    return reports


def analyze(g: Graph) -> MainSpectrumReport:
    """Full main-spectrum report for one graph: the batch of one of
    main_spectrum_reports."""
    return main_spectrum_reports([g])[0]
