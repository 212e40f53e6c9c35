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

from .graphs import Graph, degree_vector, is_connected
from .linalg import eigenvalues_float


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
    """Coefficients of A d = alpha d + beta j."""

    alpha: Fraction
    beta: Fraction

    def to_json(self) -> dict:
        return {"alpha": fraction_to_json(self.alpha), "beta": fraction_to_json(self.beta)}


@dataclass(frozen=True)
class QuadraticPair:
    """The ordered roots mu0 >= mu1 of x^2 - alpha x - beta, kept exact."""

    alpha: Fraction
    beta: Fraction

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
        mu0, mu1 = self.floats()
        s0, s1 = self.exact_strings()
        return {
            "alpha": fraction_to_json(self.alpha),
            "beta": fraction_to_json(self.beta),
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
    harmonic_delta: Fraction | None
    main_values: QuadraticPair | None
    spectral_radius: float

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "edges": self.edges,
            "connected": self.connected,
            "regular": self.regular,
            "main_count": self.main_count,
            "two_walk": self.two_walk.to_json() if self.two_walk else None,
            "harmonic_delta": fraction_to_json(self.harmonic_delta),
            "main_values": self.main_values.to_json() if self.main_values else None,
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


def main_eigenvalue_count(g: Graph) -> int:
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


def main_values(params: TwoWalkParams) -> QuadraticPair:
    pair = QuadraticPair(params.alpha, params.beta)
    if pair.discriminant <= 0:
        raise ValueError(
            f"non-positive discriminant for (alpha, beta) = "
            f"({params.alpha}, {params.beta}); no graph realizes this"
        )
    return pair


def harmonic_delta(g: Graph) -> Fraction | None:
    """The delta with A d = delta d, if any; regular graphs return their valency."""
    return _harmonic_delta(degree_vector(g), two_walk_params(g))


def _harmonic_delta(d: list[int], tw: TwoWalkParams | None) -> Fraction | None:
    """Harmonicity as the beta = 0 case of the two-walk decision.

    A non-regular graph has d outside span(j), so A d = delta d puts A d in
    span(d, j) with beta = 0, and the coefficients there are unique.
    """
    if tw is None:
        return Fraction(d[0]) if len(set(d)) == 1 else None
    return tw.alpha if tw.beta == 0 else None


def analyze(g: Graph) -> MainSpectrumReport:
    """Full main-spectrum report for one graph."""
    d = degree_vector(g)
    regular = len(set(d)) == 1
    k = main_eigenvalue_count(g)
    tw = two_walk_params(g)
    if (tw is not None) != (k == 2):
        raise AssertionError("walk rank and two-walk test disagree")
    mv = main_values(tw) if tw is not None else None
    # cast first, so no int64 copy stays alive across eigvalsh
    rho = max(eigenvalues_float(g.adjacency_matrix().astype(float)))
    return MainSpectrumReport(
        n=g.n,
        edges=sum(d) // 2,
        connected=is_connected(g),
        regular=regular,
        main_count=k,
        two_walk=tw,
        harmonic_delta=_harmonic_delta(d, tw),
        main_values=mv,
        spectral_radius=rho,
    )
