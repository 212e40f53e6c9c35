"""Exact integer/rational linear algebra.

Every classification decision in this package (ranks, characteristic
polynomials, integer roots, divisibility) runs in exact arithmetic; the
float64 products of the modular kernels stay below 2^53, and
`cluster_floats` only groups the float eigenvalues a report prints.

Polynomials are tuples of arbitrary-precision coefficients in ascending
order of degree, trimmed of trailing zeros; () is the zero polynomial.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from functools import lru_cache

import numpy as np

Poly = tuple


# ---------------------------------------------------------------------------
# matrices


# char_poly's primes lie below this: p^2 < 2^52 keeps a reduced trace times
# k^-1 exact in float64.
_PRIME_TOP = 1 << 26

_PRIMES: dict[int, list[int]] = {}


def _is_prime(q: int) -> bool:
    if q < 4:
        return q >= 2
    return q % 2 != 0 and all(q % f for f in range(3, math.isqrt(q) + 1, 2))


def primes_below(top: int) -> Iterator[int]:
    """The primes below top, in descending order.

    Found by trial division on first use and memoised per top, so later
    calls with the same top walk a list.
    """
    found = _PRIMES.setdefault(top, [])
    i = 0
    while True:
        if i == len(found):
            q = found[-1] if found else top
            while True:
                q -= 1
                if q < 2:
                    return
                if _is_prime(q):
                    break
            found.append(q)
        yield found[i]
        i += 1


def _coefficient_bound(stack) -> int:
    """The largest prod(1 + ceil(r_i)) in an int64 stack, r_i a matrix's
    Euclidean row norms (see char_polys); row sums <= 2^26 keep r_i^2 < 2^52."""
    return max(  # ceil(sqrt(sq)) = isqrt(sq - 1) + 1
        math.prod(2 + math.isqrt(sq - 1) if sq else 1 for sq in norms)
        for norms in np.einsum("bij,bij->bi", stack, stack).tolist()
    )


@lru_cache(maxsize=64)
def _modular_constants(moduli: tuple[int, ...], n: int):
    """char_polys' per-prime constants: the primes as a column and -k^-1
    modulo each for k = 1..n."""
    p = np.array(moduli, dtype=np.float64).reshape(-1, 1)
    negated_inverses = np.array(
        [[q - pow(k, -1, q) for q in moduli] for k in range(1, n + 1)], dtype=np.float64
    ).reshape(n, len(moduli), 1)
    p.setflags(write=False)  # shared by every call with these primes
    negated_inverses.setflags(write=False)
    return p, negated_inverses


def _crt(residues) -> tuple[list[int], int]:
    """The coefficient lists [(q, coefficients mod q), ...] lifted by CRT
    into the symmetric range of the product of the q, and that product."""
    product, lift = 1, []
    for q, coeffs in residues:
        t = pow(product, -1, q)
        lift = [x + product * ((c - x) * t % q) for x, c in zip(lift or [0] * len(coeffs), coeffs)]
        product *= q
    half = product // 2
    return [x - product if x > half else x for x in lift], product


# order_stacks cuts a batch into stacks of at most this many matrix
# elements, and _char_poly_stack runs a stack's primes in groups whose three
# float64 working buffers hold at most this many elements together.
_STACK_ELEMENTS = 1 << 18


def char_poly(mat) -> Poly:
    """det(xI - M) for an integer square matrix, exact coefficients: the
    batch of one of char_polys."""
    return char_polys([mat])[0]


def char_polys(mats) -> list[Poly]:
    """det(xI - M) for each integer square matrix M, exact coefficients.

    Each M is a 2-D integer array (or int rows) with absolute row sums at
    most 2^26, as every graph matrix is; anything else raises ValueError.

    Faddeev-LeVerrier, M_k = A (M_(k-1) + c_(k-1) I) and c_k = -tr(M_k) / k
    from M_0 = 0, c_0 = 1, run modulo several primes p > n at once; k^-1
    exists modulo each p.  The batch is cut into stacks of one order by
    order_stacks, so each step is one float64 matmul over a leading batch
    axis and an axis of primes.

    Bound: c_k is (-1)^k times the sum of the k x k principal minors of A.
    By Hadamard's inequality each minor is at most the product of the norms
    of its rows, so with r_i the Euclidean norm of row i,
    |c_k| <= e_k(r) <= prod(1 + r_i) <= B = prod(1 + ceil(r_i)).  The
    matrices of one stack share the fewest primes whose product exceeds 2B
    for the largest B among them, so every matrix's coefficients are rebuilt
    uniquely by CRT in the symmetric range; one further prime must agree
    with every coefficient of every matrix, else AssertionError.

    Exactness: float64 holds every integer below 2^53 exactly.  Each step
    reduces M_k to M_k - p floor(M_k fl(1/p)); while |M_k| < 2^53 the float
    quotient is within 2/p of M_k / p, so this product is exact and the
    residues lie in [-2, p + 2] (c_k alone is reduced exactly into [0, p)).
    The entries of M_(k-1) + c_(k-1) I then lie in [-2, 2p + 1], and every
    partial sum of a product row by column is at most w (2p + 1), with w
    the largest absolute row sum of A.  The primes lie below 2^26, so
    w <= 2^26 keeps these sums below 2^53.  Traces stay below n (p + 2),
    and a reduced trace times k^-1 below p^2 < 2^52.
    """
    mats = [np.asarray(mat) for mat in mats]
    for a in mats:
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("matrix is not square")
        if a.dtype.kind not in "iu":
            raise ValueError(f"matrix entries are not int64 integers: dtype {a.dtype}")
    out: list[Poly] = [()] * len(mats)
    for members in order_stacks([len(a) for a in mats]):
        stack = np.stack([mats[i] for i in members])
        # every entry first: np.abs of the int64 minimum is negative
        if (stack > _PRIME_TOP).any() or (stack < -_PRIME_TOP).any():
            raise ValueError("matrix entry beyond 2^26 in absolute value")
        stack = stack.astype(np.int64, copy=False)
        if (np.abs(stack).sum(axis=2) > _PRIME_TOP).any():
            raise ValueError("matrix has an absolute row sum above 2^26")
        moduli = _moduli(len(stack[0]), 2 * _coefficient_bound(stack))
        for i, poly in zip(members, _char_poly_stack(stack, moduli)):
            out[i] = poly
    return out


def _moduli(n: int, bound: int) -> list[int]:
    """The fewest primes in (n, _PRIME_TOP) whose product exceeds bound,
    then one more: the check prime."""
    moduli: list[int] = []
    product = 1
    for q in primes_below(_PRIME_TOP):
        if q <= n:
            break
        moduli.append(q)
        if product > bound:  # q is the check prime
            return moduli
        product *= q
    raise ValueError(f"too few primes in {n + 1}..{_PRIME_TOP - 1} for an exact char_poly")


def _char_poly_stack(stack: np.ndarray, moduli: list[int]) -> list[Poly]:
    """char_polys on one int64 stack (batch, n, n) of same-order matrices:
    the residues modulo every prime, one CRT lift of them all, the check prime.

    The primes run in groups whose lanes fit _STACK_ELEMENTS.
    """
    batch, n = len(stack), len(stack[0])
    group = max(1, _STACK_ELEMENTS // (3 * batch * n * n or 1))
    p, negated_inverses = _modular_constants(tuple(moduli), n)
    a = stack.astype(np.float64).reshape(batch, 1, n, n)
    by_prime = np.concatenate([
        _residues(stack, a, moduli[s:s + group], p[s:s + group], negated_inverses[:, s:s + group])
        for s in range(0, len(moduli), group)
    ]).reshape(len(moduli), -1).tolist()
    lift, _ = _crt(zip(moduli[:-1], by_prime[:-1]))
    if [x % moduli[-1] for x in lift] != by_prime[-1]:
        raise AssertionError("check prime disagrees with char_poly's CRT reconstruction")
    return [tuple(lift[s:s + n + 1][::-1]) for s in range(0, len(lift), n + 1)]


def _residues(stack, a, moduli: list[int], p, negated_inverses) -> np.ndarray:
    """The char_poly coefficients c_0..c_n of each matrix of the stack
    modulo each prime, as an int64 array (prime, matrix, k).  a is the
    stack as float64 (batch, 1, n, n); p and negated_inverses are the
    primes' _modular_constants.

    Each (matrix, prime) pair is a lane; the matmul sees the lanes as
    (matrix, prime) and every other step as one flat axis.
    """
    batch, n, count = len(stack), len(stack[0]), len(moduli)
    lanes = batch * count
    if batch > 1:  # one row of constants per lane, matrix-major
        p = np.tile(p, (batch, 1))
        negated_inverses = np.tile(negated_inverses, (1, batch, 1))
    residues = np.empty((n + 1, lanes, 1))
    residues[0] = 1
    # M_(k-1), M_k and scratch for the float quotient, with diagonal views
    m, m_next, quotient = buffers = np.zeros((3, lanes, n, n))
    diag, diag_next, _ = buffers.reshape(3, lanes, n * n)[:, :, :: n + 1]
    stacked, stacked_next, _ = buffers.reshape(3, batch, count, n, n)
    p_col = p[:, :, None]
    p_inv = 1 / p_col
    for k in range(1, n + 1):
        diag += residues[k - 1]
        np.matmul(a, stacked, out=stacked_next)
        np.multiply(m_next, p_inv, out=quotient)
        np.floor(quotient, out=quotient)
        np.multiply(quotient, p_col, out=quotient)
        np.subtract(m_next, quotient, out=m_next)
        trace = np.add.reduce(diag_next, axis=1, keepdims=True)
        np.remainder(trace, p, out=trace)
        np.multiply(trace, negated_inverses[k - 1], out=trace)
        np.remainder(trace, p, out=residues[k])
        m, m_next, diag, diag_next = m_next, m, diag_next, diag
        stacked, stacked_next = stacked_next, stacked
    return residues.reshape(n + 1, batch, count).transpose(2, 1, 0).astype(np.int64)


# Float eigenvalues closer than this are reported as one, with multiplicity.
_CLUSTER_GAP = 1e-6


def cluster_floats(values) -> list[tuple[float, int]]:
    """Group a sorted list of floats into clusters separated by more than
    _CLUSTER_GAP."""
    out: list[tuple[float, int]] = []
    group: list[float] = []
    for x in values:
        if group and x - group[-1] > _CLUSTER_GAP:
            out.append((sum(group) / len(group), len(group)))
            group = []
        group.append(x)
    if group:
        out.append((sum(group) / len(group), len(group)))
    return out


def order_stacks(orders) -> list[list[int]]:
    """The indices of a batch of square matrices of the given orders,
    grouped by order (first appearance first) and cut into stacks of at most
    _STACK_ELEMENTS matrix elements; a single larger matrix is a stack alone.
    Every batched kernel takes its stacks from here."""
    groups: dict[int, list[int]] = {}
    for i, n in enumerate(orders):
        groups.setdefault(n, []).append(i)
    stacks = []
    for n, members in groups.items():
        size = max(1, _STACK_ELEMENTS // (n * n or 1))
        stacks.extend(members[s:s + size] for s in range(0, len(members), size))
    return stacks


# ---------------------------------------------------------------------------
# polynomials


def poly_trim(p) -> Poly:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def poly_mul(p, q) -> Poly:
    p, q = poly_trim(p), poly_trim(q)
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_trim(out)


def poly_derivative(p) -> Poly:
    p = poly_trim(p)
    return poly_trim([i * c for i, c in enumerate(p)][1:])


def poly_content(p) -> int:
    g = 0
    for c in p:
        g = math.gcd(g, int(c))
    return g or 1


def poly_primitive(p) -> Poly:
    p = poly_trim(p)
    if not p:
        return ()
    g = poly_content(p)
    return tuple([int(c) // g for c in p])


def _primitive_positive(p) -> Poly:
    p = poly_primitive(p)
    return p if p[-1] > 0 else tuple([-c for c in p])


def _exact_quotient(p: Poly, g: Poly) -> Poly | None:
    """p / g when g divides p in Z[x], else None: integer long division in
    which every quotient coefficient must come out exact.  For a primitive
    g this is divisibility over the rationals too (Gauss's lemma)."""
    rem = list(p)
    dg = len(g) - 1
    lead = g[-1]
    quo = [0] * max(len(rem) - dg, 0)
    for shift in range(len(quo) - 1, -1, -1):
        f, r = divmod(rem[shift + dg], lead)
        if r:
            return None
        if f:
            quo[shift] = f
            for j in range(dg):
                rem[shift + j] -= f * g[j]
    if any(rem[:dg]):
        return None
    return tuple(quo)


def _divmod_mod(a: list, b: list, q: int) -> tuple[list, list]:
    """Quotient and trimmed remainder of a by the monic b modulo the prime q;
    a is overwritten."""
    db = len(b) - 1
    quo = [0] * max(len(a) - db, 0)
    for shift in range(len(quo) - 1, -1, -1):
        f = quo[shift] = a[shift + db] % q
        if f:
            for j in range(db):
                a[shift + j] -= f * b[j]
    rem = [c % q for c in a[:db]]
    while rem and not rem[-1]:
        rem.pop()
    return quo, rem


def _gcd_mod(a: list, b: list, q: int) -> list:
    """Monic gcd modulo the prime q of two coefficient lists reduced into
    [0, q) and trimmed, a non-zero; a is overwritten."""
    while b:
        inv = pow(b[-1], -1, q)
        b = [c * inv % q for c in b]
        a, b = b, _divmod_mod(a, b, q)[1]
    inv = pow(a[-1], -1, q)
    return [c * inv % q for c in a]


def _derivative_gcd(p: Poly) -> Poly:
    """gcd(p, p') of a trimmed non-zero integer polynomial, primitive with
    positive leading coefficient, by Brown's modular algorithm.

    The primes are char_polys', skipping any that divides p's leading
    coefficient c.  Modulo any other q the true gcd g keeps its degree (its
    leading coefficient divides c) and divides both images, so
    deg gcd(p mod q, p' mod q) >= deg g: a constant one proves p
    squarefree.  Otherwise the images of the primes of least degree so far
    are CRT-lifted into the symmetric range: c g / lc(g) when deg g <=
    deg p / 2, else the cofactor lc(g) p / g, as the factor of lower degree
    has the smaller coefficient bound (Mignotte) and needs fewer primes.
    The lift's primitive part gives a candidate G (itself, or p over it);
    a G dividing both p and p' in Z[x] divides g with at least its degree,
    so it is g.  Else more primes follow: the lift was short, or its
    primes unlucky, and a prime of lower degree discards them.
    """
    dp = poly_derivative(p)
    lead = p[-1]
    degree, found = 0, []  # found: (q, image) for the primes of least degree so far
    for q in primes_below(_PRIME_TOP):
        if lead % q == 0:
            continue
        image = [c % q for c in p]
        dq = [c % q for c in dp]
        while dq and not dq[-1]:
            dq.pop()
        gcd = _gcd_mod(image[:], dq, q)
        d = len(gcd) - 1
        if d == 0:
            return (1,)
        if found and d > degree:
            continue
        if d != degree:
            degree, found = d, []
        small_gcd = 2 * d <= len(p) - 1
        image = [c * lead % q for c in gcd] if small_gcd else _divmod_mod(image, gcd, q)[0]
        found.append((q, image))
        lift = poly_primitive(_crt(found)[0])
        candidate = lift if small_gcd else _exact_quotient(p, lift)
        if (
            candidate is not None
            and _exact_quotient(p, candidate) is not None
            and _exact_quotient(dp, candidate) is not None
        ):
            return _primitive_positive(candidate)
    raise ValueError("too few primes for the modular gcd")


def distinct_root_count(p) -> int:
    """Number of distinct complex roots: deg p - deg gcd(p, p'), the degree
    of the squarefree part."""
    p = poly_trim(p)
    if not p:
        raise ValueError("zero polynomial has no squarefree part")
    return len(p) - len(_derivative_gcd(p))


def extract_integer_roots(p, candidates) -> tuple[list[tuple[int, int]], Poly]:
    """Peel the integer roots among the candidates off p with multiplicities.

    candidates are integers, each tested by exact division by x - r; callers
    pass a range known to hold every integer root.  Returns ((root,
    multiplicity) pairs sorted descending, residual factor).  The residual
    is (1,) exactly when p splits over the integers within the candidates.
    """
    p = poly_trim(p)
    if not p:
        raise ValueError("zero polynomial")
    roots = []
    for r in sorted(set(candidates), reverse=True):
        mult = 0
        while (quo := _exact_quotient(p, (-r, 1))) is not None:
            p = quo
            mult += 1
        if mult:
            roots.append((r, mult))
    return roots, p
