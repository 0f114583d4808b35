"""Exact cyclic convolution of non-negative integer sequences.

One engine serves every length: number-theoretic transforms modulo
several 31-bit primes, recombined by remaindering (CRT).  The prime pool
is grown until its product exceeds an a-priori bound on the output
coefficients, which makes the reconstruction exact, not approximate.
The O(n^2) schoolbook sum is kept only as the test suite's oracle.

The transform needs primes q = 1 (mod N) below 2**31.5 (so numpy int64
products never overflow), where N is the power-of-two transform length.
Such primes exist in bulk for every N up to 2**25, which covers all
desk-scale moduli; beyond that the transform raises GuardExceeded rather
than falling back to an O(n^2) loop.

Each (q, N) keeps one table of roots gen^0 .. gen^(N/2-1), where gen has
order N mod q.  The forward transform is decimation in frequency (natural
order in, bit-reversed order out) and the backward one is decimation in
time (bit-reversed in, natural out), so no permutation is ever applied
(Gentleman & Sande, 1966).  The backward pass reuses the forward roots, so
its entry t holds N times the inverse transform at -t mod N: the inverse
is that index reversal plus one scaling by N^-1.
"""

from __future__ import annotations

import numpy as np

from .errors import GuardExceeded
from .field import is_prime, power_table, primitive_root

# Largest q with q*q < 2**63, keeping int64 butterflies overflow-free.
_MAX_NTT_PRIME = 3_037_000_499

_prime_pool: dict[int, list[tuple[int, int]]] = {}  # N -> [(q, generator_of_order_N)]
_root_cache: dict[tuple[int, int], np.ndarray] = {}  # (q, N) -> gen^0 .. gen^(N/2-1)


def exact_cyclic(a: list[int], b: list[int]) -> list[int]:
    """Cyclic convolution out[t] = sum_u a[u]*b[(t-u) mod n], exact."""
    n = len(a)
    if len(b) != n:
        raise ValueError(f"length mismatch: {n} vs {len(b)}")
    total_a, total_b = sum(a), sum(b)
    if total_a == 0 or total_b == 0:
        return [0] * n
    # Every output coefficient is a sub-sum of all products, so this bounds
    # both the linear coefficients and their cyclic wrap-around sums.
    bound = total_a * total_b + 1

    size = 1 << (2 * n - 1).bit_length()
    primes = _primes_for(size, bound)
    pad = [0] * (size - n)

    residues = []
    for q, gen in primes:
        roots = _root_cache.get((q, size))
        if roots is None:
            roots = _root_cache[q, size] = power_table(gen, size // 2, q)
        fa = _forward(np.array([x % q for x in a] + pad, dtype=np.int64), q, roots)
        fb = fa if a is b else _forward(np.array([x % q for x in b] + pad, dtype=np.int64), q, roots)
        y = _backward(fa * fb % q, q, roots)
        # y[t] is size times the linear convolution at -t mod size.  Read the
        # first 2n entries at -t (entry 2n-1 is zero since size >= 2n), wrap
        # them to cyclic length n, then divide by size.
        lin = np.concatenate((y[:1], y[: -2 * n : -1]))
        residues.append((lin[:n] + lin[n:]) % q * pow(size, q - 2, q) % q)

    return _crt_combine(residues, [q for q, _ in primes])


def _primes_for(size: int, bound: int) -> list[tuple[int, int]]:
    """Primes q = 1 (mod size) whose product exceeds bound, with generators."""
    pool = _prime_pool.setdefault(size, [])
    chosen: list[tuple[int, int]] = []
    product = 1
    while product < bound:
        if len(chosen) == len(pool):
            # Scan q = k*size + 1 downward from just below the last pooled prime.
            k = (pool[-1][0] - 1) // size - 1 if pool else (_MAX_NTT_PRIME - 1) // size
            while k >= 1 and not is_prime(k * size + 1):
                k -= 1
            if k < 1:
                raise GuardExceeded(
                    f"not enough transform-friendly primes below 2**31.5 for "
                    f"length {size} and output bound of {bound.bit_length()} bits"
                )
            q = k * size + 1
            pool.append((q, pow(primitive_root(q), (q - 1) // size, q)))
        q, gen = pool[len(chosen)]
        chosen.append((q, gen))
        product *= q
    return chosen


def _forward(a: np.ndarray, q: int, roots: np.ndarray) -> np.ndarray:
    """In-place decimation in frequency: natural order in, bit-reversed out."""
    size = a.size
    h = size // 2
    while h:
        m = a.reshape(-1, 2 * h)
        lo, hi = m[:, :h], m[:, h:]
        # |lo - hi| * w < q*q, and % by q > 0 lands in [0, q) for either sign.
        t = (lo - hi) * roots[:: size // (2 * h)] % q
        lo += hi
        lo %= q
        hi[...] = t
        h //= 2
    return a


def _backward(a: np.ndarray, q: int, roots: np.ndarray) -> np.ndarray:
    """In-place decimation in time with the forward roots: bit-reversed in, natural out."""
    size = a.size
    h = 1
    while h < size:
        m = a.reshape(-1, 2 * h)
        lo, hi = m[:, :h], m[:, h:]
        t = hi * roots[:: size // (2 * h)] % q
        hi[...] = (lo - t) % q
        lo += t
        lo %= q
        h *= 2
    return a


def _crt_combine(residues: list[np.ndarray], moduli: list[int]) -> list[int]:
    if len(moduli) == 1:
        return residues[0].tolist()
    product = 1
    for q in moduli:
        product *= q
    # x = sum_i r_i * (P/q_i) * ((P/q_i)^-1 mod q_i)  (mod P), summed one
    # prime at a time so only one residue list is ever held as Python ints.
    out = [0] * len(residues[0])
    for q, r in zip(moduli, residues):
        partial = product // q
        ci = partial * pow(partial % q, q - 2, q)
        out = [acc + ci * x for acc, x in zip(out, r.tolist())]
    return [x % product for x in out]
