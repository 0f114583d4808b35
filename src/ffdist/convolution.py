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
"""

from __future__ import annotations

import numpy as np

from .errors import GuardExceeded
from .field import is_prime, power_table, primitive_root

# Largest q with q*q < 2**63, keeping int64 butterflies overflow-free.
_MAX_NTT_PRIME = 3_037_000_499

_prime_pool: dict[int, list[tuple[int, int]]] = {}  # N -> [(q, generator_of_order_N)]
_pool_cursor: dict[int, int] = {}  # N -> next candidate multiplier to test
_twiddle_cache: dict[tuple[int, int, bool], list[np.ndarray]] = {}
_bitrev_cache: dict[int, np.ndarray] = {}


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
        fa = _ntt(np.array([x % q for x in a] + pad, dtype=np.int64), q, gen, inverse=False)
        if a is b:
            fb = fa
        else:
            fb = _ntt(np.array([x % q for x in b] + pad, dtype=np.int64), q, gen, inverse=False)
        lin = _ntt(fa * fb % q, q, gen, inverse=True)
        # Wrap the linear convolution back to cyclic length n.
        wrapped = lin[:n].copy()
        tail = lin[n : 2 * n - 1]
        wrapped[: len(tail)] = (wrapped[: len(tail)] + tail) % q
        residues.append(wrapped)

    return _crt_combine(residues, [q for q, _ in primes])


def _primes_for(size: int, bound: int) -> list[tuple[int, int]]:
    """Primes q = 1 (mod size) whose product exceeds bound, with generators."""
    pool = _prime_pool.setdefault(size, [])
    cursor = _pool_cursor.setdefault(size, (_MAX_NTT_PRIME - 1) // size)
    chosen: list[tuple[int, int]] = []
    product = 1
    idx = 0
    while product < bound:
        while idx >= len(pool):
            if cursor < 1:
                raise GuardExceeded(
                    f"not enough transform-friendly primes below 2**31.5 for "
                    f"length {size} and output bound of {bound.bit_length()} bits"
                )
            q = cursor * size + 1
            cursor -= 1
            if is_prime(q):
                pool.append((q, _order_n_generator(q, size)))
        _pool_cursor[size] = cursor
        q, gen = pool[idx]
        chosen.append((q, gen))
        product *= q
        idx += 1
    return chosen


def _order_n_generator(q: int, n: int) -> int:
    """An element of exact multiplicative order n mod q (n | q-1)."""
    g = primitive_root(q)
    return pow(g, (q - 1) // n, q)


def _bit_reverse_indices(n: int) -> np.ndarray:
    cached = _bitrev_cache.get(n)
    if cached is None:
        bits = n.bit_length() - 1
        idx = np.arange(n, dtype=np.int64)
        rev = np.zeros(n, dtype=np.int64)
        for _ in range(bits):
            rev = (rev << 1) | (idx & 1)
            idx >>= 1
        cached = _bitrev_cache[n] = rev
    return cached


def _stage_twiddles(q: int, n: int, gen: int, inverse: bool) -> list[np.ndarray]:
    key = (q, n, inverse)
    cached = _twiddle_cache.get(key)
    if cached is None:
        root = pow(gen, q - 2, q) if inverse else gen
        stages = []
        length = 2
        while length <= n:
            w = pow(root, n // length, q)
            stages.append(power_table(w, length // 2, q))
            length *= 2
        cached = _twiddle_cache[key] = stages
    return cached


def _ntt(values: np.ndarray, q: int, gen: int, inverse: bool) -> np.ndarray:
    """Iterative radix-2 transform; gen has order len(values) mod q."""
    n = values.size
    a = values[_bit_reverse_indices(n)].copy()
    stages = _stage_twiddles(q, n, gen, inverse)
    length = 2
    for ws in stages:
        m = a.reshape(-1, length)
        lo = m[:, : length // 2]
        hi = m[:, length // 2 :]
        t = hi * ws % q
        hi[...] = (lo - t) % q
        lo[...] = (lo + t) % q
        length *= 2
    if inverse:
        n_inv = pow(n, q - 2, q)
        a = a * n_inv % q
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
