"""Exact cyclic convolution of non-negative integer sequences.

exact_cyclic picks its tier from the length n and the bound sum(a)*sum(b),
which no output coefficient or partial sum exceeds, the inputs being
non-negative.  The O(n^2) schoolbook sum is only the tests' oracle.

* int64 tier, when the bound is below 2**63 and n <= _DIRECT_MAX_LEN:
  np.convolve plus the cyclic wrap, exact since nothing can overflow.  Its
  cost is O(n^2); the cutoff is measured against the transforms (README).
* transform tier, otherwise: number-theoretic transforms modulo primes
  q = 1 (mod N) below 2**31.5, N the power-of-two length, recombined by CRT
  once their product exceeds the bound (GuardExceeded past N = 2**25).
  Entries below 2**64 reach each prime as one uint64 array % q; larger ones
  are written once as uint32 limbs, reduced per prime by Horner's rule.
  One uint64 root table per (q, N); no butterfly takes a %.  The forward
  pass is decimation in frequency, the backward one decimation in time on
  the same roots (Gentleman & Sande, 1966), so no bit-reversal is applied
  and backward entry t is N times the inverse at -t mod N.
"""

from __future__ import annotations

import numpy as np

from .errors import GuardExceeded
from .field import is_prime, power_table, primitive_root

# Largest q with q*q < 2**63, keeping the uint64 butterflies overflow-free.
_MAX_NTT_PRIME = 3_037_000_499
_DIRECT_MAX_LEN = 4096  # longest n for the int64 tier

_prime_pool: dict[int, list[tuple[int, int]]] = {}  # N -> [(q, generator_of_order_N)]
_root_cache: dict[tuple[int, int], np.ndarray] = {}  # (q, N) -> gen^0 .. gen^(N/2-1)


def exact_cyclic(a: list[int], b: list[int]) -> list[int]:
    """Cyclic convolution out[t] = sum_u a[u]*b[(t-u) mod n], exact."""
    n = len(a)
    if len(b) != n:
        raise ValueError(f"length mismatch: {n} vs {len(b)}")
    bound = sum(a) * sum(b)
    if bound == 0:
        return [0] * n
    if bound < 1 << 63 and n <= _DIRECT_MAX_LEN:
        return _direct_cyclic(a, b)
    return _ntt_cyclic(a, b, bound)


def _direct_cyclic(a: list[int], b: list[int]) -> list[int]:
    """The int64 tier; exact while sum(a)*sum(b) < 2**63."""
    n = len(a)
    x = np.array(a, dtype=np.int64)
    lin = np.convolve(x, x if a is b else np.array(b, dtype=np.int64))
    lin[: n - 1] += lin[n:]
    return lin[:n].tolist()


def _ntt_cyclic(a: list[int], b: list[int], bound: int) -> list[int]:
    """The transform tier; exact for any bound >= every output coefficient."""
    n = len(a)
    size = 1 << (2 * n - 1).bit_length()
    primes = _primes_for(size, bound + 1)
    src_a = _digits(a)
    src_b = src_a if a is b else _digits(b)
    residues = []
    for q, gen in primes:
        roots = _root_cache.get((q, size))
        if roots is None:
            roots = _root_cache[q, size] = power_table(gen, size // 2, q).astype(np.uint64)
        fa = _forward(_residue_row(src_a, q, size), q, roots)
        fb = fa if a is b else _forward(_residue_row(src_b, q, size), q, roots)
        fa *= fb
        y = _backward(np.remainder(fa, q, out=fa), q, roots)
        # y[t] is size times the linear convolution at -t mod size: read the
        # first 2n entries at -t (entry 2n-1 is 0), wrap to length n, scale.
        lin = np.concatenate((y[:1], y[: -2 * n : -1]))
        residues.append((lin[:n] + lin[n:]) % q * pow(size, q - 2, q) % q)
    return _crt_combine(residues, [q for q, _ in primes])


def _digits(a: list[int]) -> np.ndarray:
    """a as one uint64 array if it fits, else as n x k little-endian uint32 limbs."""
    top = max(a)
    if top < 1 << 64:
        return np.array(a, dtype=np.uint64)
    width = (top.bit_length() + 31) // 32
    raw = b"".join(x.to_bytes(4 * width, "little") for x in a)
    return np.frombuffer(raw, dtype="<u4").reshape(len(a), width)


def _residue_row(src: np.ndarray, q: int, size: int) -> np.ndarray:
    """The entries of src (from _digits) mod q, zero-padded to length size."""
    row = np.zeros(size, dtype=np.uint64)
    r = row[: len(src)]
    if src.ndim == 1:
        np.remainder(src, q, out=r)
        return row
    # Horner from the top limb, exact in uint64: r*radix + limb is at most
    # (q-1)**2 + 2**32 - 1 < 2**63 for every q <= _MAX_NTT_PRIME.
    radix, q, tmp = (1 << 32) % q, np.uint64(q), np.empty_like(r)
    for limb in src.T[::-1]:
        np.add(np.multiply(r, radix, out=r), limb, out=r)
        r -= np.multiply(np.floor_divide(r, q, out=tmp), q, out=tmp)
    return row


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


# Every operand is below q <= _MAX_NTT_PRIME, so q*q < 2**63: a sum x + y or
# difference x - y + q lies in [0, 2q) and its product with a root below
# 2*q*q < 2**64.  uint64 holds them all, and x - (x // q)*q is x mod q (numpy
# divides by a scalar q without a hardware division).  In uint64, x - q wraps
# past 2**63 exactly when x < q, so min(x, x - q) is x mod q for x < 2q.
def _forward(a: np.ndarray, q: int, roots: np.ndarray) -> np.ndarray:
    """In-place decimation in frequency: natural order in, bit-reversed out (blocked)."""
    q, s = np.uint64(q), np.empty_like(a)
    for lo, hi, d, e, w in _stages(a, s, roots, range(a.size.bit_length() - 2, -1, -1)):
        np.subtract(np.add(lo, q, out=d), hi, out=d)
        lo += hi
        np.minimum(lo, np.subtract(lo, q, out=e), out=lo)
        np.multiply(d, w, out=hi)
        hi -= np.multiply(np.floor_divide(hi, q, out=d), q, out=d)
    return a


def _backward(a: np.ndarray, q: int, roots: np.ndarray) -> np.ndarray:
    """In-place decimation in time on the forward roots: bit-reversed (blocked) in, natural out."""
    q, s = np.uint64(q), np.empty_like(a)
    for lo, hi, t, e, w in _stages(a, s, roots, range(a.size.bit_length() - 1)):
        np.multiply(hi, w, out=t)
        t -= np.multiply(np.floor_divide(t, q, out=e), q, out=e)
        np.subtract(np.add(lo, q, out=hi), t, out=hi)
        lo += t
        np.minimum(a, np.subtract(a, q, out=s), out=a)
    return a


def _stages(a: np.ndarray, s: np.ndarray, roots: np.ndarray, levels: range):
    """Per stage of half-span h = 2**level: the lo and hi halves of each 2h-block,
    the halves of scratch s, and the roots.  Spans h < t = 2**floor(log2(N)/2)
    run "blocked", a's 2t-blocks as columns, so no inner loop is short."""
    n, t = a.size, 1 << (a.size.bit_length() - 1) // 2
    blocked = 1 << levels[0] < t
    for h in (1 << level for level in levels):
        if blocked != (h < t):
            blocked = h < t
            a[:] = a.reshape((-1, 2 * t) if blocked else (2 * t, -1)).T.ravel()
        k = n // (2 * t) if blocked else 1
        v, w = a.reshape(-1, 2, h, k), s.reshape(2, -1, h, k)
        yield v[:, 0], v[:, 1], w[0], w[1], roots[:: n // (2 * h), None]


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
