"""Exact cyclic convolution of non-negative integer sequences.

exact_cyclic picks its tier from the length n and the bound sum(a)*sum(b),
which no output coefficient or partial sum exceeds, the inputs being
non-negative.  The O(n^2) schoolbook sum is only the tests' oracle.

* direct tier, when the bound is below 2**63 and n <= _DIRECT_MAX_LEN:
  np.convolve plus the cyclic wrap, in float64 when the bound is below 2**53,
  else in int64.  Every product and partial sum is an integer no larger than
  the bound, so either is exact, in any order of summation.  Its cost is
  O(n^2); the cutoff is measured against the transforms (README).
* transform tier, otherwise: number-theoretic transforms (_transform) modulo primes
  q = 1 (mod N) below 2**31.5, each prime's row computed alone, on a thread pool from
  length _POOL_MIN_SIZE on.  The output lies in [low, low + width]: [0, bound], or a
  narrower interval that the caller knows (as spectra.cyclic_convolve does).  _plan
  alone picks N <= _MAX_SIZE, the first primes of N's pool whose product exceeds width,
  and the threads.  Out come _Rows: one uint32 row of residues per prime, its sum
  checked against the bound mod q, with the primes, low and width.  Ints and residues
  meet as 16-bit limbs, one row per value: _to_limbs (the explicit CRT of x - low) and
  _residues (limbs -> rows) change base through them by exact float64 matrix products,
  _block(k) values at a time, and _small reads one or two primes in int64.  A value so
  formed outside [low, low + width] raises InvariantViolation.  No step takes a %.
"""

from __future__ import annotations

import os
from typing import NamedTuple

import numpy as np

from .errors import GuardExceeded, InvariantViolation
from .field import PrimeModulus, is_prime, power_table, primitive_root

# Largest q with q*q < 2**63, keeping the uint64 butterflies overflow-free.
_MAX_NTT_PRIME = 3_037_000_499
_MAX_SIZE = 1 << 27  # longest N with a prime q = 1 (mod N) up to _MAX_NTT_PRIME
_DIRECT_MAX_LEN = 4096  # longest n for the direct tier
_MAX_PRIMES = 2**53 // (2**33 + 2**16)  # 2**20 - 8, the most primes the base change is exact for
_BLOCK = 95 * 256  # float64 entries per base-change matrix (0.2 MB): 256 values at 47 primes (_block)
_POOL_MIN_SIZE = 1 << 16  # shortest transform whose primes run in a thread pool (measured, README)

_prime_pool: dict[int, list[tuple[int, int]]] = {}  # N -> [(q, generator_of_order_N)]


class _Rows(NamedTuple):
    array: np.ndarray  # (k, n), uint32 as a product leaves it: row i holds n values mod moduli[i]
    moduli: tuple[int, ...]  # k primes, whose product exceeds width
    low: int = 0  # the values lie in [low, low + width] (width None: below the primes' product)
    width: int | None = None


def _within_engine(modulus: PrimeModulus) -> int:
    """p, called before anything of length p is built: GuardExceeded (a hard limit)
    if length-p products outgrow the convolution engine's longest transform."""
    if 2 * modulus.p - 1 >= _MAX_SIZE:
        raise GuardExceeded(f"p = {modulus.p}: length-p products outgrow the longest transform (hard limit)")
    return modulus.p


def exact_cyclic(a: list[int], b: list[int]) -> list[int]:
    """Cyclic convolution out[t] = sum_u a[u]*b[(t-u) mod n], exact."""
    if len(b) != len(a):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    out = _cyclic(a, b, sum(a) * sum(b))
    return out if isinstance(out, list) else _ints(out)


def _cyclic(a, b, total: int, interval=None):
    """exact_cyclic on lists, 1-D int64 arrays or rows, given total = sum(a)*sum(b): the direct tier's output
    (a's type), else rows (always, for rows in), whose (low, width) interval() gives, called on that tier only."""
    if total == 0:
        return [0] * len(a)
    if total < 1 << 63 and not isinstance(a, _Rows) and len(a) <= _DIRECT_MAX_LEN:
        return _direct_cyclic(a, b, total)
    return _ntt_cyclic(a, b, total, *(interval() if interval else (0, total)))


def _direct_cyclic(a, b, total: int):
    """The direct tier on lists (a list out) or int64 arrays (an int64 array out);
    exact while total = sum(a)*sum(b) is below 2**63."""
    n, dtype = len(a), np.float64 if total < 1 << 53 else np.int64
    x = np.asarray(a, dtype=dtype)
    lin = np.convolve(x, x if a is b else np.asarray(b, dtype=dtype))
    lin[: n - 1] += lin[n:]
    out = lin[:n].astype(np.int64)
    return out.tolist() if isinstance(a, list) else out


def _plan(n: int, width: int) -> tuple[int, list[tuple[int, int]], int]:
    """A length-n product's transform length N, its primes (the first of N's pool whose
    product exceeds width, at least one, with generators of order N) and its threads."""
    size = 1 << (2 * n - 1).bit_length()
    primes = _primes_for(size, max(width + 1, 2))
    return size, primes, min(len(primes), _cpus()) if size >= _POOL_MIN_SIZE else 1


def _ntt_cyclic(a, b, total: int, low: int, width: int) -> _Rows:
    """The transform tier on lists, 1-D int64 arrays or rows: the product's rows, its values in [low, low + width]."""
    size, primes, workers = _plan(a.array.shape[1] if isinstance(a, _Rows) else len(a), width)
    qs, gens = zip(*primes)
    rows_a = _residues(a, qs).array
    rows_b = [None] * len(qs) if b is a else _residues(b, qs).array  # None: a squaring
    # Rows _residues built (not a view of a's) take the product: _transform copies a
    # prime's row before its product row is written, so a squaring holds one array.
    out = rows_a if rows_a.base is None else np.empty_like(rows_a)
    args = (qs, gens, [size] * len(qs), rows_a, rows_b, out)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(_product_row, *args))  # re-raises the first error a worker met
    else:
        list(map(_product_row, *args))
    if [int(s) % q for q, s in zip(qs, out.sum(axis=1))] != [total % q for q in qs]:
        raise InvariantViolation(f"a product's rows do not sum to {total} mod every transform prime")
    return _Rows(out, qs, low, width)


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _product_row(q: int, gen: int, size: int, xa: np.ndarray, xb: np.ndarray | None, row: np.ndarray) -> None:
    """One prime's row of the product, written into row: xa times xb (xa squared
    if xb is None) mod q, cyclic of length row.size, on transforms of length size
    whose roots gen**0 .. gen**(size/2 - 1) mod q live only for this row."""
    n, roots = row.size, power_table(gen, size // 2, q).astype(np.uint64)
    fa = _transform(xa, q, roots)
    fb = fa if xb is None else _transform(xb, q, roots)
    y = _transform(_mod(np.multiply(fa, fb, out=fa), q), q, roots)
    # y[t] is size times the linear convolution at -t mod size: read the first 2n
    # entries at -t (entry 2n-1 is 0), wrap to length n (< 2q), scale (< 2q*q), both
    # in uint64 (2q passes 2**32 for q > 2**31), and store the reduced row.
    lin = np.concatenate((y[:1], y[: -2 * n : -1]))
    wrap = np.add(lin[:n], lin[n:], out=lin[:n])
    row[:] = _mod(np.multiply(wrap, pow(size, -1, q), out=wrap), q)


def _mod(x: np.ndarray, q: int) -> np.ndarray:
    """x mod q in place, q a scalar or a column, as x - (x // q)*q (see the note above _transform)."""
    t = np.floor_divide(x, np.uint64(q))
    x -= np.multiply(t, np.uint64(q), out=t)
    return x


def _digits(a) -> np.ndarray:
    """a, non-negative ints, as little-endian 16-bit limbs, one row each: a 1-D int64
    array, or a list whose entries fit in uint64, seen as four limbs per entry."""
    if isinstance(a, np.ndarray):
        return np.ascontiguousarray(a, dtype="<i8").view("<u2").reshape(len(a), 4)
    top = max(a)
    if top < 1 << 64:
        return np.array(a, dtype="<u8").view("<u2").reshape(len(a), 4)
    width = (top.bit_length() + 15) // 16
    raw = b"".join(x.to_bytes(2 * width, "little") for x in a)
    return np.frombuffer(raw, dtype="<u2").reshape(len(a), width)


def _residues(src, moduli) -> _Rows:
    """Rows of src mod the primes moduli; src is a list or 1-D int64 array of non-negative ints, or _Rows,
    whose rows for the primes both runs start with are kept (a view if those are all of moduli), the other
    primes taking x - low, then low.  Limbs -> residues: the L limbs of each value against the 16-bit halves
    of 2**(16i) mod q in float64, exact since L*2**32 < 2**53 for the L <= 2k + 4 limbs of a value below
    k <= _MAX_PRIMES primes' product, then a reduction."""
    moduli, k, j, block, lows = tuple(moduli), len(moduli), 0, _block(len(moduli)), 0
    if isinstance(src, _Rows):
        j = min(k, len(src.moduli))
        while src.moduli[:j] != moduli[:j]:
            j -= 1
        if j == k:
            return src._replace(array=src.array[:k], moduli=moduli)
        blocks, out = _to_limbs(*src, block), np.empty((k, src.array.shape[1]), dtype=np.uint32)
        out[:j], lows = src.array[:j], np.array([src.low % q for q in moduli[j:]], dtype=np.uint64)[:, None]
    else:
        digits, out = _digits(src), np.empty((k, len(src)), dtype=np.uint32)
        blocks = (digits[s : s + block] for s in range(0, len(src), block))
    qs = np.array(moduli[j:], dtype=np.int64)[:, None]
    for s, limbs in zip(range(0, out.shape[1], block), blocks):
        if s == 0:  # every block has the first one's width
            powers = power_table(1 << 16, limbs.shape[1], qs)
            halves = np.vstack((powers & 0xFFFF, powers >> 16)).astype(np.float64)
        lo, hi = np.split((halves @ limbs.T.astype(np.float64)).astype(np.uint64), 2)
        out[j:, s : s + block] = _mod((_mod(hi, qs) << 16) + lo + lows, qs)  # below 2**48 + 2**54
    return src._replace(array=out, moduli=moduli) if isinstance(src, _Rows) else _Rows(out, moduli)


def _ints(rows: _Rows) -> list[int]:
    """The Python ints behind rows: in int64 for one or two primes, else from their limbs _block(k) at a time."""
    if len(rows.moduli) < 3:
        out = _small(rows).tolist()
        return [x + rows.low for x in out] if rows.low else out
    out = []
    for limbs in _to_limbs(*rows, _block(len(rows.moduli))):
        raw, step = limbs.astype("<u2").tobytes(), 2 * limbs.shape[1]
        out += [int.from_bytes(raw[i : i + step], "little") + rows.low for i in range(0, len(raw), step)]
    return out


def _small(rows: _Rows) -> np.ndarray:
    """The values x - low behind rows of one or two primes, in int64 (below q0*q1 < 2**63): for two, Garner's
    x0 + q0*((x1 - x0)*q0**-1 mod q1) in uint64, x_i = x - low mod q_i (below 3*q1, q1*q1, then q0*q1)."""
    (q0, *rest), low = rows.moduli, rows.low
    x = _mod(rows.array[0] + np.uint64(q0 - low % q0), q0)
    for q1 in rest:
        t = _mod(rows.array[1] + np.uint64(2 * q1 - low % q1) - _mod(x.copy(), q1), q1)
        x += _mod(t * np.uint64(pow(q0, -1, q1)), q1) * np.uint64(q0)
    if rows.width is not None and int(x.max()) > rows.width:
        raise InvariantViolation(f"a value read off the rows lies outside [{low}, {low} + {rows.width}]")
    return x.view(np.int64)


def _block(k: int) -> int:
    """Values per base change for k primes, so that its (2k + 1)-row float64 matrices
    (about 2k + 1 limbs, halves or residues per value) hold about _BLOCK entries."""
    return max(1, _BLOCK // (2 * k + 1))


def _to_limbs(rows: np.ndarray, moduli: list[int], low: int, width: int | None, block: int):
    """Residues -> limbs: the values x - low < Q = prod(moduli) behind rows as 16-bit limbs in int64, one
    row each, block values at a time, each checked to be at most width.  Bernstein's explicit CRT (1995),
    x = sum_i c_i*(Q/q_i) - u*Q with c_i = x*(Q/q_i)**-1 mod q_i and u = floor(sum_i c_i/q_i), as one
    float64 product of c_i's 16-bit halves and -u against Q/q_i's and Q's limbs, then a signed carry.  Its
    sums lie in (-k*2**16, 2k*2**32) for k primes: exact while 2k*2**32 + k*2**16 < 2**53, for k <= _MAX_PRIMES."""
    k, product = len(moduli), np.prod(moduli, dtype=object)
    cofactors = [product // q for q in moduli]
    m = _digits([*cofactors, product, product if width is None else width + 1])
    table = np.zeros((m.shape[1] + 1, 2 * k + 1))  # columns: Q/q_i, Q/q_i a limb up, Q
    table[:-1, :k], table[1:, k:-1], table[:-1, -1] = m[:k].T, m[:k].T, m[k]
    qs = np.array(moduli, dtype=np.uint64)[:, None]
    inverses = np.array([pow(c % q, -1, q) for c, q in zip(cofactors, moduli)], dtype=np.uint64)[:, None]
    lows = np.array([q - low % q for q in moduli], dtype=np.uint64)[:, None]
    for s in range(0, rows.shape[1], block):
        c = _mod((rows[:, s : s + block] + lows) * inverses, qs)  # (x - low)*(Q/q_i)**-1, below 2q*q < 2**64
        # The float sum of k terms below 1 is off by less than k*k*2**-53 < 2**-13, so
        # past the margin 2**-12 it gives u or u + 1, never u - 1.
        u = np.floor((c / qs).sum(axis=0) + 2.0**-12)
        limbs = (table @ np.vstack((c & 0xFFFF, c >> 16, -u))).astype(np.int64)
        top = _carry(limbs)
        if top.min() < 0:  # the carry out of the top is -1 where u + 1 gave x - Q: add Q back
            limbs[:-1, top < 0] += m[k, :, None]
            _carry(limbs)
        if width is not None and (_carry(limbs[:-1] - m[k + 1, :, None]) >= 0).any():  # -1 iff x - low <= width
            raise InvariantViolation(f"a value read off the rows lies outside [{low}, {low} + {width}]")
        yield limbs.T


def _carry(limbs: np.ndarray) -> np.ndarray:
    """Carry int64 limb rows (least significant first) in place down to 16 bits; the carry
    out of the top.  The shift is a floor, so negative limbs borrow.  A carry still rippling
    after a few whole-block passes (through 0xFFFF limbs, as adding Q back does) goes a row at a time."""
    out = np.zeros(limbs.shape[1], dtype=np.int64)
    for _ in range(4):
        carry = limbs >> 16
        limbs &= 0xFFFF
        out += carry[-1]
        if not carry[:-1].any():
            return out
        limbs[1:] += carry[:-1]
    carry = np.zeros_like(out)
    for limb in limbs[np.argmax((limbs >> 16).any(axis=1)) :]:  # from row 0 if all are settled
        limb += carry
        np.right_shift(limb, 16, out=carry)
        limb &= 0xFFFF
    return out + carry


def _primes_for(size: int, bound: int) -> list[tuple[int, int]]:
    """Primes q = 1 (mod size) whose product exceeds bound, with generators;
    at most _MAX_PRIMES, the most the base change is exact for."""
    pool, product, k = _prime_pool.setdefault(size, []), 1, 0
    while product < bound:
        if k == len(pool):
            # Scan q = m*size + 1 downward from just below the last pooled prime.
            m = (pool[-1][0] - 1) // size - 1 if pool else (_MAX_NTT_PRIME - 1) // size
            while m >= 1 and not is_prime(m * size + 1):
                m -= 1
            if m < 1 or k == _MAX_PRIMES or bound.bit_length() > 32 * _MAX_PRIMES:
                msg = f"length {size} and output bound of {bound.bit_length()} bits"
                raise GuardExceeded(f"not enough transform-friendly primes below 2**31.5, or over {_MAX_PRIMES}, for {msg}")
            q = m * size + 1
            pool.append((q, pow(primitive_root(q), (q - 1) // size, q)))
        product, k = product * pool[k][0], k + 1
    return pool[:k]


# Every operand is below q <= _MAX_NTT_PRIME, so q*q < 2**63: a sum x + y or difference
# x - y + q lies in [0, 2q) and its product with a root below 2*q*q < 2**64.  uint64 holds
# them all, and x - (x // q)*q is x mod q (numpy divides by a scalar q without a hardware
# division).  In uint64, x - q wraps past 2**63 just when x < q: min(x, x - q) is x mod q.
def _transform(x: np.ndarray, q: int, roots: np.ndarray) -> np.ndarray:
    """out[k] = sum_i x[i]*g**(ik) mod q for x zero-padded to N = 2*len(roots) entries,
    roots = g**0 .. g**(N/2 - 1), in natural order; a uint64 x of length N is overwritten,
    any other copied.  Run again on its output it gives N*x[-t mod N] at t.  Radix-2
    Stockham autosort (Cochran et al., 1967): a stage's butterflies run on the contiguous
    halves of one buffer, with the other's as scratch, then go to the other interleaved."""
    n = 2 * roots.size
    if x.size < n or x.dtype != np.uint64:
        x = np.concatenate((x, np.zeros(n - x.size, dtype=x.dtype)), dtype=np.uint64)
    a, b, q, h, s = x, np.empty_like(x), np.uint64(q), n // 2, 1
    while True:
        lo, hi, e, d = a[:h], a[h:], b[:h], b[h:]
        np.subtract(np.add(lo, q, out=d), hi, out=d)
        lo += hi
        np.minimum(lo, np.subtract(lo, q, out=e), out=lo)
        if s == h:  # the last stage's root is 1 and its halves are in place
            np.minimum(d, np.subtract(d, q, out=e), out=hi)
            return a
        if s == 2:  # a broadcast over runs of 2 is numpy's slowest loop: take columns
            for j in (0, 1):
                np.multiply(d[j::2], roots[::2], out=hi[j::2])
        else:
            np.multiply(d.reshape(-1, s), roots[::s, None], out=hi.reshape(-1, s))
        hi -= np.multiply(np.floor_divide(hi, q, out=d), q, out=d)
        out = b.view((np.void, 8 * s)).reshape(-1, 2)  # runs of s entries, one item each
        out[:, 0], out[:, 1] = lo.view(out.dtype), hi.view(out.dtype)
        a, b, s = b, a, 2 * s
