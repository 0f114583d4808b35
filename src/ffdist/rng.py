"""Deterministic seeded randomness.

The stdlib only guarantees cross-version stability for random.random(),
not for its sampling helpers, so reproducible acceptance runs get their
own generator: splitmix64 (Vigna), whose whole definition is the few
integer operations below.  Identical seeds replay bit-for-bit on every
platform and Python version.
"""

from __future__ import annotations

import hashlib

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_M1, _M2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_U_M1, _U_M2, _U_GAMMA = np.uint64(_M1), np.uint64(_M2), np.uint64(_GAMMA)
_U30, _U27, _U31 = np.uint64(30), np.uint64(27), np.uint64(31)


def _mix(z: int) -> int:
    """SplitMix64's output function on an int below 2**64."""
    z = ((z ^ (z >> 30)) * _M1) & _MASK64
    z = ((z ^ (z >> 27)) * _M2) & _MASK64
    return z ^ (z >> 31)


def _mix_each(x: np.ndarray) -> np.ndarray:
    """_mix on every entry of a uint64 array, in place: its products wrap mod 2**64."""
    x ^= x >> _U30
    x *= _U_M1
    x ^= x >> _U27
    x *= _U_M2
    x ^= x >> _U31
    return x


class SplitMix64:
    """64-bit splitmix generator; state advances by the golden-ratio gamma."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix(self._state)

    def randbelow(self, n: int) -> int:
        """Uniform draw from [0, n) by rejection; no modulo bias."""
        if not 1 <= n <= 1 << 64:
            raise ValueError(f"randbelow needs 1 <= n <= 2**64, got {n}")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def randbelow_each(self, bounds) -> list[int]:
        """[randbelow(b) for b in bounds], bounds a list or range: the same draws
        and the same final state.  The k-th next output mixes state + k*gamma, so
        the batch is mixed at once in numpy; if any draw of it would be rejected,
        the state is left as it was and the scalar loop runs instead, as it does
        for a bound outside [1, 2**64)."""
        try:
            b = np.fromiter(bounds, np.uint64, len(bounds))
        except OverflowError:  # a bound below 0 or from 2**64 on
            b = np.zeros(0, dtype=np.uint64)
        if b.size and b.min() >= 1:
            x = np.arange(1, len(bounds) + 1, dtype=np.uint64)
            x *= _U_GAMMA
            x += np.uint64(self._state)
            _mix_each(x)
            # randbelow keeps x < 2**64 - (2**64 mod b), as every x < 2**64 - b is;
            # in uint64, 2**64 mod b is (0 - b) % b and the limit less one is ~that
            if int(x.max()) < (1 << 64) - int(b.max()) or (x <= ~((0 - b) % b)).all():
                self._state = (self._state + len(bounds) * _GAMMA) & _MASK64
                return (x % b).tolist()
        return [self.randbelow(b) for b in bounds]


def derive_seed(*parts) -> int:
    """Stable 64-bit child seed from a tag and parameters (sha256 based).

    Used to give every sampling site and every scan cell its own stream,
    so a draw depends only on its own parameters, never on the order in
    which other sites or cells ran.
    """
    text = ":".join(str(part) for part in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def sample_distinct(rng: SplitMix64, universe: int, n: int) -> list[int]:
    """Uniform n-subset of range(universe) via Floyd's algorithm, sorted."""
    if not 0 <= n <= universe:
        raise ValueError(f"cannot sample {n} distinct values from {universe}")
    lo = universe - n
    draws = rng.randbelow_each(range(lo + 1, universe + 1))
    chosen: set[int] = set()
    for j, t in zip(range(lo, universe), draws):
        chosen.add(t if t not in chosen else j)
    return sorted(chosen)
