"""Prime-field arithmetic: canonical residues, quadratic structure, additive characters.

Field elements are plain ints in [0, p).  All exact counting in this package
happens on such ints; complex-valued characters exist only so the
character-sum identities behind the deviation bounds can be sanity-checked
numerically.
"""

from __future__ import annotations

import cmath

import numpy as np

# Canonical residue in [0, p).
FieldElement = int

# Deterministic Miller-Rabin witnesses: the smallest composite passing all
# four is 3215031751 > 2**31, so this set is exact for our modulus range.
_MR_BASES = (2, 3, 5, 7)


def is_prime(n: int) -> bool:
    """Deterministic primality test, exact for n < 3215031751."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primitive_root(q: int) -> int:
    """The least generator of the multiplicative group mod the prime q."""
    phi = q - 1
    factors = []
    m = phi
    d = 2
    while d * d <= m:
        if m % d == 0:
            factors.append(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        factors.append(m)
    for g in range(2, q):
        if all(pow(g, phi // f, q) != 1 for f in factors):
            return g
    raise AssertionError(f"no primitive root mod {q}")


def power_table(w: int, m: int, q: int) -> np.ndarray:
    """Powers w^0 .. w^(m-1) mod q via repeated doubling (few numpy ops).

    Exact in int64 while q*q < 2**63.
    """
    table = np.ones(1, dtype=np.int64)
    step = w
    while table.size < m:
        table = np.concatenate([table, table * step % q])
        step = step * step % q
    return table[:m]


class PrimeModulus:
    """A validated odd prime p in [3, 2**31).

    The upper cap keeps every product of two canonical residues inside a
    64-bit intermediate, so no modular-multiplication tricks are needed
    anywhere downstream.
    """

    __slots__ = ("p", "_i_cached", "_i_known")

    def __init__(self, p: int):
        if not isinstance(p, int) or isinstance(p, bool):
            raise TypeError(f"modulus must be an int, got {type(p).__name__}")
        if p < 3 or p >= 2**31:
            raise ValueError(f"modulus must satisfy 3 <= p < 2**31, got {p}")
        if not is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        self.p = p
        self._i_cached: int | None = None
        self._i_known = False

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeModulus) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeModulus", self.p))

    def __repr__(self) -> str:
        return f"PrimeModulus({self.p})"

    # -- field operations ------------------------------------------------

    def inv(self, a: FieldElement) -> FieldElement:
        if a % self.p == 0:
            raise ZeroDivisionError(f"0 has no inverse mod {self.p}")
        return pow(a, self.p - 2, self.p)

    # -- quadratic structure ----------------------------------------------

    def is_square(self, t: FieldElement) -> bool:
        """True iff t is a square in F_p; 0 counts as a square."""
        t %= self.p
        if t == 0:
            return True
        return pow(t, (self.p - 1) // 2, self.p) == 1

    def smallest_nonresidue(self) -> FieldElement:
        for g in range(2, self.p):
            if not self.is_square(g):
                return g
        raise AssertionError("odd prime field has a nonresidue")

    def sqrt_of_minus_one(self) -> FieldElement | None:
        """Some i with i*i = -1 when p = 1 (mod 4), else None."""
        if not self._i_known:
            if self.p % 4 == 3:
                self._i_cached = None
            else:
                n = self.smallest_nonresidue()
                i = pow(n, (self.p - 1) // 4, self.p)
                assert i * i % self.p == self.p - 1
                self._i_cached = i
            self._i_known = True
        return self._i_cached


def additive_character(modulus: PrimeModulus, x: int) -> complex:
    """The unit e^(2*pi*i*x/p).  Floating point; never used for counting."""
    return cmath.exp(2j * cmath.pi * (x % modulus.p) / modulus.p)
