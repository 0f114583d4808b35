"""Exact representation-function spectra over F_p.

A Spectrum maps each t in F_p to an exact non-negative integer count.
The squared-difference and product base spectra, their d-fold additive
convolutions, and the distance / dot-product spectra of Cartesian powers
all live here, together with supports and sumsets.  base_spectrum is the
one place that maps a form ("distance" or "dot") to its base spectrum.
"""

from __future__ import annotations

import numpy as np

from .convolution import exact_cyclic
from .errors import GuardExceeded, InvariantViolation, ParseError
from .field import PrimeModulus, power_table, primitive_root
from .sets import FieldSubset, PointSet

GENERAL_SPECTRUM_GUARD = 100_000


class Spectrum:
    """Exact count function F_p -> N with a cached total."""

    __slots__ = ("modulus", "counts", "total")

    def __init__(self, modulus: PrimeModulus, counts: list[int], expected_total: int | None = None):
        if len(counts) != modulus.p:
            raise ValueError(f"need {modulus.p} counts, got {len(counts)}")
        for c in counts:
            if c < 0:
                raise ValueError("negative count")
        self.modulus = modulus
        self.counts = counts
        self.total = sum(counts)
        if expected_total is not None and self.total != expected_total:
            raise InvariantViolation(
                f"spectrum total {self.total} != forced combinatorial total {expected_total}"
            )

    @classmethod
    def point_mass(cls, modulus: PrimeModulus, at: int, count: int = 1) -> "Spectrum":
        counts = [0] * modulus.p
        counts[at % modulus.p] = count
        return cls(modulus, counts)

    def __getitem__(self, t: int) -> int:
        return self.counts[t % self.modulus.p]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Spectrum)
            and other.modulus == self.modulus
            and other.counts == self.counts
        )

    def __repr__(self) -> str:
        nz = sum(1 for c in self.counts if c)
        return f"Spectrum(p={self.modulus.p}, support={nz}, total={self.total})"

    def max_count(self) -> int:
        return max(self.counts)

    def items(self):
        """(t, count) pairs over the support."""
        for t, c in enumerate(self.counts):
            if c:
                yield t, c


def diff_square_spectrum(A: FieldSubset) -> Spectrum:
    """counts[t] = #{(a,b) in A^2 : (a-b)^2 = t}; total |A|^2."""
    p = A.modulus.p
    m = len(A)
    if m == 0:
        raise ValueError("empty set has no pair spectrum")
    # #{(a,b): a-b = delta} is the cyclic autocorrelation of the
    # indicator; push each difference count onto its square.
    counts = [0] * p
    diff_counts = exact_cyclic(A.indicator(), A.dilate(-1).indicator())
    for delta, c in enumerate(diff_counts):
        if c:
            counts[delta * delta % p] += c
    return Spectrum(A.modulus, counts, expected_total=m * m)


def product_spectrum(A: FieldSubset) -> Spectrum:
    """counts[t] = #{(a,b) in A^2 : a*b = t}; total |A|^2."""
    p = A.modulus.p
    m = len(A)
    if m == 0:
        raise ValueError("empty set has no pair spectrum")
    # Discrete logs turn products into sums: convolve the indicator of
    # A\{0} over Z_{p-1}, then map exponents back.
    powers = power_table(primitive_root(p), p - 1, p)
    log = np.zeros(p, dtype=np.int64)
    log[powers] = np.arange(p - 1)
    ind = [0] * (p - 1)
    nonzero = 0
    for a in A:
        if a:
            ind[log[a]] = 1
            nonzero += 1
    conv = exact_cyclic(ind, ind)
    # every count is at most m^2 < 2^62, so int64 holds it exactly
    counts = np.zeros(p, dtype=np.int64)
    counts[powers] = conv
    counts = counts.tolist()
    if 0 in A:
        counts[0] += 2 * nonzero + 1
    return Spectrum(A.modulus, counts, expected_total=m * m)


def cyclic_convolve(S: Spectrum, T: Spectrum) -> Spectrum:
    """out[t] = sum_u S[u] * T[t-u] with indices mod p, exact."""
    if S.modulus != T.modulus:
        raise ValueError("mixed moduli")
    counts = exact_cyclic(S.counts, T.counts)
    return Spectrum(S.modulus, counts, expected_total=S.total * T.total)


def fold(S: Spectrum, d: int) -> Spectrum:
    """d-fold cyclic self-convolution by binary exponentiation; exact."""
    if d < 1:
        raise ValueError(f"fold depth must be >= 1, got {d}")
    result: Spectrum | None = None
    base = S
    e = d
    while e:
        if e & 1:
            result = base if result is None else cyclic_convolve(result, base)
        e >>= 1
        if e:
            base = cyclic_convolve(base, base)
    assert result is not None
    return result


def base_spectrum(A: FieldSubset, kind: str) -> Spectrum:
    """The pair spectrum of the form on F_p: squared differences for
    "distance", products for "dot"."""
    if kind == "distance":
        return diff_square_spectrum(A)
    if kind == "dot":
        return product_spectrum(A)
    raise ValueError(f"unknown form {kind!r}; expected 'distance' or 'dot'")


def power_spectrum(A: FieldSubset, kind: str, n: int) -> Spectrum:
    """Pair counts of each form value over A^n x A^n, via the fold shortcut."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return fold(base_spectrum(A, kind), n)


def self_dot_spectrum(A: FieldSubset, n: int) -> Spectrum:
    """counts[v] = #{x in A^n : x.x = v}; the diagonal of the dot spectrum.

    Diagonal pairs of the distance spectrum always sit at 0, but a point's
    dot product with itself does not, so the off-diagonal variant needs
    these counts per value.
    """
    p = A.modulus.p
    counts = [0] * p
    for a in A:
        counts[a * a % p] += 1
    return fold(Spectrum(A.modulus, counts, expected_total=len(A)), n)


def distance_spectrum_general(E: PointSet, force: bool = False) -> Spectrum:
    """Pair counts of each distance over E x E by full enumeration.

    Quadratic in |E|; guarded, with force=True overriding the guard.
    """
    m = len(E)
    if m > GENERAL_SPECTRUM_GUARD and not force:
        raise GuardExceeded(f"|E| = {m} exceeds enumeration guard {GENERAL_SPECTRUM_GUARD}")
    p = E.modulus.p
    pts = np.array(E.points, dtype=np.int64)
    acc = np.zeros(p, dtype=np.int64)
    for i in range(m):
        d = (pts - pts[i]) % p
        vals = (d * d % p).sum(axis=1) % p
        acc += np.bincount(vals, minlength=p)
    return Spectrum(E.modulus, [int(c) for c in acc], expected_total=m * m)


def support(S: Spectrum) -> FieldSubset:
    """The set {t : S[t] > 0}."""
    return FieldSubset(S.modulus, (t for t, c in enumerate(S.counts) if c))


def sumset(X: FieldSubset, Y: FieldSubset) -> FieldSubset:
    """{x + y : x in X, y in Y}: the support of the indicators' convolution."""
    if X.modulus != Y.modulus:
        raise ValueError("mixed moduli")
    sums = exact_cyclic(X.indicator(), Y.indicator())
    return FieldSubset(X.modulus, (t for t, c in enumerate(sums) if c))


# -- serialization ---------------------------------------------------------
#
# CSV with a "p=<p>" first line, then "lambda,count" rows in decimal.


def spectrum_to_csv(S: Spectrum) -> str:
    lines = [f"p={S.modulus.p}", "lambda,count"]
    lines.extend(f"{t},{c}" for t, c in enumerate(S.counts))
    return "\n".join(lines) + "\n"


def spectrum_from_csv(text: str) -> Spectrum:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2 or not lines[0].startswith("p=") or lines[1] != "lambda,count":
        raise ParseError("spectrum CSV must start with 'p=<p>' then 'lambda,count'")
    try:
        modulus = PrimeModulus(int(lines[0][2:]))
    except ValueError as exc:
        raise ParseError(f"bad modulus line {lines[0]!r}: {exc}") from None
    counts = [0] * modulus.p
    seen = set()
    for ln in lines[2:]:
        try:
            t_text, c_text = ln.split(",")
            t, c = int(t_text), int(c_text)
        except ValueError:
            raise ParseError(f"malformed spectrum row {ln!r}") from None
        if not 0 <= t < modulus.p:
            raise ParseError(f"spectrum row {ln!r}: lambda outside [0, {modulus.p})")
        if t in seen:
            raise ParseError(f"spectrum row {ln!r}: lambda {t} repeated")
        seen.add(t)
        counts[t] = c
    return Spectrum(modulus, counts)
