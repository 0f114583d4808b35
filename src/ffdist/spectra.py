"""Exact representation-function spectra over F_p.

A Spectrum maps each t in F_p to an exact non-negative integer count.
The squared-difference and product base spectra, their d-fold additive
convolutions, the distance / dot-product spectra of Cartesian powers and
the distance spectrum of a general point set (a bilinear pair count of
its lifts) all live here, together with supports and sumsets.
base_spectrum is the one place that maps a form to its base spectrum.
"""

from __future__ import annotations

import numpy as np

from .convolution import _cyclic, _ints, _Rows, _small, _within_engine, exact_cyclic
from .errors import GuardExceeded, InvariantViolation
from .field import PrimeModulus, power_table, primitive_root
from .sets import FieldSubset, WeightedPointSet, _Lines, _text, bilinear_counts

GENERAL_SPECTRUM_GUARD = 100_000


class Spectrum:
    """Exact count function F_p -> N with a cached total.  The counts may be held as a 1-D int64 array, or as
    the engine's _Rows (their sums checked mod each of their primes), until first read.  _bounds, once known, is
    (c, L, M): an integer c with |S - c|_1 <= L and |S - c|_inf <= M (cyclic_convolve plans its primes by them)."""

    __slots__ = ("modulus", "total", "_held", "_bounds")

    def __init__(self, modulus: PrimeModulus, counts, expected_total: int | None = None):
        self.modulus, self.total, self._held, self._bounds = modulus, expected_total, counts, None
        if not isinstance(counts, _Rows):
            if len(counts) != modulus.p:
                raise ValueError(f"need {modulus.p} counts, got {len(counts)}")
            array = isinstance(counts, np.ndarray)
            low, total = (int(counts.min()), _sum64(counts)) if array else (min(counts), sum(counts))
            if low < 0:
                raise ValueError("negative count")
            self._keep(counts, total)

    @property
    def counts(self) -> list[int]:
        if isinstance(self._held, _Rows):
            ints = _ints(self._held)
            self._keep(ints, sum(ints))
        elif isinstance(self._held, np.ndarray):  # its total was checked when it was held
            self._held = self._held.tolist()
        return self._held

    def _deviation(self) -> tuple[int, int, int]:
        """_bounds, exact about a median for an int64 array or rows of < 3 primes; if unknown, (0, total, total)."""
        if self._bounds is None and not isinstance(self._held, list) and len(getattr(self._held, "moduli", ())) < 3:
            x = _small(self._held) if isinstance(self._held, _Rows) else self._held  # rows: in int64, less low
            mid = int(np.partition(x, len(x) // 2)[len(x) // 2])
            dev = np.abs(x - mid)  # below 2**63
            self._bounds = mid + getattr(self._held, "low", 0), _sum64(dev), int(dev.max())
        return self._bounds or (0, self.total, self.total)

    def _keep(self, counts, total: int) -> None:
        """Hold counts, in place of any rows, once they sum to the expected total."""
        if self.total is not None and total != self.total:
            raise InvariantViolation(f"spectrum total {total} != forced combinatorial total {self.total}")
        self.total, self._held = total, counts

    @classmethod
    def point_mass(cls, modulus: PrimeModulus, at: int, count: int = 1) -> "Spectrum":
        counts = [0] * _within_engine(modulus)
        counts[at % modulus.p] = count
        return cls(modulus, counts)

    def __getitem__(self, t: int) -> int:
        return self.counts[t % self.modulus.p]

    def __eq__(self, other) -> bool:
        return isinstance(other, Spectrum) and other.modulus == self.modulus and other.counts == self.counts

    def __repr__(self) -> str:
        return f"Spectrum(p={self.modulus.p}, support={sum(1 for c in self.counts if c)}, total={self.total})"

    def items(self):
        """(t, count) pairs over the support."""
        return ((t, c) for t, c in enumerate(self.counts) if c)


def diff_square_spectrum(A: FieldSubset) -> Spectrum:
    """counts[t] = #{(a,b) in A^2 : (a-b)^2 = t}; total |A|^2."""
    p, m = _within_engine(A.modulus), len(A)
    if m == 0:
        raise ValueError("empty set has no pair spectrum")
    # #{(a,b): a-b = delta} is the indicator's cyclic autocorrelation; push
    # each count (at most m < 2^31, so int64 is exact) onto its square.
    ind = A.indicator()
    diff_counts = exact_cyclic(ind, ind[:1] + ind[:0:-1])
    counts = np.zeros(p, dtype=np.int64)
    np.add.at(counts, np.arange(p, dtype=np.int64) ** 2 % p, diff_counts)
    return Spectrum(A.modulus, counts, expected_total=m * m)


def product_spectrum(A: FieldSubset) -> Spectrum:
    """counts[t] = #{(a,b) in A^2 : a*b = t}; total |A|^2."""
    p, m = _within_engine(A.modulus), len(A)
    if m == 0:
        raise ValueError("empty set has no pair spectrum")
    # Discrete logs turn products into sums: convolve the indicator of
    # A\{0} over Z_{p-1} (entry k is [g^k in A]), then map exponents back.
    powers = power_table(primitive_root(p), p - 1, p)
    member = np.zeros(p, dtype=np.int64)
    member[np.fromiter(A, dtype=np.int64, count=m)] = 1
    ind = member[powers].tolist()
    # every count is at most m^2 < 2^62, so int64 holds it exactly
    counts = np.zeros(p, dtype=np.int64)
    counts[powers] = exact_cyclic(ind, ind)
    counts[0] = 2 * m - 1 if 0 in A else 0  # (0, b) and (a, 0); no power of g is 0
    return Spectrum(A.modulus, counts, expected_total=m * m)


def _sum64(x: np.ndarray) -> int:
    """The exact sum of an int64 array of fewer than 2**31 entries, taken in two 32-bit halves."""
    return (int((x >> 32).sum()) << 32) + int((x & 0xFFFFFFFF).sum())


def cyclic_convolve(S: Spectrum, T: Spectrum) -> Spectrum:
    """out[t] = sum_u S[u] * T[t-u] with indices mod p, exact; rows stay rows.  For bounds (c, L, M) and (e, L', M'),
    out lies within r = min(L*M', M*L') of m = c*sum(T) + e*sum(S) - p*c*e, which narrows a transform-tier plan."""
    if S.modulus != T.modulus:
        raise ValueError("mixed moduli")
    total, chain = S.total * T.total, []

    def interval() -> tuple[int, int]:
        (c, l1, top), (e, l1_t, top_t) = S._deviation(), T._deviation()
        m, r = c * T.total + e * S.total - S.modulus.p * c * e, min(l1 * top_t, top * l1_t)
        chain.append((m, l1 * l1_t, r))
        return max(0, m - r), max(0, min(total, m + r) - max(0, m - r))

    out = Spectrum(S.modulus, _cyclic(S._held, T._held, total, interval), expected_total=total)
    out._bounds = chain[0] if chain and len(out._held.moduli) > 2 else None  # None: _deviation reads them exactly
    return out


def fold(S: Spectrum, d: int) -> Spectrum:
    """d-fold cyclic self-convolution by binary exponentiation; exact."""
    if d < 1:
        raise ValueError(f"fold depth must be >= 1, got {d}")
    result, base, e = None, S, d
    while e:
        if e & 1:
            result = base if result is None else cyclic_convolve(result, base)
        e >>= 1
        if e:
            base = cyclic_convolve(base, base)
    assert result is not None
    return result


def base_spectrum(A: FieldSubset, kind: str) -> Spectrum:
    """The form's pair spectrum on F_p: squared differences ("distance") or products ("dot")."""
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
    p = _within_engine(A.modulus)
    x = np.fromiter(A, dtype=np.int64, count=len(A))
    counts = np.bincount(x * x % p, minlength=p)
    return fold(Spectrum(A.modulus, counts, expected_total=len(A)), n)


def distance_spectrum_general(E: WeightedPointSet, force: bool = False) -> Spectrum:
    """Weighted pair counts of each distance over E x E.

    |x - y|^2 = (-2x).y + |x|^2 + |y|^2, so this is the bilinear count of
    the lifts (-2x, |x|^2) and (y, |y|^2).  Quadratic in |E|; guarded,
    with force=True overriding the guard.
    """
    check_point_count(len(E), force)
    norms = [(x, sum(c * c for c in x)) for x in E.entries]
    lifts = [{(*(s * c for c in x), n): E.entries[x] for x, n in norms} for s in (-2, 1)]
    counts = bilinear_counts(*(WeightedPointSet(E.modulus, E.dim + 1, w) for w in lifts))
    return Spectrum(E.modulus, counts, expected_total=E.total**2)


def check_point_count(m: int, force: bool) -> None:
    """GuardExceeded for |E| = m past the guard, unless forced; callers may check before building E."""
    if m > GENERAL_SPECTRUM_GUARD and not force:
        raise GuardExceeded(f"|E| = {m} exceeds enumeration guard {GENERAL_SPECTRUM_GUARD}")


def support(S: Spectrum) -> FieldSubset:
    """The set {t : S[t] > 0}."""
    return FieldSubset(S.modulus, (t for t, c in enumerate(S.counts) if c))


def sumset(X: FieldSubset, Y: FieldSubset) -> FieldSubset:
    """{x + y : x in X, y in Y}: the support of the indicators' convolution."""
    if X.modulus != Y.modulus:
        raise ValueError("mixed moduli")
    _within_engine(X.modulus)
    return support(Spectrum(X.modulus, exact_cyclic(X.indicator(), Y.indicator())))


# -- serialization ---------------------------------------------------------


def spectrum_to_csv(S: Spectrum) -> str:
    return _text([f"p={S.modulus.p}", "lambda,count"], enumerate(S.counts))


def spectrum_from_csv(text: str) -> Spectrum:
    lines = _Lines(text, "spectrum CSV", ("p",))
    lines.refuse(1, [lines.lines[1:2] != ["lambda,count"]], "spectrum CSV must start with 'p=<p>' then 'lambda,count'")
    p = _within_engine(lines.modulus)
    rows = lines.ints(2, None, 2, "spectrum row")
    lams, counts, first = rows[::2], [0] * p, {}
    lines.refuse(2, (not 0 <= t < p for t in lams), f"lambda outside [0, {p})")
    lines.refuse(2, (first.setdefault(t, k) != k for k, t in enumerate(lams)), "lambda repeated")
    lines.refuse(2, (c < 0 for c in rows[1::2]), "negative count")
    for t, c in zip(lams, rows[1::2]):
        counts[t] = c
    return Spectrum(lines.modulus, counts)
