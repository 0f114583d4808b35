"""Theorem-level checks: coverage and equidistribution reports, the
threshold coverage assertion, set identities, the additive/multiplicative
energy decomposition searched on numpy pair tables, and threshold scans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np

from .energy import additive_energy, distance_energy, dot_energy, report_float
from .errors import GuardExceeded, InvariantViolation
from .field import PrimeModulus
from .rng import derive_seed
from .sets import FieldSubset, WeightedPointSet, _text, random_subset
from .spectra import (
    Spectrum,
    cyclic_convolve,
    diff_square_spectrum,
    distance_spectrum_general,
    fold,
    power_spectrum,
    sumset,
    support,
)

EXHAUSTIVE_DECOMPOSE_GUARD = 20


@dataclass
class CoverageReport:
    """Which values a spectrum attains, and how evenly.

    expected = total / p is the equidistributed count; the deviation is
    max over lambda of |count * p - total| / total, kept as an exact
    integer ratio.  The zero count rides along separately because the
    dot-product statements treat lambda = 0 as a special value.
    """

    p: int
    covered: bool
    missing: FieldSubset
    counts: list[int]
    total: int
    deviation_num: int
    deviation_den: int
    zero_count: int
    covered_excluding_zero: bool

    @property
    def max_rel_deviation(self) -> float:
        return self.deviation_num / self.deviation_den


def coverage_check(S: Spectrum) -> CoverageReport:
    p = S.modulus.p
    missing = FieldSubset(S.modulus, (t for t, c in enumerate(S.counts) if c == 0))
    deviation_num = max(abs(c * p - S.total) for c in S.counts)
    return CoverageReport(
        p=p,
        covered=len(missing) == 0,
        missing=missing,
        counts=list(S.counts),
        total=S.total,
        deviation_num=deviation_num,
        deviation_den=S.total,
        zero_count=S.counts[0],
        covered_excluding_zero=all(S.counts[1:]),
    )


@dataclass
class ThresholdCoverageReport:
    """Result of the unconditional coverage check for point sets.

    Above |E| >= 4 p^((d+1)/2) full distance coverage is guaranteed
    outright, so there it is asserted; below the threshold the coverage
    is only reported.  threshold_met says which; the full coverage report
    rides along.
    """

    p: int
    dim: int
    size: int
    threshold: float | None
    threshold_met: bool
    coverage: CoverageReport


def iosevich_rudnev_check(E: WeightedPointSet, force: bool = False) -> ThresholdCoverageReport:
    p = E.modulus.p
    d = E.dim
    report = coverage_check(distance_spectrum_general(E, force=force))
    threshold_met = len(E) ** 2 >= 16 * p ** (d + 1)
    if threshold_met and not report.covered:
        raise InvariantViolation(
            f"point set of size {len(E)} >= 4*p^((d+1)/2) fails to cover all distances "
            f"(p={p}, d={d}, missing {len(report.missing)} values): this is a bug"
        )
    return ThresholdCoverageReport(
        p=p,
        dim=d,
        size=len(E),
        threshold=report_float(lambda: 4 * p ** ((d + 1) / 2)),
        threshold_met=threshold_met,
        coverage=report,
    )


def delta_additivity_check(A: FieldSubset, d: int) -> bool:
    """Exact identity: the 2d-fold distance support equals the sumset of two
    copies of the d-fold support.  Expected to hold always."""
    folded = fold(diff_square_spectrum(A), d)
    half = support(folded)
    return support(cyclic_convolve(folded, folded)) == sumset(half, half)


def cauchy_davenport_check(X: FieldSubset, Y: FieldSubset) -> bool:
    """|X + Y| >= min(p, |X| + |Y| - 1); expected to hold always."""
    if len(X) == 0 or len(Y) == 0:
        raise ValueError("sumset lower bound needs nonempty sets")
    p = X.modulus.p
    return len(sumset(X, Y)) >= min(p, len(X) + len(Y) - 1)


# -- energy decomposition -----------------------------------------------------


@dataclass
class Decomposition:
    """A partition A = B | C with its additive and multiplicative energies."""

    B: FieldSubset
    C: FieldSubset
    eplus: int
    etimes: int
    strategy: str

    @property
    def max_energy(self) -> int:
        return max(self.eplus, self.etimes)


def _subset_energies(table: np.ndarray) -> np.ndarray:
    """#{(i, j, k, l) in S^4 : table[i, j] = table[k, l]} for every bitmask S
    of the m x m table's rows, as int32 (an energy is below 2m^3).

    Each coinciding pair of pairs is tallied at the union of its index bits,
    and Yates' subset-sum passes add each tally into every superset.
    """
    m = len(table)
    bits = 1 << np.arange(m)
    unions = (bits[:, None] | bits).ravel()
    values = table.ravel()
    first, second = np.nonzero(values[:, None] == values)
    energies = np.zeros(1 << m, dtype=np.int32)
    np.add.at(energies, unions[first] | unions[second], 1)
    for b in range(m):
        halves = energies.reshape(-1, 2, 1 << b)
        halves[:, 1] += halves[:, 0]
    return energies


def _exhaustive(sums: np.ndarray, prods: np.ndarray) -> tuple[np.ndarray, int]:
    """B minimizing max(E+(B), Ex(C)) over every partition, and that minimum;
    ties go to the lexicographically least sorted B."""
    worst = _subset_energies(sums)
    np.maximum(worst, _subset_energies(prods)[::-1], out=worst)  # C's mask is full - B's
    best = int(worst.min())
    ties = np.flatnonzero(worst == best)
    mask = 0
    while ties.all():  # no tied B ends here, so extend by the least next index
        low = (ties & -ties).min()
        ties = ties[ties & -ties == low] ^ low
        mask |= int(low)
    return (mask >> np.arange(len(sums))) % 2 == 1, best


def _pair_energy(table: np.ndarray, in_s: np.ndarray) -> int:
    """#{(i, j, k, l) in S^4 : table[i, j] = table[k, l]}."""
    _, counts = np.unique(table[np.ix_(in_s, in_s)], return_counts=True)
    return int(counts @ counts)


def _greedy(sums: np.ndarray, prods: np.ndarray) -> tuple[np.ndarray, int]:
    """From B = A, make the single-element move that most lowers
    max(E+(B), Ex(C)), the least index among equal moves, until none does."""

    def score(in_b: np.ndarray) -> int:
        return max(_pair_energy(sums, in_b), _pair_energy(prods, ~in_b))

    flips = np.eye(len(sums), dtype=bool)
    in_b = np.ones(len(sums), dtype=bool)
    current = score(in_b)
    while True:
        values = [score(in_b ^ flip) for flip in flips]
        move = int(np.argmin(values))
        if values[move] >= current:
            return in_b, current
        in_b ^= flips[move]
        current = values[move]


def balog_wooley_decompose(A: FieldSubset, strategy: str = "exhaustive") -> Decomposition:
    """Split A into B (small additive energy side) and C (small
    multiplicative energy side).

    Both searches read the tables (x_i + x_j) mod p and x_i x_j mod p over
    the sorted elements x, so their memory grows with |A|, never with p.
    exhaustive: the least max(E+(B), Ex(C)) over all 2^|A| partitions, from
    one subset-sum table per energy; ties go to the lexicographically least
    B.  greedy: repeatedly applies the single element move that most
    reduces the current max energy; valid partition, no optimality claim.
    """
    m = len(A)
    if m == 0:
        raise ValueError("cannot decompose the empty set")
    if strategy not in ("exhaustive", "greedy"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "exhaustive" and m > EXHAUSTIVE_DECOMPOSE_GUARD:
        raise GuardExceeded(
            f"exhaustive decomposition over 2^{m} partitions exceeds guard 2^{EXHAUSTIVE_DECOMPOSE_GUARD}"
        )
    x = np.array(A.elements(), dtype=np.int64)
    sums, prods = (x[:, None] + x) % A.modulus.p, x[:, None] * x % A.modulus.p
    in_b, searched = (_exhaustive if strategy == "exhaustive" else _greedy)(sums, prods)
    B = FieldSubset(A.modulus, x[in_b].tolist())
    C = A.difference(B)
    eplus = additive_energy(B) if len(B) else 0
    etimes = dot_energy(C, 1) if len(C) else 0  # the multiplicative energy
    # The search's pair tables and the spectrum-based energies are
    # independent algorithms; they must agree on the chosen partition.
    if max(eplus, etimes) != searched:
        raise InvariantViolation(
            f"decomposition energies max(E+, Ex) = {max(eplus, etimes)} disagree with the search's {searched}"
        )
    return Decomposition(B=B, C=C, eplus=eplus, etimes=etimes, strategy=strategy)


def _size_hypothesis_holds(m: int, p: int, k: int) -> bool:
    """m^(2k) <= p^(k+2) for 1 <= m <= p and k >= 3, without forming either power.

    It holds for every k when m^2 <= p.  Otherwise it reads
    k*ln(m^2/p) <= 2*ln(p), which decimal's correctly rounded ln decides:
    the precision doubles until the gap exceeds a bound on the rounding
    error of the few operations below.  Equality m^(2k) = p^(k+2) would
    need m = p (p is prime) and then k = 2, so the loop ends.
    """
    if m * m <= p:
        return True
    digits = 30
    while True:
        with localcontext() as ctx:
            ctx.prec = digits
            ln_p = Decimal(p).ln()
            gap = k * (2 * Decimal(m).ln() - ln_p) - 2 * ln_p
            if abs(gap) > 3 * (k + 2) * ln_p * Decimal(10) ** (2 - digits):
                return gap < 0
        digits *= 2


def theorem_last_report(A: FieldSubset, d: int, strategy: str | None = None) -> dict:
    """Decompose A and report both d-fold energies beside the constant-free
    bound shape d^4 (log|A|)^4 |A|^(4d - 2 + 1/(5*2^(d-3))); report only.

    The size hypothesis |A| <= p^(1/2 + 1/(5*2^(d-1) - 2)) is decided
    exactly; report-only floats past the double range are None.
    """
    if d < 2:
        raise ValueError(f"the energy bound needs d >= 2, got {d}")
    m = len(A)
    if m == 0:
        raise ValueError("empty set")
    p = A.modulus.p
    if strategy is None:
        strategy = "exhaustive" if m <= EXHAUSTIVE_DECOMPOSE_GUARD else "greedy"
    decomposition = balog_wooley_decompose(A, strategy)
    e_dist = distance_energy(decomposition.B, d) if len(decomposition.B) else 0
    e_dot = dot_energy(decomposition.C, d) if len(decomposition.C) else 0
    # m <= p^(1/2 + 1/k), k = 5*2^(d-1) - 2  <=>  m^(2k) <= p^(k+2)
    k = 5 * 2 ** (d - 1) - 2
    exponent = 4 * d - 2 + 1 / (5 * 2 ** (d - 3))
    bound_shape = report_float(lambda: d**4 * math.log(m) ** 4 * m**exponent) if m > 1 else 0.0
    max_energy = max(e_dist, e_dot)
    return {
        "p": p,
        "d": d,
        "set_size": m,
        "strategy": strategy,
        "B": decomposition.B.serialize(),
        "C": decomposition.C.serialize(),
        "eplus": decomposition.eplus,
        "etimes": decomposition.etimes,
        "distance_energy_B": e_dist,
        "dot_energy_C": e_dot,
        "max_energy": max_energy,
        "bound_shape": bound_shape,
        "ratio": report_float(lambda: max_energy / bound_shape) if bound_shape else None,
        "size_hypothesis_exponent": 0.5 + 1 / k,
        "size_hypothesis_holds": _size_hypothesis_holds(m, p, k),
    }


# -- threshold scans -----------------------------------------------------------


@dataclass
class ScanRow:
    m: int
    trials: int
    covered_fraction: float
    min_count: int
    zero_fraction: float


@dataclass
class ScanTable:
    p: int
    n: int
    kind: str
    trials: int
    seed: int
    rows: list[ScanRow]
    min_full_coverage_m: int | None

    def to_csv(self) -> str:
        dot = self.kind == "dot"
        header = "m,trials,covered_fraction,min_count" + (",zero_fraction" if dot else "")
        rows = ([r.m, r.trials, f"{r.covered_fraction:.6f}", r.min_count, *([f"{r.zero_fraction:.6f}"] if dot else [])]
                for r in self.rows)
        return _text([header], rows)


def threshold_scan(
    modulus: PrimeModulus,
    n: int,
    kind: str,
    trials: int,
    seed: int,
    max_m: int | None = None,
) -> ScanTable:
    """Empirical coverage fractions of the n-fold spectrum as |A| grows.

    For the dot kind, coverage means all nonzero values attained; whether
    0 is attained is tracked in its own column.  Each (m, trial) cell
    draws from its own seed-derived stream, so a cell's outcome does not
    depend on which cells ran before it.
    """
    if kind not in ("distance", "dot"):
        raise ValueError(f"scan kind must be distance or dot, got {kind!r}")
    if trials < 1:
        raise ValueError("need at least one trial per cardinality")
    if max_m is not None and max_m < 1:
        raise ValueError(f"max_m must be >= 1, got {max_m}")
    p = modulus.p
    top = p if max_m is None else min(p, max_m)
    rows = []
    min_full = None
    for m in range(1, top + 1):
        least, zero = [], 0
        for trial in range(trials):
            A = random_subset(modulus, m, derive_seed("scan", seed, m, trial))
            counts = power_spectrum(A, kind, n).counts
            # for the dot form, coverage concerns the nonzero values only
            least.append(min(counts if kind == "distance" else counts[1:]))
            zero += counts[0] > 0
        covered = sum(c > 0 for c in least)
        rows.append(
            ScanRow(
                m=m,
                trials=trials,
                covered_fraction=covered / trials,
                min_count=min(least),
                zero_fraction=zero / trials,
            )
        )
        if min_full is None and covered == trials:
            min_full = m
    return ScanTable(
        p=p, n=n, kind=kind, trials=trials, seed=seed, rows=rows, min_full_coverage_m=min_full
    )
