"""Theorem-level checks: coverage and equidistribution reports, the
threshold coverage assertion, set identities, the additive/multiplicative
energy decomposition, and empirical threshold scans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext

from .energy import additive_energy, distance_energy, dot_energy, report_float
from .errors import GuardExceeded, InvariantViolation
from .field import PrimeModulus
from .rng import derive_seed
from .sets import FieldSubset, PointSet, random_subset
from .spectra import (
    Spectrum,
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
    threshold: float
    threshold_met: bool
    coverage: CoverageReport


def iosevich_rudnev_check(E: PointSet, force: bool = False) -> ThresholdCoverageReport:
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
        threshold=4 * p ** ((d + 1) / 2),
        threshold_met=threshold_met,
        coverage=report,
    )


def delta_additivity_check(A: FieldSubset, d: int) -> bool:
    """Exact identity: the 2d-fold distance support equals the sumset of two
    copies of the d-fold support.  Expected to hold always."""
    if d < 1:
        raise ValueError(f"fold depth must be >= 1, got {d}")
    base = diff_square_spectrum(A)
    half = support(fold(base, d))
    whole = support(fold(base, 2 * d))
    return whole == sumset(half, half)


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


def _pair_value_tables(elements: list[int], p: int) -> tuple[list[list[int]], list[list[int]]]:
    sums = [[(a + b) % p for b in elements] for a in elements]
    prods = [[a * b % p for b in elements] for a in elements]
    return sums, prods


def _subset_energy(indices: list[int], table: list[list[int]], scratch: list[int], touched: list[int]) -> int:
    for i in indices:
        row = table[i]
        for j in indices:
            v = row[j]
            if scratch[v] == 0:
                touched.append(v)
            scratch[v] += 1
    energy = 0
    for v in touched:
        c = scratch[v]
        energy += c * c
        scratch[v] = 0
    touched.clear()
    return energy


def balog_wooley_decompose(A: FieldSubset, strategy: str = "exhaustive") -> Decomposition:
    """Split A into B (small additive energy side) and C (small
    multiplicative energy side).

    exhaustive: scans all 2^|A| partitions for the one minimizing
    max(E+(B), Ex(C)), ties broken by the lexicographically least B.
    greedy: repeatedly applies the single element move that most reduces
    the current max energy; valid partition, no optimality claim.
    """
    m = len(A)
    if m == 0:
        raise ValueError("cannot decompose the empty set")
    p = A.modulus.p
    elements = A.elements()
    sums, prods = _pair_value_tables(elements, p)
    scratch = [0] * p
    touched: list[int] = []

    if strategy == "exhaustive":
        if m > EXHAUSTIVE_DECOMPOSE_GUARD:
            raise GuardExceeded(
                f"exhaustive decomposition over 2^{m} partitions exceeds guard 2^{EXHAUSTIVE_DECOMPOSE_GUARD}"
            )
        best_key = None
        best_mask = 0
        for mask in range(1 << m):
            b_idx = [i for i in range(m) if mask >> i & 1]
            c_idx = [i for i in range(m) if not mask >> i & 1]
            eplus = _subset_energy(b_idx, sums, scratch, touched)
            etimes = _subset_energy(c_idx, prods, scratch, touched)
            key = (max(eplus, etimes), tuple(elements[i] for i in b_idx))
            if best_key is None or key < best_key:
                best_key = key
                best_mask = mask
        b_set = [elements[i] for i in range(m) if best_mask >> i & 1]
    elif strategy == "greedy":
        in_b = [True] * m
        current = _current_max(in_b, sums, prods, scratch, touched)
        while True:
            best_move = None
            best_value = current
            for i in range(m):
                in_b[i] = not in_b[i]
                value = _current_max(in_b, sums, prods, scratch, touched)
                in_b[i] = not in_b[i]
                if value < best_value:
                    best_value = value
                    best_move = i
            if best_move is None:
                break
            in_b[best_move] = not in_b[best_move]
            current = best_value
        b_set = [elements[i] for i in range(m) if in_b[i]]
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    B = FieldSubset(A.modulus, b_set)
    C = A.difference(B)
    eplus = additive_energy(B) if len(B) else 0
    etimes = dot_energy(C, 1) if len(C) else 0  # the multiplicative energy
    return Decomposition(B=B, C=C, eplus=eplus, etimes=etimes, strategy=strategy)


def _current_max(in_b, sums, prods, scratch, touched) -> int:
    b_idx = [i for i, flag in enumerate(in_b) if flag]
    c_idx = [i for i, flag in enumerate(in_b) if not flag]
    return max(
        _subset_energy(b_idx, sums, scratch, touched),
        _subset_energy(c_idx, prods, scratch, touched),
    )


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
    exponent = 4 * d - 2 + 1 / (5 * 2.0 ** (d - 3))
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
        lines = [header]
        for row in self.rows:
            line = f"{row.m},{row.trials},{row.covered_fraction:.6f},{row.min_count}"
            if dot:
                line += f",{row.zero_fraction:.6f}"
            lines.append(line)
        return "\n".join(lines) + "\n"


def _scan_cell(modulus: PrimeModulus, n: int, kind: str, seed: int, m: int, trial: int) -> tuple[bool, bool, int]:
    A = random_subset(modulus, m, derive_seed("scan", seed, m, trial))
    S = power_spectrum(A, kind, n)
    # for the dot form, coverage concerns the nonzero values only
    relevant = S.counts if kind == "distance" else S.counts[1:]
    covered = all(c > 0 for c in relevant)
    zero_attained = S.counts[0] > 0
    return covered, zero_attained, min(relevant)


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
    p = modulus.p
    top = p if max_m is None else min(p, max_m)
    rows = []
    min_full = None
    for m in range(1, top + 1):
        outcomes = [_scan_cell(modulus, n, kind, seed, m, t) for t in range(trials)]
        covered = sum(1 for c, _, _ in outcomes if c)
        zero = sum(1 for _, z, _ in outcomes if z)
        rows.append(
            ScanRow(
                m=m,
                trials=trials,
                covered_fraction=covered / trials,
                min_count=min(mc for _, _, mc in outcomes),
                zero_fraction=zero / trials,
            )
        )
        if min_full is None and covered == trials:
            min_full = m
    return ScanTable(
        p=p, n=n, kind=kind, trials=trials, seed=seed, rows=rows, min_full_coverage_m=min_full
    )
