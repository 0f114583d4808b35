"""Guarded bilinear pair counts of weighted multisets, their deviation
bounds in F_p^2 and F_p^3, and the one encoder of a form's Cartesian power.

encode(A, kind, n) turns distance or dot-product pair counting over A^n
into a weighted bilinear pair count N(E, F, lambda): in the plane for odd
n and in F_p^3 for even n, where the point-plane incidence bound applies.
The deviation of N from |E||F|/p obeys constant-free inequalities, checked
here in exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .errors import GuardExceeded
from .sets import FieldSubset, WeightedPointSet, bilinear_counts
from .spectra import Spectrum, base_spectrum, fold

PAIR_COUNT_GUARD = 5_000_000  # on (#E entries) * (#F entries)


def pair_counts(E: WeightedPointSet, F: WeightedPointSet) -> list[int]:
    """All-lambda weighted counts of sum_{i<D} e_i*f_i + e_D + f_D = lambda,
    with D = E.dim - 1 and coordinates indexed from 0."""
    if E.modulus != F.modulus:
        raise ValueError("mixed moduli")
    if E.dim != F.dim:
        raise ValueError(f"pair count needs one dimension, got {E.dim} and {F.dim}")
    if len(E) * len(F) > PAIR_COUNT_GUARD:
        raise GuardExceeded(f"{len(E)} x {len(F)} entry pairs exceed guard {PAIR_COUNT_GUARD}")
    return bilinear_counts(E, F)


@dataclass(frozen=True)
class DeviationReport:
    """Exact per-lambda margins for |N - |E||F|/p| <= p^w * sqrt(sum m_E^2 * sum m_F^2).

    Cleared of denominators and squared, the check at each lambda is
    (p*N - |E||F|)^2 <= p^(2w+2) * sum m_E^2 * sum m_F^2 with w = 1/2 in
    the plane and w = 1 in three dimensions; margins are rhs - lhs >= 0.
    All quantities are exact integers, no floating point enters.
    """

    dim: int
    p: int
    counts: list[int]
    total_product: int
    second_moment_product: int
    rhs_squared: int
    margins: list[int]
    passed: bool


def deviation_check(E: WeightedPointSet, F: WeightedPointSet) -> DeviationReport:
    """Deviation bound in the dimension of E and F: factor sqrt(p) in the
    plane, p in space; constant-free, must pass."""
    if E.dim not in (2, 3):
        raise ValueError(f"the deviation bound is stated in dimension 2 or 3, got {E.dim}")
    counts = pair_counts(E, F)
    p = E.modulus.p
    total_product = E.total * F.total
    moment_product = E.second_moment() * F.second_moment()
    rhs_squared = p ** (E.dim + 1) * moment_product
    margins = [rhs_squared - (p * n - total_product) ** 2 for n in counts]
    return DeviationReport(
        dim=E.dim,
        p=p,
        counts=counts,
        total_product=total_product,
        second_moment_product=moment_product,
        rhs_squared=rhs_squared,
        margins=margins,
        passed=min(margins) >= 0,
    )


# -- the encoding --------------------------------------------------------------


def encode(A: FieldSubset, kind: str, n: int) -> tuple[WeightedPointSet, WeightedPointSet]:
    """Multisets E, F in F_p^(k+1) with N(E, F, lam) = the form-lam pair
    count of A^n x A^n; both totals are |A|^n.

    k = 2 - n % 2 coordinates x stay free; the last coordinate s carries
    the other n - k, weighted by their (n - k)/2-fold pair spectrum (a
    point mass at 0 when n = k).  Distance: E holds (2x, |x|^2 + s) and F
    holds (-x, |x|^2 + s).  Dot: E and F both hold (x, s).  Built through
    the spectrum fold, never by materializing A^n.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    k = 2 - n % 2
    depth = (n - k) // 2
    base = base_spectrum(A, kind)  # built at depth 0 too, so an unknown form is rejected
    carried = list((fold(base, depth) if depth else Spectrum.point_mass(A.modulus, 0)).items())
    distance = kind == "distance"
    free = [(x, sum(c * c for c in x) if distance else 0) for x in product(A.elements(), repeat=k)]

    def side(scale: int) -> WeightedPointSet:
        scaled = [(tuple(scale * c for c in x), norm) for x, norm in free]
        return WeightedPointSet(A.modulus, k + 1, [(y + (norm + s,), m) for y, norm in scaled for s, m in carried])

    E, F = (side(2), side(-1)) if distance else (side(1), side(1))
    assert E.total == F.total == len(A) ** n
    return E, F
