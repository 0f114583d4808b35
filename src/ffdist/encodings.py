"""Weighted multiset encodings in F_p^2 and F_p^3.

These turn distance and dot-product pair counting over Cartesian powers
into weighted bilinear pair counts N(E, F, lambda), whose deviation from
|E||F|/p obeys constant-free inequalities that are checked here in exact
integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GuardExceeded, ParseError
from .field import PrimeModulus
from .sets import FieldSubset
from .spectra import Spectrum, diff_square_spectrum, fold, product_spectrum

PAIR_COUNT_GUARD = 5_000_000  # on (#E entries) * (#F entries)


class WeightedPointSet:
    """A multiset of points in F_p^2 or F_p^3 with exact multiplicities."""

    __slots__ = ("modulus", "dim", "entries", "total")

    def __init__(self, modulus: PrimeModulus, dim: int, entries: dict[tuple[int, ...], int]):
        if dim not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {dim}")
        p = modulus.p
        canonical: dict[tuple[int, ...], int] = {}
        for pt, mult in entries.items():
            if len(pt) != dim:
                raise ValueError(f"point {pt} does not have {dim} coordinates")
            if mult < 1:
                raise ValueError(f"multiplicity of {pt} must be >= 1, got {mult}")
            key = tuple(c % p for c in pt)
            canonical[key] = canonical.get(key, 0) + mult
        self.modulus = modulus
        self.dim = dim
        self.entries = canonical
        self.total = sum(canonical.values())

    @classmethod
    def from_points(cls, modulus: PrimeModulus, dim: int, points) -> "WeightedPointSet":
        entries: dict[tuple[int, ...], int] = {}
        for pt in points:
            key = tuple(pt)
            entries[key] = entries.get(key, 0) + 1
        return cls(modulus, dim, entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeightedPointSet)
            and other.modulus == self.modulus
            and other.dim == self.dim
            and other.entries == self.entries
        )

    def __repr__(self) -> str:
        return f"WeightedPointSet(p={self.modulus.p}, dim={self.dim}, distinct={len(self.entries)}, total={self.total})"

    def second_moment(self) -> int:
        """Sum of squared multiplicities over distinct points."""
        return sum(m * m for m in self.entries.values())

    def to_csv(self) -> str:
        lines = [f"p={self.modulus.p} d={self.dim}"]
        header = ",".join(f"x{i+1}" for i in range(self.dim)) + ",multiplicity"
        lines.append(header)
        for pt in sorted(self.entries):
            lines.append(",".join(str(c) for c in pt) + f",{self.entries[pt]}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "WeightedPointSet":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if len(lines) < 2:
            raise ParseError("multiset CSV needs a header and at least one row")
        head = lines[0].split()
        try:
            fields = dict(part.split("=", 1) for part in head)
            modulus = PrimeModulus(int(fields["p"]))
            dim = int(fields["d"])
        except (ValueError, KeyError):
            raise ParseError(f"bad multiset header {lines[0]!r}") from None
        entries: dict[tuple[int, ...], int] = {}
        for ln in lines[2:]:
            parts = ln.split(",")
            if len(parts) != dim + 1:
                raise ParseError(f"malformed multiset row {ln!r}")
            try:
                pt = tuple(int(c) for c in parts[:-1])
                mult = int(parts[-1])
            except ValueError:
                raise ParseError(f"malformed multiset row {ln!r}") from None
            if mult < 1:
                raise ParseError(f"multiplicity must be >= 1: {ln!r}")
            entries[pt] = entries.get(pt, 0) + mult
        return cls(modulus, dim, entries)


def pair_counts(E: WeightedPointSet, F: WeightedPointSet) -> list[int]:
    """All-lambda weighted counts of sum_{i<D} e_i*f_i + e_D + f_D = lambda,
    with D = E.dim (2 or 3).

    A dim-2 point gets a leading 0 coordinate, whose product term is 0, so
    one dim-3 loop counts both forms.
    """
    if E.modulus != F.modulus:
        raise ValueError("mixed moduli")
    if E.dim != F.dim:
        raise ValueError(f"pair count needs one dimension, got {E.dim} and {F.dim}")
    if len(E) * len(F) > PAIR_COUNT_GUARD:
        raise GuardExceeded(f"{len(E)} x {len(F)} entry pairs exceed guard {PAIR_COUNT_GUARD}")
    p = E.modulus.p
    out = [0] * p
    pad = (0,) * (3 - E.dim)
    f_items = [(pad + f, mf) for f, mf in F.entries.items()]
    for e, me in E.entries.items():
        e1, e2, e3 = pad + e
        for (f1, f2, f3), mf in f_items:
            out[(e1 * f1 + e2 * f2 + e3 + f3) % p] += me * mf
    return out


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
    counts = pair_counts(E, F)
    p = E.modulus.p
    total_product = E.total * F.total
    moment_product = E.second_moment() * F.second_moment()
    rhs_squared = p ** (E.dim + 1) * moment_product
    margins = []
    passed = True
    for n in counts:
        lhs_squared = (p * n - total_product) ** 2
        margin = rhs_squared - lhs_squared
        margins.append(margin)
        if margin < 0:
            passed = False
    return DeviationReport(
        dim=E.dim,
        p=p,
        counts=counts,
        total_product=total_product,
        second_moment_product=moment_product,
        rhs_squared=rhs_squared,
        margins=margins,
        passed=passed,
    )


# -- encodings ---------------------------------------------------------------


def _fold_or_unit(S: Spectrum, depth: int) -> Spectrum:
    if depth == 0:
        return Spectrum.point_mass(S.modulus, 0, 1)
    return fold(S, depth)


def encode_distance_odd(A: FieldSubset, d: int) -> tuple[WeightedPointSet, WeightedPointSet]:
    """Plane multisets E, F with N(E, F, lam) = the distance-lam pair count
    of A^(2d+1) x A^(2d+1).

    E holds (2x, x^2 + s) and F holds (-t, t^2 + s), each with the d-fold
    squared-difference count of s as multiplicity; totals are |A|^(2d+1).
    Built through the spectrum fold, never by materializing A^(2d+1).
    """
    if d < 1:
        raise ValueError(f"fold depth must be >= 1, got {d}")
    p = A.modulus.p
    D = fold(diff_square_spectrum(A), d)
    e_entries: dict[tuple[int, ...], int] = {}
    f_entries: dict[tuple[int, ...], int] = {}
    for x in A:
        x2 = x * x % p
        for s, c in D.items():
            e_key = (2 * x % p, (x2 + s) % p)
            e_entries[e_key] = e_entries.get(e_key, 0) + c
            f_key = (-x % p, (x2 + s) % p)
            f_entries[f_key] = f_entries.get(f_key, 0) + c
    E = WeightedPointSet(A.modulus, 2, e_entries)
    F = WeightedPointSet(A.modulus, 2, f_entries)
    expected = len(A) ** (2 * d + 1)
    assert E.total == expected and F.total == expected
    return E, F


def encode_distance_even(A: FieldSubset, d: int) -> tuple[WeightedPointSet, WeightedPointSet]:
    """Space multisets E, F with N(E, F, lam) = the distance-lam pair count
    of A^(2d) x A^(2d); totals |A|^(2d).

    E holds (2x1, 2x2, x1^2 + x2^2 + s) weighted by the (d-1)-fold
    squared-difference count of s; d = 1 leaves only the x1^2 + x2^2 part.
    """
    if d < 1:
        raise ValueError(f"fold depth must be >= 1, got {d}")
    p = A.modulus.p
    D = _fold_or_unit(diff_square_spectrum(A), d - 1)
    e_entries: dict[tuple[int, ...], int] = {}
    f_entries: dict[tuple[int, ...], int] = {}
    elements = A.elements()
    for x1 in elements:
        for x2 in elements:
            sq = (x1 * x1 + x2 * x2) % p
            for s, c in D.items():
                e_key = (2 * x1 % p, 2 * x2 % p, (sq + s) % p)
                e_entries[e_key] = e_entries.get(e_key, 0) + c
                f_key = (-x1 % p, -x2 % p, (sq + s) % p)
                f_entries[f_key] = f_entries.get(f_key, 0) + c
    E = WeightedPointSet(A.modulus, 3, e_entries)
    F = WeightedPointSet(A.modulus, 3, f_entries)
    expected = len(A) ** (2 * d)
    assert E.total == expected and F.total == expected
    return E, F


def encode_dot(A: FieldSubset, d: int) -> tuple[WeightedPointSet, WeightedPointSet]:
    """Space multisets E, F with N(E, F, lam) = the dot-product-lam pair
    count of A^(2d) x A^(2d); totals |A|^(2d).

    Each point of A^(2d) contributes (x1, x2, s) where s collects d-1
    products of its remaining coordinate pairs, so the multiplicity of
    (x1, x2, s) is the (d-1)-fold product-count of s.  The bilinear
    relation then reassembles x1*y1 + x2*y2 plus the two carried sums,
    which reproduces the full 2d-term dot product at the level of counts.
    """
    if d < 1:
        raise ValueError(f"fold depth must be >= 1, got {d}")
    M = _fold_or_unit(product_spectrum(A), d - 1)
    entries: dict[tuple[int, ...], int] = {}
    for x1 in A:
        for x2 in A:
            for s, c in M.items():
                key = (x1, x2, s)
                entries[key] = entries.get(key, 0) + c
    E = WeightedPointSet(A.modulus, 3, entries)
    F = WeightedPointSet(A.modulus, 3, dict(entries))
    expected = len(A) ** (2 * d)
    assert E.total == expected and F.total == expected
    return E, F
