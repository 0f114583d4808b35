"""Point-plane incidences in F_p^3: exact counting by two strategies,
collinearity analysis, the incidence-bound diagnostic, and the explicit
point/plane instance arising from the dyadic energy decomposition.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

import numpy as np

from .convolution import exact_cyclic
from .encodings import WeightedPointSet
from .energy import dyadic_levels
from .errors import GuardExceeded, InvariantViolation, ParseError
from .field import PrimeModulus
from .sets import FieldSubset
from .spectra import Spectrum, diff_square_spectrum, fold

COLLINEAR_GUARD = 5000
# on planes.total of a parsed dump, so the direct strategy's int64 tally
# stays far below 2^63
INSTANCE_PLANE_LIMIT = 1_000_000


class PlaneSet:
    """A multiset of affine planes a*X + b*Y + c*Z = e in F_p^3 with exact
    multiplicities, keyed (a, b, c, e)."""

    __slots__ = ("modulus", "entries", "total")

    def __init__(self, modulus: PrimeModulus, entries: dict[tuple[int, int, int, int], int]) -> None:
        p = modulus.p
        canonical: dict[tuple[int, int, int, int], int] = {}
        for plane, mult in entries.items():
            a, b, c, e = (x % p for x in plane)
            if a == 0 and b == 0 and c == 0:
                raise ValueError("plane with zero normal vector")
            if mult < 1:
                raise ValueError(f"multiplicity of {plane} must be >= 1, got {mult}")
            key = (a, b, c, e)
            canonical[key] = canonical.get(key, 0) + mult
        self.modulus = modulus
        self.entries = canonical
        self.total = sum(canonical.values())

    def __len__(self) -> int:
        return len(self.entries)

    def grouped(self) -> dict[tuple[int, int, int], dict[int, int]]:
        """normal -> {constant -> multiplicity}."""
        groups: dict[tuple[int, int, int], dict[int, int]] = {}
        for (a, b, c, e), mult in self.entries.items():
            groups.setdefault((a, b, c), {})[e] = mult
        return groups


@dataclass
class IncidenceInstance:
    """Points (with multiplicity), planes, and the collinearity parameter k.

    Instances built from the energy decomposition also carry the exact
    weighted pair sum their incidence count must reproduce.
    """

    points: WeightedPointSet
    planes: PlaneSet
    k: int
    expected_incidences: int | None = None

    def __post_init__(self):
        if not 0 <= self.k <= self.points.total:
            raise ValueError(f"collinearity parameter k={self.k} exceeds |points|")


def count_incidences(
    points: WeightedPointSet, planes: PlaneSet, strategy: str = "grouped"
) -> int:
    """Multiplicity-weighted number of (point, plane) pairs with the point
    on the plane.

    strategy "direct" tests every distinct plane against the whole point
    array and weights it by its multiplicity; "grouped" histograms the
    points by their value under each plane normal and joins on the
    constants.  Both are exact and must agree.
    """
    if points.modulus != planes.modulus:
        raise ValueError("mixed moduli")
    if points.dim != 3:
        raise ValueError("incidence points live in F_p^3")
    p = points.modulus.p
    if strategy == "direct":
        # hits[i] = number of planes through point i, at most planes.total;
        # every product of two residues is below p^2 < 2^62, so int64 is exact
        if planes.total >= 1 << 63:
            raise GuardExceeded(f"{planes.total} planes overflow the direct strategy's int64 tally")
        x, y, z = np.array(list(points.entries), dtype=np.int64).reshape(-1, 3).T
        hits = np.zeros(len(x), dtype=np.int64)
        for (a, b, c, e), mult in planes.entries.items():
            hits[(a * x % p + b * y % p + c * z % p) % p == e] += mult
        # multiplicities may exceed int64, so weight them as Python ints
        return sum(h * mult for h, mult in zip(hits.tolist(), points.entries.values()))
    if strategy == "grouped":
        total = 0
        for (a, b, c), constants in planes.grouped().items():
            histogram: Counter = Counter()
            for (x, y, z), mult in points.entries.items():
                histogram[(a * x + b * y + c * z) % p] += mult
            for e, plane_mult in constants.items():
                total += histogram[e] * plane_mult
        return total
    raise ValueError(f"unknown strategy {strategy!r}")


def max_collinear(points: WeightedPointSet, force: bool = False) -> int:
    """Largest number of distinct points on a single line of F_p^3;
    multiplicities do not inflate the count."""
    pts = list(points.entries)
    n = len(pts)
    if n > COLLINEAR_GUARD and not force:
        raise GuardExceeded(f"|R| = {n} exceeds collinearity guard {COLLINEAR_GUARD}")
    if n <= 2:
        return n
    p = points.modulus.p
    P = np.array(pts, dtype=np.int64).reshape(n, 3)
    best = 2
    # A line is seen in full from its first point, so anchor i only looks at
    # the later points; anchor i can reach at most n - i points.
    for i in range(n - 2):
        if best >= n - i:
            break
        d = (P[i + 1:] - P[i]) % p
        x, y, z = d.T
        pivot = np.where(x != 0, x, np.where(y != 0, y, z))
        c = d * _inverse_mod(pivot, p)[:, None] % p
        # the canonical direction has leading coordinate 0 or 1, so its
        # base-p value stays below 2p^2 < 2^63
        keys = (c[:, 0] * p + c[:, 1]) * p + c[:, 2]
        local = 1 + int(np.unique(keys, return_counts=True)[1].max())
        if local > best:
            best = local
    return best


def _inverse_mod(x: np.ndarray, p: int) -> np.ndarray:
    """x^(p-2) mod p elementwise for x in [1, p); products stay below 2^62."""
    result = np.ones_like(x)
    e = p - 2
    while e:
        if e & 1:
            result = result * x % p
        e >>= 1
        if e:
            x = x * x % p
    return result


def max_collinear_vertical(points: WeightedPointSet) -> int:
    """Largest distinct-point count on a line in the Z direction."""
    columns: Counter = Counter()
    for (x, y, _z) in points.entries:
        columns[(x, y)] += 1
    return max(columns.values()) if columns else 0


@dataclass
class RudnevReport:
    """Exact incidence count beside the three incidence-bound terms.

    The bound's constant is implicit, so only the ratio count / term-sum is
    reported; nothing is asserted.
    """

    incidences: int
    n_points: int
    n_planes: int
    k: int
    term_main: float
    term_sqrt: float
    term_collinear: float
    ratio: float | None  # None when every term is 0
    swapped_roles: bool
    note: str


def rudnev_diagnostic(inst: IncidenceInstance) -> RudnevReport:
    """The incidence count, verified by verify_proof_instance, beside the bound terms."""
    count = verify_proof_instance(inst)
    p = inst.points.modulus.p
    n_r = inst.points.total
    n_s = inst.planes.total
    swapped = n_r > n_s
    r, s = (n_s, n_r) if swapped else (n_r, n_s)
    note = "roles swapped: |R| > |S|, bound applied to the transposed instance" if swapped else ""
    term_main = float(Fraction(r * s, p))
    term_sqrt = sqrt(r) * s
    term_collinear = inst.k * s
    denom = term_main + term_sqrt + term_collinear
    return RudnevReport(
        incidences=count,
        n_points=n_r,
        n_planes=n_s,
        k=inst.k,
        term_main=term_main,
        term_sqrt=term_sqrt,
        term_collinear=term_collinear,
        ratio=count / denom if denom else None,
        swapped_roles=swapped,
        note=note,
    )


def build_proof_instance(
    A: FieldSubset, d: int, pairs: list[tuple[int, int]] | None = None
) -> tuple[dict[int, FieldSubset], dict[tuple[int, int], IncidenceInstance]]:
    """The dyadic levels of the (d-1)-fold squared-difference spectrum, and
    for each level pair (i0, j0) the point/plane instance whose incidences
    equal the restricted two-level pair sum; pairs=None means every pair.

    Points: (-2a, e, t1 + a^2 - e^2) over a, e in A, t1 in level i0.
    Planes: b*X + 2c*Y + Z = t2 - b^2 + c^2 over b, c in A, t2 in level j0.
    The carried value is sum over (t1, t2) in the two levels of
    sum_s r(s - t1) * r(s - t2) with r the base squared-difference counts.
    Each level's points, their k and its planes are built once and shared,
    read-only, by every instance that uses that level.
    """
    if d < 2:
        raise ValueError(f"the decomposition needs d >= 2, got {d}")
    p = A.modulus.p
    base = diff_square_spectrum(A)
    level = dyadic_levels(fold(base, d - 1))
    if pairs is None:
        pairs = [(i0, j0) for i0 in level for j0 in level]
    missing = {i for pair in pairs for i in pair} - level.keys()
    if missing:
        raise ValueError(f"no dyadic level {min(missing)}; the levels are {list(level)}")

    elements = A.elements()
    points: dict[int, tuple[WeightedPointSet, int]] = {}
    for i0 in dict.fromkeys(i0 for i0, _ in pairs):
        point_entries: dict[tuple[int, ...], int] = {}
        for a in elements:
            for e in elements:
                shift = (a * a - e * e) % p
                for t1 in level[i0]:
                    key = (-2 * a % p, e, (t1 + shift) % p)
                    point_entries[key] = point_entries.get(key, 0) + 1
        level_points = WeightedPointSet(A.modulus, 3, point_entries)
        points[i0] = (level_points, max_collinear(level_points))

    planes: dict[int, PlaneSet] = {}
    for j0 in dict.fromkeys(j0 for _, j0 in pairs):
        plane_entries: dict[tuple[int, int, int, int], int] = {}
        for b in elements:
            for c in elements:
                const_shift = (c * c - b * b) % p
                for t2 in level[j0]:
                    key = (b, 2 * c % p, 1, (t2 + const_shift) % p)
                    plane_entries[key] = plane_entries.get(key, 0) + 1
        planes[j0] = PlaneSet(A.modulus, plane_entries)

    # Cross-correlation of the base counts: corr[delta] = sum_s r(s)*r(s-delta),
    # so the carried sum is sum over level pairs of corr[t1 - t2].
    reversed_counts = [base.counts[-t % p] for t in range(p)]
    corr = Spectrum(A.modulus, exact_cyclic(base.counts, reversed_counts))
    instances = {}
    for i0, j0 in pairs:
        expected = 0
        for t1 in level[i0]:
            for t2 in level[j0]:
                expected += corr[(t1 - t2) % p]
        level_points, k = points[i0]
        instances[(i0, j0)] = IncidenceInstance(
            points=level_points, planes=planes[j0], k=k, expected_incidences=expected
        )
    return level, instances


def verify_proof_instance(inst: IncidenceInstance) -> int:
    """Count incidences both ways and require equality with the carried sum."""
    grouped = count_incidences(inst.points, inst.planes, strategy="grouped")
    direct = count_incidences(inst.points, inst.planes, strategy="direct")
    if grouped != direct:
        raise InvariantViolation(
            f"incidence strategies disagree: grouped {grouped} vs direct {direct}"
        )
    if inst.expected_incidences is not None and grouped != inst.expected_incidences:
        raise InvariantViolation(
            f"incidence count {grouped} != carried pair sum {inst.expected_incidences}"
        )
    return grouped


# -- instance dump ----------------------------------------------------------
#
# Text sections POINTS / PLANES, one tuple per line; the trailing field is
# the multiplicity.


def format_instance(inst: IncidenceInstance) -> str:
    lines = [f"p={inst.points.modulus.p}", "POINTS"]
    for pt in sorted(inst.points.entries):
        lines.append(",".join(str(c) for c in pt) + f",{inst.points.entries[pt]}")
    lines.append("PLANES")
    for plane, mult in sorted(inst.planes.entries.items()):
        lines.append(",".join(str(c) for c in plane) + f",{mult}")
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> tuple[WeightedPointSet, PlaneSet]:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("p="):
        raise ParseError("instance dump must start with 'p=<prime>'")
    modulus = PrimeModulus(int(lines[0][2:]))
    section = None
    point_entries: dict[tuple[int, ...], int] = {}
    plane_entries: dict[tuple[int, ...], int] = {}
    plane_total = 0
    for ln in lines[1:]:
        if ln == "POINTS":
            section = "points"
            continue
        if ln == "PLANES":
            section = "planes"
            continue
        try:
            parts = [int(c) for c in ln.split(",")]
        except ValueError:
            raise ParseError(f"malformed instance row {ln!r}") from None
        if section == "points":
            if len(parts) != 4:
                raise ParseError(f"point row needs x,y,z,mult: {ln!r}")
            if parts[3] < 1:
                raise ParseError(f"point multiplicity must be >= 1: {ln!r}")
            key = tuple(parts[:3])
            point_entries[key] = point_entries.get(key, 0) + parts[3]
        elif section == "planes":
            if len(parts) != 5:
                raise ParseError(f"plane row needs a,b,c,e,mult: {ln!r}")
            if parts[4] < 1:
                raise ParseError(f"plane multiplicity must be >= 1: {ln!r}")
            plane_total += parts[4]
            if plane_total > INSTANCE_PLANE_LIMIT:
                raise GuardExceeded(f"instance dump holds over {INSTANCE_PLANE_LIMIT} planes (hard limit)")
            key = tuple(parts[:4])
            plane_entries[key] = plane_entries.get(key, 0) + parts[4]
        else:
            raise ParseError(f"row outside POINTS/PLANES sections: {ln!r}")
    if not point_entries or not plane_entries:
        raise ParseError("instance dump needs both POINTS and PLANES rows")
    return WeightedPointSet(modulus, 3, point_entries), PlaneSet(modulus, plane_entries)
