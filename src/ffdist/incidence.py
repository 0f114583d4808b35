"""Point-plane incidences in F_p^3: exact counting by two strategies,
collinearity analysis, the incidence-bound diagnostic, and the explicit
point/plane instance arising from the dyadic energy decomposition.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product
from math import sqrt

import numpy as np

from .convolution import exact_cyclic
from .energy import dyadic_levels, report_float
from .errors import GuardExceeded, InvariantViolation
from .field import PrimeModulus
from .sets import FieldSubset, WeightedPointSet, _limbs, _Lines, _text
from .spectra import Spectrum, diff_square_spectrum, fold

COLLINEAR_GUARD = 5000
# elements per block of the incidence kernels: about 0.5 MB of temporaries
_BLOCK = 1 << 13
# on planes.total of a parsed dump, so the direct strategy's int64 tally
# stays far below 2^63
INSTANCE_PLANE_LIMIT = 1_000_000


class PlaneSet:
    """A multiset of affine planes a*X + b*Y + c*Z = e in F_p^3 with exact
    multiplicities, keyed (a, b, c, e); entries as for WeightedPointSet."""

    __slots__ = ("modulus", "entries", "total")

    def __init__(self, modulus: PrimeModulus, entries) -> None:
        planes = WeightedPointSet(modulus, 4, entries)
        if any(plane[:3] == (0, 0, 0) for plane in planes.entries):
            raise ValueError("plane with zero normal vector")
        self.modulus, self.entries, self.total = modulus, planes.entries, planes.total

    def __len__(self) -> int:
        return len(self.entries)


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

    strategy "direct" tests blocks of distinct planes against the whole
    point array and weights each by its multiplicity; "grouped" evaluates
    each distinct normal once on all points and joins the values to the
    plane constants.  Both are exact and must agree.
    """
    if points.modulus != planes.modulus:
        raise ValueError("mixed moduli")
    if points.dim != 3:
        raise ValueError("incidence points live in F_p^3")
    p = points.modulus.p
    x, y, z = np.array(list(points.entries), dtype=np.int64).reshape(-1, 3).T
    rows = max(1, _BLOCK // max(len(x), 1))
    if strategy == "direct":
        # hits[i] = number of planes through point i, at most planes.total;
        # a sum of two products of residues is below 2p^2 < 2^63, so int64 is exact
        if planes.total >= 1 << 63:
            raise GuardExceeded(f"{planes.total} planes overflow the direct strategy's int64 tally")
        a, b, c, e = np.array(list(planes.entries), dtype=np.int64).reshape(-1, 4).T
        mult = np.array(list(planes.entries.values()), dtype=np.int64)
        hits = np.zeros(len(x), dtype=np.int64)
        for lo in range(0, len(a), rows):
            s = slice(lo, lo + rows)
            on = ((a[s, None] * x + b[s, None] * y) % p + c[s, None] * z) % p == e[s, None]
            hits += mult[s] @ on
        # multiplicities may exceed int64, so weight them as Python ints
        return sum(h * m for h, m in zip(hits.tolist(), points.entries.values()))
    if strategy == "grouped":
        planes_arr = np.array(list(planes.entries), dtype=np.int64).reshape(-1, 4)
        normals, which = np.unique(planes_arr[:, :3], axis=0, return_inverse=True)
        # join key normal index * p + constant, below len(planes) * 2^31 < 2^63
        keys = which.reshape(-1) * p + planes_arr[:, 3]
        order = np.argsort(keys)
        keys = keys[order]
        # b-bit limbs of the point multiplicities: a plane meets each point at
        # most once, so every float64 tally stays below |points| * 2^b < 2^53
        bits = 53 - len(x).bit_length()
        limbs = _limbs(list(points.entries.values()), bits)
        tally = np.zeros((len(limbs), len(keys)))
        for lo in range(0, len(normals), rows):
            u, v, w = normals[lo:lo + rows].T[:, :, None]
            values = (u * x % p + v * y % p + w * z % p) % p
            values += np.arange(lo, lo + len(u), dtype=np.int64)[:, None] * p
            at = np.searchsorted(keys, values)
            found = keys.take(at, mode="clip") == values
            plane, point = order[at[found]], np.nonzero(found)[1]
            for row, weights in zip(tally, limbs):
                row += np.bincount(plane, weights=weights[point], minlength=len(keys))
        per_plane = sum(row.astype(np.int64).astype(object) << bits * j for j, row in enumerate(tally))
        return sum(h * m for h, m in zip(per_plane.tolist(), planes.entries.values()))
    raise ValueError(f"unknown strategy {strategy!r}")


def max_collinear(points: WeightedPointSet, force: bool = False) -> int:
    """Largest number of distinct points on a single line of F_p^3;
    multiplicities do not inflate the count."""
    if points.dim != 3:
        raise ValueError("incidence points live in F_p^3")
    pts = list(points.entries)
    n = len(pts)
    if n > COLLINEAR_GUARD and not force:
        raise GuardExceeded(f"|R| = {n} exceeds collinearity guard {COLLINEAR_GUARD}")
    if n <= 2:
        return n
    p = points.modulus.p
    coords = np.array(pts, dtype=np.int64).reshape(n, 3).T
    best, lo = 2, 0
    # A line is seen in full from its first point, so anchor i only looks at
    # the later points; anchor i can reach at most n - i points.  Anchors
    # lo..hi-1 form one block against the points lo+1..n-1.
    while lo < n - 2 and best < n - lo:
        hi = min(n - 2, lo + max(1, _BLOCK // (n - lo)))
        x, y, z = (coords[:, None, lo + 1:] - coords[:, lo:hi, None]) % p
        pivot = np.where(x != 0, x, np.where(y != 0, y, z))
        pivot[pivot == 0] = 1  # the anchor's own difference; no zero may enter the tree
        inverse = _inverse_mod(pivot.ravel(), p).reshape(x.shape)
        # the canonical direction has leading coordinate 0 or 1 (1 exactly
        # when x is the pivot), so its base-p value stays below 2p^2 < 2^63
        keys = ((x != 0) * p + y * inverse % p) * p + z * inverse % p
        # anchor lo + r also sees the block's earlier points and itself; each
        # lies on the line it spans with the anchor, and the anchor's own key
        # is 0, which no direction has, so no run outgrows a line
        keys.sort(axis=1)
        starts = np.ones(keys.shape, dtype=bool)
        starts[:, 1:] = keys[:, 1:] != keys[:, :-1]
        best = max(best, 1 + int(np.diff(np.flatnonzero(starts), append=keys.size).max()))
        lo = hi
        del x, y, z, pivot, inverse, keys, starts  # freed before the next block allocates
    return best


def _inverse_mod(x: np.ndarray, p: int) -> np.ndarray:
    """Inverses mod p of a flat array x in [1, p) by Montgomery's trick: the
    inverse of each pair's product, times the partner, is each inverse.  About
    three products of two residues (below 2^62) per element, whatever p is."""
    n = len(x)
    if n <= 1:
        return np.array([pow(v, -1, p) for v in x.tolist()], dtype=np.int64)
    x = np.append(x, 1) if n % 2 else x
    even, odd = x[0::2], x[1::2]
    inverse = _inverse_mod(even * odd % p, p)
    return np.stack([inverse * odd % p, inverse * even % p], axis=1).ravel()[:n]


def max_collinear_vertical(points: WeightedPointSet) -> int:
    """Largest distinct-point count on a line in the Z direction."""
    if points.dim != 3:
        raise ValueError("incidence points live in F_p^3")
    return max(Counter(pt[:2] for pt in points.entries).values(), default=0)


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
    term_main: float | None  # None past the double range, as is term_sqrt
    term_sqrt: float | None
    term_collinear: int
    ratio: float | None  # None when every term is 0 or one is None
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
    term_main = report_float(lambda: r * s / p)
    term_sqrt = report_float(lambda: sqrt(r) * s)
    term_collinear = inst.k * s
    denom = None if None in (term_main, term_sqrt) else report_float(lambda: term_main + term_sqrt + term_collinear)
    return RudnevReport(
        incidences=count,
        n_points=n_r,
        n_planes=n_s,
        k=inst.k,
        term_main=term_main,
        term_sqrt=term_sqrt,
        term_collinear=term_collinear,
        ratio=report_float(lambda: count / denom) if denom else None,
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
    base = diff_square_spectrum(A)
    level = dyadic_levels(fold(base, d - 1))
    if pairs is None:
        pairs = [(i0, j0) for i0 in level for j0 in level]
    missing = {i for pair in pairs for i in pair} - level.keys()
    if missing:
        raise ValueError(f"no dyadic level {min(missing)}; the levels are {list(level)}")

    grid = [(x, y, x * x - y * y) for x, y in product(A.elements(), repeat=2)]
    points = {}
    collinear = {}
    for i0 in dict.fromkeys(i0 for i0, _ in pairs):
        points[i0] = WeightedPointSet(A.modulus, 3, [((-2 * a, e, t1 + q), 1) for a, e, q in grid for t1 in level[i0]])
        # k before the next level's points: building every level first raised peak RSS by 0.3 MB
        collinear[i0] = max_collinear(points[i0])
    planes = {
        j0: PlaneSet(A.modulus, [((b, 2 * c, 1, t2 - q), 1) for b, c, q in grid for t2 in level[j0]])
        for j0 in dict.fromkeys(j0 for _, j0 in pairs)
    }

    # Cross-correlation of the base counts: corr[delta] = sum_s r(s)*r(s-delta),
    # so the carried sum is sum over level pairs of corr[t1 - t2] (t1 - t2 mod p).
    r = base.counts
    corr = Spectrum(A.modulus, exact_cyclic(r, r[:1] + r[:0:-1]))
    instances = {}
    for i0, j0 in pairs:
        expected = sum(corr[t1 - t2] for t1 in level[i0] for t2 in level[j0])
        instances[(i0, j0)] = IncidenceInstance(
            points=points[i0], planes=planes[j0], k=collinear[i0], expected_incidences=expected
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
    points = ((*pt, m) for pt, m in sorted(inst.points.entries.items()))
    planes = ((*plane, m) for plane, m in sorted(inst.planes.entries.items()))
    return _text([f"p={inst.points.modulus.p}", "POINTS"], points) + _text(["PLANES"], planes)


def parse_instance(text: str) -> tuple[WeightedPointSet, PlaneSet]:
    lines = _Lines(text, "instance dump", ("p",))
    rows, p = lines.lines, lines.modulus.p
    lines.refuse(1, [rows[1:2] != ["POINTS"]], "expected a POINTS section, then a PLANES section")
    j = rows.index("PLANES") if "PLANES" in rows else len(rows)
    points, planes = lines.pairs(2, j, 3, "point"), lines.pairs(j + 1, None, 4, "plane")
    lines.refuse(j + 1, (not any(c % p for c in plane[:3]) for plane, _ in planes), "plane with zero normal vector")
    if sum(mult for _, mult in planes) > INSTANCE_PLANE_LIMIT:
        raise GuardExceeded(f"instance dump holds over {INSTANCE_PLANE_LIMIT} planes (hard limit)")
    lines.refuse(len(rows), [not points or not planes], "instance dump needs both POINTS and PLANES rows")
    return WeightedPointSet(lines.modulus, 3, points), PlaneSet(lines.modulus, planes)
