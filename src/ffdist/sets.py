"""Subsets of F_p and point multisets of F_p^d (a point set has unit multiplicities):
parsing, construction, seeded sampling, and the one exact bilinear pair counter."""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .convolution import _within_engine
from .errors import ParseError
from .field import PrimeModulus
from .rng import SplitMix64, derive_seed, sample_distinct


class FieldSubset:
    """A subset of F_p, stored as the sorted tuple of its canonical residues."""

    __slots__ = ("modulus", "_elements")

    def __init__(self, modulus: PrimeModulus, elements: Iterable[int]):
        p = modulus.p
        self.modulus = modulus
        self._elements: tuple[int, ...] = tuple(sorted({x % p for x in elements}))

    @classmethod
    def full(cls, modulus: PrimeModulus) -> "FieldSubset":
        return cls(modulus, range(modulus.p))

    def __len__(self) -> int:
        return len(self._elements)

    def __contains__(self, x: int) -> bool:
        x %= self.modulus.p
        i = bisect_left(self._elements, x)
        return i < len(self._elements) and self._elements[i] == x

    def __iter__(self) -> Iterator[int]:
        return iter(self._elements)

    def elements(self) -> list[int]:
        return list(self._elements)

    def indicator(self) -> list[int]:
        """The length-p 0/1 list with a 1 at each element."""
        ind = [0] * self.modulus.p
        for x in self:
            ind[x] = 1
        return ind

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldSubset)
            and other.modulus == self.modulus
            and other._elements == self._elements
        )

    def __hash__(self) -> int:
        return hash((self.modulus.p, self._elements))

    def __repr__(self) -> str:
        return f"FieldSubset(p={self.modulus.p}, {{{self.serialize()}}})"

    def difference(self, other: "FieldSubset") -> "FieldSubset":
        self._check_same(other)
        return FieldSubset(self.modulus, set(self._elements).difference(other._elements))

    def dilate(self, c: int) -> "FieldSubset":
        """The dilated set c * A; requires c != 0."""
        if c % self.modulus.p == 0:
            raise ValueError("dilation by 0 collapses the set")
        return FieldSubset(self.modulus, (c * x for x in self))

    def serialize(self) -> str:
        """Comma-separated canonical elements; parse_subset inverts this."""
        return ",".join(map(str, self))

    def _check_same(self, other: "FieldSubset") -> None:
        if other.modulus != self.modulus:
            raise ValueError("mixed moduli")


class WeightedPointSet:
    """A multiset of points in F_p^d with exact multiplicities; a point set
    is the special case with every multiplicity 1.  The constructor takes a
    mapping or (point, multiplicity) pairs; it is the one place where points
    reduce mod p and the multiplicities of equal points add up."""

    __slots__ = ("modulus", "dim", "entries", "total")

    def __init__(self, modulus: PrimeModulus, dim: int,
                 entries: Mapping[tuple[int, ...], int] | Iterable[tuple[Sequence[int], int]]):
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        p = modulus.p
        canonical: dict[tuple[int, ...], int] = {}
        for pt, mult in entries.items() if isinstance(entries, Mapping) else entries:
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
    def of_points(cls, modulus: PrimeModulus, dim: int, points: Iterable[Sequence[int]]) -> "WeightedPointSet":
        """The distinct points, each with multiplicity 1; points equal mod p
        count once."""
        return cls(modulus, dim, dict.fromkeys((tuple(c % modulus.p for c in pt) for pt in points), 1))

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
            raise ParseError("multiset CSV needs a 'p=<p> d=<d>' line, then the column header")
        head = lines[0].split()
        try:
            fields = dict(part.split("=", 1) for part in head)
            modulus = PrimeModulus(int(fields["p"]))
            dim = int(fields["d"])
        except (ValueError, KeyError):
            raise ParseError(f"bad multiset header {lines[0]!r}") from None
        if dim < 1:
            raise ParseError(f"multiset dimension must be >= 1, got d={dim}")
        columns = cls(modulus, dim, ()).to_csv().splitlines()[1]  # the header to_csv writes
        if lines[1] != columns:
            raise ParseError(f"multiset CSV line 2 must be {columns!r}, got {lines[1]!r}")
        pairs = []
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
            pairs.append((pt, mult))
        return cls(modulus, dim, pairs)


# -- the bilinear pair counter ---------------------------------------------------
#
# Multiplicities may exceed int64, so both sides are split into b-bit limbs.
# For each distinct e, np.bincount tallies F's limb weights by the value of
# the form; it sums in float64, exact while |F| * 2^b < 2^53.  Each tally
# times an E limb is added into an int64 accumulator, one per limb pair,
# exact while |E| * |F| * 2^(2b) < 2^63.  Python ints form only at the end.

# elements in one block's (rows of E) x F and (rows of E) x F_p arrays; at
# 2^16 they stay in cache, and 2^21 ran twice as slow
_BLOCK = 1 << 16


def _limb_bits(n_e: int, n_f: int) -> int:
    """The widest limb b with n_f * 2^b < 2^53 and n_e * n_f * 2^(2b) < 2^63."""
    return min(53 - n_f.bit_length(), (63 - (n_e * n_f).bit_length()) // 2)


def _limbs(mults: list[int], b: int) -> np.ndarray:
    """Row j holds bits [b*j, b*(j+1)) of each multiplicity; at least one row."""
    mask, top = (1 << b) - 1, max(mults, default=1).bit_length()
    return np.array([[m >> s & mask for m in mults] for s in range(0, top, b)], dtype=np.int64)


def bilinear_counts(E: WeightedPointSet, F: WeightedPointSet) -> list[int]:
    """out[lam] = sum of m_E(e) * m_F(f) over the pairs with
    sum_{i<D} e_i*f_i + e_D + f_D = lam (mod p), where D = dim - 1.

    E and F share the modulus and the dimension.  E is taken in blocks of
    rows, so no |E| x |F| array is ever formed.
    """
    p, D = _within_engine(E.modulus), E.dim - 1
    e_pts = np.array(list(E.entries), dtype=np.int64).reshape(len(E), E.dim)
    f_pts = np.array(list(F.entries), dtype=np.int64).reshape(len(F), F.dim)
    b = _limb_bits(len(E), len(F))
    e_limbs = _limbs(list(E.entries.values()), b)
    f_limbs = _limbs(list(F.entries.values()), b).astype(np.float64)
    acc = np.zeros((len(e_limbs), len(f_limbs), p), dtype=np.int64)
    rows = max(1, _BLOCK // max(len(F), p))
    for lo in range(0, len(E), rows):
        e = e_pts[lo:lo + rows]
        n = len(e)
        # every product of two residues is below 2^62; reduce each before summing
        v = e[:, D, None] + f_pts[None, :, D]
        for i in range(D):
            v += e[:, i, None] * f_pts[None, :, i] % p
        # row r tallies into slots [r*p, (r+1)*p)
        v = (v % p + p * np.arange(n, dtype=np.int64)[:, None]).ravel()
        for k, weights in enumerate(f_limbs):
            tally = np.bincount(v, weights=np.tile(weights, n), minlength=n * p)
            acc[:, k] += e_limbs[:, lo:lo + rows] @ tally.astype(np.int64).reshape(n, p)
    j, k = np.indices(acc.shape[:2])
    return (acc.astype(object) << (b * (j + k)).astype(object)[..., None]).sum(axis=(0, 1)).tolist()


def parse_subset(text: str, modulus: PrimeModulus) -> FieldSubset:
    """Parse "0,1,3" or range syntax "0..4" (tokens may mix); values reduce mod p.

    Malformed tokens and empty input raise ParseError naming the position.
    """
    if text is None or text.strip() == "":
        raise ParseError("empty set description")
    elements: list[int] = []
    p = modulus.p
    for pos, raw in enumerate(text.split(","), start=1):
        token = raw.strip()
        if token == "":
            raise ParseError(f"empty token at position {pos}")
        if ".." in token:
            lo_text, _, hi_text = token.partition("..")
            try:
                lo, hi = int(lo_text), int(hi_text)
            except ValueError:
                raise ParseError(f"malformed range {token!r} at position {pos}") from None
            if lo > hi:
                raise ParseError(f"descending range {token!r} at position {pos}")
            # p consecutive integers already cover every residue.
            elements.extend(range(lo, min(hi, lo + p - 1) + 1))
        else:
            try:
                elements.append(int(token))
            except ValueError:
                raise ParseError(f"malformed element {token!r} at position {pos}") from None
    return FieldSubset(modulus, elements)


def random_subset(modulus: PrimeModulus, n: int, seed: int) -> FieldSubset:
    """Uniform n-subset of F_p; identical (p, n, seed) replays identically."""
    p = modulus.p
    if not 1 <= n <= p:
        raise ValueError(f"subset size must satisfy 1 <= n <= {p}, got {n}")
    rng = SplitMix64(derive_seed("subset", p, n, seed))
    return FieldSubset(modulus, sample_distinct(rng, p, n))


def random_pointset(modulus: PrimeModulus, dim: int, n: int, seed: int) -> WeightedPointSet:
    """Uniform n-subset of F_p^d, unit multiplicities; requires p**d to fit in 64 bits."""
    p = modulus.p
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    universe = p**dim
    if universe >= 1 << 63:
        raise ValueError(f"p**d = {universe} does not fit in 64 bits")
    if not 1 <= n <= universe:
        raise ValueError(f"point count must satisfy 1 <= n <= {universe}, got {n}")
    rng = SplitMix64(derive_seed("pointset", p, dim, n, seed))
    # the base-p digits of each index, most significant first
    indices = np.array(sample_distinct(rng, universe, n), dtype=np.int64)
    points = indices[:, None] // p ** np.arange(dim - 1, -1, -1, dtype=np.int64) % p
    return WeightedPointSet.of_points(modulus, dim, points.tolist())


def isotropic_line(modulus: PrimeModulus) -> WeightedPointSet:
    """The p points (x, i*x) with i*i = -1; every pairwise distance is 0.

    Only exists when p = 1 (mod 4).
    """
    p = _within_engine(modulus)
    i = modulus.sqrt_of_minus_one()
    if i is None:
        raise ValueError(f"p = {p} = 3 (mod 4): no square root of -1 exists")
    return WeightedPointSet.of_points(modulus, 2, ((x, i * x) for x in range(p)))


# -- set file format -----------------------------------------------------
#
# UTF-8 text.  First line: "p=<prime> d=<dim>".  Then one element (d=1) or
# one comma-separated tuple (d>=2) per line; a tuple file reads as a
# multiset with unit multiplicities.


def format_set_file(obj: Union[FieldSubset, WeightedPointSet]) -> str:
    if isinstance(obj, FieldSubset):
        lines = [f"p={obj.modulus.p} d=1"]
        lines.extend(str(x) for x in obj)
    else:
        if obj.total != len(obj):
            raise ValueError("a set file holds distinct points: multiplicities above 1 do not fit")
        lines = [f"p={obj.modulus.p} d={obj.dim}"]
        lines.extend(",".join(str(c) for c in pt) for pt in sorted(obj.entries))
    return "\n".join(lines) + "\n"


def parse_set_file(text: str) -> Union[FieldSubset, WeightedPointSet]:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty set file")
    header = lines[0].split()
    try:
        fields = dict(part.split("=", 1) for part in header)
        p = int(fields["p"])
        d = int(fields["d"])
    except (ValueError, KeyError):
        raise ParseError(f"bad header {lines[0]!r}: expected 'p=<prime> d=<dim>'") from None
    modulus = PrimeModulus(p)
    if d == 1:
        elements = []
        for lineno, ln in enumerate(lines[1:], start=2):
            try:
                elements.append(int(ln))
            except ValueError:
                raise ParseError(f"line {lineno}: malformed element {ln!r}") from None
        if not elements:
            raise ParseError("set file lists no elements")
        return FieldSubset(modulus, elements)
    points = []
    for lineno, ln in enumerate(lines[1:], start=2):
        parts = ln.split(",")
        if len(parts) != d:
            raise ParseError(f"line {lineno}: expected {d} coordinates, got {len(parts)}")
        try:
            points.append(tuple(int(c) for c in parts))
        except ValueError:
            raise ParseError(f"line {lineno}: malformed tuple {ln!r}") from None
    if not points:
        raise ParseError("set file lists no points")
    return WeightedPointSet.of_points(modulus, d, points)


def read_set_file(path) -> Union[FieldSubset, WeightedPointSet]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_set_file(fh.read())
