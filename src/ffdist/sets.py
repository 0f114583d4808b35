"""Subsets of F_p and point sets in F_p^d: parsing, construction, seeded sampling."""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator, Sequence, Union

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


class PointSet:
    """Distinct points of F_p^d with canonical coordinates, kept sorted."""

    __slots__ = ("modulus", "dim", "points")

    def __init__(self, modulus: PrimeModulus, dim: int, points: Iterable[Sequence[int]]):
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        p = modulus.p
        canonical = {tuple(c % p for c in pt) for pt in points}
        for pt in canonical:
            if len(pt) != dim:
                raise ValueError(f"point {pt} does not have {dim} coordinates")
        self.modulus = modulus
        self.dim = dim
        self.points: tuple[tuple[int, ...], ...] = tuple(sorted(canonical))

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.points)

    def __contains__(self, pt) -> bool:
        p = self.modulus.p
        return tuple(c % p for c in pt) in set(self.points)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PointSet)
            and other.modulus == self.modulus
            and other.dim == self.dim
            and other.points == self.points
        )

    def __repr__(self) -> str:
        return f"PointSet(p={self.modulus.p}, dim={self.dim}, n={len(self)})"


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


def random_pointset(modulus: PrimeModulus, dim: int, n: int, seed: int) -> PointSet:
    """Uniform n-subset of F_p^d; requires p**d to fit in 64 bits."""
    p = modulus.p
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    universe = p**dim
    if universe >= 1 << 63:
        raise ValueError(f"p**d = {universe} does not fit in 64 bits")
    if not 1 <= n <= universe:
        raise ValueError(f"point count must satisfy 1 <= n <= {universe}, got {n}")
    rng = SplitMix64(derive_seed("pointset", p, dim, n, seed))
    indices = sample_distinct(rng, universe, n)
    points = []
    for idx in indices:
        coords = []
        for _ in range(dim):
            coords.append(idx % p)
            idx //= p
        points.append(tuple(reversed(coords)))
    return PointSet(modulus, dim, points)


def isotropic_line(modulus: PrimeModulus) -> PointSet:
    """The p points (x, i*x) with i*i = -1; every pairwise distance is 0.

    Only exists when p = 1 (mod 4).
    """
    i = modulus.sqrt_of_minus_one()
    if i is None:
        raise ValueError(f"p = {modulus.p} = 3 (mod 4): no square root of -1 exists")
    p = modulus.p
    return PointSet(modulus, 2, [(x, i * x % p) for x in range(p)])


# -- set file format -----------------------------------------------------
#
# UTF-8 text.  First line: "p=<prime> d=<dim>".  Then one element (d=1) or
# one comma-separated tuple (d>=2) per line.


def format_set_file(obj: Union[FieldSubset, PointSet]) -> str:
    if isinstance(obj, FieldSubset):
        lines = [f"p={obj.modulus.p} d=1"]
        lines.extend(str(x) for x in obj)
    else:
        lines = [f"p={obj.modulus.p} d={obj.dim}"]
        lines.extend(",".join(str(c) for c in pt) for pt in obj)
    return "\n".join(lines) + "\n"


def parse_set_file(text: str) -> Union[FieldSubset, PointSet]:
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
    return PointSet(modulus, d, points)


def read_set_file(path) -> Union[FieldSubset, PointSet]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_set_file(fh.read())
