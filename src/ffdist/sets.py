"""Subsets of F_p and point multisets of F_p^d (a point set has unit multiplicities):
parsing, construction, seeded sampling, and the one exact bilinear pair counter."""

from __future__ import annotations

import reprlib
import sys
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
    def _of_sorted(cls, modulus: PrimeModulus, elements: list[int]) -> "FieldSubset":
        """The subset of elements that are already distinct, sorted and in [0, p)."""
        subset = cls.__new__(cls)
        subset.modulus, subset._elements = modulus, tuple(elements)
        return subset

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
        if other.modulus != self.modulus:
            raise ValueError("mixed moduli")
        return FieldSubset(self.modulus, set(self._elements).difference(other._elements))

    def dilate(self, c: int) -> "FieldSubset":
        """The dilated set c * A; requires c != 0."""
        if c % self.modulus.p == 0:
            raise ValueError("dilation by 0 collapses the set")
        return FieldSubset(self.modulus, (c * x for x in self))

    def serialize(self) -> str:
        """Comma-separated canonical elements; parse_subset inverts this."""
        return ",".join(map(str, self))


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
        columns = ",".join(f"x{i+1}" for i in range(self.dim)) + ",multiplicity"
        rows = ((*pt, m) for pt, m in sorted(self.entries.items()))
        return _text([f"p={self.modulus.p} d={self.dim}", columns], rows)

    @classmethod
    def from_csv(cls, text: str) -> "WeightedPointSet":
        lines = _Lines(text, "multiset CSV", ("p", "d"))
        columns = cls(lines.modulus, lines.dim, ()).to_csv().splitlines()[1]  # the header to_csv writes
        lines.refuse(1, [lines.lines[1:2] != [columns]],
                     f"multiset CSV needs a 'p=<p> d=<d>' line, then the column header {columns!r}")
        return cls(lines.modulus, lines.dim, lines.pairs(2, None, lines.dim, "multiset"))


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
    return FieldSubset._of_sorted(modulus, sample_distinct(rng, p, n))


def random_pointset(modulus: PrimeModulus, dim: int, n: int, seed: int) -> WeightedPointSet:
    """Uniform n-subset of F_p^d, unit multiplicities; requires p**d below 2**63."""
    p = modulus.p
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    universe = p**dim
    if universe >= 1 << 63:
        raise ValueError(f"p**d = {universe} is not below 2**63")
    if not 1 <= n <= universe:
        raise ValueError(f"point count must satisfy 1 <= n <= {universe}, got {n}")
    rng = SplitMix64(derive_seed("pointset", p, dim, n, seed))
    # the base-p digits of each index, most significant first
    indices = np.array(sample_distinct(rng, universe, n), dtype=np.int64)
    points = indices[:, None] // p ** np.arange(dim - 1, -1, -1, dtype=np.int64) % p
    return WeightedPointSet.of_points(modulus, dim, points.tolist())


def random_multiset(rng: SplitMix64, modulus: PrimeModulus, dim: int,
                    max_points: int, max_mult: int) -> WeightedPointSet:
    """1..max_points points of F_p^dim, each of multiplicity 1..max_mult, drawn
    from rng: the count, then each point's coordinates and its multiplicity."""
    count = 1 + rng.randbelow(max_points)
    pairs = ((tuple(rng.randbelow(modulus.p) for _ in range(dim)), 1 + rng.randbelow(max_mult)) for _ in range(count))
    return WeightedPointSet(modulus, dim, pairs)


def isotropic_line(modulus: PrimeModulus) -> WeightedPointSet:
    """The p points (x, i*x) with i*i = -1; every pairwise distance is 0.

    Only exists when p = 1 (mod 4).
    """
    p = _within_engine(modulus)
    i = modulus.sqrt_of_minus_one()
    if i is None:
        raise ValueError(f"p = {p} = 3 (mod 4): no square root of -1 exists")
    return WeightedPointSet.of_points(modulus, 2, ((x, i * x) for x in range(p)))


# -- text formats ------------------------------------------------------------
#
# Set files, multiset and spectrum CSVs and instance dumps share one writer
# and one reader: blank lines are dropped, the first line holds `key=value`
# fields, and the later lines are rows of comma-separated decimal ints.  Every
# malformed file is a ParseError that names its line.


def _text(head: list[str], rows: Iterable[Iterable[object]]) -> str:
    """The head lines, then one comma-separated row per line."""
    return "\n".join([*head, *(",".join(map(str, row)) for row in rows)]) + "\n"


class _Lines:
    """The stripped non-blank lines of a text file.  The first line's fields
    `keys` give a checked modulus and, with key "d", a dimension >= 1.  Each
    ParseError names the file's own line and echoes at most ~30 characters."""

    def __init__(self, text: str, what: str, keys: tuple[str, ...]):
        self.text = text
        self.lines = [line for line in map(str.strip, text.splitlines()) if line]
        pairs = [part.split("=", 1) for part in self.lines[0].split()] if self.lines else []
        if sorted(pair[0] for pair in pairs) != sorted(keys) or min(map(len, pairs)) < 2:
            raise self.error(0, f"{what} must start with {' '.join(f'{k}=<{k}>' for k in keys)!r}")
        p, *dim = self._fields(0, [dict(pairs)[key] for key in keys], len(keys), "header")
        try:
            self.modulus = PrimeModulus(p)
        except ValueError as exc:
            raise self.error(0, f"bad modulus: {exc}") from None
        self.dim = dim[0] if dim else None
        self.refuse(0, [d < 1 for d in dim], f"dimension must be >= 1, got d={self.dim}")

    def error(self, i: int, message: str) -> ParseError:
        """A ParseError naming the file line of non-blank line i (i = len(lines): the end)."""
        numbers = [n for n, line in enumerate(self.text.splitlines() + ["end"], start=1) if line.strip()]
        where = reprlib.repr(self.lines[i]) if i < len(self.lines) else "(end of file)"
        return ParseError(f"line {numbers[i]} {where}: {message}")

    def refuse(self, lo: int, faults: Iterable[bool], message: str) -> None:
        """Raise a ParseError naming line lo + k for the first true faults[k], if any."""
        k = next((k for k, fault in enumerate(faults) if fault), None)
        if k is not None:
            raise self.error(lo + k, message)

    def _fields(self, i: int, fields: list[str], width: int, name: str) -> list[int]:
        """The ints of line i's `width` fields."""
        self.refuse(i, [len(fields) != width], f"malformed {name}: {len(fields)} fields, not {width}")
        for field in fields:
            try:
                int(field)
            except ValueError:
                digits = field.strip()
                digits = digits[1:] if digits.startswith(("+", "-")) else digits
                # int() refuses plain digits only past CPython's int-string limit
                why = (f"{len(digits)} digits, past CPython's int-string limit of {sys.get_int_max_str_digits()}"
                       if digits.isdecimal() else "not a decimal int")
                raise self.error(i, f"malformed {name}: {reprlib.repr(field)} is {why}") from None
        return list(map(int, fields))

    def ints(self, lo: int, hi: int | None, width: int, name: str) -> list[int]:
        """The fields of lines [lo, hi), rows of `width` ints each, in one list."""
        rows = self.lines[lo:hi]
        try:
            # int() refuses a comma, so only rows of several fields need their commas counted
            if width == 1 or {row.count(",") for row in rows} <= {width - 1}:
                return list(map(int, rows if width == 1 else ",".join(rows).split(",")))
        except ValueError:
            pass
        # some line is at fault: read line by line to name it
        return [x for i, row in enumerate(rows, start=lo) for x in self._fields(i, row.split(","), width, name)]

    def pairs(self, lo: int, hi: int | None, dim: int, noun: str) -> list[tuple[tuple[int, ...], int]]:
        """Lines [lo, hi) as (point, multiplicity) rows, multiplicities >= 1."""
        rows = list(zip(*[iter(self.ints(lo, hi, dim + 1, f"{noun} row"))] * (dim + 1)))
        self.refuse(lo, (row[-1] < 1 for row in rows), f"{noun} multiplicity must be >= 1")
        return [(row[:-1], row[-1]) for row in rows]


def format_set_file(obj: Union[FieldSubset, WeightedPointSet]) -> str:
    if isinstance(obj, FieldSubset):
        return _text([f"p={obj.modulus.p} d=1"], ((x,) for x in obj))
    if obj.total != len(obj):
        raise ValueError("a set file holds distinct points: multiplicities above 1 do not fit")
    return _text([f"p={obj.modulus.p} d={obj.dim}"], sorted(obj.entries))


def parse_set_file(text: str) -> Union[FieldSubset, WeightedPointSet]:
    lines = _Lines(text, "set file", ("p", "d"))
    d = lines.dim
    ints = lines.ints(1, None, d, "element" if d == 1 else "tuple")
    lines.refuse(1, [not ints], f"set file lists no {'elements' if d == 1 else 'points'}")
    if d == 1:
        return FieldSubset(lines.modulus, ints)
    return WeightedPointSet.of_points(lines.modulus, d, zip(*[iter(ints)] * d))


def read_set_file(path) -> Union[FieldSubset, WeightedPointSet]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_set_file(fh.read())
