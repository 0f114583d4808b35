"""Independent brute-force oracles for the test suite.

Everything here enumerates literally (all pairs, all tuples, all vectors)
and never touches the convolution or encoding machinery it is used to
check.  The numpy versions vectorize the same literal enumeration; the
pure-Python micro-oracles exist to validate those on the smallest cases.
"""

from collections import defaultdict
from itertools import combinations, product

import numpy as np

from ffdist.field import PrimeModulus
from ffdist.sets import FieldSubset, WeightedPointSet


def materialized_points(A: FieldSubset, n: int) -> list[tuple[int, ...]]:
    return list(product(A.elements(), repeat=n))


def materialize_power(A: FieldSubset, n: int) -> WeightedPointSet:
    """A^n as an explicit point set.  Exponential in n: test-scale inputs only."""
    return WeightedPointSet.of_points(A.modulus, n, materialized_points(A, n))


def dist_pair_counts_py(A: FieldSubset, n: int) -> list[int]:
    p = A.modulus.p
    out = [0] * p
    pts = materialized_points(A, n)
    for x in pts:
        for y in pts:
            out[sum((a - b) * (a - b) for a, b in zip(x, y)) % p] += 1
    return out


def dot_pair_counts_py(A: FieldSubset, n: int) -> list[int]:
    p = A.modulus.p
    out = [0] * p
    pts = materialized_points(A, n)
    for x in pts:
        for y in pts:
            out[sum(a * b for a, b in zip(x, y)) % p] += 1
    return out


def dist_pair_counts(A: FieldSubset, n: int) -> list[int]:
    """All-pairs distance counts over A^n x A^n by direct enumeration."""
    p = A.modulus.p
    pts = np.array(materialized_points(A, n), dtype=np.int64)
    acc = np.zeros(p, dtype=np.int64)
    for row in pts:
        d = (pts - row) % p
        vals = (d * d % p).sum(axis=1) % p
        acc += np.bincount(vals, minlength=p)
    return [int(c) for c in acc]


def dot_pair_counts(A: FieldSubset, n: int) -> list[int]:
    """All-pairs dot-product counts over A^n x A^n by direct enumeration."""
    p = A.modulus.p
    pts = np.array(materialized_points(A, n), dtype=np.int64)
    acc = np.zeros(p, dtype=np.int64)
    for row in pts:
        vals = (pts * row % p).sum(axis=1) % p
        acc += np.bincount(vals, minlength=p)
    return [int(c) for c in acc]


def cyclic_schoolbook(a: list[int], b: list[int]) -> list[int]:
    """out[t] = sum_u a[u] * b[(t-u) mod n] by the O(n^2) double loop
    (rows with a[u] = 0 add nothing and are skipped)."""
    n = len(a)
    out = [0] * n
    for u in range(n):
        if not a[u]:
            continue
        for v in range(n):
            out[(u + v) % n] += a[u] * b[v]
    return out


def sphere_counts(p: int, d: int) -> list[int]:
    """#{v in F_p^d : sum v_i^2 = t} for each t, by exhausting F_p^d."""
    out = [0] * p
    for v in product(range(p), repeat=d):
        out[sum(c * c for c in v) % p] += 1
    return out



def quadratic_character(p: int) -> list[int]:
    """eta(t) for each t in F_p, p odd: 0 at 0, 1 on the nonzero squares, -1 elsewhere."""
    eta = [-1] * p
    for x in range(1, p):
        eta[x * x % p] = 1
    eta[0] = 0
    return eta


def sphere_sizes(p: int, d: int) -> list[int]:
    """#{v in F_p^d : sum v_i^2 = t} for each t, p odd, by the closed form
    (Lidl & Niederreiter, Finite Fields, Thms 6.26-6.27):
    d even: p^(d-1) + v(t) p^((d-2)/2) eta((-1)^(d/2)), v(0) = p - 1, else v(t) = -1;
    d odd:  p^(d-1) + p^((d-1)/2) eta((-1)^((d-1)/2) t)."""
    eta, base = quadratic_character(p), p ** (d - 1)
    if d % 2 == 0:
        e = p ** ((d - 2) // 2) * eta[(-1) ** (d // 2) % p]
        return [base + (p - 1) * e] + [base - e] * (p - 1)
    e, sign = p ** ((d - 1) // 2), (-1) ** ((d - 1) // 2)
    value = {-1: base - e, 0: base, 1: base + e}
    return [value[eta[sign * t % p]] for t in range(p)]


def space_distance_spectrum(p: int, d: int) -> list[int]:
    """#{(x, y) in F_p^d x F_p^d : |x - y|^2 = t} = p^d N_d(t), in closed form."""
    return [p**d * n for n in sphere_sizes(p, d)]


def space_dot_spectrum(p: int, d: int) -> list[int]:
    """#{(x, y) in F_p^d x F_p^d : x.y = t}, in closed form: p^(2d-1) - p^(d-1)
    at t != 0, and p^d more at 0 (every y pairs with x = 0)."""
    other = p ** (2 * d - 1) - p ** (d - 1)
    return [other + p**d] + [other] * (p - 1)

def weighted_pair_counts_dim2(E, F) -> list[int]:
    p = E.modulus.p
    out = [0] * p
    for (e1, e2), me in E.entries.items():
        for (f1, f2), mf in F.entries.items():
            out[(e1 * f1 + e2 + f2) % p] += me * mf
    return out


def weighted_pair_counts_dim3(E, F) -> list[int]:
    p = E.modulus.p
    out = [0] * p
    for (e1, e2, e3), me in E.entries.items():
        for (f1, f2, f3), mf in F.entries.items():
            out[(e1 * f1 + e2 * f2 + e3 + f3) % p] += me * mf
    return out


def energy_by_tuples(A: FieldSubset, d: int, kind: str) -> int:
    """Literal 4d-tuple count; exponential, smallest cases only."""
    p = A.modulus.p
    elements = A.elements()

    def form(tuples):
        acc = 0
        for i in range(d):
            a, b = tuples[2 * i], tuples[2 * i + 1]
            acc += (a - b) * (a - b) if kind == "distance" else a * b
        return acc % p

    count = 0
    for left in product(elements, repeat=2 * d):
        lv = form(left)
        for right in product(elements, repeat=2 * d):
            if form(right) == lv:
                count += 1
    return count


def quadruple_energy(A: FieldSubset, kind: str) -> int:
    """E^+ or E^x by literal quadruple enumeration."""
    p = A.modulus.p
    count = 0
    for a, b, c, e in product(A.elements(), repeat=4):
        if kind == "additive":
            if (a + b) % p == (c + e) % p:
                count += 1
        else:
            if a * b % p == c * e % p:
                count += 1
    return count


def _canonical_direction(v: tuple[int, int, int], modulus: PrimeModulus) -> tuple[int, int, int]:
    """Scale a nonzero direction so its first nonzero coordinate is 1.

    Among all scalings this is the lexicographically least representative,
    so equal lines hash equal.
    """
    p = modulus.p
    for c in v:
        if c:
            inv = modulus.inv(c)
            return tuple(x * inv % p for x in v)  # type: ignore[return-value]
    raise ValueError("zero direction")


def line_key(
    P: tuple[int, int, int], Q: tuple[int, int, int], modulus: PrimeModulus
) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """Canonical (base point, direction) form of the line through P != Q."""
    p = modulus.p
    d = _canonical_direction(tuple((q - r) % p for q, r in zip(Q, P)), modulus)
    pivot = next(i for i, c in enumerate(d) if c)  # d[pivot] == 1
    t = P[pivot]
    base = tuple((c - t * dc) % p for c, dc in zip(P, d))
    return base, d


def max_collinear_lines(points, modulus, keep=None) -> int:
    """Most distinct points on one line of F_p^3, by grouping every pair of
    distinct points under the canonical key of the line through them.

    keep(line) -> bool, given a line_key, restricts the lines counted.  With
    no line counted the answer is min(#points, 1): a lone point is on a line.
    """
    p = modulus.p
    pts = sorted({tuple(c % p for c in pt) for pt in points})
    lines = defaultdict(set)
    for P, Q in combinations(pts, 2):
        line = line_key(P, Q, modulus)
        if keep is None or keep(line):
            lines[line].update((P, Q))
    return max((len(on) for on in lines.values()), default=min(len(pts), 1))
