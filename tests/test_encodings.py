import pytest

from ffdist.encodings import (
    WeightedPointSet,
    deviation_check,
    encode_distance_even,
    encode_distance_odd,
    encode_dot,
    pair_counts,
)
from ffdist.errors import GuardExceeded, ParseError
from ffdist.field import PrimeModulus
from ffdist.rng import SplitMix64
from ffdist.sets import parse_subset, random_subset
from ffdist.energy import distance_energy, dot_energy

from oracles import (
    dist_pair_counts,
    dot_pair_counts,
    weighted_pair_counts_dim2,
    weighted_pair_counts_dim3,
)

P5 = PrimeModulus(5)
P7 = PrimeModulus(7)


def random_multiset(rng, modulus, dim, max_entries=8, max_mult=5):
    entries = {}
    for _ in range(1 + rng.randbelow(max_entries)):
        pt = tuple(rng.randbelow(modulus.p) for _ in range(dim))
        entries[pt] = entries.get(pt, 0) + 1 + rng.randbelow(max_mult)
    return WeightedPointSet(modulus, dim, entries)


def test_weighted_pointset_basics():
    w = WeightedPointSet(P5, 2, {(6, 1): 2, (1, 1): 1})
    assert w.entries == {(1, 1): 3}
    assert w.total == 3 and w.second_moment() == 9
    with pytest.raises(ValueError):
        WeightedPointSet(P5, 4, {(1, 2, 3, 4): 1})
    with pytest.raises(ValueError):
        WeightedPointSet(P5, 2, {(1, 2): 0})


def test_multiset_csv_roundtrip():
    rng = SplitMix64(4)
    w = random_multiset(rng, P7, 3)
    assert WeightedPointSet.from_csv(w.to_csv()) == w
    with pytest.raises(ParseError):
        WeightedPointSet.from_csv("nope")


def test_multiset_csv_rejects_nonpositive_rows():
    # rows are checked one by one, before repeats of a point are merged
    for rows in ("0,0,3\n0,0,-2\n", "0,0,0\n", "1,1,2\n0,0,-1\n0,0,2\n"):
        with pytest.raises(ParseError, match="multiplicity"):
            WeightedPointSet.from_csv("p=5 d=2\nx1,x2,multiplicity\n" + rows)


def test_pair_count_trivial_examples():
    origin = WeightedPointSet(P5, 2, {(0, 0): 1})
    assert pair_counts(origin, origin)[0] == 1
    assert pair_counts(origin, origin)[1] == 0
    e10 = WeightedPointSet(P5, 2, {(1, 0): 1})
    assert pair_counts(e10, e10)[1] == 1
    o3 = WeightedPointSet(P5, 3, {(0, 0, 0): 1})
    assert pair_counts(o3, o3)[0] == 1
    e110 = WeightedPointSet(P5, 3, {(1, 1, 0): 1})
    assert pair_counts(e110, e110)[2] == 1
    with pytest.raises(ValueError, match="one dimension"):
        pair_counts(origin, o3)
    with pytest.raises(ValueError, match="one dimension"):
        deviation_check(o3, origin)


def test_pair_counts_match_double_loop():
    rng = SplitMix64(42)
    for _ in range(20):
        E2 = random_multiset(rng, P7, 2)
        F2 = random_multiset(rng, P7, 2)
        assert pair_counts(E2, F2) == weighted_pair_counts_dim2(E2, F2)
        E3 = random_multiset(rng, P7, 3)
        F3 = random_multiset(rng, P7, 3)
        assert pair_counts(E3, F3) == weighted_pair_counts_dim3(E3, F3)


def test_pair_count_guard(monkeypatch):
    import ffdist.encodings

    rng = SplitMix64(1)
    E = random_multiset(rng, P7, 2)
    monkeypatch.setattr(ffdist.encodings, "PAIR_COUNT_GUARD", 0)
    with pytest.raises(GuardExceeded):
        pair_counts(E, E)
    # the guard is inclusive: exactly len(E)^2 entry pairs still count
    monkeypatch.setattr(ffdist.encodings, "PAIR_COUNT_GUARD", len(E) * len(E))
    assert pair_counts(E, E) == weighted_pair_counts_dim2(E, E)


def test_deviation_trivial_example():
    origin = WeightedPointSet(P5, 2, {(0, 0): 1})
    report = deviation_check(origin, origin)
    assert report.passed
    # at every lambda: (5N - 1)^2 <= 125
    assert report.rhs_squared == 125
    assert report.margins == [125 - (5 * n - 1) ** 2 for n in report.counts]


@pytest.mark.parametrize("p", [5, 7, 31, 101])
def test_deviation_bounds_random(p):
    modulus = PrimeModulus(p)
    rng = SplitMix64(p * 7)
    for _ in range(25):
        E2, F2 = random_multiset(rng, modulus, 2), random_multiset(rng, modulus, 2)
        r2 = deviation_check(E2, F2)
        assert r2.dim == 2 and r2.rhs_squared == p ** 3 * r2.second_moment_product
        assert r2.passed and min(r2.margins) >= 0
        assert r2.second_moment_product == E2.second_moment() * F2.second_moment()
        E3, F3 = random_multiset(rng, modulus, 3), random_multiset(rng, modulus, 3)
        r3 = deviation_check(E3, F3)
        assert r3.dim == 3 and r3.rhs_squared == p ** 4 * r3.second_moment_product
        assert r3.passed and min(r3.margins) >= 0
        assert r3.second_moment_product == E3.second_moment() * F3.second_moment()


def test_encode_distance_odd_worked_example():
    A = parse_subset("0,1", P5)
    E, F = encode_distance_odd(A, 1)
    assert E.entries == {(0, 0): 2, (0, 1): 2, (2, 1): 2, (2, 2): 2}
    assert E.second_moment() == 16 == len(A) * distance_energy(A, 1).value
    assert E.total == 2**3


@pytest.mark.parametrize("p", [5, 7, 11])
def test_encoding_soundness_grid(p):
    modulus = PrimeModulus(p)
    rng = SplitMix64(p * 13)
    for size in (1, 2, 3):
        A = random_subset(modulus, size, seed=rng.next_u64())
        m = len(A)
        for d in (1, 2):
            E, F = encode_distance_odd(A, d)
            assert E.total == F.total == m ** (2 * d + 1)
            assert pair_counts(E, F) == dist_pair_counts(A, 2 * d + 1)
            assert E.second_moment() == m * distance_energy(A, d).value
            assert F.second_moment() == m * distance_energy(A, d).value

            E, F = encode_distance_even(A, d)
            assert E.total == F.total == m ** (2 * d)
            assert pair_counts(E, F) == dist_pair_counts(A, 2 * d)
            prev = distance_energy(A, d - 1).value if d > 1 else 1
            assert E.second_moment() == m * m * prev

            E, F = encode_dot(A, d)
            assert E.total == F.total == m ** (2 * d)
            assert pair_counts(E, F) == dot_pair_counts(A, 2 * d)
            prev = dot_energy(A, d - 1).value if d > 1 else 1
            assert E.second_moment() == m * m * prev


def test_encode_dot_worked_example():
    A = parse_subset("1,2", P5)
    E, F = encode_dot(A, 1)
    assert pair_counts(E, F) == dot_pair_counts(A, 2)


def test_encoding_deviation_bounds_hold():
    A = random_subset(P7, 3, seed=9)
    E, F = encode_distance_odd(A, 2)
    assert deviation_check(E, F).passed
    E, F = encode_distance_even(A, 2)
    assert deviation_check(E, F).passed
    E, F = encode_dot(A, 2)
    assert deviation_check(E, F).passed


def test_encoding_rejects_bad_depth():
    A = parse_subset("0,1", P5)
    for builder in (encode_distance_odd, encode_distance_even, encode_dot):
        with pytest.raises(ValueError):
            builder(A, 0)
