import pytest
from hypothesis import given
from hypothesis import strategies as st

from ffdist.encodings import PAIR_COUNT_GUARD, WeightedPointSet, deviation_check, encode, pair_counts
from ffdist.errors import GuardExceeded, ParseError
from ffdist.field import PrimeModulus
from ffdist.rng import SplitMix64
from ffdist.sets import FieldSubset, parse_subset, random_multiset, random_pointset, random_subset
from ffdist.energy import distance_energy, dot_energy
from ffdist.spectra import power_spectrum

from oracles import (
    dist_pair_counts,
    dot_pair_counts,
    weighted_pair_counts_dim2,
    weighted_pair_counts_dim3,
)
from test_set_properties import SETTINGS

P5 = PrimeModulus(5)
P7 = PrimeModulus(7)


def test_weighted_pointset_basics():
    w = WeightedPointSet(P5, 2, {(6, 1): 2, (1, 1): 1})
    assert w.entries == {(1, 1): 3}
    assert w.total == 3 and w.second_moment() == 9
    with pytest.raises(ValueError):
        WeightedPointSet(P5, 4, {(1, 2, 3): 1})
    with pytest.raises(ValueError):
        WeightedPointSet(P5, 0, {(): 1})
    with pytest.raises(ValueError):
        WeightedPointSet(P5, 2, {(1, 2): 0})
    assert WeightedPointSet(P5, 4, {(6, 7, 8, 9): 2}).entries == {(1, 2, 3, 4): 2}


def test_multiset_csv_roundtrip():
    rng = SplitMix64(4)
    w = random_multiset(rng, P7, 3, 8, 5)
    assert WeightedPointSet.from_csv(w.to_csv()) == w
    for text in (
        "nope",
        "p=7 d=2\n1,2,3\n4,5,6\n",  # no header: the first row is not skipped
        "p=7 d=2\nx,y,multiplicity\n1,2,3\n",  # not the header to_csv writes
        "p=7 d=2\nx1,x2,x3,multiplicity\n1,2,3\n",
        "q=7 d=2\nx1,x2,multiplicity\n1,2,3\n",
        "p=7 d=2\nx1,x2,multiplicity\n1,2\n",
        "p=7 d=2\nx1,x2,multiplicity\n1,x,3\n",
    ):
        with pytest.raises(ParseError):
            WeightedPointSet.from_csv(text)
    for d in (1, 4):
        w = random_multiset(rng, P7, d, 8, 5)
        assert WeightedPointSet.from_csv(w.to_csv()) == w
    # an empty multiset is the two header lines, and only they are required
    empty = WeightedPointSet(P7, 2, {})
    assert empty.to_csv() == "p=7 d=2\nx1,x2,multiplicity\n"
    assert WeightedPointSet.from_csv(empty.to_csv()) == empty
    with pytest.raises(ParseError, match="'p=<p> d=<d>' line, then the column header"):
        WeightedPointSet.from_csv("p=7 d=2\n")
    # the count and coordinates share the set file's reader and its messages
    for text, message in (
        ("p=7 d=2\nx1,x2,multiplicity\n1,2," + "3" * 5000 + "\n", r"^line 3 .*5000 digits, past CPython's int-string limit"),
        ("p=9 d=2\nx1,x2,multiplicity\n1,2,3\n", r"^line 1 'p=9 d=2': bad modulus"),
        ("p=7 d=2\n\nx1,x2,multiplicity\n1,2,3\n\n1,2,0\n", r"^line 6 '1,2,0': multiset multiplicity must be >= 1"),
    ):
        with pytest.raises(ParseError, match=message):
            WeightedPointSet.from_csv(text)


@pytest.mark.parametrize("d", [0, -1])
def test_multiset_csv_rejects_nonpositive_dimension(d):
    with pytest.raises(ParseError, match="dimension"):
        WeightedPointSet.from_csv(f"p=5 d={d}\nmultiplicity\n3\n")


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
    for dim in (1, 4):
        w = WeightedPointSet(P5, dim, {(1,) * dim: 1})
        assert pair_counts(w, w) == [int(t == (dim + 1) % 5) for t in range(5)]
        with pytest.raises(ValueError, match="dimension 2 or 3"):
            deviation_check(w, w)


def test_pair_counts_match_double_loop():
    rng = SplitMix64(42)
    for _ in range(20):
        E2 = random_multiset(rng, P7, 2, 8, 5)
        F2 = random_multiset(rng, P7, 2, 8, 5)
        assert pair_counts(E2, F2) == weighted_pair_counts_dim2(E2, F2)
        E3 = random_multiset(rng, P7, 3, 8, 5)
        F3 = random_multiset(rng, P7, 3, 8, 5)
        assert pair_counts(E3, F3) == weighted_pair_counts_dim3(E3, F3)


@SETTINGS
@given(st.sampled_from((3, 5, 7, 13, 101, 65537)), st.sampled_from((2, 3)), st.data())
def test_bilinear_counter_matches_double_loop_past_three_limbs(p, dim, data):
    modulus = PrimeModulus(p)

    def side():
        points = st.tuples(*[st.integers(-3 * p, 3 * p)] * dim)
        entries = data.draw(st.dictionaries(points, st.integers(1, 2**90), max_size=12))
        entries[(p,) * dim] = data.draw(st.integers(2**80, 2**90))  # at least three limbs
        return WeightedPointSet(modulus, dim, entries)

    E, F = side(), side()
    oracle = weighted_pair_counts_dim2 if dim == 2 else weighted_pair_counts_dim3
    assert pair_counts(E, F) == oracle(E, F)


def test_bilinear_counter_in_any_dimension():
    rng = SplitMix64(17)
    for dim in (1, 4, 6):
        E, F = random_multiset(rng, P7, dim, 8, 5), random_multiset(rng, P7, dim, 8, 5)
        literal = [0] * 7
        for e, me in E.entries.items():
            for f, mf in F.entries.items():
                literal[(sum(a * b for a, b in zip(e[:-1], f)) + e[-1] + f[-1]) % 7] += me * mf
        assert pair_counts(E, F) == literal


def test_limb_width_keeps_both_bounds_at_the_guard():
    from ffdist.sets import _limb_bits

    # the float64 bound binds only for a very long F, so one such size is added
    for n_e, n_f in [(n, PAIR_COUNT_GUARD // n) for n in (1, 2, 1000, 2236, 5000, PAIR_COUNT_GUARD)] + [(1, 2**45)]:
        b = _limb_bits(n_e, n_f)
        assert n_f << b < 2**53 and n_e * n_f << 2 * b < 2**63
        # one bit wider breaks one of the bounds
        assert n_f << (b + 1) >= 2**53 or n_e * n_f << (2 * b + 2) >= 2**63
    assert _limb_bits(2000, 2000) == 20


def test_bilinear_counter_works_in_blocks(monkeypatch):
    import ffdist.sets

    # a 2000 x 2500 count at the guard tallies one block of rows at a time:
    # no input or output of bincount passes the block size
    largest = []
    real_bincount = ffdist.sets.np.bincount

    def bincount(x, weights=None, minlength=0):
        largest.append(max(x.size, minlength))
        return real_bincount(x, weights=weights, minlength=minlength)

    monkeypatch.setattr(ffdist.sets.np, "bincount", bincount)
    p1009 = PrimeModulus(1009)
    E, F = random_pointset(p1009, 3, 2000, seed=1), random_pointset(p1009, 3, 2500, seed=2)
    assert len(E) * len(F) == PAIR_COUNT_GUARD
    assert sum(pair_counts(E, F)) == PAIR_COUNT_GUARD
    assert max(largest) <= ffdist.sets._BLOCK < PAIR_COUNT_GUARD


def test_pair_count_guard(monkeypatch):
    import ffdist.encodings

    rng = SplitMix64(1)
    E = random_multiset(rng, P7, 2, 8, 5)
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
        E2, F2 = random_multiset(rng, modulus, 2, 8, 5), random_multiset(rng, modulus, 2, 8, 5)
        r2 = deviation_check(E2, F2)
        assert r2.dim == 2 and r2.rhs_squared == p ** 3 * r2.second_moment_product
        assert r2.passed and min(r2.margins) >= 0
        assert r2.second_moment_product == E2.second_moment() * F2.second_moment()
        E3, F3 = random_multiset(rng, modulus, 3, 8, 5), random_multiset(rng, modulus, 3, 8, 5)
        r3 = deviation_check(E3, F3)
        assert r3.dim == 3 and r3.rhs_squared == p ** 4 * r3.second_moment_product
        assert r3.passed and min(r3.margins) >= 0
        assert r3.second_moment_product == E3.second_moment() * F3.second_moment()


def test_odd_distance_encoding_worked_example():
    A = parse_subset("0,1", P5)
    E, F = encode(A, "distance", 3)
    assert E.dim == F.dim == 2
    assert E.entries == {(0, 0): 2, (0, 1): 2, (2, 1): 2, (2, 2): 2}
    assert F.entries == {(0, 0): 2, (0, 1): 2, (4, 1): 2, (4, 2): 2}
    assert E.second_moment() == 16 == len(A) * distance_energy(A, 1)
    assert E.total == 2**3


@pytest.mark.parametrize("p", [5, 7, 11])
def test_encoding_soundness_grid(p):
    modulus = PrimeModulus(p)
    rng = SplitMix64(p * 13)
    for size in (1, 2, 3):
        A = random_subset(modulus, size, seed=rng.next_u64())
        m = len(A)
        for d in (1, 2):
            E, F = encode(A, "distance", 2 * d + 1)
            assert E.dim == 2
            assert E.total == F.total == m ** (2 * d + 1)
            assert pair_counts(E, F) == dist_pair_counts(A, 2 * d + 1)
            assert E.second_moment() == m * distance_energy(A, d)
            assert F.second_moment() == m * distance_energy(A, d)

            E, F = encode(A, "distance", 2 * d)
            assert E.dim == 3
            assert E.total == F.total == m ** (2 * d)
            assert pair_counts(E, F) == dist_pair_counts(A, 2 * d)
            prev = distance_energy(A, d - 1) if d > 1 else 1
            assert E.second_moment() == m * m * prev

            E, F = encode(A, "dot", 2 * d)
            assert E.dim == 3
            assert E.total == F.total == m ** (2 * d)
            assert pair_counts(E, F) == dot_pair_counts(A, 2 * d)
            prev = dot_energy(A, d - 1) if d > 1 else 1
            assert E.second_moment() == m * m * prev


def test_dot_encoding_worked_example():
    A = parse_subset("1,2", P5)
    E, F = encode(A, "dot", 2)
    assert E == F
    assert E.entries == {(x1, x2, 0): 1 for x1 in (1, 2) for x2 in (1, 2)}
    assert pair_counts(E, F) == dot_pair_counts(A, 2)


def test_encoding_deviation_bounds_hold():
    A = random_subset(P7, 3, seed=9)
    for kind, n in (("distance", 5), ("distance", 4), ("dot", 4), ("dot", 3)):
        E, F = encode(A, kind, n)
        assert deviation_check(E, F).passed


def test_encoding_rejects_bad_depth():
    A = parse_subset("0,1", P5)
    for kind in ("distance", "dot"):
        with pytest.raises(ValueError):
            encode(A, kind, 0)


@SETTINGS
@given(
    st.sampled_from((5, 7, 11, 13)),
    st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=4),
    st.sampled_from(("distance", "dot")),
    st.integers(min_value=1, max_value=5),
)
def test_encode_reproduces_the_folded_spectrum(p, xs, kind, n):
    # n = 1 and 2 are depth 0 (a point mass carried); odd n with the dot
    # form is reachable only through encode
    A = FieldSubset(PrimeModulus(p), xs)
    E, F = encode(A, kind, n)
    assert E.dim == F.dim == 3 - n % 2
    assert pair_counts(E, F) == power_spectrum(A, kind, n).counts


def test_encode_rejects_unknown_form():
    A = parse_subset("0,1", P5)
    for n in (1, 2, 3):  # depth 0 included
        with pytest.raises(ValueError, match="unknown form"):
            encode(A, "sideways", n)
