import pytest

from ffdist.errors import ParseError
from ffdist.field import PrimeModulus
from ffdist.rng import SplitMix64
from ffdist.sets import (
    FieldSubset,
    WeightedPointSet,
    format_set_file,
    isotropic_line,
    parse_set_file,
    parse_subset,
    random_pointset,
    random_subset,
)
from ffdist.spectra import distance_spectrum_general, support

P7 = PrimeModulus(7)


def test_parse_examples():
    assert parse_subset("0,1,3", P7).elements() == [0, 1, 3]
    assert parse_subset("0..4", P7).elements() == [0, 1, 2, 3, 4]
    assert parse_subset("9", P7).elements() == [2]
    assert parse_subset("0..2,5", P7).elements() == [0, 1, 2, 5]
    assert parse_subset("-1", P7).elements() == [6]


def test_parse_wide_range_is_whole_field():
    # A range spanning p or more integers covers F_p without walking it.
    assert parse_subset("0..10000000", P7) == FieldSubset.full(P7)
    assert parse_subset("5..11", P7) == FieldSubset.full(P7)
    assert parse_subset("5..10", P7).elements() == [0, 1, 2, 3, 5, 6]


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse_subset("", P7)
    with pytest.raises(ParseError, match="position 2"):
        parse_subset("1,x,3", P7)
    with pytest.raises(ParseError, match="position 1"):
        parse_subset("3..1", P7)
    with pytest.raises(ParseError, match="position 3"):
        parse_subset("1,2,,4", P7)
    with pytest.raises(ParseError, match="malformed range"):
        parse_subset("0,1..x", P7)


def test_parse_serialize_roundtrip():
    rng = SplitMix64(1)
    for p in (5, 31, 101):
        modulus = PrimeModulus(p)
        for _ in range(20):
            A = random_subset(modulus, 1 + rng.randbelow(p), rng.next_u64())
            assert parse_subset(A.serialize(), modulus) == A


def test_subset_operations():
    A = parse_subset("1,2,4", P7)
    assert len(A) == 3 and 2 in A and 3 not in A
    assert A.dilate(2).elements() == [1, 2, 4]  # {2,4,8=1}
    assert A.difference(parse_subset("2,3", P7)).elements() == [1, 4]
    with pytest.raises(ValueError):
        A.dilate(0)


def test_random_subset_forced_and_deterministic():
    p101 = PrimeModulus(101)
    assert random_subset(P7, 7, seed=99) == FieldSubset.full(P7)
    assert random_subset(p101, 10, seed=1) == random_subset(p101, 10, seed=1)
    assert len(random_subset(p101, 10, seed=1)) == 10
    # different seeds may coincide in principle; only determinism is asserted
    with pytest.raises(ValueError):
        random_subset(P7, 8, seed=0)
    with pytest.raises(ValueError):
        random_subset(P7, 0, seed=0)


def test_random_subset_inclusion_frequency():
    # 2000 draws of 5-subsets of F_31: every element within 5 sigma of n/p
    p31 = PrimeModulus(31)
    freq = [0] * 31
    for seed in range(2000):
        for x in random_subset(p31, 5, seed):
            freq[x] += 1
    expect = 2000 * 5 / 31
    sigma = (2000 * (5 / 31) * (26 / 31)) ** 0.5
    for x, f in enumerate(freq):
        assert abs(f - expect) <= 5 * sigma, (x, f)


def test_random_pointset():
    p5 = PrimeModulus(5)
    full = random_pointset(p5, 3, 125, seed=0)
    assert len(full) == 125
    assert random_pointset(p5, 3, 100, seed=7) == random_pointset(p5, 3, 100, seed=7)
    single = random_pointset(PrimeModulus(3), 2, 1, seed=4)
    assert support(distance_spectrum_general(single)).elements() == [0]
    with pytest.raises(ValueError):
        random_pointset(p5, 3, 126, seed=0)


def test_isotropic_line():
    p5 = PrimeModulus(5)
    assert set(isotropic_line(p5).entries) == {(0, 0), (1, 2), (2, 4), (3, 1), (4, 3)}
    line13 = isotropic_line(PrimeModulus(13))
    assert len(line13) == 13
    assert support(distance_spectrum_general(line13)).elements() == [0]
    with pytest.raises(ValueError):
        isotropic_line(P7)


def test_pointset_dedupes_and_canonicalizes():
    ps = WeightedPointSet.of_points(P7, 2, [(8, 1), (1, 1), (1, 8)])
    assert ps.entries == {(1, 1): 1}
    assert parse_set_file("p=7 d=2\n8,1\n1,1\n1,8\n") == ps


def test_set_file_roundtrip(tmp_path):
    A = parse_subset("0,2,5", P7)
    text = format_set_file(A)
    assert text.splitlines()[0] == "p=7 d=1"
    assert parse_set_file(text) == A

    E = isotropic_line(PrimeModulus(5))
    back = parse_set_file(format_set_file(E))
    assert isinstance(back, WeightedPointSet) and back == E

    with pytest.raises(ParseError):
        parse_set_file("")
    with pytest.raises(ParseError):
        parse_set_file("q=7 d=1\n3\n")
    with pytest.raises(ParseError):
        parse_set_file("p=5 d=2\n1,2,3\n")
    for text, message in (
        ("p=7 d=1\n3\nx\n", "malformed element"),
        ("p=7 d=1\n", "no elements"),
        ("p=5 d=2\n1,x\n", "malformed tuple"),
        ("p=5 d=2\n", "no points"),
    ):
        with pytest.raises(ParseError, match=message):
            parse_set_file(text)
    # a set file has no multiplicity column, so a multiset does not fit it
    with pytest.raises(ValueError, match="distinct points"):
        format_set_file(WeightedPointSet(P7, 2, {(1, 2): 2}))
