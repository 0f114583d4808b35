import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffdist.errors import GuardExceeded, ParseError
from ffdist.field import PrimeModulus
from ffdist.rng import SplitMix64
from ffdist.sets import (
    FieldSubset,
    WeightedPointSet,
    format_set_file,
    isotropic_line,
    parse_set_file,
    parse_subset,
    random_multiset,
    random_pointset,
    random_subset,
)
from ffdist.incidence import parse_instance
from ffdist.spectra import distance_spectrum_general, spectrum_from_csv, support

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
    with pytest.raises(ValueError, match="mixed moduli"):
        A.difference(parse_subset("2,3", PrimeModulus(11)))
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


def test_random_multiset_replays_within_its_bounds():
    draws = [random_multiset(SplitMix64(seed), P7, 3, 4, 2) for seed in range(200)]
    assert draws[:20] == [random_multiset(SplitMix64(seed), P7, 3, 4, 2) for seed in range(20)]
    # 1..4 points of multiplicity 1 or 2; equal points merge, so totals stay in 1..8
    assert {len(w) for w in draws} == {1, 2, 3, 4}
    assert {w.dim for w in draws} == {3}
    assert {1, 2} <= {m for w in draws for m in w.entries.values()}
    assert all(1 <= w.total <= 8 for w in draws)


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
    # every failure names the file's own line, blank lines counted
    for text, message in (
        ("p=5 d=-1\n3\n", r"^line 1 'p=5 d=-1': dimension must be >= 1"),
        ("p=5 d=0\n", r"^line 1 'p=5 d=0': dimension must be >= 1"),
        ("p=9 d=1\n3\n", r"^line 1 'p=9 d=1': bad modulus"),
        ("p=9 d=2\n3,4\n", r"^line 1 'p=9 d=2': bad modulus"),
        ("\np=7 d=1\n\n3\nx\n", r"^line 5 'x': malformed element"),
        ("p=5 d=2\n1,2\n\n1,2,3\n", r"^line 4 '1,2,3': malformed tuple: 3 fields, not 2"),
        ("p=7 d=1\n3\n" + "1" * 5001 + "\n", r"^line 3 .*5001 digits, past CPython's int-string limit"),
        ("p=7 d=2\n3,-" + "1" * 5001 + "\n", r"^line 2 .*5001 digits, past CPython's int-string limit"),
    ):
        with pytest.raises(ParseError, match=message) as caught:
            parse_set_file(text)
        assert len(str(caught.value)) < 150  # an offending line is echoed in part
    # a set file has no multiplicity column, so a multiset does not fit it
    with pytest.raises(ValueError, match="distinct points"):
        format_set_file(WeightedPointSet(P7, 2, {(1, 2): 2}))


# tokens that may break a row: junk, a sign pair, 4400 digits, a count of 0
# or -1, a value past p, one past the plane limit, and section markers
JUNK = ("", " ", "x", "1.5", "+-1", "1" * 4400, "-" + "1" * 4400, "0", "-1", "12", "1000001", "POINTS", "PLANES")


@st.composite
def near_valid_texts(draw):
    """A text in one of the four formats, valid or broken a little: its
    `key=value` first line, then rows of ints, some with a junk token or one
    comma too many or too few, and the column headers or section markers."""
    kind = draw(st.sampled_from(("set", "multiset", "spectrum", "instance")))
    p = draw(st.sampled_from(("5", "7", "13", "5", "7", "13", "9", "2", "x", "1" * 4400, "2147483647")))
    d = draw(st.sampled_from(("1", "2", "3", "1", "2", "3", "0", "-1", "x")))
    head = "p={p} d={d}" if kind in ("set", "multiset") else "p={p}"
    if draw(st.integers(0, 9)) == 0:
        head = draw(st.sampled_from(("d={d} p={p}", "p={p} d={d} q=1", "p={p} p={p}", "p", "p=", "{p}")))
    dim = int(d) if d.isdigit() and d != "0" else 1

    def rows(width):
        out = []
        for _ in range(draw(st.integers(0, 4))):
            n = max(1, width + draw(st.sampled_from((0,) * 8 + (-1, 1))))
            fields = [str(draw(st.integers(1, 4))) for _ in range(n)]
            if draw(st.integers(0, 9)) == 0:
                fields[draw(st.integers(0, n - 1))] = draw(st.sampled_from(JUNK))
            out.append(",".join(fields))
        return out

    body = {
        "set": lambda: rows(dim),
        "multiset": lambda: [",".join(f"x{i + 1}" for i in range(dim)) + ",multiplicity", *rows(dim + 1)],
        "spectrum": lambda: ["lambda,count", *(f"{t},{row}" for t, row in enumerate(rows(1)))],
        "instance": lambda: ["POINTS", *rows(4), "PLANES", *rows(5)],
    }[kind]()
    if body and draw(st.integers(0, 4)) == 0:
        del body[draw(st.integers(0, len(body) - 1))]  # a lost header or marker
    lines = [head.format(p=p, d=d), *body]
    return draw(st.sampled_from(("\n", "\n\n", "\r\n"))).join(lines) + draw(st.sampled_from(("", "\n")))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(near_valid_texts())
def test_every_reader_returns_or_raises_a_parse_error_naming_its_line(text):
    for reader in (parse_set_file, WeightedPointSet.from_csv, spectrum_from_csv, parse_instance):
        try:
            reader(text)
        except GuardExceeded:
            pass  # a hard limit: p past the transform engine, or too many planes
        except ParseError as exc:
            assert re.match(r"line \d+ ", str(exc)), exc
            assert len(str(exc)) < 200, exc  # offending lines and fields are echoed in part
