"""Property tests: FieldSubset's set algebra against a Python set oracle,
and the fold law of spectra.

The primes run from 5 to 521, so the exact convolution behind sumset and
fold is exercised at transform lengths from 16 to 2048.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from ffdist.field import PrimeModulus
from ffdist.sets import FieldSubset, parse_subset
from ffdist.spectra import Spectrum, cyclic_convolve, fold, sumset

PRIMES = (5, 13, 101, 521)

SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)

values = st.integers(min_value=-2000, max_value=2000)
raw_sets = st.lists(values, max_size=40)


@st.composite
def subset_pairs(draw):
    """A modulus and two subsets given as raw (unreduced) value lists."""
    p = draw(st.sampled_from(PRIMES))
    return PrimeModulus(p), draw(raw_sets), draw(raw_sets)


def oracle(xs, p):
    return {x % p for x in xs}


def same(A, expected):
    p = A.modulus.p
    assert A.elements() == sorted(expected)
    assert len(A) == len(expected)
    assert all(type(x) is int for x in A)
    assert A.indicator() == [int(t in expected) for t in range(p)]
    assert all((t in A) == (t % p in expected) for t in range(-p, 2 * p))


@SETTINGS
@given(subset_pairs())
def test_algebra_matches_set_oracle(case):
    modulus, xs, ys = case
    p = modulus.p
    X, Y = FieldSubset(modulus, xs), FieldSubset(modulus, ys)
    ox, oy = oracle(xs, p), oracle(ys, p)
    same(X, ox)
    same(X.difference(Y), ox - oy)
    assert (X == Y) == (ox == oy)


@SETTINGS
@given(subset_pairs(), values)
def test_translate_dilate_match_set_oracle(case, c):
    modulus, xs, _ = case
    p = modulus.p
    X, ox = FieldSubset(modulus, xs), oracle(xs, p)
    same(FieldSubset(modulus, (x + c for x in xs)), {(x + c) % p for x in ox})
    if c % p:
        same(X.dilate(c), {c * x % p for x in ox})


@SETTINGS
@given(subset_pairs())
def test_sumset_matches_set_oracle(case):
    modulus, xs, ys = case
    p = modulus.p
    ox, oy = oracle(xs, p), oracle(ys, p)
    same(sumset(FieldSubset(modulus, xs), FieldSubset(modulus, ys)), {(x + y) % p for x in ox for y in oy})


tokens = st.one_of(
    values.map(str),
    st.tuples(values, st.integers(min_value=0, max_value=3000)).map(lambda t: f"{t[0]}..{t[0] + t[1]}"),
)


@SETTINGS
@given(st.sampled_from(PRIMES), st.lists(tokens, min_size=1, max_size=8))
def test_parse_subset_matches_set_oracle(p, parts):
    modulus = PrimeModulus(p)
    expected = set()
    for token in parts:
        lo, _, hi = token.partition("..")
        expected |= oracle(range(int(lo), int(hi or lo) + 1), p)
    A = parse_subset(" , ".join(parts), modulus)
    same(A, expected)
    assert parse_subset(A.serialize(), modulus) == A


@SETTINGS
@given(subset_pairs(), st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4))
def test_fold_is_additive_in_depth(case, d1, d2):
    modulus, xs, _ = case
    counts = [0] * modulus.p
    for x in xs:
        counts[x % modulus.p] += 1
    S = Spectrum(modulus, counts)
    assert fold(S, d1 + d2) == cyclic_convolve(fold(S, d1), fold(S, d2))
