import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ffdist import convolution, spectra
from ffdist.convolution import exact_cyclic
from ffdist.errors import GuardExceeded, InvariantViolation, ParseError
from ffdist.field import PrimeModulus
from ffdist.rng import SplitMix64
from ffdist.sets import FieldSubset, WeightedPointSet, parse_subset, random_subset
from ffdist.spectra import (
    Spectrum,
    base_spectrum,
    cyclic_convolve,
    diff_square_spectrum,
    distance_spectrum_general,
    fold,
    power_spectrum,
    product_spectrum,
    spectrum_from_csv,
    spectrum_to_csv,
    sumset,
    support,
)

from oracles import (
    cyclic_schoolbook,
    dist_pair_counts,
    dist_pair_counts_py,
    dot_pair_counts,
    dot_pair_counts_py,
    materialize_power,
    sphere_counts,
)
from test_convolution import _plant, _set_pool
from test_set_properties import SETTINGS

P5 = PrimeModulus(5)
P7 = PrimeModulus(7)


def S(text, modulus):
    return parse_subset(text, modulus)


def test_diff_square_examples():
    assert dict(diff_square_spectrum(S("0,1,3", P7)).items()) == {0: 3, 1: 2, 2: 2, 4: 2}
    full = diff_square_spectrum(FieldSubset.full(P7))
    nonzero_squares = {x * x % 7 for x in range(1, 7)}
    for t in range(7):
        if t == 0:
            assert full[t] == 7
        elif t in nonzero_squares:
            assert full[t] == 14
        else:
            assert full[t] == 0
    assert dict(diff_square_spectrum(S("2", P5)).items()) == {0: 1}


def test_diff_square_paths_agree():
    A = random_subset(PrimeModulus(601), 40, seed=3)
    assert diff_square_spectrum(A).counts == dist_pair_counts(A, 1)


def test_product_examples():
    assert dict(product_spectrum(S("1,2", P5)).items()) == {1: 1, 2: 2, 4: 1}
    assert dict(product_spectrum(S("0", P7)).items()) == {0: 1}
    star = product_spectrum(S("1,2,3,4", P5))
    assert star[0] == 0
    assert all(star[t] == 4 for t in range(1, 5))


def test_product_log_domain_path_agrees():
    modulus = PrimeModulus(601)
    for seed, with_zero in ((1, False), (2, True)):
        A = random_subset(modulus, 35, seed=seed)
        if with_zero:
            A = FieldSubset(modulus, A.elements() + [0])
        assert product_spectrum(A).counts == dot_pair_counts(A, 1)


def test_cyclic_convolve_examples():
    D = diff_square_spectrum(S("0,1", P7))
    assert dict(D.items()) == {0: 2, 1: 2}
    point = Spectrum.point_mass(P7, 0)
    assert cyclic_convolve(point, D) == D
    assert dict(cyclic_convolve(D, D).items()) == {0: 4, 1: 8, 2: 4}
    rng = SplitMix64(8)
    for _ in range(5):
        X = Spectrum(P7, [rng.randbelow(9) for _ in range(7)])
        Y = Spectrum(P7, [rng.randbelow(9) for _ in range(7)])
        assert cyclic_convolve(X, Y).total == X.total * Y.total
    with pytest.raises(ValueError):
        cyclic_convolve(Spectrum.point_mass(P5, 0), Spectrum.point_mass(P7, 0))


def test_fold_examples():
    D = diff_square_spectrum(S("0,1", P5))
    assert fold(D, 1) == D
    assert dict(fold(D, 3).items()) == {0: 8, 1: 24, 2: 24, 3: 8}
    assert fold(D, 3).counts[4] == 0
    for d in (1, 2, 3, 4):
        assert fold(D, d).total == D.total**d
    with pytest.raises(ValueError):
        fold(D, 0)


def test_fold_matches_iterated_convolution():
    rng = SplitMix64(17)
    X = Spectrum(P7, [rng.randbelow(5) for _ in range(7)])
    iterated = X
    for d in range(2, 6):
        iterated = cyclic_convolve(iterated, X)
        assert fold(X, d) == iterated


def test_distance_power_examples():
    A = S("0,1", P5)
    assert dict(power_spectrum(A, "distance", 3).items()) == {0: 8, 1: 24, 2: 24, 3: 8}
    for p in (3, 5):
        modulus = PrimeModulus(p)
        spheres = sphere_counts(p, 3)
        Sp = power_spectrum(FieldSubset.full(modulus), "distance", 3)
        assert Sp.counts == [p**3 * s for s in spheres]
        assert Sp.counts[0] == p**3 * p**2
    assert dict(power_spectrum(S("2", P7), "distance", 4).items()) == {0: 1}


def test_zero_sphere_size_three_dims():
    for p in (3, 5, 7):
        assert sphere_counts(p, 3)[0] == p * p


def test_dot_power_examples():
    assert dict(power_spectrum(S("1", P5), "dot", 2).items()) == {2: 1}
    A = S("1,2", P5)
    assert power_spectrum(A, "dot", 1) == product_spectrum(A)
    assert power_spectrum(A, "dot", 2).counts == dot_pair_counts(A, 2)


def test_form_is_a_parameter():
    A = S("0,1,3", P7)
    assert base_spectrum(A, "distance") == diff_square_spectrum(A)
    assert base_spectrum(A, "dot") == product_spectrum(A)
    assert power_spectrum(A, "distance", 1) == diff_square_spectrum(A)
    for kind in ("sideways", "additive", "Distance"):
        with pytest.raises(ValueError, match="unknown form"):
            base_spectrum(A, kind)
        with pytest.raises(ValueError, match="unknown form"):
            power_spectrum(A, kind, 2)
    with pytest.raises(ValueError, match="dimension"):
        power_spectrum(A, "dot", 0)


def test_self_dot_spectrum():
    from itertools import product as iter_product

    from ffdist.spectra import self_dot_spectrum

    A = S("1,2", P5)
    # points (1,1),(1,2),(2,1),(2,2): self dots 2, 0, 0, 3
    assert dict(self_dot_spectrum(A, 2).items()) == {0: 2, 2: 1, 3: 1}
    for n in (1, 2, 3):
        D = self_dot_spectrum(A, n)
        assert D.total == len(A) ** n
        expected = [0] * 5
        for x in iter_product(A.elements(), repeat=n):
            expected[sum(c * c for c in x) % 5] += 1
        assert D.counts == expected


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_power_spectra_match_bruteforce(p):
    modulus = PrimeModulus(p)
    rng = SplitMix64(p * 31)
    for size in range(1, min(4, p) + 1):
        A = random_subset(modulus, size, seed=rng.next_u64())
        for n in (1, 2, 3):
            assert power_spectrum(A, "distance", n).counts == dist_pair_counts(A, n)
            assert power_spectrum(A, "dot", n).counts == dot_pair_counts(A, n)


def test_numpy_oracle_matches_python_oracle():
    A = S("0,1,4", P7)
    for n in (1, 2):
        assert dist_pair_counts(A, n) == dist_pair_counts_py(A, n)
        assert dot_pair_counts(A, n) == dot_pair_counts_py(A, n)


def test_distance_spectrum_general(monkeypatch):
    import ffdist.spectra
    from ffdist.sets import isotropic_line

    iso = isotropic_line(P5)
    assert dict(distance_spectrum_general(iso).items()) == {0: 25}
    single = WeightedPointSet.of_points(P7, 3, [(1, 2, 3)])
    assert dict(distance_spectrum_general(single).items()) == {0: 1}
    A = S("0,2", P5)
    assert distance_spectrum_general(materialize_power(A, 2)) == power_spectrum(A, "distance", 2)
    B = S("0,1,4", P7)
    for n in (1, 2, 3, 4):
        assert distance_spectrum_general(materialize_power(B, n)).counts == dist_pair_counts(B, n)
    # weighted points count with the product of their multiplicities
    heavy = WeightedPointSet(P7, 2, {(0, 0): 2**70, (1, 2): 3})
    assert dict(distance_spectrum_general(heavy).items()) == {0: 2**140 + 9, 5: 2 * 3 * 2**70}
    monkeypatch.setattr(ffdist.spectra, "GENERAL_SPECTRUM_GUARD", 3)
    with pytest.raises(GuardExceeded):
        distance_spectrum_general(iso)
    assert distance_spectrum_general(iso, force=True).counts[0] == 25


def test_translation_and_reflection_invariance():
    rng = SplitMix64(44)
    for p in (7, 13):
        modulus = PrimeModulus(p)
        for _ in range(5):
            A = random_subset(modulus, 1 + rng.randbelow(p - 1), seed=rng.next_u64())
            D = diff_square_spectrum(A)
            c = rng.randbelow(p)
            assert D == diff_square_spectrum(FieldSubset(modulus, (x + c for x in A)))
    from ffdist.sets import random_pointset

    E = random_pointset(P7, 2, 9, seed=6)
    Sg = distance_spectrum_general(E)
    assert Sg.counts[0] >= len(E)
    assert all(c % 2 == 0 for t, c in Sg.items() if t != 0)
    assert (Sg.counts[0] - len(E)) % 2 == 0


def test_support_and_sumset():
    from ffdist.sets import isotropic_line

    assert support(distance_spectrum_general(isotropic_line(P5))).elements() == [0]
    star7 = S("1,2,3,4,5,6", P7)
    six_fold = fold(product_spectrum(star7), 6)
    assert support(six_fold) == FieldSubset.full(P7)
    assert support(Spectrum(P7, [0] * 7)).elements() == []

    assert sumset(S("0", P5), S("1,3", P5)) == S("1,3", P5)
    assert sumset(S("0,1", P5), S("0,1", P5)) == S("0,1,2", P5)
    rng = SplitMix64(2)
    for _ in range(20):
        X = random_subset(P7, 1 + rng.randbelow(7), seed=rng.next_u64())
        Y = random_subset(P7, 1 + rng.randbelow(7), seed=rng.next_u64())
        assert len(sumset(X, Y)) >= min(7, len(X) + len(Y) - 1)


def test_support_sumset_identity_powers():
    rng = SplitMix64(3)
    for p in (5, 11):
        modulus = PrimeModulus(p)
        for _ in range(5):
            A = random_subset(modulus, 1 + rng.randbelow(p), seed=rng.next_u64())
            D = diff_square_spectrum(A)
            for d in (1, 2):
                half = support(fold(D, d))
                assert support(fold(D, 2 * d)) == sumset(half, half)


def test_spectrum_csv_roundtrip():
    Sp = power_spectrum(S("0,1,3", P7), "distance", 2)
    text = spectrum_to_csv(Sp)
    assert text.splitlines()[0] == "p=7"
    assert text.splitlines()[1] == "lambda,count"
    assert spectrum_from_csv(text) == Sp
    with pytest.raises(ParseError):
        spectrum_from_csv("lambda,count\n0,1\n")
    with pytest.raises(ParseError, match="bad modulus"):
        spectrum_from_csv("p=6\nlambda,count\n0,1\n")
    with pytest.raises(ParseError, match="malformed spectrum row"):
        spectrum_from_csv("p=5\nlambda,count\n0,x\n")
    for text, message in (
        ("p=5\nlambda,count\n0,-1\n", r"^line 3 '0,-1': negative count"),
        ("p=5\nlambda,count\n0,1\n1," + "7" * 5000 + "\n", r"^line 4 .*5000 digits, past CPython's int-string limit"),
        ("p=5 d=1\nlambda,count\n0,1\n", r"^line 1 'p=5 d=1': spectrum CSV must start with 'p=<p>'"),
        ("p=5\nlambda,count\n0,1,2\n", r"^line 3 '0,1,2': malformed spectrum row: 3 fields, not 2"),
    ):
        with pytest.raises(ParseError, match=message):
            spectrum_from_csv(text)


@SETTINGS
@given(st.sampled_from((5, 13, 101, 521)), st.data())
def test_spectrum_csv_roundtrip_property(p, data):
    counts = data.draw(st.lists(st.integers(min_value=0, max_value=2**70), min_size=p, max_size=p))
    Sp = Spectrum(PrimeModulus(p), counts)
    assert spectrum_from_csv(spectrum_to_csv(Sp)) == Sp


def test_spectrum_csv_rejects_lambda_out_of_range():
    for row in ("-1,7", "5,7"):
        with pytest.raises(ParseError, match="outside"):
            spectrum_from_csv(f"p=5\nlambda,count\n0,2\n{row}\n")


def test_spectrum_csv_rejects_repeated_lambda():
    with pytest.raises(ParseError, match="repeated"):
        spectrum_from_csv("p=5\nlambda,count\n0,2\n0,7\n")


def test_power_vs_general_medium_scale():
    # independent cross-check at a size where the transform path is live
    A = random_subset(PrimeModulus(601), 50, seed=8)
    assert power_spectrum(A, "distance", 2) == distance_spectrum_general(materialize_power(A, 2))


def test_fold_exponentiation_consistency_deep():
    # squaring chain crosses CRT prime-count boundaries as counts grow
    A = random_subset(PrimeModulus(601), 80, seed=5)
    D = diff_square_spectrum(A)
    left = fold(D, 8)
    assert left == cyclic_convolve(fold(D, 4), fold(D, 4))
    assert left == cyclic_convolve(fold(D, 5), fold(D, 3))
    assert left.total == len(A) ** 16


def test_spectrum_invariants():
    with pytest.raises(ValueError):
        Spectrum(P5, [1, 2, 3])  # wrong length
    with pytest.raises(ValueError):
        Spectrum(P5, [1, -1, 0, 0, 0])
    from ffdist.errors import InvariantViolation

    with pytest.raises(InvariantViolation):
        Spectrum(P5, [1, 0, 0, 0, 0], expected_total=2)


@SETTINGS
@given(
    st.sampled_from((5, 13, 101, 521)),
    st.lists(st.integers(min_value=-2000, max_value=2000), min_size=1, max_size=30),
    st.integers(min_value=1, max_value=2000),
    st.integers(min_value=1, max_value=4),
)
def test_distance_dilation_law(p, xs, c, n):
    # (c*a - c*b)^2 = c^2 (a - b)^2, so dilating A by c moves the count of t to c^2 t
    modulus = PrimeModulus(p)
    if c % p == 0:
        c += 1
    A = FieldSubset(modulus, xs)
    before = power_spectrum(A, "distance", n)
    after = power_spectrum(A.dilate(c), "distance", n)
    assert all(after[c * c * t] == before[t] for t in range(p))


@SETTINGS
@given(
    st.sampled_from((5, 13, 101, 521)),
    st.lists(st.integers(min_value=-2000, max_value=2000), min_size=1, max_size=30),
    st.integers(min_value=-2000, max_value=2000),
    st.integers(min_value=1, max_value=4),
)
def test_distance_translation_invariance(p, xs, c, n):
    # (a + c) - (b + c) = a - b, so translating A leaves every distance count
    modulus = PrimeModulus(p)
    A = FieldSubset(modulus, xs)
    shifted = FieldSubset(modulus, (x + c for x in xs))
    assert power_spectrum(shifted, "distance", n) == power_spectrum(A, "distance", n)


DEPTHS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 16)


def _schoolbook_folds(counts):
    """{d: the d-fold cyclic self-convolution} for d in DEPTHS, one schoolbook product at a time."""
    folds, acc = {1: counts}, counts
    for d in range(2, max(DEPTHS) + 1):
        acc = folds[d] = cyclic_schoolbook(acc, counts)
    return folds


@pytest.mark.parametrize("p, bits", [(5, 4), (7, 20), (13, 40), (101, 12), (211, 30)])
def test_fold_matches_repeated_schoolbook(p, bits):
    # Totals from about 2**6 to 2**48 per factor: every chain starts on the
    # direct tier and crosses into the transform tier, where spectra stay
    # residue rows; the odd depths and 6 multiply rows over different prime
    # counts (result * base).
    rng = SplitMix64(p)
    base = Spectrum(PrimeModulus(p), [rng.randbelow(1 << bits) for _ in range(p)])
    want = _schoolbook_folds(base.counts)
    held = {d: fold(base, d) for d in DEPTHS}
    assert {isinstance(S._held, list) for S in held.values()} == {True, False}
    for d, S in held.items():
        assert S.total == base.total**d
        assert S.counts == want[d]


def test_residue_backed_spectrum_forms_its_ints_once(monkeypatch):
    calls = []
    real = spectra._ints
    monkeypatch.setattr(spectra, "_ints", lambda rows: calls.append(rows.array.shape) or real(rows))
    rng = SplitMix64(3)
    X = Spectrum(P7, [rng.randbelow(1 << 40) for _ in range(7)])
    lazy = fold(X, 4)
    assert isinstance(lazy._held, convolution._Rows) and not calls
    eager = Spectrum(P7, _schoolbook_folds(X.counts)[4], expected_total=X.total**4)
    assert lazy.total == eager.total and not calls
    assert lazy.counts == eager.counts
    assert lazy.counts is lazy.counts
    assert lazy == eager and repr(lazy) == repr(eager)
    assert len(calls) == 1


def test_residue_errors_in_a_fold_are_caught(monkeypatch):
    rng = SplitMix64(4)
    X = Spectrum(P7, [rng.randbelow(1 << 40) for _ in range(7)])
    # Exact counts that miss the expected total are caught when formed.
    x = X.counts
    rows = convolution._ntt_cyclic(x, x, X.total**2, 0, X.total**2)
    with pytest.raises(InvariantViolation, match="forced combinatorial total"):
        Spectrum(P7, rows, expected_total=X.total**2 + 1).counts
    # X*X takes 3 primes, (X*X)**2 six: the fifth backward pass is the second
    # prime's second transform in the product of rows, its fourth call.  One
    # coefficient off in its row moves that row's sum, and the product does
    # not return, serially and with the pool forced on.
    second = convolution._primes_for(16, 2**93)[1][0]

    def off_by_one(q, j, out):
        if q == second and j == 4:
            out[3] = (out[3] + 1) % q

    for workers in (None, 2):
        with monkeypatch.context() as m:
            if workers:
                _set_pool(m, 2, workers)
            calls = _plant(m, off_by_one)
            with pytest.raises(InvariantViolation, match="transform prime"):
                fold(X, 4)
        assert len(calls) == 18  # raised once that product's six primes were done


def test_a_fold_holds_rows_on_its_last_plans_primes(monkeypatch):
    # fold(X, 4) of seven 40-bit counts ends on a squaring of 2**160-sized
    # totals: its rows carry the six primes that product's plan picked.
    plans, real = [], convolution._plan
    monkeypatch.setattr(convolution, "_plan", lambda n, width: plans.append(real(n, width)) or plans[-1])
    rng = SplitMix64(4)
    X = Spectrum(P7, [rng.randbelow(1 << 40) for _ in range(7)])
    rows = fold(X, 4)._held
    last = tuple(q for q, _ in plans[-1][1])
    assert isinstance(rows, convolution._Rows) and len(last) == 6
    assert rows.moduli == last and rows.array.shape == (6, 7)


def test_rows_are_read_against_the_primes_they_carry():
    # Counts taken mod the primes of the length-64 pool, which a length-7
    # product (length 16) does not use: .counts reads them against their own
    # primes, and so does a product, which moves them to its own primes.
    counts = [5 * 10**11, 1, 2, 3, 4, 0, 9]
    moduli = [q for q, _ in convolution._primes_for(64, sum(counts) + 1)]
    assert moduli != [q for q, _ in convolution._primes_for(16, sum(counts) + 1)]

    def held():
        return Spectrum(P7, convolution._residues(counts, moduli), expected_total=sum(counts))

    assert held().counts == counts
    square = cyclic_convolve(held(), held())
    assert square.counts == cyclic_schoolbook(counts, counts)
    assert cyclic_convolve(held(), Spectrum(P7, counts)).counts == cyclic_schoolbook(counts, counts)


def _rows_spectrum(p, bits, depth, seed):
    """A spectrum held as residue rows that already carry every prime its depth-fold
    needs, so each product's _residues returns a view of the caller's rows."""
    rng = SplitMix64(seed)
    counts = [rng.randbelow(1 << bits) for _ in range(p)]
    size = 1 << (2 * p - 1).bit_length()
    moduli = [q for q, _ in convolution._primes_for(size, sum(counts) ** depth + 1)]
    return Spectrum(PrimeModulus(p), convolution._residues(counts, moduli), expected_total=sum(counts)), counts


def test_a_product_never_writes_over_rows_it_did_not_build():
    # S's rows carry enough primes for S * S, so the product reads a view of
    # them: it must write into rows of its own.
    X, counts = _rows_spectrum(101, 40, 2, seed=1)
    before = X._held.array.copy()
    square = cyclic_convolve(X, X)
    assert (X._held.array == before).all()
    assert square.counts == cyclic_schoolbook(counts, counts)
    # With too few primes, the product extends them into rows it built and
    # writes over those; the caller's rows still stay as they were.
    Y, small = _rows_spectrum(101, 20, 1, seed=2)
    before = Y._held.array.copy()
    assert cyclic_convolve(Y, Y).counts == cyclic_schoolbook(small, small)
    assert len(before) == 1 and (Y._held.array == before).all()


@pytest.mark.parametrize("d", [3, 5, 7])
def test_fold_with_aliased_result_and_base_keeps_its_input(d):
    # fold's first odd step sets result = base, so the next squaring of base
    # reads the rows result still holds.
    X, counts = _rows_spectrum(13, 30, d, seed=d)
    before = X._held.array.copy()
    want = counts
    for _ in range(d - 1):
        want = exact_cyclic(want, counts)
    assert fold(X, d).counts == want
    assert (X._held.array == before).all() and X.counts == counts


def test_length_guard_is_the_engines_longest_transform():
    # A prime q = 1 (mod N) exists for N = _MAX_SIZE and for no longer N, so
    # length-p products fit exactly while 2p - 1 < _MAX_SIZE, that is p <= 2**26.
    assert convolution._primes_for(convolution._MAX_SIZE, 2)
    with pytest.raises(GuardExceeded):
        convolution._primes_for(2 * convolution._MAX_SIZE, 2)
    below, above = 67108859, 67108879  # the primes either side of 2**26
    assert convolution._within_engine(PrimeModulus(below)) == below
    with pytest.raises(GuardExceeded, match="hard limit"):
        convolution._within_engine(PrimeModulus(above))


def test_int64_array_spectrum():
    # A spectrum may be held as a 1-D int64 array: its length, sign and total
    # are checked when it is held, and .counts forms Python ints once.
    rng = SplitMix64(12)
    counts = [rng.randbelow(1 << 20) for _ in range(7)]
    X = Spectrum(P7, np.array(counts, dtype=np.int64), expected_total=sum(counts))
    assert X.total == sum(counts)
    assert X.counts == counts and all(type(c) is int for c in X.counts)
    assert X.counts is X.counts
    with pytest.raises(ValueError, match="negative count"):
        Spectrum(P7, np.array([1, 2, -1, 0, 0, 0, 0], dtype=np.int64))
    with pytest.raises(ValueError, match="need 7 counts"):
        Spectrum(P7, np.zeros(6, dtype=np.int64))
    with pytest.raises(InvariantViolation, match="forced combinatorial total"):
        Spectrum(P7, np.array(counts, dtype=np.int64), expected_total=sum(counts) + 1)
    # entries past 2**63 / p: the total is summed in Python ints, not int64
    big = [2**62, 2**62, 2**62, 0, 0, 0, 5]
    assert Spectrum(P7, np.array(big, dtype=np.int64)).total == 3 * 2**62 + 5
    # fold from an array-held base: the direct tier keeps arrays, the transform
    # tier turns them into rows, and every depth equals iterated exact_cyclic
    want, held = counts, set()
    for d in range(1, 9):
        S = fold(Spectrum(P7, np.array(counts, dtype=np.int64)), d)
        held.add(S._held.array.ndim if isinstance(S._held, convolution._Rows) else S._held.ndim)
        assert S.counts == want and S.total == sum(counts) ** d
        want = exact_cyclic(want, counts)
    assert held == {1, 2}


def test_base_spectra_convolve_through_exact_cyclic(monkeypatch):
    # The base spectra's one convolution each is exact_cyclic on lists, the span
    # that perfbench's traced run times (and requires on every workload); their
    # counts are then held as int64 arrays.
    calls = []
    monkeypatch.setattr(spectra, "exact_cyclic", lambda a, b: calls.append((a, b)) or exact_cyclic(a, b))
    A = S("0,1,3", P7)
    for build in (diff_square_spectrum, product_spectrum):
        calls.clear()
        X = build(A)
        assert [(type(a), type(b)) for a, b in calls] == [(list, list)]
        assert isinstance(X._held, np.ndarray) and X._held.ndim == 1


# -- centred bounds ----------------------------------------------------------


def _bench_set(seed: int, p: int, m: int) -> FieldSubset:
    """perfbench's input sets: a uniform m-subset of F_p by Floyd's algorithm, each draw
    below j + 1 taken from random.Random(seed).getrandbits by rejection."""
    rng, chosen = random.Random(seed), set()
    for j in range(p - m, p):
        t = rng.getrandbits((j + 1).bit_length())
        while t > j:
            t = rng.getrandbits((j + 1).bit_length())
        chosen.add(t if t not in chosen else j)
    return FieldSubset(PrimeModulus(p), chosen)


def _spy_plans(monkeypatch):
    """The widths of the products planned from now on, and their primes' counts."""
    widths, primes, real = [], [], convolution._plan

    def spied(n, width):
        plan = real(n, width)
        widths.append(width)
        primes.append(len(plan[1]))
        return plan

    monkeypatch.setattr(convolution, "_plan", spied)
    return widths, primes


def _plain(m):
    """Plan every product on [0, total]: no spectrum has bounds tighter than any counts meet."""
    m.setattr(Spectrum, "_deviation", lambda self: (0, self.total, self.total))


def test_energy_deep_chain_primes_per_squaring(monkeypatch):
    # perfbench's seed-1 energy-deep set (dot, p = 9973, |A| = 3000, d = 64).  Its
    # six squarings take 1, 2, 4, 7, 14 and 28 primes from centred bounds (the
    # first three read exactly off an int64 array or rows of one or two primes),
    # against 2, 3, 6, 12, 24 and 47 on [0, total], and the counts are the same.
    base = product_spectrum(_bench_set(1, 9973, 3000))
    widths, primes = _spy_plans(monkeypatch)
    centred = fold(base, 64)
    assert primes == [1, 2, 4, 7, 14, 28]
    assert all(w < base.total ** (2 ** (e + 1)) for e, w in enumerate(widths))
    with monkeypatch.context() as m:
        _plain(m)
        primes.clear()
        plain = fold(base, 64)
    assert primes == [2, 3, 6, 12, 24, 47]
    assert centred.counts == plain.counts


@pytest.mark.parametrize("workers", [None, 2])
def test_an_understated_radius_is_never_silently_wrong(monkeypatch, workers):
    # Bounds whose L and M are cut by 2**s (and so r by 4**s) plan too few primes
    # for some products of fold(X, 7).  Every value read off rows (_small, _ints
    # and the base extension) is checked against the product's interval, so the
    # fold raises InvariantViolation or returns the exact counts, serially and
    # with the pool forced on; some cuts must reach the certificate.
    rng = np.random.default_rng(7)
    counts = rng.integers(0, 1 << 40, 101)
    want = fold(Spectrum(PrimeModulus(101), counts.copy()), 7).counts
    real, seen = Spectrum._deviation, set()
    for s in (0, 1, 2, 4, 8, 16, 30, 60, 200):
        with monkeypatch.context() as m:
            if workers:
                _set_pool(m, 2, workers)
            m.setattr(Spectrum, "_deviation", lambda self: (lambda c, l1, top: (c, l1 >> s, top >> s))(*real(self)))
            try:
                got = fold(Spectrum(PrimeModulus(101), counts.copy()), 7).counts
            except InvariantViolation as error:
                seen.add("outside" if "outside" in str(error) else "other")
            else:
                assert got == want
                seen.add("exact")
    assert {"outside", "exact"} <= seen


@SETTINGS
@given(
    p=st.sampled_from([101, 4099]),
    kind=st.sampled_from(["distance", "dot"]),
    size=st.integers(min_value=1, max_value=101),
    d=st.integers(min_value=1, max_value=9),
    held=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_centred_folds_equal_plain_folds(p, kind, size, d, held, seed):
    # Both forms at every depth to 9 (the odd ones multiply result * base), on
    # p = 101, whose folds reach the transform tier once |A|**(2d) passes 2**63,
    # and on p = 4099, past the direct tier's length, where |A| < 64 gives the
    # sparse sets with |A|**2 < p.  Centred widths never exceed the plain ones,
    # and the counts equal the plain fold's and, at p = 101, the repeated
    # schoolbook.  held: the base as rows over three primes, with no bounds
    # known, so its first product plans the plain width.
    modulus = PrimeModulus(p)
    base = base_spectrum(FieldSubset(modulus, random.Random(seed).sample(range(p), min(size, p))), kind)
    if held:
        moduli = [q for q, _ in convolution._primes_for(1 << 13, 1 << 63)][:3]
        base = Spectrum(modulus, convolution._residues(base.counts, moduli), expected_total=base.total)
    runs = []
    for plain in (False, True):
        with pytest.MonkeyPatch.context() as m:
            if plain:
                _plain(m)
            widths, _ = _spy_plans(m)
            runs.append((fold(base, d).counts, widths))
    (centred, widths), (want, plain_widths) = runs
    assert centred == want and len(widths) == len(plain_widths)
    assert all(w <= pw for w, pw in zip(widths, plain_widths))
    if held and d > 1:
        assert widths[0] == base.total**2
    if p == 101:
        assert want == _schoolbook_folds(base.counts)[d]
