import pytest
from hypothesis import given
from hypothesis import strategies as st

from ffdist.errors import GuardExceeded, ParseError
from ffdist.field import PrimeModulus
from ffdist.rng import SplitMix64
from ffdist.sets import FieldSubset, PointSet, parse_subset, random_subset
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
    dist_pair_counts,
    dist_pair_counts_py,
    dot_pair_counts,
    dot_pair_counts_py,
    materialize_power,
    sphere_counts,
)
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
    single = PointSet(P7, 3, [(1, 2, 3)])
    assert dict(distance_spectrum_general(single).items()) == {0: 1}
    A = S("0,2", P5)
    assert distance_spectrum_general(materialize_power(A, 2)) == power_spectrum(A, "distance", 2)
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
