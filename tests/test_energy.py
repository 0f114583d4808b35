import json

import pytest

from ffdist.energy import (
    additive_energy,
    bruteforce_spectrum,
    distance_energy,
    dot_energy,
    dyadic_levels,
    energy_bruteforce_oracle,
    energy_from_spectrum,
    recursion_diagnostic,
)
from ffdist.errors import GuardExceeded
from ffdist.field import PrimeModulus
from ffdist.rng import SplitMix64
from ffdist.sets import FieldSubset, parse_subset, random_subset
from ffdist.spectra import Spectrum, diff_square_spectrum, fold

from oracles import dist_pair_counts_py, dot_pair_counts_py, energy_by_tuples, quadruple_energy

P5 = PrimeModulus(5)
P7 = PrimeModulus(7)


def test_energy_examples():
    A = parse_subset("0,1", P7)
    S2 = fold(diff_square_spectrum(A), 2)
    assert energy_from_spectrum(S2) == 4**2 + 8**2 + 4**2 == 96
    assert energy_from_spectrum(Spectrum.point_mass(P7, 3, 9)) == 81
    assert distance_energy(A, 1) == 8
    assert distance_energy(A, 2) == 96


def test_named_energies():
    A = parse_subset("0,1", P5)
    assert additive_energy(A) == 6
    # the multiplicative energy is the dot energy at d = 1
    assert dot_energy(A, 1) == quadruple_energy(A, "multiplicative")
    B = parse_subset("1,2", P5)
    assert dot_energy(B, 1) == quadruple_energy(B, "multiplicative")
    for value in (additive_energy(A), dot_energy(B, 1), distance_energy(B, 2)):
        assert type(value) is int


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_oracle_equivalence(p):
    modulus = PrimeModulus(p)
    rng = SplitMix64(p)
    for size in range(1, min(3, p) + 1):
        A = random_subset(modulus, size, seed=rng.next_u64())
        for d in (1, 2):
            for kind in ("distance", "dot"):
                fast = distance_energy(A, d) if kind == "distance" else dot_energy(A, d)
                assert fast == energy_bruteforce_oracle(A, d, kind)
        assert additive_energy(A) == energy_bruteforce_oracle(A, 1, "additive")
        assert dot_energy(A, 1) == energy_bruteforce_oracle(A, 1, "multiplicative")


def test_oracle_against_literal_tuples():
    A = parse_subset("0,1", P7)
    for kind in ("distance", "dot"):
        for d in (1, 2):
            assert energy_bruteforce_oracle(A, d, kind) == energy_by_tuples(A, d, kind)
    B = parse_subset("1,2,4", P5)
    assert energy_bruteforce_oracle(B, 1, "additive") == quadruple_energy(B, "additive")


@pytest.mark.parametrize("p", [5, 7])
def test_bruteforce_spectrum_against_pair_oracles(p):
    modulus = PrimeModulus(p)
    rng = SplitMix64(p + 100)
    for size in range(1, 5):
        A = random_subset(modulus, size, seed=rng.next_u64())
        for n in (1, 2):
            assert bruteforce_spectrum(A, n, "distance") == dist_pair_counts_py(A, n)
            assert bruteforce_spectrum(A, n, "dot") == dot_pair_counts_py(A, n)


def test_bruteforce_spectrum_additive_by_hand():
    # {1, 2, 4} mod 5, ordered pairs: 1+4 and 4+1 give 0; 2+4, 4+2 give 1;
    # 1+1 gives 2; 1+2, 2+1, 4+4 give 3; 2+2 gives 4
    assert bruteforce_spectrum(parse_subset("1,2,4", P5), 1, "additive") == [2, 2, 1, 3, 1]
    assert bruteforce_spectrum(parse_subset("0,3", P7), 1, "additive") == [1, 0, 0, 2, 0, 0, 1]
    with pytest.raises(ValueError, match="unknown pair form"):
        bruteforce_spectrum(parse_subset("1", P5), 1, "multiplicative")


def test_singleton_energy_is_one():
    A = parse_subset("3", P7)
    for kind, d, value in (
        ("distance", 3, distance_energy(A, 3)),
        ("dot", 3, dot_energy(A, 3)),
        ("additive", 1, additive_energy(A)),
        ("multiplicative", 1, dot_energy(A, 1)),
    ):
        assert value == 1, kind
        assert energy_bruteforce_oracle(A, d, kind) == 1


def test_oracle_guard(monkeypatch):
    import ffdist.energy

    monkeypatch.setattr(ffdist.energy, "ORACLE_GUARD", 10**6)
    A = FieldSubset.full(PrimeModulus(31))
    with pytest.raises(GuardExceeded):
        energy_bruteforce_oracle(A, 3, "distance")


def test_monotonicity_under_subsets():
    rng = SplitMix64(12)
    for _ in range(10):
        A = random_subset(PrimeModulus(13), 2 + rng.randbelow(6), seed=rng.next_u64())
        elements = A.elements()
        B = FieldSubset(A.modulus, elements[: len(elements) - 1])
        if len(B) == 0:
            continue
        for d in (1, 2):
            assert distance_energy(B, d) <= distance_energy(A, d)
            assert dot_energy(B, d) <= dot_energy(A, d)
        assert additive_energy(B) <= additive_energy(A)


def test_cauchy_schwarz_floor_exact():
    rng = SplitMix64(77)
    for p in (7, 31):
        modulus = PrimeModulus(p)
        for _ in range(10):
            A = random_subset(modulus, 1 + rng.randbelow(p), seed=rng.next_u64())
            for d in (1, 2):
                E = distance_energy(A, d)
                assert p * E >= len(A) ** (4 * d)


def test_dilation_invariance():
    rng = SplitMix64(31)
    for _ in range(10):
        A = random_subset(PrimeModulus(31), 1 + rng.randbelow(30), seed=rng.next_u64())
        c = 1 + rng.randbelow(30)
        assert additive_energy(A.dilate(c)) == additive_energy(A)
        assert dot_energy(A.dilate(c), 1) == dot_energy(A, 1)


def test_dyadic_levels_examples():
    S = Spectrum(P5, [3, 2, 2, 2, 0])
    levels = dyadic_levels(S)
    assert list(levels) == [1]
    assert levels[1].elements() == [0, 1, 2, 3]

    D3 = fold(diff_square_spectrum(parse_subset("0,1", P5)), 3)
    levels = dyadic_levels(D3)
    assert list(levels) == [3, 4]
    assert levels[3].elements() == [0, 3]
    assert levels[4].elements() == [1, 2]

    assert dyadic_levels(Spectrum(P5, [0] * 5)) == {}


def test_dyadic_levels_partition_support():
    rng = SplitMix64(10)
    for _ in range(5):
        S = Spectrum(PrimeModulus(13), [rng.randbelow(40) for _ in range(13)])
        levels = dyadic_levels(S)
        assert list(levels) == sorted(levels)
        seen = set()
        for i, subset in levels.items():
            for t in subset:
                assert t not in seen
                seen.add(t)
                assert 1 << i <= S[t] < 1 << (i + 1)
        assert seen == {t for t, c in S.items()}


def test_recursion_diagnostic():
    A = random_subset(PrimeModulus(11), 5, seed=2)
    report = recursion_diagnostic(A, 2)
    assert report["energy_d"] == distance_energy(A, 2)
    assert report["energy_d_minus_1"] == distance_energy(A, 1)
    assert report["ratio_recursive"] is not None and report["ratio_recursive"] > 0
    for p in (11, 13):
        full = FieldSubset.full(PrimeModulus(p))
        rep = recursion_diagnostic(full, 2)
        assert rep["ratio_main_term"] > 0  # reported, never asserted against a constant
    dot_report = recursion_diagnostic(A, 2, kind="dot")
    assert dot_report["energy_d"] == dot_energy(A, 2)
    assert set(dot_report) == set(report)
    with pytest.raises(ValueError):
        recursion_diagnostic(A, 1)


def test_recursion_diagnostic_overflowing_floats_are_none():
    # at d = 100 the bound shapes pass the double range; the energies stay exact
    A = random_subset(PrimeModulus(101), 50, seed=0)
    report = recursion_diagnostic(A, 100)
    assert report["energy_d"] == distance_energy(A, 100)
    for key in ("main_term", "recursive_term", "recursive_rhs", "closed_form_rhs",
                "ratio_recursive", "ratio_closed_form"):
        assert report[key] is None, key
    assert 0.5 < report["ratio_main_term"] < 2  # an exact ratio of two huge integers
    json.dumps(report, allow_nan=False)


def test_energy_value_validation():
    A = parse_subset("1", P5)
    with pytest.raises(ValueError, match="unknown energy kind"):
        energy_bruteforce_oracle(A, 1, "sideways")
    with pytest.raises(ValueError, match="unknown form"):
        recursion_diagnostic(A, 2, kind="additive")
    for kind in ("additive", "multiplicative"):
        with pytest.raises(ValueError, match="no fold depth"):
            energy_bruteforce_oracle(A, 2, kind)
