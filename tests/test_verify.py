import json
import time
from fractions import Fraction

import pytest

from ffdist.energy import additive_energy, distance_energy, dot_energy
from ffdist.errors import GuardExceeded
from ffdist.field import PrimeModulus
from ffdist.rng import SplitMix64
from ffdist.sets import FieldSubset, isotropic_line, parse_subset, random_pointset, random_subset
from ffdist.spectra import Spectrum, distance_spectrum_general, power_spectrum
from ffdist.verify import (
    _size_hypothesis_holds,
    balog_wooley_decompose,
    cauchy_davenport_check,
    coverage_check,
    delta_additivity_check,
    iosevich_rudnev_check,
    theorem_last_report,
    threshold_scan,
)

P5 = PrimeModulus(5)
P7 = PrimeModulus(7)


def test_coverage_isotropic():
    report = coverage_check(distance_spectrum_general(isotropic_line(P5)))
    assert not report.covered
    assert report.missing.elements() == [1, 2, 3, 4]
    assert report.zero_count == 25


def test_coverage_full_field_cube():
    for p in (3, 5, 7):
        modulus = PrimeModulus(p)
        S = power_spectrum(FieldSubset.full(modulus), "distance", 3)
        report = coverage_check(S)
        assert report.covered
        assert Fraction(report.deviation_num, report.deviation_den) <= Fraction(2, p)


def test_coverage_empty_support():
    report = coverage_check(Spectrum(P5, [0] * 5))
    assert not report.covered and len(report.missing) == 5


def test_iosevich_rudnev_above_threshold():
    for p, size in ((5, 100), (7, 196)):
        modulus = PrimeModulus(p)
        for seed in range(5):
            E = random_pointset(modulus, 3, size, seed=seed)
            report = iosevich_rudnev_check(E)
            assert report.threshold_met
            assert report.coverage.covered and report.coverage.total == size * size


def test_iosevich_rudnev_below_threshold_reports_only():
    E = random_pointset(P5, 3, 10, seed=0)
    report = iosevich_rudnev_check(E)
    assert not report.threshold_met


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29, 31])
def test_identity_suite(p):
    modulus = PrimeModulus(p)
    rng = SplitMix64(p * 17)
    for _ in range(20):
        A = random_subset(modulus, 1 + rng.randbelow(p), seed=rng.next_u64())
        assert delta_additivity_check(A, 1 + rng.randbelow(3))
        X = random_subset(modulus, 1 + rng.randbelow(p), seed=rng.next_u64())
        Y = random_subset(modulus, 1 + rng.randbelow(p), seed=rng.next_u64())
        assert cauchy_davenport_check(X, Y)


def test_identity_edge_cases():
    single = parse_subset("2", P7)
    assert delta_additivity_check(single, 2)
    for p in (5, 7):
        assert delta_additivity_check(FieldSubset.full(PrimeModulus(p)), 1)
    assert cauchy_davenport_check(parse_subset("0,1", P5), parse_subset("0,1", P5))
    full = FieldSubset.full(P5)
    assert cauchy_davenport_check(full, full)


def test_decompose_singleton():
    result = balog_wooley_decompose(parse_subset("1", P5))
    assert result.max_energy == 1
    assert len(result.B) + len(result.C) == 1
    assert set(result.B).isdisjoint(result.C)


def test_decompose_exhaustive_beats_greedy():
    rng = SplitMix64(23)
    for p in (31, 101):
        modulus = PrimeModulus(p)
        for _ in range(8):
            A = random_subset(modulus, 2 + rng.randbelow(7), seed=rng.next_u64())
            ex = balog_wooley_decompose(A, "exhaustive")
            gr = balog_wooley_decompose(A, "greedy")
            assert gr.max_energy >= ex.max_energy
            for result in (ex, gr):
                assert set(result.B) | set(result.C) == set(A)
                assert set(result.B).isdisjoint(result.C)


def test_decompose_energies_are_consistent():
    A = random_subset(PrimeModulus(31), 6, seed=11)
    result = balog_wooley_decompose(A)
    if len(result.B):
        assert result.eplus == additive_energy(result.B)
        assert result.eplus <= additive_energy(A)
    if len(result.C):
        assert result.etimes == dot_energy(result.C, 1)
        assert result.etimes <= dot_energy(A, 1)


def test_decompose_deterministic_tiebreak():
    A = random_subset(PrimeModulus(31), 7, seed=5)
    first = balog_wooley_decompose(A)
    second = balog_wooley_decompose(A)
    assert first.B == second.B and first.C == second.C


def test_decompose_guard():
    A = random_subset(PrimeModulus(101), 25, seed=0)
    with pytest.raises(GuardExceeded):
        balog_wooley_decompose(A, "exhaustive")
    balog_wooley_decompose(A, "greedy")  # no guard on greedy


def test_theorem_last_report():
    A = random_subset(PrimeModulus(101), 10, seed=3)
    report = theorem_last_report(A, 2)
    B = parse_subset(report["B"], PrimeModulus(101)) if report["B"] else None
    C = parse_subset(report["C"], PrimeModulus(101)) if report["C"] else None
    if B is not None:
        assert report["distance_energy_B"] == distance_energy(B, 2)
    if C is not None:
        assert report["dot_energy_C"] == dot_energy(C, 2)
    assert report["ratio"] is not None
    assert report["size_hypothesis_holds"]  # 10 <= 101^(1/2 + 1/8)

    singleton = theorem_last_report(parse_subset("4", P7), 2)
    assert singleton["max_energy"] == 1
    with pytest.raises(ValueError):
        theorem_last_report(A, 1)


def test_size_hypothesis_matches_the_power_form():
    # decided without the powers, it must agree with m^(2k) <= p^(k+2) wherever
    # the powers are small enough to form
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43):
        for m in range(1, p + 1):
            for d in range(2, 11):
                k = 5 * 2 ** (d - 1) - 2
                assert _size_hypothesis_holds(m, p, k) == (m ** (2 * k) <= p ** (k + 2)), (m, p, d)


def test_theorem_last_report_deep_fold_is_quick():
    A = random_subset(PrimeModulus(101), 12, seed=1)
    start = time.perf_counter()
    report = theorem_last_report(A, 40)
    assert time.perf_counter() - start < 1.0
    assert report["size_hypothesis_holds"] is False  # 12^2 > 101, so it fails once k is large
    assert report["bound_shape"] > 0 and report["ratio"] > 0


def test_theorem_last_report_overflowing_floats_are_none():
    # m^exponent and max_energy / bound_shape pass the double range at d = 100
    A = random_subset(PrimeModulus(101), 12, seed=1)
    report = theorem_last_report(A, 100)
    assert report["bound_shape"] is None and report["ratio"] is None
    assert report["max_energy"] == max(report["distance_energy_B"], report["dot_energy_C"]) > 0
    json.dumps(report, allow_nan=False)


def test_theorem_last_hypothesis_exactness():
    # m <= p^(1/2 + 1/8) iff m^16 <= p^10 for d = 2
    big = random_subset(P7, 6, seed=1)
    report = theorem_last_report(big, 2, strategy="greedy")
    assert report["size_hypothesis_holds"] == (6**16 <= 7**10)


def test_threshold_scan_distance():
    table = threshold_scan(P5, 2, "distance", trials=4, seed=9)
    assert table.rows[0].m == 1 and table.rows[0].covered_fraction == 0.0
    assert table.rows[-1].m == 5 and table.rows[-1].covered_fraction == 1.0
    assert table.min_full_coverage_m is not None
    csv = table.to_csv()
    assert csv.splitlines()[0] == "m,trials,covered_fraction,min_count"
    for p in (5, 7):
        t = threshold_scan(PrimeModulus(p), 2, "distance", trials=3, seed=2)
        assert t.rows[-1].covered_fraction == 1.0  # A = F_p always covers


def test_threshold_scan_dot_zero_column():
    table = threshold_scan(P7, 2, "dot", trials=3, seed=4)
    header = table.to_csv().splitlines()[0]
    assert header == "m,trials,covered_fraction,min_count,zero_fraction"
    assert table.rows[0].covered_fraction == 0.0  # m = 1 cannot cover F_p*
    assert table.rows[-1].zero_fraction == 1.0


def test_threshold_scan_thread_invariance():
    first = threshold_scan(PrimeModulus(11), 2, "distance", trials=3, seed=7)
    second = threshold_scan(PrimeModulus(11), 2, "distance", trials=3, seed=7)
    assert first.to_csv() == second.to_csv()
    assert first.min_full_coverage_m == second.min_full_coverage_m


def test_threshold_scan_max_m():
    table = threshold_scan(PrimeModulus(13), 2, "distance", trials=2, seed=0, max_m=4)
    assert [row.m for row in table.rows] == [1, 2, 3, 4]
