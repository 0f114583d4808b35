"""Tiny built-in oracle suites behind each CLI subcommand's --selftest.

Each suite replays a handful of independently computable cases (hand
enumeration or direct brute force, never the fast path under test) and
returns (name, ok) pairs.  The full pytest suite is the real gate; these
give a fast standalone smoke signal.
"""

from __future__ import annotations

from .convolution import exact_cyclic
from .encodings import deviation_check, encode, pair_counts
from .energy import bruteforce_spectrum, distance_energy, dot_energy, energy_bruteforce_oracle
from .field import PrimeModulus, additive_character
from .incidence import PlaneSet, build_proof_instance, count_incidences, verify_proof_instance
from .rng import SplitMix64
from .sets import FieldSubset, WeightedPointSet, isotropic_line, parse_subset, random_multiset, random_subset
from .spectra import (
    diff_square_spectrum,
    distance_spectrum_general,
    power_spectrum,
    product_spectrum,
    sumset,
    support,
)
from .verify import cauchy_davenport_check, coverage_check, delta_additivity_check

Check = tuple[str, bool]


def spectra_selftest() -> list[Check]:
    checks = []
    p7 = PrimeModulus(7)
    A = parse_subset("0,1,3", p7)
    checks.append(
        ("diff_square {0,1,3} mod 7", dict(diff_square_spectrum(A).items()) == {0: 3, 1: 2, 2: 2, 4: 2})
    )
    p5 = PrimeModulus(5)
    B = parse_subset("1,2", p5)
    checks.append(("product {1,2} mod 5", dict(product_spectrum(B).items()) == {1: 1, 2: 2, 4: 1}))
    rng = SplitMix64(11)
    ok = True
    for p in (5, 7):
        modulus = PrimeModulus(p)
        for _ in range(3):
            S = random_subset(modulus, 1 + rng.randbelow(3), rng.next_u64())
            for n in (1, 2):
                for kind in ("distance", "dot"):
                    ok = ok and power_spectrum(S, kind, n).counts == bruteforce_spectrum(S, n, kind)
    checks.append(("power spectra match pair enumeration (p<=7)", ok))
    # 128-bit entries put the bound near 2**259, past the direct tier: the
    # length-16 transforms run on nine primes near 2**31.5, recombined by CRT.
    a = [rng.next_u64() << 64 | rng.next_u64() for _ in range(5)]
    b = [(1 << 128) - 1 - x for x in a]
    naive = [sum(a[u] * b[(t - u) % 5] for u in range(5)) for t in range(5)]
    checks.append(("exact_cyclic transform tier matches the O(n^2) sum", exact_cyclic(a, b) == naive))
    iso = isotropic_line(p5)
    checks.append(
        ("isotropic line supported on {0}", support(distance_spectrum_general(iso)).elements() == [0])
    )
    return checks


def field_selftest() -> list[Check]:
    checks = []
    p7 = PrimeModulus(7)
    checks.append(("inv(3) = 5 mod 7", p7.inv(3) == 5))
    checks.append(("squares count (p-1)/2", sum(p7.is_square(t) for t in range(1, 7)) == 3))
    total = sum(additive_character(p7, 3 * s % 7) for s in range(7))
    checks.append(("character orthogonality", abs(total) < 1e-9))
    return checks


def energy_selftest() -> list[Check]:
    checks = []
    p7 = PrimeModulus(7)
    A = parse_subset("0,1", p7)
    checks.append(("E_2 of {0,1} mod 7 is 96", distance_energy(A, 2) == 96))
    checks.append(
        ("spectrum path matches oracle", distance_energy(A, 2) == energy_bruteforce_oracle(A, 2, "distance"))
    )
    p5 = PrimeModulus(5)
    B = parse_subset("1,2", p5)
    checks.append(
        ("multiplicative energy dilation invariant",
         dot_energy(B, 1) == dot_energy(B.dilate(3), 1))
    )
    return checks


def encodings_selftest() -> list[Check]:
    checks = []
    p5 = PrimeModulus(5)
    A = parse_subset("0,1", p5)
    E, F = encode(A, "distance", 3)
    checks.append(
        ("odd encoding entries", E.entries == {(0, 0): 2, (0, 1): 2, (2, 1): 2, (2, 2): 2})
    )
    checks.append(("odd encoding second moment", E.second_moment() == 16))
    brute = bruteforce_spectrum(A, 3, "distance")
    checks.append(("odd encoding pair counts", pair_counts(E, F) == brute))
    rng = SplitMix64(3)
    ok2 = ok3 = True
    for _ in range(5):
        pairs = [[random_multiset(rng, PrimeModulus(7), dim, 6, 4) for _ in range(2)] for dim in (2, 3)]
        ok2 = ok2 and deviation_check(*pairs[0]).passed
        ok3 = ok3 and deviation_check(*pairs[1]).passed
    checks.append(("plane deviation bound", ok2))
    checks.append(("space deviation bound", ok3))
    return checks


def incidence_selftest() -> list[Check]:
    checks = []
    p5 = PrimeModulus(5)
    origin = WeightedPointSet(p5, 3, {(0, 0, 0): 1})
    z0 = PlaneSet(p5, {(0, 0, 1, 0): 1})
    z1 = PlaneSet(p5, {(0, 0, 1, 1): 1})
    checks.append(("origin on Z=0", count_incidences(origin, z0) == 1))
    checks.append(("origin off Z=1", count_incidences(origin, z1) == 0))
    rng = SplitMix64(5)
    ok = True
    for _ in range(5):
        pts = WeightedPointSet(p5, 3, [(tuple(rng.randbelow(5) for _ in range(3)), 1) for _ in range(12)])
        planes = PlaneSet(
            p5, [((1 + rng.randbelow(4), rng.randbelow(5), rng.randbelow(5), rng.randbelow(5)), 1) for _ in range(12)]
        )
        ok = ok and count_incidences(pts, planes, "direct") == count_incidences(pts, planes, "grouped")
    checks.append(("strategies agree on random instances", ok))
    _, instances = build_proof_instance(parse_subset("0,1,3", PrimeModulus(7)), 2)
    try:
        for inst in instances.values():
            verify_proof_instance(inst)
        checks.append(("incidences equal carried pair sum", True))
    except Exception:
        checks.append(("incidences equal carried pair sum", False))
    return checks


def verify_selftest() -> list[Check]:
    checks = []
    p5 = PrimeModulus(5)
    iso = isotropic_line(p5)
    report = coverage_check(distance_spectrum_general(iso))
    checks.append(("isotropic coverage fails off zero", not report.covered and len(report.missing) == 4))
    rng = SplitMix64(9)
    ok_cd = ok_da = True
    for p in (5, 7, 11):
        modulus = PrimeModulus(p)
        for _ in range(5):
            X = random_subset(modulus, 1 + rng.randbelow(p), rng.next_u64())
            Y = random_subset(modulus, 1 + rng.randbelow(p), rng.next_u64())
            ok_cd = ok_cd and cauchy_davenport_check(X, Y)
            ok_da = ok_da and delta_additivity_check(X, 1 + rng.randbelow(2))
    checks.append(("sumset lower bound", ok_cd))
    checks.append(("distance-set additivity", ok_da))
    full = FieldSubset.full(p5)
    checks.append(("sumset of full field", sumset(full, full) == full))
    return checks


SUITES = {
    "field": field_selftest,
    "spectra": spectra_selftest,
    "energy": energy_selftest,
    "encodings": encodings_selftest,
    "incidence": incidence_selftest,
    "verify": verify_selftest,
}


def run_suites(names: list[str]) -> list[Check]:
    results: list[Check] = []
    for name in names:
        for check, ok in SUITES[name]():
            results.append((f"{name}: {check}", ok))
    return results
