"""Acceptance suite: the exit criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run pytest with -s to see them).
Every expected value is either computed by an independent brute-force
oracle within the test run or is a forced combinatorial fact; tolerances
are exact integer comparisons throughout.
"""

import json
import time
from contextlib import contextmanager

from ffdist.cli import run as cli_run
from ffdist.encodings import deviation_check, encode, pair_counts
from ffdist.energy import (
    distance_energy,
    dot_energy,
    dyadic_levels,
    energy_bruteforce_oracle,
)
from ffdist.field import PrimeModulus
from ffdist.incidence import build_proof_instance, verify_proof_instance
from ffdist.rng import SplitMix64, derive_seed
from ffdist.sets import FieldSubset, isotropic_line, parse_subset, random_pointset, random_subset
from ffdist.spectra import (
    diff_square_spectrum,
    distance_spectrum_general,
    fold,
    power_spectrum,
    support,
)
from ffdist.verify import (
    balog_wooley_decompose,
    cauchy_davenport_check,
    delta_additivity_check,
    iosevich_rudnev_check,
)

from test_encodings import random_multiset
from oracles import cyclic_schoolbook, dist_pair_counts, dot_pair_counts, sphere_counts


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"FAIL  {label}")
        raise
    print(f"PASS  {label}")


def test_criterion_01_spectrum_oracle_equivalence():
    with criterion("criterion 1: spectrum oracle equivalence (p<=13, |A|<=4, n<=3, 20 seeds)"):
        start = time.time()
        for p in (5, 7, 11, 13):
            modulus = PrimeModulus(p)
            for size in (1, 2, 3, 4):
                for seed in range(20):
                    A = random_subset(modulus, size, seed=derive_seed("acc1", p, size, seed))
                    for n in (1, 2, 3):
                        assert power_spectrum(A, "distance", n).counts == dist_pair_counts(A, n)
                        assert power_spectrum(A, "dot", n).counts == dot_pair_counts(A, n)
        elapsed = time.time() - start
        assert elapsed < 30, f"took {elapsed:.1f}s"


def test_criterion_02_energy_oracle_equivalence():
    with criterion("criterion 2: energy oracle equivalence (p<=13, |A|<=3, d<=2)"):
        start = time.time()
        fixed = parse_subset("0,1", PrimeModulus(7))
        assert distance_energy(fixed, 2)== 96
        assert energy_bruteforce_oracle(fixed, 2, "distance")== 96
        for p in (5, 7, 11, 13):
            modulus = PrimeModulus(p)
            for size in (1, 2, 3):
                for seed in range(3):
                    A = random_subset(modulus, size, seed=derive_seed("acc2", p, size, seed))
                    for d in (1, 2):
                        assert distance_energy(A, d) == energy_bruteforce_oracle(A, d, "distance")
                        assert dot_energy(A, d) == energy_bruteforce_oracle(A, d, "dot")
        elapsed = time.time() - start
        assert elapsed < 10, f"took {elapsed:.1f}s"


def _deviation_criterion(dim, label):
    with criterion(label):
        failures = 0
        for p in (5, 7, 31, 101):
            modulus = PrimeModulus(p)
            for trial in range(100):
                rng = SplitMix64(derive_seed("acc-dev", dim, p, trial))
                E = random_multiset(rng, modulus, dim)
                F = random_multiset(rng, modulus, dim)
                report = deviation_check(E, F)
                assert report.dim == dim
                assert len(report.margins) == p  # every lambda checked
                if not report.passed:
                    failures += 1
        assert failures == 0


def test_criterion_03_deviation_bound_plane():
    _deviation_criterion(2, "criterion 3: plane deviation bound, 100 random multiset pairs x {5,7,31,101}")


def test_criterion_04_deviation_bound_space():
    _deviation_criterion(3, "criterion 4: space deviation bound (factor p), same protocol")


def test_criterion_05_encoding_soundness():
    with criterion("criterion 5: encoding soundness + second-moment identities (p<=11, |A|<=3, d<=2)"):
        for p in (5, 7, 11):
            modulus = PrimeModulus(p)
            for size in (1, 2, 3):
                for seed in range(2):
                    A = random_subset(modulus, size, seed=derive_seed("acc5", p, size, seed))
                    m = len(A)
                    for d in (1, 2):
                        E, F = encode(A, "distance", 2 * d + 1)
                        assert pair_counts(E, F) == dist_pair_counts(A, 2 * d + 1)
                        assert E.second_moment() == m * distance_energy(A, d)

                        E, F = encode(A, "distance", 2 * d)
                        assert pair_counts(E, F) == dist_pair_counts(A, 2 * d)
                        prev = distance_energy(A, d - 1) if d > 1 else 1
                        assert E.second_moment() == m * m * prev

                        E, F = encode(A, "dot", 2 * d)
                        assert pair_counts(E, F) == dot_pair_counts(A, 2 * d)
                        prev = dot_energy(A, d - 1) if d > 1 else 1
                        assert E.second_moment() == m * m * prev


def test_criterion_06_proof_instance_incidence_identity():
    with criterion("criterion 6: proof-instance incidences equal the carried pair sum (d=2, all level pairs)"):
        for p in (5, 7, 11):
            modulus = PrimeModulus(p)
            for size in (1, 2, 3, 4):
                for seed in range(2):
                    A = random_subset(modulus, size, seed=derive_seed("acc6", p, size, seed))
                    levels, instances = build_proof_instance(A, 2)
                    exps = list(levels)
                    assert levels == dyadic_levels(fold(diff_square_spectrum(A), 1))
                    assert list(instances) == [(i0, j0) for i0 in exps for j0 in exps]
                    for inst in instances.values():
                        assert verify_proof_instance(inst) == inst.expected_incidences


def test_criterion_07_isotropic_counterexample():
    with criterion("criterion 7: isotropic line spectrum supported exactly on {0} (p in {5,13,17})"):
        for p in (5, 13, 17):
            modulus = PrimeModulus(p)
            E = isotropic_line(modulus)
            S = distance_spectrum_general(E)
            assert len(E) == p
            assert support(S).elements() == [0]
            assert S.counts[0] == p * p


def test_criterion_08_threshold_coverage_assertion():
    with criterion("criterion 8: |E| >= 4p^2 in dim 3 covers all distances (20 seeds, p in {5,7})"):
        for p in (5, 7):
            modulus = PrimeModulus(p)
            size = 4 * p * p
            for seed in range(20):
                E = random_pointset(modulus, 3, size, seed=derive_seed("acc8", p, seed))
                report = iosevich_rudnev_check(E)  # raises on any failure
                assert report.threshold_met and report.coverage.covered


def test_criterion_09_equidistribution_full_density():
    with criterion("criterion 9: A = F_p, n = 3 equidistribution within 2/p, exactly"):
        for p in (3, 5, 7, 11, 13):
            modulus = PrimeModulus(p)
            S = power_spectrum(FieldSubset.full(modulus), "distance", 3)
            total = p**6
            assert S.total == total
            for count in S.counts:
                # |count * p / p^6 - 1| <= 2/p  <=>  |count*p - p^6| <= 2*p^5
                assert abs(count * p - total) <= 2 * p**5
            if p in (3, 5):
                spheres = sphere_counts(p, 3)
                assert S.counts == [p**3 * s for s in spheres]


def test_criterion_10_identity_suite():
    with criterion("criterion 10: sumset/additivity identities, 100 random instances per p in {5..31}"):
        for p in (5, 7, 11, 13, 17, 19, 23, 29, 31):
            modulus = PrimeModulus(p)
            rng = SplitMix64(derive_seed("acc10", p))
            for _ in range(100):
                A = random_subset(modulus, 1 + rng.randbelow(p), seed=rng.next_u64())
                assert delta_additivity_check(A, 1 + rng.randbelow(3))
                X = random_subset(modulus, 1 + rng.randbelow(p), seed=rng.next_u64())
                Y = random_subset(modulus, 1 + rng.randbelow(p), seed=rng.next_u64())
                assert cauchy_davenport_check(X, Y)


def test_criterion_11_decomposition():
    with criterion("criterion 11: greedy >= exhaustive decomposition on 50 random sets, deterministic"):
        for p in (31, 101):
            modulus = PrimeModulus(p)
            rng = SplitMix64(derive_seed("acc11", p))
            for _ in range(25):
                A = random_subset(modulus, 1 + rng.randbelow(10), seed=rng.next_u64())
                ex = balog_wooley_decompose(A, "exhaustive")
                gr = balog_wooley_decompose(A, "greedy")
                assert gr.max_energy >= ex.max_energy
                for result in (ex, gr):
                    assert FieldSubset(modulus, result.B.elements() + result.C.elements()) == A
                    assert set(result.B).isdisjoint(result.C)
                again = balog_wooley_decompose(A, "exhaustive")
                assert again.B == ex.B and again.C == ex.C


def test_criterion_12_performance_and_spot_check():
    with criterion("criterion 12: p=9973, |A|=3000, d=8 under 10 s (transform path), matches naive at p=499"):
        modulus = PrimeModulus(9973)
        A = random_subset(modulus, 3000, seed=2026)
        start = time.time()
        S = power_spectrum(A, "distance", 8)
        energy = sum(c * c for c in S.counts)
        elapsed = time.time() - start
        assert S.total == 3000**16
        assert energy * 9973 >= S.total**2  # exact Cauchy-Schwarz floor
        assert elapsed < 10, f"took {elapsed:.1f}s"

        small = random_subset(PrimeModulus(499), 60, seed=7)
        base = dist_pair_counts(small, 1)
        naive = cyclic_schoolbook(cyclic_schoolbook(base, base), base)
        assert power_spectrum(small, "distance", 3).counts == naive


def test_criterion_13_cli_determinism(capsys, tmp_path):
    with criterion("criterion 13: repeated CLI runs byte-identical (timestamp excluded), any --threads"):
        def run_and_capture(argv):
            code = cli_run(argv)
            out = capsys.readouterr().out
            assert code == 0
            return out

        scan_argv = ["scan", "--p", "11", "--n", "2", "--kind", "dot", "--trials", "3", "--seed", "5"]
        first = run_and_capture(scan_argv + ["--threads", "1"])
        second = run_and_capture(scan_argv + ["--threads", "4"])
        third = run_and_capture(scan_argv + ["--threads", "1"])
        assert first == second == third  # CSV payload carries no timestamp

        json_argv = ["coverage", "--p", "7", "--random", "4", "--seed", "9", "--n", "2"]
        records = []
        for threads in ("1", "3", "1"):
            out = run_and_capture(json_argv + ["--threads", threads])
            data = json.loads(out)
            data.pop("timestamp")
            data["config"].pop("threads")
            records.append(json.dumps(data, sort_keys=True))
        assert records[0] == records[1] == records[2]

        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        run_and_capture(scan_argv + ["--threads", "2", "--out", str(out_a)])
        run_and_capture(scan_argv + ["--threads", "1", "--out", str(out_b)])
        assert out_a.read_bytes() == out_b.read_bytes()

        # across processes too
        import subprocess
        import sys

        outs = [
            subprocess.run(
                [sys.executable, "-m", "ffdist"] + scan_argv + ["--threads", threads],
                capture_output=True,
            ).stdout
            for threads in ("1", "4", "1")
        ]
        assert outs[0] == outs[1] == outs[2]
