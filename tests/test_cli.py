import json
import os
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

import ffdist
from ffdist.cli import run
from ffdist.errors import InvariantViolation
from ffdist.field import PrimeModulus
from ffdist.sets import random_subset
from ffdist.spectra import Spectrum, power_spectrum, spectrum_to_csv

from test_convolution import _plant, _set_pool


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def record_of(out):
    data = json.loads(out)
    data.pop("timestamp", None)
    return data


def test_spectrum_example_csv(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--p", "7", "--set", "0,1,3", "--kind", "distance", "--n", "1")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "p=7"
    assert lines[1] == "lambda,count"
    counts = {int(a): int(b) for a, b in (ln.split(",") for ln in lines[2:])}
    assert counts == {0: 3, 1: 2, 2: 2, 3: 0, 4: 2, 5: 0, 6: 0}


def test_spectrum_json_and_exclude_diagonal(capsys):
    code, out, _ = run_cli(
        capsys, "spectrum", "--p", "5", "--set", "0,1", "--n", "2", "--format", "json",
        "--exclude-diagonal",
    )
    assert code == 0
    record = record_of(out)
    assert record["tool"].startswith("ffdist ")
    assert record["config"]["exclude_diagonal"] is True
    # 16 pairs, 4 diagonal; distance 0 pairs: per x, the y with all equal coords
    counts = [int(c) for c in record["result"]["counts"]]
    assert sum(counts) == 16 - 4


def test_spectrum_exclude_diagonal_dot_kind(capsys):
    # diagonal dot pairs sit at x.x, not at 0
    code, out, _ = run_cli(
        capsys, "spectrum", "--p", "5", "--set", "1,2", "--kind", "dot", "--n", "2",
        "--format", "json", "--exclude-diagonal",
    )
    assert code == 0
    counts = [int(c) for c in record_of(out)["result"]["counts"]]
    assert sum(counts) == 16 - 4
    assert min(counts) >= 0
    # diagonal values: (1,1).(1,1)=2, (1,2).(1,2)=0, (2,1).(2,1)=0, (2,2).(2,2)=3
    from oracles import dot_pair_counts
    from ffdist.field import PrimeModulus
    from ffdist.sets import parse_subset

    full = dot_pair_counts(parse_subset("1,2", PrimeModulus(5)), 2)
    expected = list(full)
    for v in (2, 0, 0, 3):
        expected[v] -= 1
    assert counts == expected


def test_coverage_isotropic_example(capsys):
    code, out, _ = run_cli(capsys, "coverage", "--p", "5", "--isotropic")
    assert code == 0
    result = record_of(out)["result"]
    assert result["covered"] is False
    assert result["missing_size"] == 4


def test_coverage_random_points_asserts_threshold(capsys):
    code, out, _ = run_cli(
        capsys, "coverage", "--p", "5", "--random-points", "100", "--dim", "3", "--seed", "1"
    )
    assert code == 0
    result = record_of(out)["result"]
    assert result["threshold"]["met"] and result["covered"]



def test_threshold_past_the_double_range_is_null(capsys, tmp_path):
    # 4·7^(801/2) is past the double range: the report-only threshold prints
    # null, while the exact check |E|^2 >= 16·p^(d+1) still says not met.
    path = tmp_path / "points.txt"
    path.write_text("p=7 d=800\n" + "0," * 799 + "0\n" + "1," * 799 + "1\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "coverage", "--points-file", str(path))
    assert code == 0, err
    threshold = record_of(out)["result"]["threshold"]
    assert threshold["value"] is None and threshold["met"] is False

def test_deviation_check_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "deviation-check", "--p", "7", "--random-multisets", "30", "--seed", "3")
    assert code == 0
    assert record_of(out)["result"]["all_passed"] is True


def test_energy_oracle_flag(capsys):
    code, out, _ = run_cli(
        capsys, "energy", "--p", "7", "--set", "0,1", "--kind", "distance", "--d", "2", "--oracle"
    )
    assert code == 0
    result = record_of(out)["result"]
    assert result["value"] == "96" and result["oracle"] == "96"


def test_encode_check_all(capsys):
    code, out, _ = run_cli(capsys, "encode-check", "--p", "7", "--set", "1,2,4", "--d", "2")
    assert code == 0
    result = record_of(out)["result"]
    assert result["all_passed"] and len(result["encodings"]) == 3


def test_proof_instance_all_pairs(capsys):
    code, out, _ = run_cli(
        capsys, "proof-instance", "--p", "7", "--set", "0,1,3", "--d", "2", "--all-pairs"
    )
    assert code == 0
    for inst in record_of(out)["result"]["instances"]:
        assert inst["identity_holds"]
        assert inst["incidences"] == inst["carried_pair_sum"]


def test_decompose_and_scan(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "decompose", "--p", "31", "--random", "6", "--seed", "2")
    assert code == 0
    result = record_of(out)["result"]
    assert result["strategy"] == "exhaustive"

    out_path = tmp_path / "scan.csv"
    code, out, _ = run_cli(
        capsys, "scan", "--p", "7", "--n", "2", "--trials", "3", "--seed", "1",
        "--out", str(out_path),
    )
    assert code == 0
    assert out_path.read_text().splitlines()[0] == "m,trials,covered_fraction,min_count"
    record = record_of(out)
    assert record["output"] == str(out_path)


def test_theorem_report(capsys):
    code, out, _ = run_cli(capsys, "theorem-report", "--p", "101", "--random", "8", "--seed", "4", "--d", "2")
    assert code == 0
    result = record_of(out)["result"]
    assert int(result["max_energy"]) >= 1


def test_generic_csv_rendition(capsys):
    # every report subcommand supports --format csv via key,value rows
    code, out, _ = run_cli(
        capsys, "deviation-check", "--p", "7", "--random-multisets", "5", "--seed", "1",
        "--format", "csv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("all_passed,") for line in lines)
    code, out, _ = run_cli(
        capsys, "decompose", "--p", "31", "--set", "1,2,3", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines()[0] == "key,value"


def test_encode_check_dump(capsys, tmp_path):
    prefix = str(tmp_path / "enc")
    code, _, _ = run_cli(
        capsys, "encode-check", "--p", "5", "--set", "0,1", "--d", "1",
        "--encoding", "distance-odd", "--dump", prefix,
    )
    assert code == 0
    from ffdist.encodings import WeightedPointSet

    dumped = WeightedPointSet.from_csv((tmp_path / "enc.distance-odd.E.csv").read_text())
    assert dumped.entries == {(0, 0): 2, (0, 1): 2, (2, 1): 2, (2, 2): 2}
    assert (tmp_path / "enc.distance-odd.F.csv").exists()



def test_a_handler_returns_its_record_without_writing(capsys):
    # run emits the record; the handler only computes it.
    from ffdist.cli import build_parser

    args = build_parser().parse_args(["coverage", "--p", "7", "--set", "0,1,3"])
    config, result = args.func(args)
    assert capsys.readouterr().out == ""
    assert config == {"p": 7, "source": "inline:0,1,3", "set": "0,1,3", "kind": "distance", "n": 1}
    assert result["counts"] == [3, 2, 2, 0, 2, 0, 0] and result["missing"] == "3,5,6"
    code, out, _ = run_cli(capsys, "coverage", "--p", "7", "--set", "0,1,3")
    assert code == 0 and record_of(out)["result"] == {**result, "counts": list(map(str, result["counts"]))}

def test_usage_errors_exit_one(capsys):
    assert run_cli(capsys, "spectrum", "--p", "7")[0] == 1          # no set
    assert run_cli(capsys, "spectrum", "--wat")[0] == 1             # unknown flag
    assert run_cli(capsys, "nonsense")[0] == 1                      # unknown subcommand
    assert run_cli(capsys, "spectrum", "--p", "6", "--set", "0")[0] == 1  # composite p
    assert run_cli(capsys, "spectrum", "--p", "7", "--set", "0,x")[0] == 1  # parse error
    assert run_cli(capsys, "energy", "--p", "7", "--set", "0,1", "--kind", "additive", "--d", "2")[0] == 1


def test_guard_exceeded_exit_one_and_force(capsys, monkeypatch):
    # |A| = 200: the additive oracle guard |A|^4 > 1e9 trips, though the
    # actual pair enumeration is tiny once forced
    argv = ["energy", "--p", "499", "--set", "0..199", "--kind", "additive", "--oracle"]
    code, _, err = run_cli(capsys, *argv)
    assert code == 1 and "guard" in err.lower()
    monkeypatch.setenv("FFDIST_GUARD_OVERRIDE", "1")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    monkeypatch.delenv("FFDIST_GUARD_OVERRIDE")
    assert run_cli(capsys, *argv, "--force")[0] == 0


def test_invariant_violation_exits_two(capsys, monkeypatch):
    import ffdist.cli as cli_mod

    def explode(*args, **kwargs):
        raise InvariantViolation("synthetic failure for exit-code mapping")

    monkeypatch.setattr(cli_mod, "coverage_check", explode)
    code, _, err = run_cli(capsys, "coverage", "--p", "5", "--isotropic")
    assert code == 2
    assert "INVARIANT" in err

    # the same from a transform prime's pool thread: the fold of A^40 takes
    # several primes at length 16, which all run on the pool here, and each
    # prime's second transform raises
    _set_pool(monkeypatch, 2, 2)
    threads = []

    def failing(q, j, out):
        if j == 2:
            threads.append(threading.current_thread() is threading.main_thread())
            raise InvariantViolation("synthetic failure on a pool thread")

    _plant(monkeypatch, failing)
    code, _, err = run_cli(capsys, "spectrum", "--p", "7", "--set", "0,1,3", "--n", "40")
    assert code == 2
    assert "INVARIANT" in err and "pool thread" in err
    assert threads and not any(threads)


def test_selftest_flag(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--selftest")
    assert code == 0
    assert all(line.startswith("ok") for line in out.splitlines())


def test_help_and_version(capsys):
    assert run_cli(capsys, "--help")[0] == 0
    assert run_cli(capsys, "--version")[0] == 0


def test_points_file_inputs(capsys, tmp_path):
    from ffdist.field import PrimeModulus
    from ffdist.sets import format_set_file, isotropic_line

    path = tmp_path / "points.txt"
    path.write_text(format_set_file(isotropic_line(PrimeModulus(13))), encoding="utf-8")
    code, out, _ = run_cli(capsys, "spectrum", "--points-file", str(path), "--format", "json")
    assert code == 0
    assert record_of(out)["result"]["support_size"] == 1
    code, out, _ = run_cli(capsys, "coverage", "--points-file", str(path))
    assert code == 0
    assert record_of(out)["result"]["covered"] is False
    # dot spectra are only defined through the power construction, and a
    # point set is taken as given, with no Cartesian power
    for source in (["--points-file", str(path)], ["--p", "13", "--isotropic"]):
        for flags in (["--kind", "dot"], ["--n", "3"]):
            assert run_cli(capsys, "spectrum", *source, *flags)[0] == 1
            assert run_cli(capsys, "coverage", *source, *flags)[0] == 1
    for flags in (["--kind", "dot"], ["--n", "2"]):
        code, _, err = run_cli(capsys, "coverage", "--p", "5", "--random-points", "10", *flags)
        assert code == 1 and err.startswith("error: general point sets")
    assert run_cli(capsys, "spectrum", "--points-file", str(path), "--n", "1")[0] == 0
    # unreadable file is an I/O error
    assert run_cli(capsys, "spectrum", "--points-file", str(tmp_path / "nope.txt"))[0] == 1


def test_energy_recursion_flag(capsys):
    code, out, _ = run_cli(
        capsys, "energy", "--p", "11", "--random", "5", "--seed", "2", "--d", "2", "--recursion"
    )
    assert code == 0
    recursion = record_of(out)["result"]["recursion"]
    assert int(recursion["energy_d"]) > 0 and recursion["ratio_recursive"] > 0


def test_set_file_input(capsys, tmp_path):
    path = tmp_path / "set.txt"
    path.write_text("p=7 d=1\n0\n1\n3\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, "spectrum", "--set-file", str(path), "--format", "json")
    assert code == 0
    assert record_of(out)["result"]["counts"][0] == "3"
    # conflicting --p is rejected
    assert run_cli(capsys, "spectrum", "--p", "5", "--set-file", str(path))[0] == 1


def test_instance_file_roundtrip_between_subcommands(capsys, tmp_path):
    dump = tmp_path / "inst.txt"
    code, out, _ = run_cli(
        capsys, "proof-instance", "--p", "7", "--set", "0,1,3", "--d", "2",
        "--i0", "1", "--j0", "1", "--dump", str(dump),
    )
    assert code == 0
    expected = record_of(out)["result"]["instances"][0]["incidences"]
    code, out, _ = run_cli(capsys, "incidence", "--instance-file", str(dump))
    assert code == 0
    assert record_of(out)["result"]["incidences"] == expected
    # --dump with --all-pairs is a usage error
    assert run_cli(
        capsys, "proof-instance", "--p", "7", "--set", "0,1,3", "--d", "2",
        "--all-pairs", "--dump", str(dump),
    )[0] == 1


def test_instance_file_plane_limit_exits_one(capsys, tmp_path):
    dump = tmp_path / "huge.txt"
    dump.write_text("p=5\nPOINTS\n0,0,0,1\nPLANES\n1,0,0,0,1000000000000\n", encoding="utf-8")
    for extra in ((), ("--force",)):  # a hard limit: --force does not lift it
        code, out, err = run_cli(capsys, "incidence", "--instance-file", str(dump), *extra)
        assert code == 1 and out == ""
        assert "hard limit" in err


def test_negative_counts_are_usage_errors(capsys):
    for argv in (
        ("deviation-check", "--p", "7", "--random-multisets", "-1"),
        ("incidence", "--p", "7", "--random-points", "-1"),
        ("incidence", "--p", "7", "--random-planes", "-3"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert f"argument {argv[3]}: must be >= 0, got {argv[4]}" in err
    # a non-integer count keeps argparse's wording
    code, _, err = run_cli(capsys, "incidence", "--p", "7", "--random-planes", "x")
    assert code == 1 and "argument --random-planes: invalid int value: 'x'" in err
    # zero is a count too
    code, out, _ = run_cli(capsys, "deviation-check", "--p", "7", "--random-multisets", "0")
    assert code == 0 and record_of(out)["result"]["trials"] == 0


def test_zero_random_points_is_a_size_error(capsys):
    code, out, err = run_cli(capsys, "coverage", "--p", "7", "--random-points", "0")
    assert code == 1 and out == ""
    assert "point count must satisfy 1 <= n" in err and "no set given" not in err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ffdist", "spectrum", "--p", "7", "--set", "0,1,3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "p=7"


def test_import_leaves_the_thread_pool_unloaded():
    # The transform pool imports concurrent.futures only when a long product
    # first needs it, so start-up (`--version`) never pays for that import.
    src = str(Path(ffdist.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys, ffdist.cli; print(sorted(m for m in sys.modules if m.startswith('concurrent')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_repeat_runs_byte_identical(capsys):
    argv = ["coverage", "--p", "7", "--set", "0..6", "--kind", "distance", "--n", "3"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert record_of(out1) == record_of(out2)
    assert json.dumps(record_of(out1), sort_keys=True) == json.dumps(record_of(out2), sort_keys=True)


def test_non_finite_report_floats_are_null(capsys):
    # no incidences and no bound terms: the ratio is undefined, not Infinity
    code, out, _ = run_cli(capsys, "incidence", "--p", "5", "--random-points", "0", "--random-planes", "0")
    assert code == 0 and "Infinity" not in out
    assert record_of(out)["result"]["ratio"] is None
    # the recursion bound shapes pass the double range at d = 100
    code, out, _ = run_cli(capsys, "energy", "--p", "101", "--random", "50", "--d", "100", "--recursion")
    assert code == 0
    recursion = record_of(out)["result"]["recursion"]
    assert recursion["recursive_rhs"] is None and int(recursion["energy_d"]) > 0


def test_non_finite_float_never_reaches_a_record(capsys, monkeypatch):
    import ffdist.cli as cli_mod

    real = cli_mod.rudnev_diagnostic

    def infinite_ratio(inst):
        report = real(inst)
        report.ratio = float("inf")
        return report

    monkeypatch.setattr(cli_mod, "rudnev_diagnostic", infinite_ratio)
    code, out, err = run_cli(capsys, "incidence", "--p", "5", "--random-points", "3")
    assert code == 1 and out == "" and "JSON" in err


def test_each_result_computed_once(capsys, monkeypatch):
    import ffdist.cli as cli_mod
    import ffdist.energy as energy_mod
    import ffdist.incidence as incidence_mod
    import ffdist.verify as verify_mod

    calls = []

    def counted(module, name):
        real = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(incidence_mod, "count_incidences")
    counted(cli_mod, "distance_spectrum_general")
    counted(verify_mod, "distance_spectrum_general")
    # one count each way per instance
    assert run_cli(capsys, "incidence", "--p", "7", "--seed", "1")[0] == 0
    assert calls == ["count_incidences"] * 2
    calls.clear()
    assert run_cli(
        capsys, "proof-instance", "--p", "7", "--set", "0,1,3", "--d", "2", "--i0", "1", "--j0", "1"
    )[0] == 0
    assert calls == ["count_incidences"] * 2
    calls.clear()
    # levels [1, 2]: one base spectrum, fold and correlation for all four
    # pairs, one point set and k per i0 level
    counted(incidence_mod, "max_collinear")
    counted(incidence_mod, "diff_square_spectrum")
    counted(incidence_mod, "fold")
    counted(incidence_mod, "exact_cyclic")
    assert run_cli(capsys, "proof-instance", "--p", "13", "--set", "0,1,2,5", "--d", "2", "--all-pairs")[0] == 0
    assert Counter(calls) == {
        "diff_square_spectrum": 1,
        "fold": 1,
        "exact_cyclic": 1,
        "max_collinear": 2,
        "count_incidences": 8,
    }
    calls.clear()
    # the threshold check's coverage report is the one printed
    assert run_cli(capsys, "coverage", "--p", "5", "--random-points", "20", "--dim", "2")[0] == 0
    assert calls == ["distance_spectrum_general"]
    calls.clear()
    # the recursion diagnostic's fold chain also gives the depth-d energy
    counted(energy_mod, "fold")
    assert run_cli(capsys, "energy", "--p", "7", "--set", "0,1,3", "--d", "3", "--recursion")[0] == 0
    assert calls == ["fold"]


def test_modulus_past_the_longest_transform_exits_one_before_allocating(capsys, monkeypatch, tmp_path):
    # p = 2**31 - 1 would ask for length-p lists (about 17 GB) and transforms
    # longer than any the engine has.  Every step that would allocate by p is
    # replaced by a failure, so a missing guard fails here without allocating,
    # and the peak traced memory stays small.  It is a hard limit: --force and
    # FFDIST_GUARD_OVERRIDE do not lift it.  The point-set paths run at
    # p = 2147483629 = 1 (mod 4), where the isotropic line would hold p points
    # and the pair counter's length-p tally would take 16 GiB; --force lifts
    # the point-count guard that the isotropic line meets first.
    import tracemalloc

    import numpy as np

    from ffdist import sets, spectra

    def refuse(*args, **kwargs):
        raise AssertionError("a length-p allocation was reached")

    for target, name in (
        (sets.FieldSubset, "indicator"), (spectra, "power_table"), (spectra, "exact_cyclic"), (np, "zeros"),
    ):
        monkeypatch.setattr(target, name, refuse)
    big = ("--p", "2147483647", "--set", "1,2,3")
    wide = ("--p", "2147483629")
    points = tmp_path / "points.txt"
    points.write_text("p=2147483629 d=2\n0,0\n1,2\n3,5\n", encoding="utf-8")
    tracemalloc.start()
    try:
        for argv in (
            ("spectrum", *big),
            ("spectrum", *big, "--kind", "dot", "--force"),
            ("energy", *big, "--kind", "additive"),
            ("energy", *big, "--kind", "dot", "--d", "2"),
            ("spectrum", "--points-file", str(points)),
            ("coverage", *wide, "--random-points", "3", "--dim", "2"),
            ("deviation-check", *wide, "--random-multisets", "1"),
            ("spectrum", *wide, "--isotropic", "--force"),
            ("coverage", *wide, "--isotropic", "--force"),
        ):
            if "--isotropic" in argv:  # the small point sets above are built by of_points too
                monkeypatch.setattr(sets.WeightedPointSet, "of_points", refuse)
            code, out, err = run_cli(capsys, *argv)
            assert code == 1 and out == "" and "hard limit" in err
        monkeypatch.setenv("FFDIST_GUARD_OVERRIDE", "1")
        assert run_cli(capsys, "spectrum", *big)[0] == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_point_count_guard_trips_before_the_points_are_built(capsys, monkeypatch):
    # |E| is known from the flags alone: p points on the isotropic line, N
    # random points.  The guard is checked before either set is built, with
    # the message distance_spectrum_general gives, and --force still lifts it.
    import tracemalloc

    import ffdist.cli as cli_mod

    def refuse(*args):
        raise AssertionError("the point set was built")

    monkeypatch.setattr(cli_mod, "isotropic_line", refuse)
    monkeypatch.setattr(cli_mod, "random_pointset", refuse)
    isotropic = ("spectrum", "--p", "1000033", "--isotropic")
    random_points = ("coverage", "--p", "1000033", "--random-points", "2000000", "--dim", "2")
    tracemalloc.start()
    try:
        for argv, m in ((isotropic, 1000033), (random_points, 2000000)):
            code, out, err = run_cli(capsys, *argv)
            assert (code, out, err) == (1, "", f"error: |E| = {m} exceeds enumeration guard 100000\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    for argv in (isotropic, random_points):
        with pytest.raises(AssertionError, match="was built"):
            run([*argv, "--force"])


@pytest.mark.parametrize("block", [1, 2, 10, 11, 12])  # 1, 2, p - 1, p and p + 1 at p = 11
def test_streamed_spectrum_equals_one_dump(capsys, monkeypatch, tmp_path, block):
    # The record is json.dumps(record, sort_keys=True, indent=2) byte for byte,
    # and the CSV is spectrum_to_csv's text, on stdout and in the --out file,
    # whatever the block the counts are written in.
    import ffdist.cli as cli_mod

    monkeypatch.setattr(cli_mod, "_EMIT_BLOCK", block)
    argv = ("spectrum", "--p", "11", "--random", "4", "--seed", "3", "--kind", "dot", "--n", "40")
    S = power_spectrum(random_subset(PrimeModulus(11), 4, 3), "dot", 40)
    assert max(S.counts) > 1 << 64

    def one_dump(text):
        record = json.loads(text)
        assert text == json.dumps(record, sort_keys=True, indent=2) + "\n"
        return record

    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0 and one_dump(out)["result"]["counts"] == list(map(str, S.counts))
    code, out, _ = run_cli(capsys, *argv, "--format", "json", "--out", str(tmp_path / "s.json"))
    payload = one_dump((tmp_path / "s.json").read_text())
    assert code == 0 and payload["result"]["counts"] == list(map(str, S.counts))
    printed = one_dump(out)
    assert printed.pop("output") == str(tmp_path / "s.json") and printed.pop("timestamp")
    assert printed == payload
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0 and out == spectrum_to_csv(S)
    code, out, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "s.csv"))
    assert code == 0 and (tmp_path / "s.csv").read_text() == spectrum_to_csv(S)
    assert one_dump(out)["result"]["counts"] == list(map(str, S.counts))


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-string digit limit")
def test_an_error_before_writing_leaves_stdout_empty(capsys, tmp_path):
    # The total passes CPython's 4300-digit int-string limit before the record
    # is written: exit 1, nothing on stdout, no --out file.
    argv = ("spectrum", "--p", "7", "--set", "0..6", "--kind", "distance", "--n", "2600")
    limit = ("error: Exceeds the limit (4300 digits) for integer string conversion; "
             "use sys.set_int_max_str_digits() to increase the limit\n")
    for extra in ((), ("--format", "json", "--out", str(tmp_path / "s.json"))):
        assert run_cli(capsys, *argv, *extra) == (1, "", limit)
    assert not (tmp_path / "s.json").exists()
    # an --out file that cannot be opened: the record is not printed
    code, out, err = run_cli(capsys, "spectrum", "--p", "7", "--set", "0,1,3", "--out", str(tmp_path / "no" / "s.csv"))
    assert (code, out) == (1, "") and "No such file" in err


def test_emitting_a_large_spectrum_never_holds_its_text(monkeypatch, tmp_path):
    # p = 99991 counts of about 200 bits make a 7.3 MB record.  Beyond the
    # counts themselves, writing it holds a few blocks, not the list of
    # decimal strings, the encoder's chunks or the whole text.
    import contextlib
    import random
    import tracemalloc

    import ffdist.cli as cli_mod

    p, rng = 99991, random.Random(5)
    S = Spectrum(PrimeModulus(p), [rng.getrandbits(200) for _ in range(p)])
    monkeypatch.setattr(cli_mod, "power_spectrum", lambda A, kind, n: S)
    path = tmp_path / "s.json"
    with open(path, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
        tracemalloc.start()
        try:
            code = run(["spectrum", "--p", str(p), "--set", "0", "--format", "json"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    with open(path, encoding="utf-8") as f:
        assert json.load(f)["result"]["counts"] == list(map(str, S.counts))
    assert peak < 3 << 20


def test_coverage_csv_of_a_large_spectrum_is_written_row_by_row(monkeypatch, tmp_path):
    # The generic key,value CSV of the same p = 99991 spectrum of 200-bit
    # counts goes out a row at a time: neither its rows nor its text are held.
    import contextlib
    import csv
    import random
    import tracemalloc

    import ffdist.cli as cli_mod

    p, rng = 99991, random.Random(5)
    S = Spectrum(PrimeModulus(p), [rng.getrandbits(200) for _ in range(p)])
    monkeypatch.setattr(cli_mod, "power_spectrum", lambda A, kind, n: S)
    path = tmp_path / "c.csv"
    with open(path, "w", encoding="utf-8", newline="") as out, contextlib.redirect_stdout(out):
        tracemalloc.start()
        try:
            code = run(["coverage", "--p", str(p), "--set", "0", "--format", "csv"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    with open(path, encoding="utf-8", newline="") as f:
        rows = dict(csv.reader(f))
    assert rows.pop("key") == "value" and rows["total"] == str(S.total)
    assert [rows[f"counts[{t}]"] for t in range(p)] == list(map(str, S.counts))
    assert peak < 4 << 20
