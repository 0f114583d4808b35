import json
import subprocess
import sys
from collections import Counter

from ffdist.cli import run
from ffdist.errors import InvariantViolation


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
