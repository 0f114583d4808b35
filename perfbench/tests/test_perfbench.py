"""Tests of the benchmark's own logic: span arithmetic, output checks,
sample statistics, inputs and the metric lists in BENCHMARK.json.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


# -- self time ------------------------------------------------------------------


def test_self_time_of_nested_spans():
    recorded = [
        ["cli.run", 0.0, 10.0, None],
        ["spectra.fold", 1.0, 4.0, 0],
        ["convolution.exact_cyclic", 2.0, 3.0, 1],
        ["incidence.max_collinear", 5.0, 9.0, 0],
        [spans.HOOK_SPAN, 9.0, 9.5, 0],
    ]
    stats = spans.span_stats(recorded)
    assert stats["cli.run"]["self_s"] == pytest.approx(10 - 3 - 4 - 0.5)
    assert stats["spectra.fold"]["self_s"] == pytest.approx(2.0)
    assert stats["spectra.fold"]["total_s"] == pytest.approx(3.0)
    assert stats["convolution.exact_cyclic"]["self_s"] == pytest.approx(1.0)
    assert stats["incidence.max_collinear"]["self_s"] == pytest.approx(4.0)
    assert spans.HOOK_SPAN not in stats


def test_overlapping_children_count_once():
    # two worker-thread children of one span overlap on [4, 6]
    recorded = [
        ["verify.threshold_scan", 0.0, 10.0, None],
        ["convolution.exact_cyclic", 1.0, 6.0, 0],
        ["convolution.exact_cyclic", 4.0, 8.0, 0],
    ]
    stats = spans.span_stats(recorded)
    assert stats["verify.threshold_scan"]["self_s"] == pytest.approx(3.0)
    assert stats["convolution.exact_cyclic"] == {"calls": 2, "total_s": pytest.approx(9.0), "self_s": pytest.approx(9.0)}


def test_worker_thread_span_is_parented_to_main_thread_span():
    rec = spans.Recorder()
    outer = rec.open("verify.threshold_scan")

    def work():
        rec.close(rec.open("convolution.exact_cyclic"))

    worker = threading.Thread(target=work)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    rec.close(outer)
    assert [span[3] for span in rec.spans] == [None, outer]


def test_layer_metrics_sum_self_time_by_module():
    stats = {
        "sets.FieldSubset.__iter__": {"calls": 3, "total_s": 0.5, "self_s": 0.5},
        "sets.read_set_file": {"calls": 1, "total_s": 0.7, "self_s": 0.2},
        "incidence.max_collinear": {"calls": 4, "total_s": 2.0, "self_s": 2.0},
    }
    metrics = spans.layer_metrics(stats, {"incidence.max_collinear.pairs": 12}, {"incidence.max_collinear": {1, 2}})
    assert [name for name, _ in spans.METRICS] == list(metrics)
    assert metrics["sets.self_s"] == pytest.approx(0.7)
    assert metrics["incidence.max_collinear.calls"] == 4
    assert metrics["incidence.max_collinear.distinct_inputs_ratio"] == pytest.approx(0.5)
    assert metrics["incidence.max_collinear.pairs"] == 12
    assert metrics["verify.threshold_scan.self_s"] == 0.0


def test_traced_cli_wraps_every_module_binding(tmp_path):
    # cli calls fold, diff_square_spectrum and dyadic_levels through names
    # it imported itself; they must record calls like incidence's own ones
    out = tmp_path / "metrics.json"
    set_file = tmp_path / "a.set"
    set_file.write_text("p=7 d=1\n0\n1\n3\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = ["proof-instance", "--set-file", str(set_file), "--d", "2", "--all-pairs"]
    proc = subprocess.run(
        [sys.executable, str(BENCH / "spans.py"), "--metrics-out", str(out), "--", *argv],
        capture_output=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    checks.check_proof_instance(json.loads(proc.stdout), p=7)
    calls = {name: v["calls"] for name, v in json.loads(out.read_text())["spans"].items()}
    for name in run.WORKLOADS["proof-instance"].expected_spans:
        assert calls.get(name, 0) > 0, name
    assert calls["cli.run"] == 1


# -- output checks ------------------------------------------------------------------


def _spectrum_record() -> dict:
    # A = {0, 1} in F_5, n = 1: (a-b)^2 is 0 twice and 1 twice
    return {
        "subcommand": "spectrum",
        "config": {"p": 5, "n": 1, "kind": "distance"},
        "result": {"total": "4", "counts": ["2", "2", "0", "0", "0"]},
    }


def _check_spectrum(record: dict, exit_code: int | None = 0) -> None:
    raw = json.dumps(record).encode()
    check = lambda rec: checks.check_spectrum(rec, p=5, m=2, n=1, kind="distance")  # noqa: E731
    checks.check_sample(exit_code, raw, "spectrum", check, None)


def test_spectrum_check_accepts_a_valid_record():
    _check_spectrum(_spectrum_record())


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r: r["result"]["counts"].__setitem__(1, "3"),  # one count changed
        lambda r: r["result"].__setitem__("total", "5"),  # wrong total
        lambda r: r["result"]["counts"].pop(),  # not p counts
        lambda r: r["result"].__setitem__("counts", ["5", "-1", "0", "0", "0"]),  # negative count
        lambda r: r["config"].__setitem__("n", 2),  # config echo
        lambda r: r["result"].pop("counts"),  # malformed
    ],
)
def test_spectrum_check_rejects_a_corrupted_record(corrupt):
    record = copy.deepcopy(_spectrum_record())
    corrupt(record)
    with pytest.raises(checks.CheckFailed):
        _check_spectrum(record)


@pytest.mark.parametrize("exit_code", [1, 2, None])
def test_nonzero_exit_or_timeout_fails(exit_code):
    with pytest.raises(checks.CheckFailed):
        _check_spectrum(_spectrum_record(), exit_code)


def test_energy_check_enforces_cauchy_schwarz_floor():
    # A = {0, 1} in F_5, d = 1: dot spectrum counts 3 at 0 and 1 at 1
    record = {"config": {"p": 5}, "result": {"kind": "dot", "d": 1, "value": "10"}}
    checks.check_energy(record, p=5, m=2, d=1, kind="dot")
    record["result"]["value"] = "3"  # 5 * 3 < 4^2
    with pytest.raises(checks.CheckFailed):
        checks.check_energy(record, p=5, m=2, d=1, kind="dot")


def test_proof_instance_check_rejects_a_broken_identity():
    inst = {"i0": 1, "j0": 1, "identity_holds": True, "incidences": "12", "carried_pair_sum": "12"}
    record = {"config": {"p": 7, "levels": [1]}, "result": {"instances": [inst]}}
    checks.check_proof_instance(record, p=7)
    inst["carried_pair_sum"] = "13"
    with pytest.raises(checks.CheckFailed):
        checks.check_proof_instance(record, p=7)


def test_scan_check_rejects_a_fraction_outside_unit_interval():
    rows = [{"m": m, "trials": 2, "covered_fraction": 0.5, "zero_fraction": 1.0} for m in (1, 2, 3)]
    record = {"config": {"p": 3, "trials": 2}, "result": {"rows": rows}}
    checks.check_scan(record, p=3, trials=2)
    rows[1]["covered_fraction"] = 1.5
    with pytest.raises(checks.CheckFailed):
        checks.check_scan(record, p=3, trials=2)


def test_digest_ignores_only_the_timestamp():
    def raw(timestamp: str, count: str) -> bytes:
        record = {"result": {"counts": [count]}, "subcommand": "spectrum", "timestamp": timestamp, "tool": "ffdist"}
        return json.dumps(record, sort_keys=True, indent=2).encode()

    first = checks.canonical_digest(raw("2026-01-01T00:00:00+00:00", "1"))
    assert checks.canonical_digest(raw("2027-05-05T12:34:56+00:00", "1")) == first
    assert checks.canonical_digest(raw("2026-01-01T00:00:00+00:00", "2")) != first


# -- sample statistics ----------------------------------------------------------------


def test_median_reports_sample_count():
    assert run.median_of([3.0, 1.0, 2.0]) == (2.0, 3)
    assert run.median_of([4.0, 1.0, 2.0, 3.0]) == (2.5, 4)
    value, count = run.median_of([])
    assert math.isnan(value) and count == 0


def test_sample_loop_takes_minimum_samples_then_stops_at_the_deadline():
    def kind():
        return run.Sample(wall_s=0.0, cpu_s=0.0, rss_mb=0.0, out_bytes=0)

    (samples,) = run.sample_loop(0, [kind], 3)
    assert len(samples) == 3
    traced, plain = run.sample_loop(0, [kind, kind], 1)
    assert (len(traced), len(plain)) == (1, 1)


def test_sample_loop_stops_after_a_timeout():
    def kind():
        return run.Sample(wall_s=0.0, cpu_s=0.0, rss_mb=0.0, out_bytes=0, timed_out=True)

    (samples,) = run.sample_loop(100, [kind], 3)
    assert len(samples) == 1


# -- inputs and the declared metrics ---------------------------------------------------


def test_inputs_replay_from_the_seed():
    a = run.draw_subset(run.random.Random(7), 99991, 300)
    assert a == run.draw_subset(run.random.Random(7), 99991, 300)
    assert a != run.draw_subset(run.random.Random(8), 99991, 300)
    assert len(set(a)) == 300 and all(0 <= x < 99991 for x in a)


def test_proof_sets_share_one_level_structure():
    for seed in range(5):
        elements = run.draw_proof_set(run.random.Random(seed))
        assert len(elements) == 7
        assert run.level_sizes(elements, 101) == run.PROOF_LEVELS


def test_benchmark_json_declares_what_run_reports():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(run.PER_LAYER)
