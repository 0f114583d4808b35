#!/usr/bin/env python3
"""ffdist benchmark: CLI workloads, checked outputs, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload spectrum-large --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one table

Run from anywhere; it works in the checkout that holds it and runs the
ffdist sources under ``src/`` there.  Each sample is one fresh
``python -m ffdist ...`` process (closed loop: one client, one child at a
time).  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates traced children (perfbench/spans.py) with untraced ones and
reports the per-layer metrics.  The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are for people.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
import spans

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
DEFAULT_SEED = 1
SETUP_PROBES = 7
MIN_SAMPLES = 3
CHILD_TIMEOUT_S = 60.0

END_TO_END = (("wall_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
PER_LAYER = (
    spans.METRICS[:1]
    + (("cli.output_bytes", "bytes"), ("cli.cpu_s", "s"))
    + spans.METRICS[1:]
    + (("trace.overhead_frac", "frac"),)
)


# -- inputs: the benchmark's own generator, seeded by --seed -------------------


def _below(rng: random.Random, n: int) -> int:
    """Uniform draw from [0, n) from raw getrandbits output, whose stream is
    fixed for a given seed on every Python version."""
    while True:
        x = rng.getrandbits(n.bit_length())
        if x < n:
            return x


def draw_subset(rng: random.Random, p: int, m: int) -> list[int]:
    """Uniform m-subset of range(p) by Floyd's algorithm, sorted."""
    chosen: set[int] = set()
    for j in range(p - m, p):
        t = _below(rng, j + 1)
        chosen.add(t if t not in chosen else j)
    return sorted(chosen)


def level_sizes(elements: list[int], p: int) -> dict[int, int]:
    """Dyadic level sizes of the squared-difference counts r[(a-b)^2]."""
    counts = Counter((a - b) * (a - b) % p for a in elements for b in elements)
    return dict(Counter(c.bit_length() - 1 for c in counts.values()))


# The most common level structure of a random 7-subset of F_101 (a quarter
# of draws).  The proof-instance work grows with the level sizes, so fixing
# them leaves the seed to move coordinates, not the amount of work.
PROOF_LEVELS = {1: 17, 2: 3}


def draw_proof_set(rng: random.Random, p: int = 101, m: int = 7) -> list[int]:
    while True:
        elements = draw_subset(rng, p, m)
        if level_sizes(elements, p) == PROOF_LEVELS:
            return elements


def write_set_file(name: str, p: int, elements: list[int]) -> str:
    """Write a set file under the work directory; returns its path relative
    to the checkout, which the CLI echoes into the record."""
    path = WORK / f"{name}.set"
    path.write_text(f"p={p} d=1\n" + "".join(f"{x}\n" for x in elements), encoding="utf-8")
    return str(path.relative_to(ROOT))


# -- workloads ------------------------------------------------------------------


@dataclass(frozen=True)
class Case:
    argv: list[str]
    subcommand: str
    check: Callable[[dict], None]


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[int], Case]
    # spans that must record calls in the traced run
    expected_spans: tuple[str, ...]
    # sha256 of the record minus its timestamp line, for DEFAULT_SEED
    pinned: str


def _spectrum_large(seed: int) -> Case:
    p, m, n = 99991, 30000, 8
    path = write_set_file("spectrum-large", p, draw_subset(random.Random(seed), p, m))
    argv = ["spectrum", "--set-file", path, "--kind", "distance", "--n", str(n), "--format", "json"]
    return Case(argv, "spectrum", functools.partial(checks.check_spectrum, p=p, m=m, n=n, kind="distance"))


def _energy_deep(seed: int) -> Case:
    p, m, d = 9973, 3000, 64
    path = write_set_file("energy-deep", p, draw_subset(random.Random(seed), p, m))
    argv = ["energy", "--set-file", path, "--kind", "dot", "--d", str(d)]
    return Case(argv, "energy", functools.partial(checks.check_energy, p=p, m=m, d=d, kind="dot"))


def _proof_instance(seed: int) -> Case:
    p = 101
    path = write_set_file("proof-instance", p, draw_proof_set(random.Random(seed), p))
    argv = ["proof-instance", "--set-file", path, "--d", "2", "--all-pairs"]
    return Case(argv, "proof-instance", functools.partial(checks.check_proof_instance, p=p))


def _scan(seed: int) -> Case:
    p, trials = 211, 5
    argv = ["scan", "--p", str(p), "--n", "2", "--kind", "distance", "--trials", str(trials),
            "--threads", "2", "--seed", str(seed), "--format", "json"]
    return Case(argv, "scan", functools.partial(checks.check_scan, p=p, trials=trials))


_COMMON_SPANS = ("cli.run", "convolution.exact_cyclic", "spectra.fold")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "spectrum-large",
            _spectrum_large,
            _COMMON_SPANS + ("sets.read_set_file", "sets.FieldSubset.__iter__", "sets.FieldSubset.serialize",
                             "spectra.diff_square_spectrum", "spectra.cyclic_convolve"),
            "939791e26f4df48588ef182034f3c24c3735e97e08683e5207754e89c388147f",
        ),
        Workload(
            "energy-deep",
            _energy_deep,
            _COMMON_SPANS + ("sets.read_set_file", "spectra.product_spectrum", "spectra.cyclic_convolve",
                             "energy.dot_energy", "energy.energy_from_spectrum"),
            "ec7078a3412df3b5eb51588ec4626eb1ffec96a2ab87086d191161a9a364e5bd",
        ),
        Workload(
            "proof-instance",
            _proof_instance,
            _COMMON_SPANS + ("sets.read_set_file", "spectra.diff_square_spectrum", "energy.dyadic_levels",
                             "incidence.build_proof_instance", "incidence.max_collinear",
                             "incidence.count_incidences", "incidence.verify_proof_instance"),
            "1bb759a875356c24d26915ad16108eeb77e05c42be113db0220d1b89dbb11104",
        ),
        Workload(
            "scan",
            _scan,
            _COMMON_SPANS + ("verify.threshold_scan", "sets.random_subset", "rng.derive_seed",
                             "rng.sample_distinct", "spectra.diff_square_spectrum", "spectra.cyclic_convolve"),
            "3c64410d7b78b1e2ce7da4781a4703d84ae16e586edc772f5d421677bbf38a55",
        ),
    )
}


# -- child processes --------------------------------------------------------------


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    out_bytes: int
    error: str | None = None
    timed_out: bool = False
    extra: dict = field(default_factory=dict)


def spawn(cmd: list[str], out_path: Path, err_path: Path, env: dict) -> tuple[int | None, float, object]:
    """Run cmd to completion; returns (exit code or None on timeout, wall
    seconds from spawn to exit, the child's rusage from wait4)."""
    lock = threading.Lock()
    state = {"exited": False, "killed": False}

    def kill() -> None:
        with lock:
            if not state["exited"]:
                os.kill(proc.pid, signal.SIGKILL)
                state["killed"] = True

    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, kill)
        timer.start()
        try:
            # wait without reaping, so the timer can never signal a reused pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
            with lock:
                state["exited"] = True
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (None if state["killed"] else proc.returncode), wall, usage


class Runner:
    """Spawns CLI samples for one workload case and checks each output."""

    def __init__(self, name: str, case: Case, pinned: str | None):
        self.name, self.case, self.pinned = name, case, pinned
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
        self.attempted = 0
        self.failed = 0
        self.out_path = WORK / f"{name}.out"
        self.err_path = WORK / f"{name}.err"

    def _run(self, cmd: list[str], verdict: Callable[[int | None, bytes], None]) -> Sample:
        self.attempted += 1
        code, wall, usage = spawn(cmd, self.out_path, self.err_path, self.env)
        raw = self.out_path.read_bytes()
        sample = Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, len(raw),
                        timed_out=code is None)
        try:
            verdict(code, raw)
        except checks.CheckFailed as exc:
            self.failed += 1
            sample.error = str(exc)
            stderr_tail = self.err_path.read_bytes()[-600:].decode("utf-8", "replace").strip()
            print(f"# FAILED {self.name}: {exc}" + (f"\n# stderr: {stderr_tail}" if stderr_tail else ""), flush=True)
        return sample

    def version(self) -> Sample:
        def verdict(code, raw):
            checks.require(code == 0, "--version did not exit 0")
            checks.check_version(raw)

        return self._run([sys.executable, "-m", "ffdist", "--version"], verdict)

    def _verdict(self, code, raw) -> None:
        checks.check_sample(code, raw, self.case.subcommand, self.case.check, self.pinned)

    def plain(self) -> Sample:
        return self._run([sys.executable, "-m", "ffdist", *self.case.argv], self._verdict)

    def traced(self) -> Sample:
        metrics_path = WORK / f"{self.name}.spans.json"
        metrics_path.unlink(missing_ok=True)
        cmd = [sys.executable, "perfbench/spans.py", "--metrics-out", str(metrics_path), "--", *self.case.argv]
        sample = self._run(cmd, self._verdict)
        if sample.error is None:
            sample.extra = json.loads(metrics_path.read_text(encoding="utf-8"))
        return sample


def sample_loop(seconds: float, kinds: list[Callable[[], Sample]], min_each: int) -> list[list[Sample]]:
    """Cycle through the sample kinds until the next sample would end past
    `seconds` (judged by that kind's last duration), after at least
    min_each samples of every kind.  Stops early on a timeout."""
    results: list[list[Sample]] = [[] for _ in kinds]
    last = [0.0] * len(kinds)
    start = time.perf_counter()
    i = 0
    while True:
        k = i % len(kinds)
        enough = min(len(r) for r in results) >= min_each
        if enough and time.perf_counter() - start + last[k] > seconds:
            return results
        t = time.perf_counter()
        sample = kinds[k]()
        last[k] = time.perf_counter() - t
        results[k].append(sample)
        if sample.timed_out:
            return results
        i += 1


def median_of(values: list[float]) -> tuple[float, int]:
    """(median, sample count); the count is 0 and the median NaN when empty."""
    return (statistics.median(values) if values else float("nan")), len(values)


def _ok(samples: list[Sample]) -> list[Sample]:
    return [s for s in samples if s.error is None]


# -- measurement modes ----------------------------------------------------------------


def measure_end_to_end(runner: Runner, seconds: float) -> dict[str, float]:
    runner.version()  # warm-up: page cache and bytecode, not timed
    probes = _ok([runner.version() for _ in range(SETUP_PROBES)])
    (samples,) = sample_loop(seconds, [runner.plain], MIN_SAMPLES)
    good = _ok(samples)
    for s in samples:
        print(f"# sample wall {s.wall_s:.4f} s  cpu {s.cpu_s:.4f} s  rss {s.rss_mb:.1f} MB"
              + ("" if s.error is None else "  FAILED"), flush=True)
    if not good or not probes:
        raise SystemExit(f"{runner.name}: no sample passed its checks")
    wall, n = median_of([s.wall_s for s in good])
    setup, n_setup = median_of([s.wall_s for s in probes])
    rss, _ = median_of([s.rss_mb for s in good])
    print(f"wall_s {wall:.4f} s (median of {n} samples)")
    print(f"peak_rss_mb {rss:.1f} MB (median of {n} samples)")
    print(f"setup_s {setup:.4f} s (median of {n_setup} --version runs)")
    print(f"failed_frac {runner.failed / runner.attempted:.4f} ({runner.failed} of {runner.attempted} CLI runs)")
    return {"wall_s": wall, "peak_rss_mb": rss, "setup_s": setup}


def measure_per_layer(runner: Runner, workload: Workload, seconds: float) -> dict[str, float]:
    traced, plain = sample_loop(seconds, [runner.traced, runner.plain], 1)
    traced_ok, plain_ok = _ok(traced), _ok(plain)
    if not traced_ok or not plain_ok:
        raise SystemExit(f"{runner.name}: no traced or untraced sample passed its checks")
    for s in traced_ok:
        silent = [name for name in workload.expected_spans if s.extra["spans"].get(name, {}).get("calls", 0) == 0]
        if silent:
            raise SystemExit(f"{runner.name}: expected spans recorded no calls: {', '.join(silent)}")
    values = {name: median_of([s.extra["metrics"][name] for s in traced_ok])[0] for name, _ in spans.METRICS}
    traced_wall, n_traced = median_of([s.wall_s for s in traced_ok])
    plain_wall, n_plain = median_of([s.wall_s for s in plain_ok])
    values["cli.output_bytes"] = median_of([s.out_bytes for s in plain_ok])[0]
    values["cli.cpu_s"] = median_of([s.cpu_s for s in plain_ok])[0]
    values["trace.overhead_frac"] = traced_wall / plain_wall - 1
    print(f"# traced wall {traced_wall:.4f} s (median of {n_traced}), untraced {plain_wall:.4f} s (median of {n_plain})")
    stats = traced_ok[0].extra["spans"]
    total_self = sum(v["self_s"] for v in stats.values())
    print("# span self time, first traced sample (share of summed self time):")
    for name, v in sorted(stats.items(), key=lambda kv: -kv[1]["self_s"])[:12]:
        print(f"#   {name:40s} {v['self_s']:9.4f} s {v['self_s'] / total_self:6.1%}  calls {v['calls']}")
    for name, unit in PER_LAYER:
        print(f"{name} {values[name]} {unit}")
    print(f"failed_frac {runner.failed / runner.attempted:.4f} ({runner.failed} of {runner.attempted} CLI runs)")
    return values


def machine_facts(seed: int) -> dict:
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": os.getloadavg(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    print(f"# workload {name} seed {seed} seconds {seconds} trace {int(trace)}", flush=True)
    runner = Runner(name, workload.build(seed), workload.pinned if seed == DEFAULT_SEED else None)
    print(f"# argv python -m ffdist {' '.join(runner.case.argv)}", flush=True)
    if trace:
        values, units = measure_per_layer(runner, workload, seconds), PER_LAYER
    else:
        values, units = measure_end_to_end(runner, seconds), END_TO_END
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {metric: {"value": values[metric], "unit": unit} for metric, unit in units},
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=25, help="measuring time per workload")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0, help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "ffdist" / "__init__.py").is_file():
        print(f"error: no ffdist sources at {ROOT / 'src' / 'ffdist'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    print(f"# machine {json.dumps(machine_facts(args.seed), sort_keys=True)}", flush=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    if not args.trace:
        columns = [m for m, _ in END_TO_END] + ["failed_frac"]
        print("# workload        " + " ".join(f"{m:>12s}" for m in columns))
        for name, r in results.items():
            row = [r["metrics"][m]["value"] for m, _ in END_TO_END] + [r["failed"] / r["attempted"]]
            print(f"# {name:16s}" + " ".join(f"{v:12.4f}" for v in row))
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
