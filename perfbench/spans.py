"""Spans around calls into ffdist's modules, recorded from outside the program.

Run as a script, this is the traced child of ``run.py --trace 1``: it
imports ffdist, wraps the public entry points of each layer module, calls
``ffdist.cli.run(argv)`` in-process with the CLI's output on stdout, and
writes span statistics and per-layer metrics as JSON::

    python3 perfbench/spans.py --metrics-out m.json -- spectrum --set-file a.set ...

Only coarse entry points are wrapped: whole-set iterations, spectra,
convolutions, incidence counts.  Per-element methods such as
``PrimeModulus.inv`` (3.6M calls on proof-instance) or
``SplitMix64.next_u64`` are never wrapped; their cost lands in the self
time of the entry point that called them.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import inspect
import json
import sys
import threading
import time
from collections import defaultdict

# Layer modules whose public functions get spans, in the order reported.
LAYERS = ("sets", "rng", "spectra", "convolution", "energy", "incidence", "verify")

# Public, but called once per point pair: too fine-grained for a span.
PER_ELEMENT = frozenset({"incidence.line_key"})

# Methods wrapped on their class (one call per whole set, not per element).
METHODS = (("sets", "FieldSubset", "__iter__"), ("sets", "FieldSubset", "serialize"))

ROOT_SPAN = "cli.run"
HOOK_SPAN = "trace.hook"

# Per-layer metrics this module computes, with units; run.py adds the rest.
METRICS = (
    ("cli.self_s", "s"),
    ("sets.self_s", "s"),
    ("sets.iter_elements", "count"),
    ("rng.self_s", "s"),
    ("spectra.self_s", "s"),
    ("spectra.diff_square_spectrum.self_s", "s"),
    ("spectra.product_spectrum.self_s", "s"),
    ("spectra.fold.self_s", "s"),
    ("spectra.cyclic_convolve.calls", "count"),
    ("convolution.exact_cyclic.s", "s"),
    ("convolution.exact_cyclic.calls", "count"),
    ("convolution.exact_cyclic.len_max", "count"),
    ("convolution.exact_cyclic.out_bits_max", "bits"),
    ("convolution.exact_cyclic.out_bytes", "bytes"),
    ("convolution.exact_cyclic.naive_macs", "count"),
    ("energy.self_s", "s"),
    ("energy.energy_from_spectrum.self_s", "s"),
    ("energy.dyadic_levels.self_s", "s"),
    ("incidence.self_s", "s"),
    ("incidence.max_collinear.self_s", "s"),
    ("incidence.max_collinear.calls", "count"),
    ("incidence.max_collinear.pairs", "count"),
    ("incidence.max_collinear.distinct_inputs_ratio", "ratio"),
    ("incidence.count_incidences.direct_s", "s"),
    ("incidence.count_incidences.grouped_s", "s"),
    ("incidence.count_incidences.pairs", "count"),
    ("incidence.build_proof_instance.self_s", "s"),
    ("verify.self_s", "s"),
    ("verify.threshold_scan.self_s", "s"),
    ("verify.threshold_scan.cells", "count"),
    ("verify.threshold_scan.cpu_per_wall", "ratio"),
)


class Recorder:
    """Spans kept in memory as [name, start, end, parent index].

    Each thread keeps its own stack of open spans.  A span opened on a
    worker thread with nothing open there is parented to the innermost
    span open on the main thread: ffdist's only thread pool runs inside
    ``threshold_scan``, which is then the span that caused the work.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(int)
        self.distinct: dict[str, set] = defaultdict(set)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if main else []
            self._local.stack = stack
        return stack

    def open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            try:
                parent = self._main_stack[-1]
            except IndexError:
                parent = None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
        stack.append(index)
        return index

    def close(self, index: int) -> float:
        end = time.perf_counter()
        span = self.spans[index]
        span[2] = end
        self._stack().pop()
        return end - span[1]

    def add(self, key: str, amount: float) -> None:
        with self._lock:
            self.counters[key] += amount

    def maximum(self, key: str, value: float) -> None:
        with self._lock:
            if value > self.counters[key]:
                self.counters[key] = value

    def note_input(self, key: str, fingerprint) -> None:
        with self._lock:
            self.distinct[key].add(fingerprint)


def covered_length(intervals, start: float, end: float) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def span_stats(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total (inclusive) seconds and self seconds.

    Self time is a span's duration minus the part of it that its child
    spans cover; children on worker threads may overlap, so the union is
    taken, not the sum.  Hook spans are subtracted from their parents but
    not reported.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent is not None and end is not None:
            children[parent].append((start, end))
    stats: dict[str, dict[str, float]] = {}
    for index, (name, start, end, _parent) in enumerate(spans):
        if name == HOOK_SPAN or end is None:
            continue
        entry = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - covered_length(children[index], start, end)
    return stats


def layer_metrics(stats, counters, distinct) -> dict[str, float]:
    """The METRICS values from span statistics and hook counters."""

    def field(name: str, key: str) -> float:
        return stats.get(name, {}).get(key, 0)

    def layer_self(layer: str) -> float:
        return sum(v["self_s"] for k, v in stats.items() if k.startswith(layer + "."))

    collinear_calls = field("incidence.max_collinear", "calls")
    values = {f"{layer}.self_s": layer_self(layer) for layer in ("cli",) + LAYERS}
    values.update(
        {
            "sets.iter_elements": counters.get("sets.iter_elements", 0),
            "spectra.cyclic_convolve.calls": field("spectra.cyclic_convolve", "calls"),
            "convolution.exact_cyclic.s": field("convolution.exact_cyclic", "total_s"),
            "convolution.exact_cyclic.calls": field("convolution.exact_cyclic", "calls"),
            "incidence.max_collinear.calls": collinear_calls,
            "incidence.max_collinear.distinct_inputs_ratio": (
                len(distinct.get("incidence.max_collinear", ())) / collinear_calls
                if collinear_calls
                else 0.0
            ),
            "verify.threshold_scan.cpu_per_wall": (
                counters.get("verify.threshold_scan.cpu_s", 0.0)
                / field("verify.threshold_scan", "total_s")
                if field("verify.threshold_scan", "calls")
                else 0.0
            ),
        }
    )
    for name in (
        "spectra.diff_square_spectrum",
        "spectra.product_spectrum",
        "spectra.fold",
        "energy.energy_from_spectrum",
        "energy.dyadic_levels",
        "incidence.max_collinear",
        "incidence.build_proof_instance",
        "verify.threshold_scan",
    ):
        values[f"{name}.self_s"] = field(name, "self_s")
    for key in (
        "convolution.exact_cyclic.len_max",
        "convolution.exact_cyclic.out_bits_max",
        "convolution.exact_cyclic.out_bytes",
        "convolution.exact_cyclic.naive_macs",
        "incidence.max_collinear.pairs",
        "incidence.count_incidences.direct_s",
        "incidence.count_incidences.grouped_s",
        "incidence.count_incidences.pairs",
        "verify.threshold_scan.cells",
    ):
        values[key] = counters.get(key, 0)
    return {name: float(values[name]) if unit in ("s", "ratio") else values[name] for name, unit in METRICS}


# -- hooks: counts computed from arguments and results ------------------------
#
# A hook runs after its span has closed, inside a HOOK_SPAN, so its own cost
# is kept out of every reported self time.


def _exact_cyclic_hook(rec: Recorder, args, kwargs, result, seconds, before) -> None:
    a, b = args[0], args[1]
    rec.maximum("convolution.exact_cyclic.len_max", len(a))
    if result:
        rec.maximum("convolution.exact_cyclic.out_bits_max", max(result).bit_length())
    rec.add("convolution.exact_cyclic.out_bytes", sum((c.bit_length() + 7) >> 3 for c in result))
    rec.add("convolution.exact_cyclic.naive_macs", (len(a) - a.count(0)) * (len(b) - b.count(0)))


def _max_collinear_hook(rec: Recorder, args, kwargs, result, seconds, before) -> None:
    points = args[0]
    keys = frozenset(points.entries) if hasattr(points, "entries") else frozenset(map(tuple, points))
    n = len(keys)
    # the anchor loop examines every ordered pair of distinct points
    rec.add("incidence.max_collinear.pairs", n * (n - 1))
    rec.note_input("incidence.max_collinear", keys)


def _count_incidences_hook(rec: Recorder, args, kwargs, result, seconds, before) -> None:
    points, planes = args[0], args[1]
    strategy = args[2] if len(args) > 2 else kwargs.get("strategy", "grouped")
    rec.add(f"incidence.count_incidences.{strategy}_s", seconds)
    rec.add("incidence.count_incidences.pairs", len(points.entries) * len(planes))


def _threshold_scan_hook(rec: Recorder, args, kwargs, result, seconds, before) -> None:
    rec.add("verify.threshold_scan.cells", sum(row.trials for row in result.rows))
    rec.add("verify.threshold_scan.cpu_s", time.process_time() - before)


HOOKS = {
    "convolution.exact_cyclic": (_exact_cyclic_hook, None),
    "incidence.max_collinear": (_max_collinear_hook, None),
    "incidence.count_incidences": (_count_incidences_hook, None),
    "verify.threshold_scan": (_threshold_scan_hook, time.process_time),
}


def wrap(rec: Recorder, name: str, fn):
    """fn inside a span called name, followed by its hook if it has one."""
    hook, before_fn = HOOKS.get(name, (None, None))

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        before = before_fn() if before_fn else None
        index = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            seconds = rec.close(index)
        if hook is not None:
            hook_index = rec.open(HOOK_SPAN)
            try:
                hook(rec, args, kwargs, result, seconds, before)
            finally:
                rec.close(hook_index)
        return result

    return wrapper


def _iter_wrapper(rec: Recorder, name: str, original):
    """A set iteration as one span; the elements are materialised inside it
    so the span times the iteration itself, not the caller's loop body."""

    @functools.wraps(original)
    def wrapper(self):
        index = rec.open(name)
        try:
            items = list(original(self))
        finally:
            rec.close(index)
        rec.add("sets.iter_elements", len(items))
        return iter(items)

    return wrapper


def install(rec: Recorder) -> None:
    """Wrap every traced entry point and rebind every module-level name
    bound to it; ``from .x import y`` copies y into each importing module."""
    import ffdist.cli

    replacements = {id(ffdist.cli.run): (ffdist.cli.run, wrap(rec, ROOT_SPAN, ffdist.cli.run))}
    for layer in LAYERS:
        module = importlib.import_module(f"ffdist.{layer}")
        for attr, fn in vars(module).items():
            name = f"{layer}.{attr}"
            if (
                inspect.isfunction(fn)
                and fn.__module__ == module.__name__
                and not attr.startswith("_")
                and name not in PER_ELEMENT
            ):
                replacements[id(fn)] = (fn, wrap(rec, name, fn))
    for module in [m for n, m in sys.modules.items() if n == "ffdist" or n.startswith("ffdist.")]:
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    for layer, cls_name, method in METHODS:
        cls = getattr(importlib.import_module(f"ffdist.{layer}"), cls_name)
        name = f"{layer}.{cls_name}.{method}"
        original = getattr(cls, method)
        wrapper = _iter_wrapper(rec, name, original) if method == "__iter__" else wrap(rec, name, original)
        setattr(cls, method, wrapper)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--metrics-out", required=True, help="write span statistics here")
    parser.add_argument("cli_argv", nargs=argparse.REMAINDER, help="-- then the ffdist arguments")
    args = parser.parse_args(argv)
    cli_argv = args.cli_argv[1:] if args.cli_argv[:1] == ["--"] else args.cli_argv

    import ffdist.cli

    rec = Recorder()
    install(rec)
    code = ffdist.cli.run(cli_argv)
    sys.stdout.flush()
    stats = span_stats(rec.spans)
    payload = {
        "exit_code": code,
        "spans": stats,
        "metrics": layer_metrics(stats, rec.counters, rec.distinct),
    }
    with open(args.metrics_out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
