"""Command-line surface: reproducible runs of every operation with
machine-readable output.

Exit codes: 0 success; 1 usage or I/O error (including guard limits);
2 a hard invariant failed, meaning a bug or a falsified theorem-backed
check, never bad input.  Reports embed the resolved configuration and
the tool version; large integers are serialized as decimal strings.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import os
import sys
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, TextIO

from . import __version__
from .encodings import deviation_check, encode
from .energy import (
    additive_energy,
    distance_energy,
    dot_energy,
    energy_bruteforce_oracle,
    energy_from_spectrum,
    recursion_diagnostic,
)
from .errors import GuardExceeded, InvariantViolation, ParseError
from .field import PrimeModulus
from .incidence import (
    IncidenceInstance,
    PlaneSet,
    RudnevReport,
    build_proof_instance,
    format_instance,
    max_collinear,
    max_collinear_vertical,
    parse_instance,
    rudnev_diagnostic,
)
from .rng import SplitMix64, derive_seed
from .selftests import run_suites
from .sets import (
    FieldSubset,
    WeightedPointSet,
    isotropic_line,
    parse_subset,
    random_multiset,
    random_pointset,
    random_subset,
    read_set_file,
)
from .spectra import (
    Spectrum,
    check_point_count,
    distance_spectrum_general,
    power_spectrum,
    self_dot_spectrum,
)
from .verify import (
    balog_wooley_decompose,
    coverage_check,
    iosevich_rudnev_check,
    theorem_last_report,
    threshold_scan,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


# -- shared input resolution and output ----------------------------------------


def _force(args) -> bool:
    return args.force or os.environ.get("FFDIST_GUARD_OVERRIDE") == "1"


def _modulus(args, missing: str) -> PrimeModulus:
    """The --p modulus; a usage error saying `missing` when it is absent."""
    if args.p is None:
        raise UsageError(missing)
    return PrimeModulus(args.p)


def _resolve_set(args) -> tuple[FieldSubset, str]:
    if args.set_file:
        A = read_set_file(args.set_file)
        if not isinstance(A, FieldSubset):
            raise UsageError(f"{args.set_file} holds a point set, not a subset of F_p")
        if args.p is not None and args.p != A.modulus.p:
            raise UsageError(f"--p {args.p} conflicts with file modulus {A.modulus.p}")
        return A, f"file:{args.set_file}"
    modulus = _modulus(args, "--p is required unless --set-file provides it")
    if args.set is not None:
        return parse_subset(args.set, modulus), f"inline:{args.set}"
    if args.random is not None:
        return random_subset(modulus, args.random, args.seed), f"random:n={args.random},seed={args.seed}"
    raise UsageError("no set given: use --set, --set-file, or --random")


def _resolve_points(args) -> tuple[WeightedPointSet | None, str | None]:
    """The point set named by --isotropic, --points-file or --random-points,
    with its source; (None, None) when the input is a subset of F_p."""
    if args.isotropic:
        modulus = _modulus(args, "--isotropic needs --p")
        check_point_count(modulus.p, _force(args))
        E, source = isotropic_line(modulus), "isotropic"
    elif args.points_file:
        E, source = read_set_file(args.points_file), f"points:{args.points_file}"
        if isinstance(E, FieldSubset):
            raise UsageError(f"{args.points_file} holds a subset, not a point set")
    elif getattr(args, "random_points", None) is not None:  # only coverage takes --random-points
        modulus = _modulus(args, "--random-points needs --p")
        check_point_count(args.random_points, _force(args))
        E = random_pointset(modulus, args.dim, args.random_points, args.seed)
        source = f"random-points:n={args.random_points},dim={args.dim},seed={args.seed}"
    else:
        return None, None
    # a general point set has only its distance spectrum, taken as given
    if args.kind != "distance":
        raise UsageError("general point sets support only the distance spectrum")
    if args.n != 1:
        raise UsageError("general point sets have no Cartesian power: drop --n")
    return E, source


_MARK = "<counts>"  # stands in for a result's counts while the rest of its record is encoded
_EMIT_BLOCK = 4096  # counts per write


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8", newline="")


def _rows(prefix: str, value) -> Iterator[tuple[str, object]]:
    """A report flattened into key,value rows (the generic CSV rendition), one at a time."""
    if isinstance(value, dict):
        for k in sorted(value):
            yield from _rows(f"{prefix}.{k}" if prefix else str(k), value[k])
    elif isinstance(value, list):
        for i, v in enumerate(value):
            yield from _rows(f"{prefix}[{i}]", v)
    else:
        yield prefix, "" if value is None else value


def _write_rows(out: TextIO, result: dict) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["key", "value"])
    writer.writerows(_rows("", result))


def _emit(args, config: dict, result: dict, write_csv: Callable[[TextIO], None] | None = None) -> None:
    """Print the record; with --out, the payload (CSV or the record) goes to
    that file and the printed record names it.  Bare CSV is printed alone.
    A result's "counts", ints, are written as decimal strings as they are encoded."""
    config = {**config, "seed": args.seed, "format": args.format, "force": _force(args), "threads": args.threads}
    counts = result.get("counts", [])
    shown = {**result, "counts": [_MARK]} if counts else result
    record = {"tool": f"ffdist {__version__}", "subcommand": args.subcommand, "config": config, "result": shown}

    def encoded() -> Callable[[TextIO], None]:
        """The record's writer, encoded now, so that an encoding error leaves nothing written.
        The marker's last occurrence is the one in result: only config and output,
        which sort before it, carry text from the command line."""
        text = json.dumps(record, sort_keys=True, indent=2, allow_nan=False)
        head, _, tail = text.rpartition(json.dumps(_MARK)) if counts else ("", "", text)
        return lambda out: _write_blocks(out, head, '"{1}"', counts, "," + head[head.rfind("\n"):], tail + "\n")

    if args.format == "csv":
        write_payload = write_csv or (lambda out: _write_rows(out, result))
        if not args.out:
            write_payload(sys.stdout)
            return
    else:
        write_payload = encoded()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as out:
            write_payload(out)
        record["output"] = args.out
    record["timestamp"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
    encoded()(sys.stdout)


def _write_blocks(out: TextIO, head: str, entry: str, values: list, sep: str, tail: str) -> None:
    """Write head, then entry.format(i, values[i]) for each i joined by sep, then
    tail, _EMIT_BLOCK values at a time, so the whole text is never held."""
    out.write(head)
    for s in range(0, len(values), _EMIT_BLOCK):
        block = map(entry.format, range(s, s + _EMIT_BLOCK), values[s : s + _EMIT_BLOCK])
        out.write((sep if s else "") + sep.join(block))
    out.write(tail)


# -- subcommand implementations ----------------------------------------------


def _cmd_spectrum(args) -> tuple[dict, dict, Callable[[TextIO], None]]:
    E, source = _resolve_points(args)
    if E is None:
        A, source = _resolve_set(args)
        S = power_spectrum(A, args.kind, args.n)
        set_text, size = A.serialize(), len(A) ** args.n
    else:
        S = distance_spectrum_general(E, force=_force(args))
        set_text, size = None, len(E)
    if args.exclude_diagonal:
        # a point's dot product with itself is not 0 in general
        diagonal = self_dot_spectrum(A, args.n).counts if args.kind == "dot" else [size]
        counts = list(S.counts)
        for t, c in enumerate(diagonal):
            counts[t] -= c
        if min(counts) < 0:
            raise InvariantViolation("diagonal exceeds the pair counts")
        S = Spectrum(S.modulus, counts)
    config = {"p": S.modulus.p, "source": source, "set": set_text, "kind": args.kind, "n": args.n,
              "exclude_diagonal": args.exclude_diagonal}
    result = {"total": str(S.total), "support_size": sum(1 for c in S.counts if c), "counts": S.counts}
    head = f"p={S.modulus.p}\nlambda,count\n"  # as spectrum_to_csv writes it
    return config, result, lambda out: _write_blocks(out, head, "{0},{1}", S.counts, "\n", "\n")


def _cmd_energy(args) -> tuple[dict, dict]:
    A, source = _resolve_set(args)
    kind, d = args.kind, args.d
    if kind in ("additive", "multiplicative") and d != 1:
        raise UsageError(f"{kind} energy has no fold depth; drop --d")
    if args.recursion:
        # the diagnostic's fold chain ends at depth d, so E_d is taken from it
        diag = recursion_diagnostic(A, d, kind)
        value = diag["energy_d"]
    elif kind == "distance":
        value = distance_energy(A, d)
    elif kind == "additive":
        value = additive_energy(A)
    else:  # the multiplicative energy is the dot energy at d = 1
        value = dot_energy(A, d)
    result = {"kind": kind, "d": d, "value": str(value)}
    if args.oracle:
        oracle = energy_bruteforce_oracle(A, d, kind, force=_force(args))
        if oracle != value:
            raise InvariantViolation(f"energy fast path {value} != brute-force oracle {oracle}")
        result["oracle"] = str(oracle)
    if args.recursion:
        for key in ("energy_d", "energy_d_minus_1"):
            diag[key] = str(diag[key])
        result["recursion"] = diag
    return {"p": A.modulus.p, "source": source, "set": A.serialize(), "kind": kind, "d": d}, result


def _cmd_coverage(args) -> tuple[dict, dict]:
    E, source = _resolve_points(args)
    threshold = None
    if E is None:
        A, source = _resolve_set(args)
        report = coverage_check(power_spectrum(A, args.kind, args.n))
        config = {"p": A.modulus.p, "source": source, "set": A.serialize(), "kind": args.kind, "n": args.n}
    elif args.isotropic:
        report = coverage_check(distance_spectrum_general(E, force=_force(args)))
        config = {"p": E.modulus.p, "source": source}
    else:
        threshold = iosevich_rudnev_check(E, force=_force(args))
        report = threshold.coverage
        config = {"p": E.modulus.p, "source": source, "dim": E.dim}
    result = {
        "covered": report.covered,
        "covered_excluding_zero": report.covered_excluding_zero,
        "missing_size": len(report.missing),
        "missing": report.missing.serialize(),
        "zero_count": str(report.zero_count),
        "total": str(report.total),
        "expected_per_lambda": {"num": str(report.total), "den": str(report.p)},
        "max_rel_deviation": report.max_rel_deviation,
        "deviation_exact": {"num": str(report.deviation_num), "den": str(report.deviation_den)},
        "counts": report.counts,
    }
    if threshold is not None:
        result["threshold"] = {"value": threshold.threshold, "met": threshold.threshold_met,
                               "coverage_asserted": threshold.threshold_met}
    return config, result


# name -> (form, n - 2d) for the power n that the encoding at depth d covers
_ENCODINGS = {"distance-odd": ("distance", 1), "distance-even": ("distance", 0), "dot": ("dot", 0)}


def _check_encoding(A: FieldSubset, name: str, d: int) -> tuple[dict, WeightedPointSet, WeightedPointSet]:
    """Check one encoding exactly; returns its report entry and its E, F."""
    if d < 1:
        raise ValueError(f"fold depth must be >= 1, got {d}")
    m = len(A)
    kind, offset = _ENCODINGS[name]
    n = 2 * d + offset
    k = 2 - n % 2  # the encoder's free coordinates
    depth = (n - k) // 2
    E, F = encode(A, kind, n)
    reference = power_spectrum(A, kind, n)
    moment_expected = m**k * (energy_from_spectrum(power_spectrum(A, kind, depth)) if depth else 1)
    # the deviation report carries the pair counts it checked
    deviation = deviation_check(E, F)
    checks = {
        "totals": E.total == m**n and F.total == m**n,
        "pair_counts_match_spectrum": deviation.counts == reference.counts,
        "second_moment_identity": E.second_moment() == moment_expected,
        "deviation_bound": deviation.passed,
    }
    if not all(checks.values()):
        failed = ", ".join(k for k, v in checks.items() if not v)
        raise InvariantViolation(f"encoding {name} (d={d}) failed: {failed}")
    entry = {"encoding": name, "d": d, "total": str(E.total), "second_moment": str(E.second_moment()), "checks": checks}
    return entry, E, F


def _cmd_encode_check(args) -> tuple[dict, dict]:
    A, source = _resolve_set(args)
    names = _ENCODINGS if args.encoding == "all" else (args.encoding,)
    checked = {name: _check_encoding(A, name, args.d) for name in names}
    if args.dump:
        for name, (_, E, F) in checked.items():
            _write(f"{args.dump}.{name}.E.csv", E.to_csv())
            _write(f"{args.dump}.{name}.F.csv", F.to_csv())
    config = {"p": A.modulus.p, "source": source, "set": A.serialize(), "d": args.d, "encoding": args.encoding}
    return config, {"encodings": [entry for entry, _, _ in checked.values()], "all_passed": True}


def _cmd_deviation_check(args) -> tuple[dict, dict]:
    modulus = _modulus(args, "deviation-check needs --p")
    dims = (2, 3) if args.dim == "both" else (int(args.dim),)
    worst: dict[int, int | None] = {2: None, 3: None}
    for trial in range(args.random_multisets):
        for dim in dims:
            rng = SplitMix64(derive_seed("deviation", modulus.p, args.seed, trial, dim))
            E = random_multiset(rng, modulus, dim, 10, 5)
            F = random_multiset(rng, modulus, dim, 10, 5)
            report = deviation_check(E, F)
            if not report.passed:
                raise InvariantViolation(
                    f"deviation bound failed for dim {dim}, trial {trial}: "
                    "this falsifies a constant-free inequality"
                )
            margin = min(report.margins)
            if worst[dim] is None or margin < worst[dim]:
                worst[dim] = margin
    config = {"p": modulus.p, "random_multisets": args.random_multisets, "dim": args.dim}
    result = {
        "trials": args.random_multisets,
        "all_passed": True,
        "min_margin": {str(d): (None if w is None else str(w)) for d, w in worst.items()},
    }
    return config, result


def _rudnev_result(diag: RudnevReport) -> dict:
    return {
        "incidences": str(diag.incidences),
        "points": str(diag.n_points),
        "planes": str(diag.n_planes),
        "k": diag.k,
        "term_main": diag.term_main,
        "term_sqrt": diag.term_sqrt,
        "term_collinear": diag.term_collinear,
        "ratio": diag.ratio,
        "swapped_roles": diag.swapped_roles,
        "note": diag.note,
    }


def _cmd_incidence(args) -> tuple[dict, dict]:
    if args.instance_file:
        points, planes = parse_instance(Path(args.instance_file).read_text(encoding="utf-8"))
        source = f"file:{args.instance_file}"
    else:
        modulus = _modulus(args, "incidence needs --p with --random-points/--random-planes")
        p = modulus.p
        rng = SplitMix64(derive_seed("incidence", p, args.seed))
        flat = rng.randbelow_each([p] * (3 * args.random_points))
        points = WeightedPointSet(modulus, 3, [(pt, 1) for pt in zip(flat[::3], flat[1::3], flat[2::3])])
        plane_pairs = []
        while len(plane_pairs) < args.random_planes:
            normal = tuple(rng.randbelow(p) for _ in range(3))
            if normal != (0, 0, 0):
                plane_pairs.append((normal + (rng.randbelow(p),), 1))
        planes = PlaneSet(modulus, plane_pairs)
        source = f"random:points={args.random_points},planes={args.random_planes},seed={args.seed}"
    inst = IncidenceInstance(points=points, planes=planes, k=max_collinear(points, force=_force(args)))
    return {"p": points.modulus.p, "source": source}, _rudnev_result(rudnev_diagnostic(inst))


def _cmd_proof_instance(args) -> tuple[dict, dict]:
    A, source = _resolve_set(args)
    if args.all_pairs:
        if args.dump:
            raise UsageError("--dump needs a single --i0/--j0 pair")
        pairs = None
    else:
        if args.i0 is None or args.j0 is None:
            raise UsageError("give --i0 and --j0, or --all-pairs")
        pairs = [(args.i0, args.j0)]
    levels, built = build_proof_instance(A, args.d, pairs)
    instances = []
    for (i0, j0), inst in built.items():
        # the diagnostic's count is verified both ways and against the carried sum
        diag = rudnev_diagnostic(inst)
        instances.append({
            "i0": i0,
            "j0": j0,
            "points_total": str(inst.points.total),
            "planes_total": str(inst.planes.total),
            "carried_pair_sum": str(inst.expected_incidences),
            "incidences": str(diag.incidences),
            "identity_holds": True,
            "k": inst.k,
            "max_vertical": max_collinear_vertical(inst.points),
            "level_i0_size": len(levels[i0]),
            "level_j0_size": len(levels[j0]),
            "diagnostic": _rudnev_result(diag),
        })
        if args.dump:
            _write(args.dump, format_instance(inst))
    config = {"p": A.modulus.p, "source": source, "d": args.d, "levels": list(levels)}
    return config, {"instances": instances}


def _cmd_decompose(args) -> tuple[dict, dict]:
    A, source = _resolve_set(args)
    decomposition = balog_wooley_decompose(A, args.strategy)
    result = {
        "B": decomposition.B.serialize(),
        "C": decomposition.C.serialize(),
        "additive_energy_B": str(decomposition.eplus),
        "multiplicative_energy_C": str(decomposition.etimes),
        "max_energy": str(decomposition.max_energy),
        "strategy": decomposition.strategy,
    }
    return {"p": A.modulus.p, "source": source, "set": A.serialize(), "strategy": args.strategy}, result


def _cmd_scan(args) -> tuple[dict, dict, Callable[[TextIO], None]]:
    modulus = _modulus(args, "scan needs --p")
    table = threshold_scan(modulus, args.n, args.kind, trials=args.trials, seed=args.seed, max_m=args.max_m)
    config = {"p": modulus.p, "n": args.n, "kind": args.kind, "trials": args.trials, "max_m": args.max_m}
    result = {
        "min_full_coverage_m": table.min_full_coverage_m,
        "rows": [
            {"m": row.m, "trials": row.trials, "covered_fraction": row.covered_fraction,
             "min_count": str(row.min_count), "zero_fraction": row.zero_fraction}
            for row in table.rows
        ],
    }
    return config, result, lambda out: out.write(table.to_csv())


def _cmd_theorem_report(args) -> tuple[dict, dict]:
    A, source = _resolve_set(args)
    report = theorem_last_report(A, args.d, strategy=args.strategy)
    for key in ("eplus", "etimes", "distance_energy_B", "dot_energy_C", "max_energy"):
        report[key] = str(report[key])
    return {"p": A.modulus.p, "source": source, "set": A.serialize(), "d": args.d}, report


# -- the command table ----------------------------------------------------------


def _arg(*flags: str, **kwargs) -> tuple[tuple[str, ...], dict]:
    return flags, kwargs


def _non_negative_int(text: str) -> int:
    """argparse type of a count option: an int >= 0."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


class _Command(NamedTuple):
    func: Callable[[argparse.Namespace], tuple]  # the record parts that _emit takes
    help: str
    suites: list[str]
    arguments: tuple
    format: str = "json"
    description: str | None = None


_SET_SOURCE = (
    _arg("--p", type=int, help="prime modulus"),
    _arg("--set", help='inline set, e.g. "0,1,3" or "0..4"'),
    _arg("--set-file", help="set file (first line: p=<prime> d=1)"),
    _arg("--random", type=int, metavar="N", help="sample a random N-subset"),
    _arg("--seed", type=int, default=0, help="seed for sampled inputs"),
)
_P = _arg("--p", type=int)
_SEED = _arg("--seed", type=int, default=0)
_KIND = _arg("--kind", choices=["distance", "dot"], default="distance")
_STRATEGIES = ["exhaustive", "greedy"]

# Added after each command's own arguments, so --help lists them last;
# --format takes its default from the command's entry (set_defaults).
_COMMON = (
    _arg("--out", help="write the payload to this path"),
    _arg("--format", choices=["json", "csv"]),
    _arg("--force", action="store_true", help="lift the enumeration guards (not the hard limits; see README)"),
    _arg("--threads", type=int, default=1, help="accepted for compatibility; has no effect"),
    _arg("--selftest", action="store_true", help="run this subcommand's oracle suite and exit"),
)

# Handlers only: they call library functions by their module-level names,
# which is where tracing and tests rebind them.
_COMMANDS = {
    "spectrum": _Command(
        _cmd_spectrum, "distance/dot-product spectra", ["field", "spectra"],
        _SET_SOURCE + (
            _KIND,
            _arg("--n", type=int, default=1, help="Cartesian power"),
            _arg("--points-file", help="point-set file for the general distance spectrum"),
            _arg("--isotropic", action="store_true", help="use the isotropic line in the plane"),
            _arg("--exclude-diagonal", action="store_true", help="drop the x = y pairs from lambda = 0"),
        ),
        format="csv",
        description="Exact spectra of Cartesian powers or explicit point sets.",
    ),
    "energy": _Command(
        _cmd_energy, "d-fold and quadruple energies", ["energy"],
        _SET_SOURCE + (
            _arg("--kind", choices=["distance", "dot", "additive", "multiplicative"], default="distance"),
            _arg("--d", type=int, default=1, help="fold depth (distance/dot kinds)"),
            _arg("--oracle", action="store_true", help="cross-check against the brute-force oracle"),
            _arg("--recursion", action="store_true", help="include the recursion diagnostic report (d >= 2)"),
        ),
    ),
    "coverage": _Command(
        _cmd_coverage, "which values a spectrum attains", ["verify"],
        _SET_SOURCE + (
            _KIND, _arg("--n", type=int, default=1), _arg("--isotropic", action="store_true"), _arg("--points-file"),
            _arg("--random-points", type=int, metavar="N"),
            _arg("--dim", type=int, default=3, help="dimension for --random-points"),
        ),
    ),
    "encode-check": _Command(
        _cmd_encode_check, "verify the multiset encodings exactly", ["encodings"],
        _SET_SOURCE + (
            _arg("--d", type=int, default=1),
            _arg("--encoding", choices=list(_ENCODINGS) + ["all"], default="all"),
            _arg("--dump", metavar="PREFIX", help="write each checked multiset as PREFIX.<encoding>.<side>.csv"),
        ),
    ),
    "deviation-check": _Command(
        _cmd_deviation_check, "exact deviation bounds on random multisets", ["encodings"],
        (_P, _arg("--random-multisets", type=_non_negative_int, default=100, metavar="N"), _SEED,
         _arg("--dim", choices=["2", "3", "both"], default="both")),
    ),
    "incidence": _Command(
        _cmd_incidence, "point-plane incidence counting and diagnostic", ["incidence"],
        (_P, _arg("--instance-file", help="POINTS/PLANES dump to load"),
         _arg("--random-points", type=_non_negative_int, default=20),
         _arg("--random-planes", type=_non_negative_int, default=20), _SEED),
    ),
    "proof-instance": _Command(
        _cmd_proof_instance, "the dyadic-level point/plane instance", ["incidence"],
        _SET_SOURCE + (
            _arg("--d", type=int, default=2),
            _arg("--i0", type=int, help="dyadic level exponent for the points"),
            _arg("--j0", type=int, help="dyadic level exponent for the planes"),
            _arg("--all-pairs", action="store_true", help="check every level pair"),
            _arg("--dump", help="write the instance dump here (single pair only)"),
        ),
    ),
    "decompose": _Command(
        _cmd_decompose, "split A minimizing max(E+(B), Ex(C))", ["verify", "energy"],
        _SET_SOURCE + (_arg("--strategy", choices=_STRATEGIES, default="exhaustive"),),
    ),
    "scan": _Command(
        _cmd_scan, "coverage fraction vs cardinality", ["verify", "spectra"],
        (_P, _arg("--n", type=int, default=2), _KIND, _arg("--trials", type=int, default=10), _SEED,
         _arg("--max-m", type=int, help="stop the sweep at this cardinality")),
        format="csv",
    ),
    "theorem-report": _Command(
        _cmd_theorem_report, "decomposition energies beside the bound shape", ["verify", "energy"],
        _SET_SOURCE + (_arg("--d", type=int, default=2), _arg("--strategy", choices=_STRATEGIES, default=None)),
    ),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="ffdist", description=__doc__)
    parser.add_argument("--version", action="version", version=f"ffdist {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in _COMMANDS.items():
        sp = sub.add_parser(name, help=command.help, description=command.description)
        for flags, kwargs in command.arguments + _COMMON:
            sp.add_argument(*flags, **kwargs)
        sp.set_defaults(func=command.func, suites=command.suites, format=command.format)
    return parser


def run(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.selftest:
            results = run_suites(args.suites)
            for name, passed in results:
                print(f"{'ok' if passed else 'FAIL'}  {name}")
            return 0 if all(passed for _, passed in results) else 2
        _emit(args, *args.func(args))
        return 0
    except SystemExit as exc:  # --help / --version
        return 0 if exc.code in (0, None) else 1
    except (UsageError, ParseError, GuardExceeded, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"INVARIANT VIOLATED: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
