"""Command-line surface: reproducible runs of every operation with
machine-readable output.

Exit codes: 0 success; 1 usage or I/O error (including guard limits);
2 a hard invariant failed, meaning a bug or a falsified theorem-backed
check, never bad input.  Reports embed the resolved configuration and
the tool version; large integers are serialized as decimal strings.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys

from . import __version__
from .encodings import (
    WeightedPointSet,
    deviation_check_dim2,
    deviation_check_dim3,
    encode_distance_even,
    encode_distance_odd,
    encode_dot,
    pair_counts_dim2,
    pair_counts_dim3,
)
from .energy import (
    additive_energy,
    distance_energy,
    dot_energy,
    dyadic_levels,
    energy_bruteforce_oracle,
    multiplicative_energy,
    recursion_diagnostic,
)
from .errors import GuardExceeded, InvariantViolation, ParseError
from .field import PrimeModulus
from .incidence import (
    IncidenceInstance,
    PlaneSet,
    build_proof_instance,
    count_incidences,
    format_instance,
    max_collinear,
    max_collinear_vertical,
    parse_instance,
    rudnev_diagnostic,
    verify_proof_instance,
)
from .rng import SplitMix64, derive_seed
from .selftests import run_suites
from .sets import (
    FieldSubset,
    isotropic_line,
    parse_subset,
    random_pointset,
    random_subset,
    read_set_file,
)
from .spectra import (
    Spectrum,
    diff_square_spectrum,
    distance_spectrum_general,
    distance_spectrum_power,
    dot_spectrum_power,
    fold,
    self_dot_spectrum,
    spectrum_to_csv,
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


_SELFTEST_SUITES = {
    "spectrum": ["field", "spectra"],
    "energy": ["energy"],
    "coverage": ["verify"],
    "encode-check": ["encodings"],
    "deviation-check": ["encodings"],
    "incidence": ["incidence"],
    "proof-instance": ["incidence"],
    "decompose": ["verify", "energy"],
    "scan": ["verify", "spectra"],
    "theorem-report": ["verify", "energy"],
}


def _add_common(parser: argparse.ArgumentParser, default_format: str = "json") -> None:
    parser.add_argument("--out", help="write the payload to this path")
    parser.add_argument("--format", choices=["json", "csv"], default=default_format)
    parser.add_argument("--force", action="store_true", help="override enumeration guards")
    parser.add_argument("--threads", type=int, default=1, help="accepted for compatibility; has no effect")
    parser.add_argument("--selftest", action="store_true", help="run this subcommand's oracle suite and exit")


def _add_set_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--p", type=int, help="prime modulus")
    parser.add_argument("--set", help='inline set, e.g. "0,1,3" or "0..4"')
    parser.add_argument("--set-file", help="set file (first line: p=<prime> d=1)")
    parser.add_argument("--random", type=int, metavar="N", help="sample a random N-subset")
    parser.add_argument("--seed", type=int, default=0, help="seed for sampled inputs")


def _resolve_set(args) -> tuple[PrimeModulus, FieldSubset, str]:
    if args.set_file:
        obj = read_set_file(args.set_file)
        if not isinstance(obj, FieldSubset):
            raise UsageError(f"{args.set_file} holds a point set, not a subset of F_p")
        if args.p is not None and args.p != obj.modulus.p:
            raise UsageError(f"--p {args.p} conflicts with file modulus {obj.modulus.p}")
        return obj.modulus, obj, f"file:{args.set_file}"
    if args.p is None:
        raise UsageError("--p is required unless --set-file provides it")
    modulus = PrimeModulus(args.p)
    if args.set is not None:
        return modulus, parse_subset(args.set, modulus), f"inline:{args.set}"
    if args.random is not None:
        A = random_subset(modulus, args.random, args.seed)
        return modulus, A, f"random:n={args.random},seed={args.seed}"
    raise UsageError("no set given: use --set, --set-file, or --random")


def _guards_force(args) -> bool:
    return args.force or os.environ.get("FFDIST_GUARD_OVERRIDE") == "1"


def _dec(x: int) -> str:
    return str(x)


def _subset_json(A: FieldSubset) -> dict:
    return {"p": A.modulus.p, "size": len(A), "elements": A.serialize()}


def _timestamp() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _result_csv(result: dict) -> str:
    """Flatten a report into key,value rows (the generic CSV rendition)."""
    import csv
    import io

    rows: list[tuple[str, object]] = []

    def walk(prefix: str, value) -> None:
        if isinstance(value, dict):
            for k in sorted(value):
                walk(f"{prefix}.{k}" if prefix else str(k), value[k])
        elif isinstance(value, list):
            for i, v in enumerate(value):
                walk(f"{prefix}[{i}]", v)
        else:
            rows.append((prefix, value))

    walk("", result)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    for key, value in rows:
        writer.writerow([key, "" if value is None else value])
    return buf.getvalue()


def _emit(args, subcommand: str, config: dict, result: dict, csv_payload: str | None = None) -> None:
    config = dict(config)
    config.update(
        {"format": args.format, "force": _guards_force(args), "threads": args.threads}
    )
    record = {
        "tool": f"ffdist {__version__}",
        "subcommand": subcommand,
        "config": config,
        "result": result,
    }
    if args.format == "csv":
        if csv_payload is None:
            csv_payload = _result_csv(result)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(csv_payload)
            record["output"] = args.out
            record["timestamp"] = _timestamp()
            print(json.dumps(record, sort_keys=True, indent=2))
        else:
            sys.stdout.write(csv_payload)
        return
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(json.dumps(record, sort_keys=True, indent=2) + "\n")
        record["output"] = args.out
    record["timestamp"] = _timestamp()
    print(json.dumps(record, sort_keys=True, indent=2))


def _power_spectrum(A: FieldSubset, kind: str, n: int):
    if kind == "distance":
        return distance_spectrum_power(A, n)
    return dot_spectrum_power(A, n)


# -- subcommand implementations ----------------------------------------------


def _cmd_spectrum(args) -> int:
    exclude = args.exclude_diagonal
    set_text = None
    if args.isotropic:
        if args.p is None:
            raise UsageError("--isotropic needs --p")
        modulus = PrimeModulus(args.p)
        E = isotropic_line(modulus)
        S = distance_spectrum_general(E, force=_guards_force(args))
        diagonal = len(E)
        source = "isotropic"
        kind = "distance"
    elif args.points_file:
        obj = read_set_file(args.points_file)
        if isinstance(obj, FieldSubset):
            raise UsageError(f"{args.points_file} holds a subset, not a point set")
        if args.kind != "distance":
            raise UsageError("general point sets support only the distance spectrum")
        S = distance_spectrum_general(obj, force=_guards_force(args))
        diagonal = len(obj)
        source = f"points:{args.points_file}"
        kind = "distance"
    else:
        modulus, A, source = _resolve_set(args)
        S = _power_spectrum(A, args.kind, args.n)
        kind = args.kind
        set_text = A.serialize()
        if kind == "dot":
            # a point's dot product with itself is not 0 in general
            diagonal = self_dot_spectrum(A, args.n).counts
        else:
            diagonal = len(A) ** args.n
    if exclude:
        counts = list(S.counts)
        if isinstance(diagonal, list):
            for t, c in enumerate(diagonal):
                counts[t] -= c
        else:
            counts[0] -= diagonal
        if min(counts) < 0:
            raise InvariantViolation("diagonal exceeds the pair counts")
        S = Spectrum(S.modulus, counts)
    config = {
        "p": S.modulus.p,
        "source": source,
        "set": set_text,
        "kind": kind,
        "n": args.n,
        "exclude_diagonal": exclude,
        "seed": args.seed,
    }
    result = {
        "total": _dec(S.total),
        "support_size": sum(1 for c in S.counts if c),
        "counts": [_dec(c) for c in S.counts],
    }
    _emit(args, "spectrum", config, result, csv_payload=spectrum_to_csv(S))
    return 0


def _cmd_energy(args) -> int:
    modulus, A, source = _resolve_set(args)
    kind = args.kind
    d = args.d
    if kind in ("additive", "multiplicative") and d != 1:
        raise UsageError(f"{kind} energy has no fold depth; drop --d")
    if kind == "distance":
        value = distance_energy(A, d)
    elif kind == "dot":
        value = dot_energy(A, d)
    elif kind == "additive":
        value = additive_energy(A)
    else:
        value = multiplicative_energy(A)
    result = {"kind": kind, "d": value.d, "value": _dec(value.value)}
    if args.oracle:
        oracle = energy_bruteforce_oracle(A, value.d, kind, force=_guards_force(args))
        if oracle.value != value.value:
            raise InvariantViolation(
                f"energy fast path {value.value} != brute-force oracle {oracle.value}"
            )
        result["oracle"] = _dec(oracle.value)
    if args.recursion:
        diag = recursion_diagnostic(A, d, kind)
        diag["energy_d"] = _dec(diag["energy_d"])
        diag["energy_d_minus_1"] = _dec(diag["energy_d_minus_1"])
        result["recursion"] = diag
    config = {"p": modulus.p, "source": source, "set": A.serialize(), "kind": kind, "d": d, "seed": args.seed}
    _emit(args, "energy", config, result)
    return 0


def _coverage_result(report) -> dict:
    return {
        "covered": report.covered,
        "covered_excluding_zero": report.covered_excluding_zero,
        "missing_size": len(report.missing),
        "missing": report.missing.serialize(),
        "zero_count": _dec(report.zero_count),
        "total": _dec(report.total),
        "expected_per_lambda": {"num": _dec(report.total), "den": _dec(report.p)},
        "max_rel_deviation": report.max_rel_deviation,
        "deviation_exact": {"num": _dec(report.deviation_num), "den": _dec(report.deviation_den)},
        "counts": [_dec(c) for c in report.counts],
    }


def _cmd_coverage(args) -> int:
    force = _guards_force(args)
    if args.isotropic:
        if args.p is None:
            raise UsageError("--isotropic needs --p")
        modulus = PrimeModulus(args.p)
        E = isotropic_line(modulus)
        report = coverage_check(distance_spectrum_general(E, force=force), "isotropic")
        config = {"p": modulus.p, "source": "isotropic", "seed": args.seed}
        result = _coverage_result(report)
    elif args.points_file or args.random_points:
        if args.points_file:
            E = read_set_file(args.points_file)
            if isinstance(E, FieldSubset):
                raise UsageError(f"{args.points_file} holds a subset, not a point set")
            source = f"points:{args.points_file}"
        else:
            if args.p is None:
                raise UsageError("--random-points needs --p")
            E = random_pointset(PrimeModulus(args.p), args.dim, args.random_points, args.seed)
            source = f"random-points:n={args.random_points},dim={args.dim},seed={args.seed}"
        threshold_report = iosevich_rudnev_check(E, force=force)
        report = coverage_check(distance_spectrum_general(E, force=force), source)
        config = {"p": E.modulus.p, "source": source, "dim": E.dim, "seed": args.seed}
        result = _coverage_result(report)
        result["threshold"] = {
            "value": threshold_report.threshold,
            "met": threshold_report.threshold_met,
            "coverage_asserted": threshold_report.asserted,
        }
    else:
        modulus, A, source = _resolve_set(args)
        S = _power_spectrum(A, args.kind, args.n)
        report = coverage_check(S, source)
        config = {
            "p": modulus.p,
            "source": source,
            "set": A.serialize(),
            "kind": args.kind,
            "n": args.n,
            "seed": args.seed,
        }
        result = _coverage_result(report)
    _emit(args, "coverage", config, result)
    return 0


_ENCODINGS = ("distance-odd", "distance-even", "dot")


def _check_encoding(A: FieldSubset, name: str, d: int) -> dict:
    m = len(A)
    if name == "distance-odd":
        E, F = encode_distance_odd(A, d)
        reference = distance_spectrum_power(A, 2 * d + 1)
        pair_counts = pair_counts_dim2(E, F)
        moment_expected = m * distance_energy(A, d).value
        deviation = deviation_check_dim2(E, F)
        expected_total = m ** (2 * d + 1)
    else:
        if name == "distance-even":
            E, F = encode_distance_even(A, d)
            reference = distance_spectrum_power(A, 2 * d)
            moment_expected = m * m * (distance_energy(A, d - 1).value if d > 1 else 1)
        else:
            E, F = encode_dot(A, d)
            reference = dot_spectrum_power(A, 2 * d)
            moment_expected = m * m * (dot_energy(A, d - 1).value if d > 1 else 1)
        pair_counts = pair_counts_dim3(E, F)
        deviation = deviation_check_dim3(E, F)
        expected_total = m ** (2 * d)
    checks = {
        "totals": E.total == expected_total and F.total == expected_total,
        "pair_counts_match_spectrum": pair_counts == reference.counts,
        "second_moment_identity": E.second_moment() == moment_expected,
        "deviation_bound": deviation.passed,
    }
    if not all(checks.values()):
        failed = ", ".join(k for k, v in checks.items() if not v)
        raise InvariantViolation(f"encoding {name} (d={d}) failed: {failed}")
    return {
        "encoding": name,
        "d": d,
        "total": _dec(E.total),
        "second_moment": _dec(E.second_moment()),
        "checks": checks,
    }


def _cmd_encode_check(args) -> int:
    modulus, A, source = _resolve_set(args)
    names = _ENCODINGS if args.encoding == "all" else (args.encoding,)
    results = [_check_encoding(A, name, args.d) for name in names]
    if args.dump:
        builders = {
            "distance-odd": encode_distance_odd,
            "distance-even": encode_distance_even,
            "dot": encode_dot,
        }
        for name in names:
            E, F = builders[name](A, args.d)
            for side, multiset in (("E", E), ("F", F)):
                path = f"{args.dump}.{name}.{side}.csv"
                with open(path, "w", encoding="utf-8", newline="") as fh:
                    fh.write(multiset.to_csv())
    config = {"p": modulus.p, "source": source, "set": A.serialize(), "d": args.d, "encoding": args.encoding, "seed": args.seed}
    _emit(args, "encode-check", config, {"encodings": results, "all_passed": True})
    return 0


def _random_multiset(rng: SplitMix64, modulus: PrimeModulus, dim: int) -> WeightedPointSet:
    entries: dict[tuple[int, ...], int] = {}
    for _ in range(1 + rng.randbelow(10)):
        pt = tuple(rng.randbelow(modulus.p) for _ in range(dim))
        entries[pt] = entries.get(pt, 0) + 1 + rng.randbelow(5)
    return WeightedPointSet(modulus, dim, entries)


def _cmd_deviation_check(args) -> int:
    if args.p is None:
        raise UsageError("deviation-check needs --p")
    modulus = PrimeModulus(args.p)
    dims = (2, 3) if args.dim == "both" else (int(args.dim),)
    worst: dict[int, int | None] = {2: None, 3: None}
    for trial in range(args.random_multisets):
        for dim in dims:
            rng = SplitMix64(derive_seed("deviation", modulus.p, args.seed, trial, dim))
            E = _random_multiset(rng, modulus, dim)
            F = _random_multiset(rng, modulus, dim)
            report = deviation_check_dim2(E, F) if dim == 2 else deviation_check_dim3(E, F)
            if not report.passed:
                raise InvariantViolation(
                    f"deviation bound failed for dim {dim}, trial {trial}: "
                    "this falsifies a constant-free inequality"
                )
            margin = min(report.margins)
            if worst[dim] is None or margin < worst[dim]:
                worst[dim] = margin
    config = {
        "p": modulus.p,
        "random_multisets": args.random_multisets,
        "seed": args.seed,
        "dim": args.dim,
    }
    result = {
        "trials": args.random_multisets,
        "all_passed": True,
        "min_margin": {str(d): (_dec(w) if w is not None else None) for d, w in worst.items()},
    }
    _emit(args, "deviation-check", config, result)
    return 0


def _rudnev_result(inst: IncidenceInstance) -> dict:
    diag = rudnev_diagnostic(inst)
    return {
        "incidences": _dec(diag.incidences),
        "points": _dec(diag.n_points),
        "planes": _dec(diag.n_planes),
        "k": diag.k,
        "term_main": diag.term_main,
        "term_sqrt": diag.term_sqrt,
        "term_collinear": diag.term_collinear,
        "ratio": diag.ratio,
        "swapped_roles": diag.swapped_roles,
        "note": diag.note,
    }


def _cmd_incidence(args) -> int:
    force = _guards_force(args)
    if args.instance_file:
        with open(args.instance_file, "r", encoding="utf-8") as fh:
            points, planes = parse_instance(fh.read())
        source = f"file:{args.instance_file}"
    else:
        if args.p is None:
            raise UsageError("incidence needs --p with --random-points/--random-planes")
        modulus = PrimeModulus(args.p)
        rng = SplitMix64(derive_seed("incidence", modulus.p, args.seed))
        points = WeightedPointSet.from_points(
            modulus,
            3,
            [tuple(rng.randbelow(modulus.p) for _ in range(3)) for _ in range(args.random_points)],
        )
        planes_list = []
        while len(planes_list) < args.random_planes:
            normal = tuple(rng.randbelow(modulus.p) for _ in range(3))
            if normal == (0, 0, 0):
                continue
            planes_list.append(normal + (rng.randbelow(modulus.p),))
        planes = PlaneSet(modulus, planes_list)
        source = f"random:points={args.random_points},planes={args.random_planes},seed={args.seed}"
    direct = count_incidences(points, planes, "direct")
    grouped = count_incidences(points, planes, "grouped")
    if direct != grouped:
        raise InvariantViolation(f"incidence strategies disagree: {direct} vs {grouped}")
    k = max_collinear(points, force=force)
    inst = IncidenceInstance(points=points, planes=planes, k=k)
    config = {"p": points.modulus.p, "source": source, "seed": args.seed}
    _emit(args, "incidence", config, _rudnev_result(inst))
    return 0


def _cmd_proof_instance(args) -> int:
    modulus, A, source = _resolve_set(args)
    levels = dyadic_levels(fold(diff_square_spectrum(A), args.d - 1))
    exponents = levels.exponents()
    if args.all_pairs:
        if args.dump:
            raise UsageError("--dump needs a single --i0/--j0 pair")
        pairs = [(i, j) for i in exponents for j in exponents]
    else:
        if args.i0 is None or args.j0 is None:
            raise UsageError("give --i0 and --j0, or --all-pairs")
        pairs = [(args.i0, args.j0)]
    instances = []
    for i0, j0 in pairs:
        inst = build_proof_instance(A, args.d, i0, j0)
        incidences = verify_proof_instance(inst)
        entry = {
            "i0": i0,
            "j0": j0,
            "points_total": _dec(inst.points.total),
            "planes_total": _dec(len(inst.planes)),
            "carried_pair_sum": _dec(inst.expected_incidences),
            "incidences": _dec(incidences),
            "identity_holds": True,
            "k": inst.k,
            "max_vertical": max_collinear_vertical(inst.points),
            "level_i0_size": len(levels.level(i0)),
            "level_j0_size": len(levels.level(j0)),
            "diagnostic": _rudnev_result(inst),
        }
        instances.append(entry)
        if args.dump:
            with open(args.dump, "w", encoding="utf-8", newline="") as fh:
                fh.write(format_instance(inst))
    config = {
        "p": modulus.p,
        "source": source,
        "d": args.d,
        "levels": exponents,
        "seed": args.seed,
    }
    _emit(args, "proof-instance", config, {"instances": instances})
    return 0


def _cmd_decompose(args) -> int:
    modulus, A, source = _resolve_set(args)
    decomposition = balog_wooley_decompose(A, args.strategy)
    config = {"p": modulus.p, "source": source, "set": A.serialize(), "strategy": args.strategy, "seed": args.seed}
    result = {
        "B": decomposition.B.serialize(),
        "C": decomposition.C.serialize(),
        "additive_energy_B": _dec(decomposition.eplus.value),
        "multiplicative_energy_C": _dec(decomposition.etimes.value),
        "max_energy": _dec(decomposition.max_energy),
        "strategy": decomposition.strategy,
    }
    _emit(args, "decompose", config, result)
    return 0


def _cmd_scan(args) -> int:
    if args.p is None:
        raise UsageError("scan needs --p")
    modulus = PrimeModulus(args.p)
    table = threshold_scan(
        modulus,
        args.n,
        args.kind,
        trials=args.trials,
        seed=args.seed,
        max_m=args.max_m,
    )
    config = {
        "p": modulus.p,
        "n": args.n,
        "kind": args.kind,
        "trials": args.trials,
        "seed": args.seed,
        "max_m": args.max_m,
    }
    result = {
        "min_full_coverage_m": table.min_full_coverage_m,
        "rows": [
            {
                "m": row.m,
                "trials": row.trials,
                "covered_fraction": row.covered_fraction,
                "min_count": _dec(row.min_count),
                "zero_fraction": row.zero_fraction,
            }
            for row in table.rows
        ],
    }
    _emit(args, "scan", config, result, csv_payload=table.to_csv())
    return 0


def _cmd_theorem_report(args) -> int:
    modulus, A, source = _resolve_set(args)
    report = theorem_last_report(A, args.d, strategy=args.strategy)
    for key in ("eplus", "etimes", "distance_energy_B", "dot_energy_C", "max_energy"):
        report[key] = _dec(report[key])
    config = {"p": modulus.p, "source": source, "set": A.serialize(), "d": args.d, "seed": args.seed}
    _emit(args, "theorem-report", config, report)
    return 0


# -- parser -------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="ffdist", description=__doc__)
    parser.add_argument("--version", action="version", version=f"ffdist {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("spectrum", help="distance/dot-product spectra", parents=[], description="Exact spectra of Cartesian powers or explicit point sets.")
    _add_set_source(sp)
    sp.add_argument("--kind", choices=["distance", "dot"], default="distance")
    sp.add_argument("--n", type=int, default=1, help="Cartesian power")
    sp.add_argument("--points-file", help="point-set file for the general distance spectrum")
    sp.add_argument("--isotropic", action="store_true", help="use the isotropic line in the plane")
    sp.add_argument("--exclude-diagonal", action="store_true", help="drop the x = y pairs from lambda = 0")
    _add_common(sp, default_format="csv")
    sp.set_defaults(func=_cmd_spectrum)

    en = sub.add_parser("energy", help="d-fold and quadruple energies")
    _add_set_source(en)
    en.add_argument("--kind", choices=["distance", "dot", "additive", "multiplicative"], default="distance")
    en.add_argument("--d", type=int, default=1, help="fold depth (distance/dot kinds)")
    en.add_argument("--oracle", action="store_true", help="cross-check against the brute-force oracle")
    en.add_argument("--recursion", action="store_true", help="include the recursion diagnostic report (d >= 2)")
    _add_common(en)
    en.set_defaults(func=_cmd_energy)

    cov = sub.add_parser("coverage", help="which values a spectrum attains")
    _add_set_source(cov)
    cov.add_argument("--kind", choices=["distance", "dot"], default="distance")
    cov.add_argument("--n", type=int, default=1)
    cov.add_argument("--isotropic", action="store_true")
    cov.add_argument("--points-file")
    cov.add_argument("--random-points", type=int, metavar="N")
    cov.add_argument("--dim", type=int, default=3, help="dimension for --random-points")
    _add_common(cov)
    cov.set_defaults(func=_cmd_coverage)

    ec = sub.add_parser("encode-check", help="verify the multiset encodings exactly")
    _add_set_source(ec)
    ec.add_argument("--d", type=int, default=1)
    ec.add_argument("--encoding", choices=list(_ENCODINGS) + ["all"], default="all")
    ec.add_argument("--dump", metavar="PREFIX", help="write each checked multiset as PREFIX.<encoding>.<side>.csv")
    _add_common(ec)
    ec.set_defaults(func=_cmd_encode_check)

    dev = sub.add_parser("deviation-check", help="exact deviation bounds on random multisets")
    dev.add_argument("--p", type=int)
    dev.add_argument("--random-multisets", type=int, default=100, metavar="N")
    dev.add_argument("--seed", type=int, default=0)
    dev.add_argument("--dim", choices=["2", "3", "both"], default="both")
    _add_common(dev)
    dev.set_defaults(func=_cmd_deviation_check)

    inc = sub.add_parser("incidence", help="point-plane incidence counting and diagnostic")
    inc.add_argument("--p", type=int)
    inc.add_argument("--instance-file", help="POINTS/PLANES dump to load")
    inc.add_argument("--random-points", type=int, default=20)
    inc.add_argument("--random-planes", type=int, default=20)
    inc.add_argument("--seed", type=int, default=0)
    _add_common(inc)
    inc.set_defaults(func=_cmd_incidence)

    pi = sub.add_parser("proof-instance", help="the dyadic-level point/plane instance")
    _add_set_source(pi)
    pi.add_argument("--d", type=int, default=2)
    pi.add_argument("--i0", type=int, help="dyadic level exponent for the points")
    pi.add_argument("--j0", type=int, help="dyadic level exponent for the planes")
    pi.add_argument("--all-pairs", action="store_true", help="check every level pair")
    pi.add_argument("--dump", help="write the instance dump here (single pair only)")
    _add_common(pi)
    pi.set_defaults(func=_cmd_proof_instance)

    dec = sub.add_parser("decompose", help="split A minimizing max(E+(B), Ex(C))")
    _add_set_source(dec)
    dec.add_argument("--strategy", choices=["exhaustive", "greedy"], default="exhaustive")
    _add_common(dec)
    dec.set_defaults(func=_cmd_decompose)

    scan = sub.add_parser("scan", help="coverage fraction vs cardinality")
    scan.add_argument("--p", type=int)
    scan.add_argument("--n", type=int, default=2)
    scan.add_argument("--kind", choices=["distance", "dot"], default="distance")
    scan.add_argument("--trials", type=int, default=10)
    scan.add_argument("--seed", type=int, default=0)
    scan.add_argument("--max-m", type=int, help="stop the sweep at this cardinality")
    _add_common(scan, default_format="csv")
    scan.set_defaults(func=_cmd_scan)

    tr = sub.add_parser("theorem-report", help="decomposition energies beside the bound shape")
    _add_set_source(tr)
    tr.add_argument("--d", type=int, default=2)
    tr.add_argument("--strategy", choices=["exhaustive", "greedy"], default=None)
    _add_common(tr)
    tr.set_defaults(func=_cmd_theorem_report)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return 0 if exc.code in (0, None) else 1
    try:
        if getattr(args, "selftest", False):
            results = run_suites(_SELFTEST_SUITES[args.subcommand])
            ok = True
            for name, passed in results:
                print(f"{'ok' if passed else 'FAIL'}  {name}")
                ok = ok and passed
            return 0 if ok else 2
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ParseError, GuardExceeded, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InvariantViolation as exc:
        print(f"INVARIANT VIOLATED: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
