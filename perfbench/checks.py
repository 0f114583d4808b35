"""Output checks for the benchmark's CLI samples.

Every check raises CheckFailed; a sample that exits non-zero, times out or
fails a check counts towards ``failed``.  The invariants hold for any seed.
For the default seed the record, minus its timestamp line, must also match
a sha256 pinned from the seed commit, because CLI output must stay
byte-identical apart from the timestamp.
"""

from __future__ import annotations

import hashlib
import json
import re


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


_TIMESTAMP_LINE = re.compile(rb'^  "timestamp": "[^"\n]*",?\n', re.MULTILINE)


def canonical_digest(raw: bytes) -> str:
    """sha256 of a CLI record with its timestamp line dropped."""
    return hashlib.sha256(_TIMESTAMP_LINE.sub(b"", raw, count=1)).hexdigest()


def load_record(raw: bytes, subcommand: str) -> dict:
    try:
        record = json.loads(raw)
    except ValueError as exc:
        raise CheckFailed(f"output is not one JSON record: {exc}") from None
    require(isinstance(record, dict), "output is not a JSON object")
    require(record.get("subcommand") == subcommand, f"subcommand is not {subcommand!r}")
    require(isinstance(record.get("result"), dict), "record has no result")
    return record


def _cauchy_schwarz(p: int, sum_squares: int, total: int) -> None:
    require(p * sum_squares >= total * total, "Cauchy-Schwarz floor p*sum(c^2) >= total^2 fails")


def check_spectrum(record: dict, *, p: int, m: int, n: int, kind: str) -> None:
    config, result = record["config"], record["result"]
    require((config["p"], config["n"], config["kind"]) == (p, n, kind), "config echo differs from the request")
    total = int(result["total"])
    require(total == m ** (2 * n), f"total is not |A|^(2n) = {m}^{2 * n}")
    counts = [int(c) for c in result["counts"]]
    require(len(counts) == p, f"{len(counts)} counts, expected p = {p}")
    require(min(counts) >= 0, "negative count")
    require(sum(counts) == total, "counts do not sum to the total")
    _cauchy_schwarz(p, sum(c * c for c in counts), total)


def check_energy(record: dict, *, p: int, m: int, d: int, kind: str) -> None:
    config, result = record["config"], record["result"]
    require((config["p"], result["d"], result["kind"]) == (p, d, kind), "config echo differs from the request")
    value = int(result["value"])
    total = m ** (2 * d)
    # an energy is sum(c^2) over a spectrum of the given total
    require(0 < value <= total * total, "energy outside (0, total^2]")
    _cauchy_schwarz(p, value, total)


def check_proof_instance(record: dict, *, p: int) -> None:
    config, result = record["config"], record["result"]
    require(config["p"] == p, "config echo differs from the request")
    instances = result["instances"]
    require(len(instances) == len(config["levels"]) ** 2, "not one instance per level pair")
    for inst in instances:
        where = f"instance ({inst['i0']}, {inst['j0']})"
        require(inst["identity_holds"] is True, f"{where}: identity_holds is not true")
        require(int(inst["incidences"]) == int(inst["carried_pair_sum"]), f"{where}: incidences != carried_pair_sum")


def check_scan(record: dict, *, p: int, trials: int) -> None:
    config, result = record["config"], record["result"]
    require((config["p"], config["trials"]) == (p, trials), "config echo differs from the request")
    rows = result["rows"]
    require([row["m"] for row in rows] == list(range(1, p + 1)), "rows are not m = 1..p")
    for row in rows:
        require(row["trials"] == trials, f"m={row['m']}: trial count differs")
        for key in ("covered_fraction", "zero_fraction"):
            require(0.0 <= row[key] <= 1.0, f"m={row['m']}: {key} outside [0, 1]")


def check_version(raw: bytes) -> None:
    require(raw.startswith(b"ffdist "), "--version did not print 'ffdist <version>'")


def check_sample(exit_code: int | None, raw: bytes, subcommand: str, check, pinned: str | None) -> None:
    """The whole verdict on one CLI sample; exit_code None means it timed out."""
    require(exit_code is not None, "timed out")
    require(exit_code == 0, f"exit code {exit_code}")
    try:
        check(load_record(raw, subcommand))
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckFailed(f"malformed record: {exc!r}") from None
    if pinned is not None:
        require(canonical_digest(raw) == pinned, "record differs from the pinned sha256")
