"""Shared exception types.

The CLI maps these onto its exit-code contract: operational problems
(bad input, guard limits) exit 1, violated hard invariants exit 2.
"""


class ParseError(ValueError):
    """Malformed textual input (set syntax, file formats)."""


class GuardExceeded(RuntimeError):
    """An enumeration guard or a hard size limit was hit.

    force=True (CLI: --force) lifts the guards of the functions that take
    it: the energy oracle, the general distance spectrum and the
    collinearity count.  Nothing lifts the hard limits: the exhaustive
    decomposition size, the weighted pair count, the collinearity count
    inside build_proof_instance, the planes of a parsed instance dump and
    the supply of transform primes.
    """


class InvariantViolation(Exception):
    """An exact identity or theorem-backed inequality failed.

    This never indicates bad user input: it signals either a bug in this
    package or a falsified mathematical guarantee, and is therefore
    surfaced loudly instead of being folded into a report.
    """
