"""Energy functionals as plain ints: d-fold distance and dot-product
energies (the multiplicative energy is the dot energy at d = 1), the
additive energy, the brute-force pair spectrum and the energy oracle built
on it, dyadic level sets, and the report-only recursion diagnostics.
"""

from __future__ import annotations

import math
from itertools import product
from operator import add, mul

from .convolution import _within_engine, exact_cyclic
from .errors import GuardExceeded, InvariantViolation
from .sets import FieldSubset
from .spectra import Spectrum, base_spectrum, cyclic_convolve, fold

KINDS = ("distance", "dot", "additive", "multiplicative")

ORACLE_GUARD = 10**9  # on |A|**(4d)


def energy_from_spectrum(S: Spectrum) -> int:
    """sum_t S[t]^2, exactly.

    Checks the two forced bounds on any such sum of squared counts:
    p * E >= total^2 (Cauchy-Schwarz) and E <= max * total.
    """
    value = sum(c * c for c in S.counts)
    p = S.modulus.p
    if p * value < S.total * S.total:
        raise InvariantViolation("energy below its Cauchy-Schwarz floor")
    if value > max(S.counts) * S.total:
        raise InvariantViolation("energy above max*total ceiling")
    return value


def distance_energy(A: FieldSubset, d: int) -> int:
    """Number of 4d-tuples whose two d-fold sums of squared differences agree."""
    return energy_from_spectrum(fold(base_spectrum(A, "distance"), d))


def dot_energy(A: FieldSubset, d: int) -> int:
    """Number of 4d-tuples whose two d-fold sums of products agree; at d = 1
    this is the multiplicative energy #{a*b = c*e}."""
    return energy_from_spectrum(fold(base_spectrum(A, "dot"), d))


def additive_energy(A: FieldSubset) -> int:
    """#{(a,b,c,e) in A^4 : a+b = c+e}."""
    _within_engine(A.modulus)
    ind = A.indicator()
    return energy_from_spectrum(Spectrum(A.modulus, exact_cyclic(ind, ind), expected_total=len(A) ** 2))


def bruteforce_spectrum(A: FieldSubset, n: int, kind: str) -> list[int]:
    """counts[t] = #{(x, y) in A^n x A^n : sum_i f(x_i, y_i) = t} by plain
    enumeration, with f(a, b) = (a - b)^2 ("distance"), a * b ("dot") or
    a + b ("additive").  No convolution, so it stays independent of the fast
    paths it checks."""
    form = {"distance": lambda a, b: (a - b) * (a - b), "dot": mul, "additive": add}.get(kind)
    if form is None:
        raise ValueError(f"unknown pair form {kind!r}")
    p = A.modulus.p
    counts = [0] * p
    points = list(product(A.elements(), repeat=n))
    for x in points:
        for y in points:
            counts[sum(map(form, x, y)) % p] += 1
    return counts


def energy_bruteforce_oracle(A: FieldSubset, d: int, kind: str, force: bool = False) -> int:
    """Independent oracle: the sum of squares of bruteforce_spectrum(A, d, kind),
    which counts the 4d-tuples as pairs of pairs of points of A^d; at d = 1
    the multiplicative form is the dot one."""
    if kind not in KINDS:
        raise ValueError(f"unknown energy kind {kind!r}")
    if kind in ("additive", "multiplicative") and d != 1:
        raise ValueError(f"{kind} energy has no fold depth (got d={d})")
    m = len(A)
    if m == 0:
        raise ValueError("empty set has no energy")
    if m ** (4 * d) > ORACLE_GUARD and not force:
        raise GuardExceeded(f"|A|^(4d) = {m ** (4 * d)} exceeds oracle guard {ORACLE_GUARD}")
    counts = bruteforce_spectrum(A, d, "dot" if kind == "multiplicative" else kind)
    return sum(c * c for c in counts)


# -- dyadic level sets ------------------------------------------------------


def dyadic_levels(S: Spectrum) -> dict[int, FieldSubset]:
    """Level sets P_i = {t : 2^i <= S[t] < 2^(i+1)} by ascending exponent i;
    they partition the support."""
    buckets: dict[int, list[int]] = {}
    for t, c in S.items():
        buckets.setdefault(c.bit_length() - 1, []).append(t)
    levels = {i: FieldSubset(S.modulus, buckets[i]) for i in sorted(buckets)}
    for i, subset in levels.items():
        weight = sum(S.counts[t] for t in subset)
        sq_weight = sum(S.counts[t] ** 2 for t in subset)
        size = len(subset)
        if (1 << i) * size > 2 * weight or (1 << (2 * i)) * size > 4 * sq_weight:
            raise InvariantViolation(f"dyadic level {i} violates its mass bounds")
    return levels


# -- recursion diagnostics ---------------------------------------------------


def report_float(compute) -> float | None:
    """compute() for a report-only float, or None when it overflows a double.

    Bound shapes and their ratios carry no guarantee, so a value past the
    double range is reported as null rather than failing the run.  Exact
    integer fields never pass through here.
    """
    try:
        value = compute()
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def recursion_diagnostic(A: FieldSubset, d: int, kind: str = "distance") -> dict:
    """Empirical ratios of E_d against the recursive and closed-form bound
    shapes (their constants are unspecified, so nothing is asserted here).

    Logs are natural logs; a different base only moves the implied constant.
    """
    if d < 2:
        raise ValueError(f"the recursion needs d >= 2, got {d}")
    base = base_spectrum(A, kind)
    folded = fold(base, d - 1)
    e_d = energy_from_spectrum(cyclic_convolve(folded, base))
    e_prev = energy_from_spectrum(folded)
    m = len(A)
    p = A.modulus.p
    recursive_term = report_float(lambda: m ** (2 * d + 1) * math.sqrt(e_prev))
    log_m = math.log(m)
    # a right-hand side is at least its overflowed part whenever m > 1
    recursive_rhs = None if recursive_term is None else report_float(
        lambda: d**2 * log_m**2 * (m ** (4 * d) / p + recursive_term)
    )
    closed_form_rhs = report_float(
        lambda: d**2 * log_m**2 * (m ** (4 * d) / p) + d**4 * log_m**4 * m ** (4 * d - 2 + 1 / 2 ** (d - 1))
    )
    return {
        "kind": kind,
        "d": d,
        "set_size": m,
        "p": p,
        "energy_d": e_d,
        "energy_d_minus_1": e_prev,
        "main_term": report_float(lambda: m ** (4 * d) / p),
        "recursive_term": recursive_term,
        "recursive_rhs": recursive_rhs,
        "closed_form_rhs": closed_form_rhs,
        "ratio_recursive": report_float(lambda: e_d / recursive_rhs) if recursive_rhs else None,
        "ratio_closed_form": report_float(lambda: e_d / closed_form_rhs) if closed_form_rhs else None,
        "ratio_main_term": report_float(lambda: e_d * p / m ** (4 * d)) if m > 0 else None,
    }
