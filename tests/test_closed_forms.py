"""Closed-form oracles at engine scale.

For A = F_p the distance and dot spectra of A^d have closed forms (Lidl &
Niederreiter, Thms 6.26-6.27), so the transform tier is checked against an
independent value at p = 99991 and at depths with thousands of bits per
count, where no enumeration reaches.  For any A, scaling by c != 0 (and, for
distances, a shift) moves the spectrum from t to c^2 t, which checks the
engine on random sets at bench scale.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ffdist.energy import distance_energy
from ffdist.field import PrimeModulus
from ffdist.sets import FieldSubset, random_subset
from ffdist.spectra import power_spectrum

from oracles import space_distance_spectrum, space_dot_spectrum, sphere_counts, sphere_sizes
from test_convolution import _set_pool
from test_set_properties import PRIMES, SETTINGS

CLOSED_FORMS = {"distance": space_distance_spectrum, "dot": space_dot_spectrum}


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_closed_forms_equal_enumeration_and_the_engine_at_small_p(p):
    for d in range(1, 4):
        assert sphere_sizes(p, d) == sphere_counts(p, d)
    F = FieldSubset.full(PrimeModulus(p))
    for d in range(1, 9):
        for kind, closed_form in CLOSED_FORMS.items():
            assert power_spectrum(F, kind, d).counts == closed_form(p, d), (kind, d)


@pytest.mark.parametrize("kind,workers", [("distance", 1), ("distance", 2), ("dot", 2)])
def test_closed_forms_at_p_99991(kind, workers, monkeypatch):
    # transforms of length 2^18 and counts of up to 250 bits; with two
    # workers the pool runs every product's primes, with one none of them
    # (the transforms are the same for both forms, so the dot form runs once)
    _set_pool(monkeypatch, 2, workers)
    F = FieldSubset.full(PrimeModulus(99991))
    assert power_spectrum(F, kind, 8).counts == CLOSED_FORMS[kind](99991, 8)


@pytest.mark.parametrize("kind", ["distance", "dot"])
def test_closed_forms_with_hundreds_of_primes(kind):
    # counts of about 1700 bits at p = 9973, d = 64
    F = FieldSubset.full(PrimeModulus(9973))
    assert power_spectrum(F, kind, 64).counts == CLOSED_FORMS[kind](9973, 64)


def test_distance_energy_past_the_int_string_limit():
    # 14596 bits: the CLI cannot print it yet, so it is checked in-process
    energy = distance_energy(FieldSubset.full(PrimeModulus(7)), 1300)
    assert energy == sum(c * c for c in space_distance_spectrum(7, 1300))


def _scaled_spectra(A: FieldSubset, kind: str, n: int, c: int, b: int) -> tuple[list[int], list[int]]:
    """The n-fold spectra of A and of c·A + b (c·A for dot products)."""
    B = FieldSubset(A.modulus, [c * a + (b if kind == "distance" else 0) for a in A])
    return power_spectrum(A, kind, n).counts, power_spectrum(B, kind, n).counts


@SETTINGS
@given(st.data())
def test_scaling_moves_a_spectrum_by_c_squared(data):
    p = data.draw(st.sampled_from(PRIMES))
    A = FieldSubset(PrimeModulus(p), data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=40)))
    c, b = data.draw(st.integers(1, p - 1)), data.draw(st.integers(0, p - 1))
    kind, n = data.draw(st.sampled_from(["distance", "dot"])), data.draw(st.integers(1, 4))
    S, T = _scaled_spectra(A, kind, n, c, b)
    assert [T[c * c * t % p] for t in range(p)] == S


@pytest.mark.parametrize("kind", ["distance", "dot"])
def test_scaling_at_bench_scale(kind):
    # the criterion-12 case: p = 9973, |A| = 3000, n = 8
    p, c, b = 9973, 1234, 567
    S, T = _scaled_spectra(random_subset(PrimeModulus(p), 3000, 1), kind, 8, c, b)
    assert [T[c * c * t % p] for t in range(p)] == S
