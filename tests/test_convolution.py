import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ffdist.convolution import _backward, _forward, _primes_for, exact_cyclic
from ffdist.errors import GuardExceeded
from ffdist.field import power_table
from ffdist.rng import SplitMix64

from oracles import cyclic_schoolbook
from test_set_properties import SETTINGS


def _random_list(rng, n, bits):
    out = []
    for _ in range(n):
        v = 0
        for _ in range(bits // 64 + 1):
            v = (v << 64) | rng.next_u64()
        out.append(v % (1 << bits))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 17, 101, 499, 520, 997])
def test_paths_agree(n):
    rng = SplitMix64(n)
    a = [rng.randbelow(1000) for _ in range(n)]
    b = [rng.randbelow(1000) for _ in range(n)]
    assert exact_cyclic(a, b) == cyclic_schoolbook(a, b)


def test_big_coefficients_exact():
    rng = SplitMix64(99)
    for bits in (70, 150, 300):
        a = _random_list(rng, 37, bits)
        b = _random_list(rng, 37, bits)
        assert exact_cyclic(a, b) == cyclic_schoolbook(a, b)


def test_point_mass_identity():
    rng = SplitMix64(5)
    for n in (9, 600):
        e = [0] * n
        e[0] = 1
        b = [rng.randbelow(50) for _ in range(n)]
        assert exact_cyclic(e, b) == b


def test_total_conservation_and_commutativity():
    rng = SplitMix64(13)
    for n in (11, 64, 700):
        a = [rng.randbelow(30) for _ in range(n)]
        b = [rng.randbelow(30) for _ in range(n)]
        out = exact_cyclic(a, b)
        assert sum(out) == sum(a) * sum(b)
        assert exact_cyclic(b, a) == out


def test_self_convolution_square():
    rng = SplitMix64(21)
    n = 777
    a = [rng.randbelow(10**6) for _ in range(n)]
    assert exact_cyclic(a, a) == cyclic_schoolbook(a, a)


def test_auto_switch_boundary():
    # The transform length doubles from n to n + 1 in each pair (512 -> 1024
    # from 256 to 257); 100-bit entries need several primes on both sides.
    rng = random.Random(3)
    for n in (128, 129, 256, 257, 512, 513):
        a = [rng.getrandbits(100) for _ in range(n)]
        b = [rng.getrandbits(100) for _ in range(n)]
        assert exact_cyclic(a, b) == cyclic_schoolbook(a, b)
        assert exact_cyclic(a, a) == cyclic_schoolbook(a, a)


@SETTINGS
@given(
    n=st.integers(min_value=1, max_value=1100),
    bits=st.integers(min_value=1, max_value=400),
    seed=st.integers(min_value=0, max_value=2**32),
    square=st.booleans(),
)
def test_exact_cyclic_matches_schoolbook(n, bits, seed, square):
    # Up to 400-bit coefficients need up to ~27 primes, so the CRT path and
    # every prime's transform are exercised; square=True takes the a-is-b path.
    rng = random.Random(seed)
    a = [rng.getrandbits(bits) for _ in range(n)]
    b = a if square else [rng.getrandbits(bits) for _ in range(n)]
    assert exact_cyclic(a, b) == cyclic_schoolbook(a, b)


def test_round_trip_every_prime():
    # Backward after forward, read at -t, is N * x mod q for every prime of
    # one multi-prime run.
    size = 1 << 10
    primes = _primes_for(size, 1 << 200)
    assert len(primes) >= 3
    rng = np.random.default_rng(7)
    for q, gen in primes:
        roots = power_table(gen, size // 2, q)
        x = rng.integers(0, q, size, dtype=np.int64)
        y = _backward(_forward(x.copy(), q, roots), q, roots)
        assert (y[-np.arange(size) % size] == x * size % q).all()


def test_zero_inputs():
    assert exact_cyclic([0] * 600, [1] * 600) == [0] * 600
    assert exact_cyclic([], []) == []


def test_transform_primes_exhausted_is_guard():
    # Asking for more transform primes than exist below 2**31.5 must exit
    # through GuardExceeded, not fall back to the O(n^2) loop; calling the
    # prime picker directly keeps this from allocating the transform.
    with pytest.raises(GuardExceeded, match="transform-friendly primes"):
        _primes_for(1 << 25, 1 << 4000)
