import pytest

from ffdist.convolution import _primes_for, exact_cyclic
from ffdist.errors import GuardExceeded
from ffdist.rng import SplitMix64

from oracles import cyclic_schoolbook


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
    rng = SplitMix64(3)
    for n in (512, 513):
        a = [rng.randbelow(9) for _ in range(n)]
        b = [rng.randbelow(9) for _ in range(n)]
        assert exact_cyclic(a, b) == cyclic_schoolbook(a, b)


def test_zero_inputs():
    assert exact_cyclic([0] * 600, [1] * 600) == [0] * 600
    assert exact_cyclic([], []) == []


def test_transform_primes_exhausted_is_guard():
    # Asking for more transform primes than exist below 2**31.5 must exit
    # through GuardExceeded, not fall back to the O(n^2) loop; calling the
    # prime picker directly keeps this from allocating the transform.
    with pytest.raises(GuardExceeded, match="transform-friendly primes"):
        _primes_for(1 << 25, 1 << 4000)
