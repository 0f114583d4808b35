import pytest

from ffdist.field import PrimeModulus
from ffdist.rng import SplitMix64, derive_seed, sample_distinct
from ffdist.sets import random_subset


def test_splitmix64_reference_vectors():
    # published test vectors; a platform/implementation drift breaks replays
    g = SplitMix64(0)
    assert [g.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]
    g = SplitMix64(1234567)
    assert [g.next_u64() for _ in range(2)] == [
        6457827717110365317,
        3203168211198807973,
    ]


def test_randbelow_bounds_and_errors():
    g = SplitMix64(3)
    for n in (1, 2, 7, 1 << 40):
        for _ in range(50):
            assert 0 <= g.randbelow(n) < n
    with pytest.raises(ValueError):
        g.randbelow(0)
    with pytest.raises(ValueError):
        g.randbelow((1 << 64) + 1)


def test_derive_seed_stable():
    # sha256-based: these values can never drift silently
    assert derive_seed("subset", 101, 10, 1) == 2726736571314080362
    assert derive_seed("subset", 101, 10, 1) == derive_seed("subset", 101, 10, 1)
    assert derive_seed("a", 1) != derive_seed("a", 2)


def test_sampled_subset_frozen():
    # freezes the whole sampling pipeline (seed derivation + Floyd walk)
    A = random_subset(PrimeModulus(101), 10, seed=1)
    assert A.elements() == [8, 10, 39, 58, 62, 63, 65, 89, 92, 98]


def test_sample_distinct_properties():
    g = SplitMix64(11)
    for universe, n in ((10, 0), (10, 10), (50, 17)):
        out = sample_distinct(SplitMix64(g.next_u64()), universe, n)
        assert len(out) == n == len(set(out))
        assert all(0 <= x < universe for x in out)
        assert out == sorted(out)
    with pytest.raises(ValueError):
        sample_distinct(g, 5, 6)


def _floyd(rng, universe, n):
    """sample_distinct's walk on scalar draws, one randbelow per step."""
    chosen = set()
    for j in range(universe - n, universe):
        t = rng.randbelow(j + 1)
        chosen.add(t if t not in chosen else j)
    return sorted(chosen)


def test_batched_draws_replay_the_scalar_stream(monkeypatch):
    # At 3 * 2**61 a quarter of the raw draws are rejected, so a batch of 20
    # almost always falls back to the scalar loop; the bound 2**64 is no
    # uint64, so that walk is scalar throughout.
    scalar_calls = []
    real = SplitMix64.randbelow
    monkeypatch.setattr(SplitMix64, "randbelow", lambda self, n: scalar_calls.append(n) or real(self, n))
    seeds, fell_back = SplitMix64(29), 0
    cases = [(1, 1), (10, 0), (10, 10), (211, 1), (211, 106), (211, 211), (101, 10), (3 * 2**61, 20), (2**64 - 1, 8)]
    for universe, n in cases + [(2**64, 3)]:
        for _ in range(10):
            seed = seeds.next_u64()
            batched, scalar = SplitMix64(seed), SplitMix64(seed)
            scalar_calls.clear()
            got = sample_distinct(batched, universe, n)
            if universe == 3 * 2**61:
                fell_back += bool(scalar_calls)
            elif universe < 2**10:  # rejection odds below n * 2**-54
                assert not scalar_calls
            assert got == _floyd(scalar, universe, n)
            assert batched._state == scalar._state
    assert fell_back


def test_randbelow_each_matches_randbelow():
    seeds = SplitMix64(31)
    # Bounds of 2**64, which uint64 cannot hold, take the scalar loop.
    for bounds in ([], [1], [7] * 40, [2**64 - 1, 2, 3 * 2**61, 2**63 + 1, 5], [2**64], [3, 2**64, 9]):
        seed = seeds.next_u64()
        batched, scalar = SplitMix64(seed), SplitMix64(seed)
        assert batched.randbelow_each(bounds) == [scalar.randbelow(b) for b in bounds]
        assert batched._state == scalar._state
    for bounds in ([5, 0], [0], [0] * 3, [4, 2**64 + 1], [-1, 4]):
        with pytest.raises(ValueError):
            SplitMix64(1).randbelow_each(bounds)
