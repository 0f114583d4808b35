import inspect
import random
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ffdist import convolution
from ffdist.convolution import (
    _DIRECT_MAX_LEN,
    _MAX_NTT_PRIME,
    _MAX_PRIMES,
    _POOL_MIN_SIZE,
    _carry,
    _direct_cyclic,
    _ints,
    _ntt_cyclic,
    _plan,
    _primes_for,
    _residues,
    _Rows,
    _transform,
    exact_cyclic,
)
from ffdist.errors import GuardExceeded, InvariantViolation
from ffdist.field import power_table, primitive_root
from ffdist.rng import SplitMix64

from oracles import cyclic_schoolbook
from test_set_properties import SETTINGS


def _plain_product(a, b):
    """The transform tier's rows of a*b, read as values in [0, sum(a)*sum(b)]."""
    total = sum(a) * sum(b)
    return _ntt_cyclic(a, b, total, 0, total)


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


def _roots(q, gen, size):
    return power_table(gen, size // 2, q).astype(np.uint64)


def test_round_trip_every_prime():
    # The transform run on its own output, read at -t, is N * x mod q for every
    # prime of one multi-prime run per length; the length-2 run starts at the
    # largest pool prime.  Length 2**15 runs every run width of the stages from
    # 1 to N/4, and an all-(q-1) input makes every difference x - y + q and
    # every product as large as they get.
    rng = np.random.default_rng(7)
    for size in (2, 4, 1 << 10, 1 << 15):
        primes = _primes_for(size, 1 << 200)
        assert len(primes) >= 3
        for q, gen in primes:
            roots = _roots(q, gen, size)
            for x in (rng.integers(0, q, size, dtype=np.uint64), np.full(size, q - 1, dtype=np.uint64)):
                y = _transform(_transform(x.copy(), q, roots), q, roots)
                assert (y[-np.arange(size) % size] == x * size % q).all()
    assert _primes_for(2, 1 << 200)[0] == _primes_for(2, 2)[0]


def _pool_extremes():
    """The smallest prime any pool can hold (the last of the exhausted 2**25
    pool) and the largest (the first of the length-2 pool)."""
    with pytest.raises(GuardExceeded):
        _primes_for(1 << 25, 1 << 4000)
    return convolution._prime_pool[1 << 25][-1][0], _primes_for(2, 2)[0][0]


def _dft(x, q, gen):
    """The DFT sum_i x[i] * gen**(i*k) mod q at every k, straight from the
    definition: the powers are Python ints, every product is below q*q < 2**63
    and every row sum below len(x)*q < 2**64."""
    size = len(x)
    powers = np.array([pow(gen, j, q) for j in range(size)], dtype=np.uint64)
    x, i, out = np.asarray(x, dtype=np.uint64), np.arange(size), []
    for ks in np.array_split(np.arange(size), max(1, size // 64)):
        out += ((powers[np.outer(ks, i) % size] * x % np.uint64(q)).sum(axis=1) % np.uint64(q)).tolist()
    return out


def test_transform_matches_python_dft():
    # out[k] is the DFT entry sum_i x[i] * g**(i*k) mod q at k itself, and the
    # transform of the transform is N * x[-t] at t, at every length 2**1 ..
    # 2**12.  Each length runs on the smallest prime any pool holds and on the
    # largest prime of its own pool (the length-2 pool's first is the largest
    # any pool holds); inputs from {1, 2, q-1, random} and all q-1 reach the
    # largest sums, differences and products the butterflies form.
    rng = random.Random(12)
    smallest, largest = _pool_extremes()
    assert _primes_for(2, 2)[0][0] == largest
    for size in (1 << e for e in range(1, 13)):
        for q in (smallest, _primes_for(size, 2)[0][0]):
            gen = pow(primitive_root(q), (q - 1) // size, q)
            roots = _roots(q, gen, size)
            values = [1, 2, q - 1, rng.randrange(q)]
            for x in ([rng.choice(values) for _ in range(size)], [q - 1] * size):
                got = _transform(np.array(x, dtype=np.uint64), q, roots)
                assert got.tolist() == _dft(x, q, gen)
                again = _transform(got, q, roots)
                assert again[-np.arange(size) % size].tolist() == [v * size % q for v in x]


def test_butterfly_bounds_hold_for_every_pool_prime():
    # Operands below q <= _MAX_NTT_PRIME: a difference x - y + q times a root
    # must not wrap uint64, and a product of two residues (the pointwise
    # product, the base change's c_i = x_i * (Q/q_i)**-1) stays below 2**63.
    # The base change's float64 sums stay exact integers below 2**53: for k
    # primes they lie in (-k*2**16, 2k*2**32), which _MAX_PRIMES is the most
    # primes to allow, and for L <= 2k + 4 limbs below L*2**32.
    q, k = _MAX_NTT_PRIME, _MAX_PRIMES
    assert (2 * q - 1) * (q - 1) < 2**64
    assert (q - 1) ** 2 < 2**63
    assert 2 * k * 2**32 + k * 2**16 < 2**53 <= 2 * (k + 1) * 2**32 + (k + 1) * 2**16
    assert (2 * k + 4) * 2**32 < 2**53
    assert max(_pool_extremes()) <= q


def test_a_product_leaves_no_transform_memory_behind(monkeypatch):
    # A 24-prime squaring at length 2**15, in the calling thread and on a pool
    # of two: once it returns, only its rows are left, so no prime keeps its
    # transform or its N/2 roots (128 KB each here).  The pool's prime list is
    # grown and the pool module imported before tracing starts.
    from concurrent.futures import ThreadPoolExecutor  # noqa: F401

    import tracemalloc

    x = [(1 << 355) - 1] * (1 << 14)
    assert len(_primes_for(1 << 15, sum(x) ** 2 + 1)) == 24
    for workers in (None, 2):
        with monkeypatch.context() as m:
            if workers:
                _set_pool(m, 2, workers)
            tracemalloc.start()
            try:
                rows = _plain_product(x, x)
                left = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
        assert rows.array.shape == (24, 1 << 14)
        assert rows.array.nbytes <= left <= rows.array.nbytes + (64 << 10)
        del rows


def test_the_base_change_working_set_is_bounded():
    # energy-deep's last two base changes: reading 47-prime rows of n = 9973
    # values at length 2**15 as ints (what Spectrum.counts does), and extending
    # their first 24 primes to all 47.  Beyond the rows and ints they return,
    # each may hold a few float64 matrices of a 95*256-entry block: five such
    # (0.97 MB) bound the tracemalloc peak, which the earlier 95*1024-entry
    # blocks passed by 2.7 times (2.6 MB).
    import tracemalloc

    n, size, limit = 9973, 1 << 15, 5 * 95 * 256 * 8
    moduli = tuple(q for q, _ in _primes_for(size, 1 << (31 * 47)))[:47]
    rng = np.random.default_rng(47)
    rows = np.array([rng.integers(0, q, n) for q in moduli], dtype=np.uint32)
    outs = []
    for call in (lambda: _ints(_Rows(rows, moduli)), lambda: _residues(_Rows(rows[:24], moduli[:24]), moduli)):
        tracemalloc.start()
        try:
            outs.append(call())
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - held <= limit
    ints, extended = outs
    assert (_residues(ints, moduli).array == rows).all() and (extended.array[:24] == rows[:24]).all()


def test_products_at_the_top_of_the_prime_range():
    # The first primes of the length-2 and length-2**15 pools exceed 2**31, so
    # the wrap lin[t] + lin[t + n] (each below q) can pass 2**32, and so can its
    # scaling by N**-1, before they are reduced into a uint32 row.  With a = 1
    # at 0 and n - 1 and every b[t] = -N**-1 mod q for the pool's first prime q
    # (plus a multiple of q, so that the product takes two primes), N times every
    # linear coefficient but one is q - 1 mod q: at n = 2**14 the wraps reach
    # 2q - 2, and at n = 1 the one entry's scaling passes 2**32.  The product
    # must still be the schoolbook sum; its rows and _residues' (from ints, or
    # extending rows by a prime) are uint32; and _residues -> _ints round-trips
    # the sum and values around q and Q.
    for n in (1, 1 << 14):
        size = 1 << (2 * n - 1).bit_length()
        q = _primes_for(size, 2)[0][0]
        assert q > 2**31 and 2 * q - 2 >= 2**32
        a, b = [0] * n, [-pow(size, -1, q) % q + q * t for t in range(1, n + 1)]
        a[0] = a[-1] = 1
        rows = _plain_product(a, b)
        want = cyclic_schoolbook(a, b)
        assert rows.array.dtype == np.uint32 and len(rows.moduli) == 2 and _ints(rows) == want
        product = int(np.prod([m for m, _ in _primes_for(size, sum(a) * sum(b) + 1)], dtype=object))
        for values in (want, ([q - 1, q, q + 1, product - 1, 0] * n)[:n]):
            residues = _residues(values, rows.moduli)
            assert residues.array.dtype == np.uint32 and _ints(residues) == values
        moduli = [m for m, _ in _primes_for(size, product + 1)]  # a third prime
        extended = _residues(rows, moduli)
        assert extended.array.dtype == np.uint32
        assert extended.array.tolist() == [[x % m for x in want] for m in moduli]


def test_energy_deep_fold_chain_plans_without_running():
    # dot_energy at p = 9973, |A| = 3000, d = 64 squares a length-9973 spectrum
    # of total 3000**2 six times; the e-th squaring's total is (3000**2)**(2**e).
    # Planned on the plain width [0, total], with no bounds on the counts, it
    # needs no transform: every plan is length 2**15 on one thread (below
    # _POOL_MIN_SIZE), on the first 2, 3, 6, 12, 24 and 47 primes of one pool.
    # (The centred widths of the seed-1 set are pinned in test_spectra.)
    plans = [_plan(9973, (3000**2) ** (2**e)) for e in range(1, 7)]
    assert [(size, workers) for size, _, workers in plans] == [(1 << 15, 1)] * 6
    assert [len(primes) for _, primes, _ in plans] == [2, 3, 6, 12, 24, 47]
    assert all(primes == plans[-1][1][: len(primes)] for _, primes, _ in plans)
    # a width of 0 (every value known) still plans one prime
    assert len(_plan(9973, 0)[1]) == 1


def test_values_outside_the_rows_interval_are_refused():
    # The interval certificate: values in [lo, hi] (spreads of 1, 40 and 80 bits)
    # are held as rows over one to three primes, from the fewest whose product
    # exceeds hi - lo.  Read against their own interval, [lo, lo + (hi - lo)],
    # they come back exactly, and extend to a fourth prime; read with low one
    # too high (lo falls below it and wraps to Q - 1) or with width one too
    # small (hi lies past it), every read path refuses them: _small (one or two
    # primes), _to_limbs for _ints (three) and for the base extension.
    rng = random.Random(33)
    for bits in (1, 40, 80):
        values = [rng.getrandbits(bits) + (1 << bits) for _ in range(50)]
        lo, hi = min(values), max(values)
        moduli = tuple(q for q, _ in _primes_for(128, 1 << (31 * 4)))
        for primes in range(len(_primes_for(128, hi - lo + 1)), 4):  # from the fewest whose product exceeds hi - lo
            held = _residues(values, moduli[:primes]).array
            assert _ints(_Rows(held, moduli[:primes], lo, hi - lo)) == values
            for low, width in ((lo + 1, hi - lo - 1), (lo, hi - lo - 1)):
                with pytest.raises(InvariantViolation, match="outside"):
                    _ints(_Rows(held, moduli[:primes], low, width))
                with pytest.raises(InvariantViolation, match="outside"):
                    _residues(_Rows(held, moduli[:primes], low, width), moduli)
            extended = _residues(_Rows(held, moduli[:primes], lo, hi - lo), moduli).array
            assert extended.tolist() == [[v % q for v in values] for q in moduli]


def test_convolution_exposes_one_public_function():
    # Every public module-level function of convolution gets a traced span per
    # call under perfbench (spans.install), so the engine's helpers stay private.
    public = {
        name
        for name, fn in vars(convolution).items()
        if inspect.isfunction(fn) and fn.__module__ == convolution.__name__ and not name.startswith("_")
    }
    assert public == {"exact_cyclic"}


def test_zero_inputs():
    assert exact_cyclic([0] * 600, [1] * 600) == [0] * 600
    assert exact_cyclic([], []) == []


def test_transform_primes_exhausted_is_guard():
    # Asking for more transform primes than exist below 2**31.5 must exit
    # through GuardExceeded, not fall back to the O(n^2) loop; calling the
    # prime picker directly keeps this from allocating the transform.
    with pytest.raises(GuardExceeded, match="transform-friendly primes"):
        _primes_for(1 << 25, 1 << 4000)


def test_more_primes_than_the_base_change_allows_is_guard(monkeypatch):
    # A run longer than _MAX_PRIMES would round the base change's float64
    # sums; it must exit through GuardExceeded.  A bound that no _MAX_PRIMES
    # primes below 2**32 can pass is refused at the first scan, before the
    # pool grows; a run that reaches _MAX_PRIMES (lowered here, on fresh
    # pools) stops there.  Neither allocates a transform.
    with pytest.raises(GuardExceeded, match="transform-friendly primes"):
        _primes_for(2, 1 << (32 * _MAX_PRIMES))
    monkeypatch.setattr(convolution, "_prime_pool", {})
    monkeypatch.setattr(convolution, "_MAX_PRIMES", 3)
    with pytest.raises(GuardExceeded, match="transform-friendly primes"):
        _primes_for(1 << 10, 1 << 200)
    assert convolution._prime_pool[1 << 10] == []
    assert len(_primes_for(1 << 10, 1 << 90)) == 3
    with pytest.raises(GuardExceeded, match="transform-friendly primes"):
        _primes_for(1 << 10, 1 << 95)
    assert len(convolution._prime_pool[1 << 10]) == 3


# (sum a, sum b) pairs around the direct tier's bound, or (sum a, None) for a
# squaring: the first two multiply to exactly 2**63 - 1 and 2**63.
_TOTALS = [
    (7 * 73 * 127, (2**63 - 1) // (7 * 73 * 127)),
    (2**20, 2**43),
    (3_037_000_499, None),
    (3_037_000_500, None),
    (40, 55),
    (2**90, 2**80),
]


def _spread(rng, n, total, nonzero):
    """A length-n list of non-negative entries summing to total, held in at
    most nonzero random positions."""
    out = [0] * n
    cuts = [0, *sorted(rng.randrange(total + 1) for _ in range(nonzero - 1)), total]
    for i, lo, hi in zip(rng.sample(range(n), nonzero), cuts, cuts[1:]):
        out[i] = hi - lo
    return out


def test_totals_straddle_the_int64_bound():
    products = [ta * (ta if tb is None else tb) for ta, tb in _TOTALS[:4]]
    assert products[:2] == [2**63 - 1, 2**63]
    assert products[2] < 2**63 < products[3]


@SETTINGS
@given(
    n=st.one_of(
        st.sampled_from([1, 2, 7, 17, 211, 520, 997, _DIRECT_MAX_LEN, _DIRECT_MAX_LEN + 1]),
        st.integers(min_value=1, max_value=600),
    ),
    totals=st.sampled_from(_TOTALS),
    nonzero=st.integers(min_value=1, max_value=16),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_tiers_agree_with_schoolbook(n, totals, nonzero, seed):
    # Sparse entries keep the schoolbook oracle cheap on both sides of the
    # length cutoff; the direct tier is checked wherever its bound holds.
    rng = random.Random(seed)
    total_a, total_b = totals
    a = _spread(rng, n, total_a, min(n, nonzero))
    b = a if total_b is None else _spread(rng, n, total_b, min(n, nonzero))
    bound = sum(a) * sum(b)
    want = cyclic_schoolbook(a, b)
    assert _ints(_plain_product(a, b)) == want
    if bound < 2**63:
        assert _direct_cyclic(a, b, bound) == want
    assert exact_cyclic(a, b) == want


@pytest.mark.parametrize("total_a, total_b", _TOTALS[:2])
def test_int64_bound_edge_point_masses(total_a, total_b):
    # All mass on one output coefficient: at 2**63 an int64 product would wrap.
    a, b = [0] * 211, [0] * 211
    a[200], b[30] = total_a, total_b
    want = [0] * 211
    want[19] = total_a * total_b
    assert exact_cyclic(a, b) == want


def test_float64_bound_edge():
    # The direct tier convolves in float64 below the bound 2**53 and in int64
    # from there.  2**53 - 1 = 6361 * 69431 * 20394401 sits just below it; the
    # second pair's bound is 3 * 2**52 + 6 and its entry 0 is 2**53 + 3, an odd
    # integer past 2**53 that float64 would round.
    rng = random.Random(53)
    for a, b in (
        (_spread(rng, 211, 6361 * 69431, 9), _spread(rng, 211, 20394401, 9)),
        ([1, 2**52 + 1], [1, 2]),
    ):
        want = cyclic_schoolbook(a, b)
        bound = sum(a) * sum(b)
        assert _direct_cyclic(a, b, bound) == want
        got = _direct_cyclic(np.array(a), np.array(b), bound)
        assert got.dtype == np.int64 and got.tolist() == want
        assert exact_cyclic(a, b) == want
    assert want[0] == 2**53 + 3


def _count_transforms(monkeypatch):
    calls = []
    real = convolution._transform

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(convolution, "_transform", counted)
    return calls


def test_tier_is_chosen_from_bound_and_length(monkeypatch):
    calls = _count_transforms(monkeypatch)
    rng = random.Random(4)
    # scan-shaped: length-211 0/1 indicators stay off the transforms
    ind = [rng.getrandbits(1) for _ in range(211)]
    exact_cyclic(ind, [rng.getrandbits(1) for _ in range(211)])
    exact_cyclic(ind, ind)
    assert not calls
    # the same length with sum(a) * sum(b) = 2**63 takes them
    a, b = [0] * 211, [0] * 211
    a[0], b[0] = 2**20, 2**43
    exact_cyclic(a, b)
    assert calls
    # and so does a length above the cutoff, whatever the bound
    calls.clear()
    exact_cyclic([1] * (_DIRECT_MAX_LEN + 1), [1] * (_DIRECT_MAX_LEN + 1))
    assert calls


@SETTINGS
@given(
    n=st.integers(min_value=1, max_value=40),
    bits=st.integers(min_value=1, max_value=2000),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_residue_rows_match_python_mod(n, bits, seed):
    # Every prime of a multi-prime run, plus the largest prime the pool can
    # hold (the length-2 pool's first), the largest residues and powers
    # 2**(16i) mod q that the limb products meet.
    rng = random.Random(seed)
    a = [rng.getrandbits(bits) for _ in range(n)]
    a[rng.randrange(n)] |= 1 << (bits - 1)
    for size, bound in ((1 << 10, 1 << 200), (2, 2)):
        primes = [q for q, _ in _primes_for(size, bound)]
        rows = _residues(a, primes)
        assert rows.array.shape == (len(primes), n) and rows.moduli == tuple(primes)
        assert rows.array.tolist() == [[x % q for x in a] for q in primes]
    # the transform zero-pads a row to its length: rows carry no padding
    q, gen = _primes_for(64, 2)[0]
    roots = _roots(q, gen, 64)
    row = _residues(a, [q]).array[0]
    padded = np.zeros(64, dtype=np.uint64)
    padded[:n] = row
    assert _transform(row, q, roots).tolist() == _transform(padded, q, roots).tolist()


@SETTINGS
@example(n=1, bits=2000, seed=0)
@given(
    n=st.integers(min_value=1, max_value=40),
    bits=st.integers(min_value=1, max_value=2000),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_garner_and_base_extension_match_python_crt(n, bits, seed):
    # Rows of the entries mod a run of primes one longer than they need; n = 1
    # takes the length-2 pool, which starts at the largest pool prime.  For
    # every prefix of j primes, with product P: _ints of the j rows is the
    # Python-int CRT, x mod P, and _residues extends x mod P to every prime
    # of the run without touching the j rows it was given.
    rng = random.Random(seed)
    a = [rng.getrandbits(bits) for _ in range(n)]
    size = 1 << (2 * n - 1).bit_length()
    moduli = [q for q, _ in _primes_for(size, 1 << bits)]
    moduli = tuple(q for q, _ in _primes_for(size, (1 << bits) * moduli[-1]))
    rows = np.array([[x % q for x in a] for q in moduli], dtype=np.uint64)
    product = 1
    for j, q in enumerate(moduli, 1):
        product *= q
        want = [x % product for x in a]
        assert _ints(_Rows(rows[:j].copy(), moduli[:j])) == want
        given_rows = rows[:j].copy()
        extended = _residues(_Rows(given_rows, moduli[:j]), moduli)
        assert extended.array.tolist() == [[x % q for x in want] for q in moduli]
        assert (given_rows == rows[:j]).all()
    assert _ints(_Rows(rows.copy(), moduli)) == a


def _set_pool(monkeypatch, min_size, workers):
    """Run the primes of every product of length >= min_size on `workers` threads."""
    monkeypatch.setattr(convolution, "_POOL_MIN_SIZE", min_size)
    monkeypatch.setattr(convolution, "_cpus", lambda: workers)


def _spy_threads(monkeypatch):
    """The set of threads (True: the main one) that computed a row since it was last cleared."""
    threads, real = set(), convolution._product_row

    def spied(*args):
        threads.add(threading.current_thread() is threading.main_thread())
        return real(*args)

    monkeypatch.setattr(convolution, "_product_row", spied)
    return threads


def _plant(monkeypatch, fault):
    """Patch _transform to record each call's prime, in order, and to pass the
    j-th call on prime q (j from 1) through fault(q, j, out) once it returns,
    which may change out or raise.  A prime's calls follow each other on one
    thread, so j does not depend on the pool: in a squaring, j = 2 is the
    prime's backward pass."""
    real, calls, lock = convolution._transform, [], threading.Lock()

    def planted(x, q, roots):
        out = real(x, q, roots)
        with lock:
            calls.append(q)
            j = calls.count(q)
        fault(q, j, out)
        return out

    monkeypatch.setattr(convolution, "_transform", planted)
    return calls


@pytest.mark.parametrize("workers", [1, 2, 3, 8])
def test_pooled_rows_equal_serial_rows(monkeypatch, workers):
    # With the cutoff lowered to length 2**10, a product of n = 257 (length
    # 1024) runs its primes on `workers` threads, while n = 256 (length 512),
    # one worker or one prime stays in the calling thread.  Either way the
    # rows equal the serial ones and the schoolbook sum, for one to nine
    # primes, squarings and products alike.  Eight workers outnumber the
    # cores, and a short switch interval makes the threads interleave often.
    threads, rng, counts = _spy_threads(monkeypatch), random.Random(workers), set()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for n in (256, 257):
            for bits in (4, 20, 35, 50, 120):
                a = [rng.getrandbits(bits) for _ in range(n)]
                for b in (a, [rng.getrandbits(bits) for _ in range(n)]):
                    _set_pool(monkeypatch, 1 << 40, workers)
                    serial = _plain_product(a, b)
                    _set_pool(monkeypatch, 1 << 10, workers)
                    threads.clear()
                    pooled = _plain_product(a, b)
                    assert pooled.array.tolist() == serial.array.tolist() and pooled.moduli == serial.moduli
                    assert _ints(pooled) == cyclic_schoolbook(a, b)
                    assert threads == ({False} if n > 256 and workers > 1 and len(pooled.moduli) > 1 else {True})
                    counts.add(len(pooled.moduli))
    finally:
        sys.setswitchinterval(interval)
    assert counts == {1, 2, 3, 4, 9}


def test_pool_starts_at_its_cutoff(monkeypatch):
    # At the real cutoff and two workers: three primes at length
    # _POOL_MIN_SIZE run on the pool, at half that length in the calling
    # thread, and both give the schoolbook sum (a sparse a keeps it cheap).
    threads, rng = _spy_threads(monkeypatch), random.Random(19)
    monkeypatch.setattr(convolution, "_cpus", lambda: 2)
    for n, pooled in ((_POOL_MIN_SIZE // 4, False), (_POOL_MIN_SIZE // 4 + 1, True)):
        a, b = [0] * n, [rng.getrandbits(30) for _ in range(n)]
        for i in rng.sample(range(n), 3):
            a[i] = rng.getrandbits(40)
        threads.clear()
        rows = _plain_product(a, b)
        assert len(rows.moduli) == 3 and _ints(rows) == cyclic_schoolbook(a, b)
        assert threads == {not pooled}


def test_an_error_in_one_worker_surfaces(monkeypatch):
    # An InvariantViolation raised in one prime's second transform (its
    # backward pass) is raised by the product itself, from the calling thread
    # with one worker and from a pool thread with two.
    x = [1 << 40] * 600
    second = _primes_for(2048, sum(x) ** 2 + 1)[1][0]
    for workers in (1, 2):
        raised = []

        def failing(q, j, out):
            if q == second and j == 2:
                raised.append(threading.current_thread() is threading.main_thread())
                raise InvariantViolation("planted in one worker")

        with monkeypatch.context() as m:
            _set_pool(m, 2, workers)
            _plant(m, failing)
            with pytest.raises(InvariantViolation, match="planted in one worker"):
                _plain_product(x, x)
        assert raised == [workers == 1]


def test_a_planted_error_in_one_prime_row_is_caught(monkeypatch):
    # One coefficient off in the second prime's second transform (its backward
    # pass) moves that row's sum off sum(a)*sum(b) mod q; the product must not
    # return, at the real cutoff and with every length on a pool of 1 or 2
    # workers.
    x = [1 << 40] * 600
    second = _primes_for(2048, sum(x) ** 2 + 1)[1][0]

    def off_by_one(q, j, out):
        if q == second and j == 2:
            out[0] = (out[0] + 1) % q

    for workers in (None, 1, 2):
        with monkeypatch.context() as m:
            if workers:
                _set_pool(m, 2, workers)
            calls = _plant(m, off_by_one)
            with pytest.raises(InvariantViolation, match="transform prime"):
                exact_cyclic(x, x)
        assert calls.count(second) == 2


def test_explicit_crt_u_is_corrected_at_both_ends():
    # The base change takes u = floor(sum c_i/q_i) from a float sum, which can
    # land one off where x/Q is near 0 or 1.  Rows for x in {0, 1, Q-1, Q//2}
    # and two random values, on every prefix of a run of about 400 primes, must
    # give x exactly: _residues extends all of them to the next prime through
    # their limbs, and _ints forms one per prefix, in turn (one value, n = 1,
    # takes the length-2 pool, which starts at the largest pool prime).  A
    # shorter run of the length-2**15 pool, whose primes are smaller, is
    # extended the same way.  The random values are random residues, and the
    # Python-int CRT of each prefix extends that of the prefix before.
    rng = random.Random(16)
    for size, count in ((2, 400), (1 << 15, 60)):
        moduli = tuple(q for q, _ in _primes_for(size, 1 << (31 * count)))
        drawn = [[rng.randrange(q) for q in moduli] for _ in range(2)]
        # Q is odd, so Q // 2 = (Q - 1)/2, which is (q - 1)/2 mod every prime q of Q
        rows = np.array([[0, 1, q - 1, (q - 1) // 2, *(r[i] for r in drawn)] for i, q in enumerate(moduli)])
        product, crt = 1, [0, 0]
        for j, q in enumerate(moduli[:-1], 1):
            crt = [x + product * ((r[j - 1] - x) * pow(product, -1, q) % q) for x, r in zip(crt, drawn)]
            product *= q
            xs = [0, 1, product - 1, product // 2, *crt]
            extended = _residues(_Rows(rows[:j].astype(np.uint64), moduli[:j]), moduli[: j + 1]).array
            assert extended[:j].tolist() == rows[:j].tolist()
            assert extended[j].tolist() == [x % moduli[j] for x in xs]
            if size == 2:
                i = j % len(xs)
                assert _ints(_Rows(rows[:j, i : i + 1].astype(np.uint64), moduli[:j])) == [xs[i]]


def test_carry_matches_python_ints():
    # _carry leaves 16-bit limbs and a carry out of the top row that keep the
    # value sum_i r_i * 2**(16i) of signed int64 rows r.  Rows from a few bits
    # to 2**45 settle in one to several whole-block passes; runs of 0xFFFF with
    # a +1 below and of 0 with a -1 below ripple past the passes to the top.
    rng = random.Random(21)
    cases = [np.array([[rng.randrange(-(1 << b), 1 << b) for _ in range(5)] for _ in range(n)])
             for n in (1, 2, 7, 40) for b in (3, 17, 30, 45)]
    cases += [np.array([[1 << 16] + [0xFFFF] * 30, [-1] + [0] * 30, [5] * 31]).T]
    for rows in cases:
        width = rows.shape[0]
        want = [sum(int(v) << (16 * i) for i, v in enumerate(column)) for column in rows.T]
        limbs = rows.astype(np.int64)
        top = _carry(limbs)
        assert ((limbs >= 0) & (limbs <= 0xFFFF)).all()
        got = [sum(int(v) << (16 * i) for i, v in enumerate(column)) + (int(t) << (16 * width)) for column, t in zip(limbs.T, top)]
        assert got == want


def test_base_change_reads_its_rows_without_writing_them():
    # _ints and the base extension of _residues leave their rows as they were.
    rng = random.Random(9)
    a = [rng.getrandbits(300) for _ in range(40)]
    rows = _plain_product(a, a)
    before = rows.array.copy()
    want = cyclic_schoolbook(a, a)
    assert _ints(rows) == want
    assert (rows.array == before).all()
    extended = _residues(rows, [q for q, _ in _primes_for(128, sum(a) ** 2 << 100)])
    assert len(extended.moduli) > len(rows.moduli)
    assert (rows.array == before).all() and (extended.array[: len(before)] == before).all()
    assert _ints(extended) == want
