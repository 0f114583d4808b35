import cmath

import pytest

from ffdist.field import PrimeModulus, additive_character, is_prime, primitive_root
from ffdist.rng import SplitMix64

AXIOM_PRIMES = [3, 5, 7, 101, 65537]


def test_modulus_validation():
    for bad in (0, 1, 2, 4, 9, 15, 2**31, 2**31 + 11, -7):
        with pytest.raises((ValueError, TypeError)):
            PrimeModulus(bad)
    with pytest.raises(TypeError):
        PrimeModulus(7.0)
    assert PrimeModulus(3).p == 3
    assert PrimeModulus(2**31 - 1).p == 2**31 - 1  # Mersenne prime just under the cap


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(50):
        assert is_prime(n) == (n in primes)


def _order(h, q):
    k, x = 1, h % q
    while x != 1:
        x = x * h % q
        k += 1
    return k


@pytest.mark.parametrize("q", [3, 5, 7, 23, 101, 7681])
def test_primitive_root_is_least_generator(q):
    g = primitive_root(q)
    assert _order(g, q) == q - 1
    assert all(_order(h, q) < q - 1 for h in range(2, g))


def test_field_op_examples():
    p7 = PrimeModulus(7)
    assert p7.inv(3) == 5
    with pytest.raises(ZeroDivisionError):
        p7.inv(0)


@pytest.mark.parametrize("p", AXIOM_PRIMES)
def test_field_axioms_random_triples(p):
    modulus = PrimeModulus(p)
    rng = SplitMix64(p)
    for _ in range(1000):
        a = rng.randbelow(p)
        if a != 0:
            assert a * modulus.inv(a) % p == 1


def test_is_square_examples():
    p7 = PrimeModulus(7)
    assert p7.is_square(2)  # 3*3 = 2 mod 7
    squares7 = {x * x % 7 for x in range(7)}
    assert not p7.is_square(3) and 3 not in squares7
    assert PrimeModulus(5).is_square(0)


@pytest.mark.parametrize("p", AXIOM_PRIMES)
def test_nonzero_square_count(p):
    modulus = PrimeModulus(p)
    if p <= 101:
        squares = {x * x % p for x in range(1, p)}
        assert len(squares) == (p - 1) // 2
    count = sum(modulus.is_square(t) for t in range(1, p))
    assert count == (p - 1) // 2


def test_sqrt_of_minus_one():
    assert PrimeModulus(5).sqrt_of_minus_one() in (2, 3)
    assert PrimeModulus(7).sqrt_of_minus_one() is None
    i13 = PrimeModulus(13).sqrt_of_minus_one()
    roots = [x for x in range(13) if x * x % 13 == 12]
    assert i13 in roots and roots == [5, 8]
    for p in (5, 13, 17, 29, 101):
        modulus = PrimeModulus(p)
        i = modulus.sqrt_of_minus_one()
        assert i is not None and i * i % p == p - 1


def test_character_basics():
    p5 = PrimeModulus(5)
    assert additive_character(p5, 0) == 1
    for p in (3, 5, 7, 31):
        modulus = PrimeModulus(p)
        for x in range(p):
            assert abs(abs(additive_character(modulus, x)) - 1) < 1e-12


@pytest.mark.parametrize("p", [3, 5, 7, 11, 31, 101])
def test_character_orthogonality(p):
    modulus = PrimeModulus(p)
    for t in range(p):
        total = sum(additive_character(modulus, s * t % p) for s in range(p))
        if t == 0:
            assert abs(total - p) < 1e-9
        else:
            assert abs(total) < 1e-9


def test_character_nonzero_sum_is_minus_one():
    p5 = PrimeModulus(5)
    for t in range(1, 5):
        total = sum(additive_character(p5, s * t % 5) for s in range(1, 5))
        assert cmath.isclose(total, -1, abs_tol=1e-9)
