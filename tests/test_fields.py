import math

import pytest

from anickres.fields import PrimeField, _is_prime, binomial_mod_p


def test_prime_validation():
    PrimeField(2)
    PrimeField(97)
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(ValueError):
        PrimeField(6)


def trial_division(n):
    """The reference: n >= 2 has no divisor in 2..isqrt(n)."""
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_primality_agrees_with_trial_division():
    assert [n for n in range(20_001) if _is_prime(n)] == [
        n for n in range(20_001) if trial_division(n)
    ]


@pytest.mark.parametrize(
    "factors",
    [
        (151, 751, 28_351),  # strong pseudoprime to the bases 2, 3, 5, 7
        (6_763, 10_627, 29_947),  # to 2 .. 11
        (1_303, 16_927, 157_543),  # to 2 .. 13
        (10_670_053, 32_010_157),  # to 2 .. 17
        (149_491, 747_451, 34_233_211),  # to 2 .. 31
    ],
)
def test_strong_pseudoprimes_are_composite(factors):
    n = math.prod(factors)
    assert not _is_prime(n)
    with pytest.raises(ValueError, match="not prime"):
        PrimeField(n)


@pytest.mark.parametrize("p", [2**31 - 1, 2**61 - 1, 2**64 - 59])
def test_large_primes_below_2_64(p):
    assert PrimeField(p).inv(2) * 2 % p == 1


@pytest.mark.parametrize("p", [2**64, 2**89 - 1, 318_665_857_834_031_151_167_461])
def test_characteristics_from_2_64_are_refused(p):
    # the last is the least strong pseudoprime to the first 12 prime bases
    with pytest.raises(ValueError, match="below 2\\^64"):
        PrimeField(p)


def test_field_arithmetic():
    F = PrimeField(5)
    assert F.inv(2) == 3
    with pytest.raises(ZeroDivisionError):
        F.inv(0)
    for a in range(1, 5):
        assert a * F.inv(a) % 5 == 1


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_binomial_against_exact(p):
    for n in range(0, 40):
        for k in range(0, n + 1):
            assert binomial_mod_p(n, k, p) == math.comb(n, k) % p


def test_binomial_out_of_range():
    assert binomial_mod_p(3, 5, 2) == 0
    assert binomial_mod_p(3, -1, 2) == 0


def test_binomial_p_power_vanishing():
    # across a p-power boundary the binomial vanishes: C(k+r, k) = 0 mod p
    # whenever k, r <= p^l - 1 < k + r
    for p, l in ((2, 2), (3, 1), (5, 1)):
        bound = p**l - 1
        for k in range(1, bound + 1):
            for r in range(1, bound + 1):
                if k + r > bound:
                    assert binomial_mod_p(k + r, k, p) == 0

