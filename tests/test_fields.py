import math

import pytest

from anickres.fields import PrimeField, binomial_mod_p


def test_prime_validation():
    PrimeField(2)
    PrimeField(97)
    with pytest.raises(ValueError):
        PrimeField(1)
    with pytest.raises(ValueError):
        PrimeField(6)


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

