"""Exact arithmetic in prime fields F_p, plus the binomial helpers used by
the divided-power rewriting rules.

Coefficients are stored as least nonnegative residues; everything is exact
integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class PrimeField:
    """The prime field F_p.  Elements are ints in [0, p)."""

    p: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"characteristic {self.p} is not prime")

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return pow(a, self.p - 2, self.p)

    def __str__(self):
        return f"F_{self.p}"


def base_p_digits(n: int, p: int) -> list[int]:
    """Digits of n in base p, least significant first.  n == 0 gives []."""
    digits = []
    while n:
        n, r = divmod(n, p)
        digits.append(r)
    return digits


def binomial_mod_p(n: int, k: int, p: int) -> int:
    """C(n, k) mod p by Lucas' theorem (digitwise product of small binomials).

    Returns 0 for k > n or k < 0, matching the vanishing-binomial convention.
    """
    if k < 0 or k > n:
        return 0
    result = 1
    while n or k:
        n, nd = divmod(n, p)
        k, kd = divmod(k, p)
        if kd > nd:
            return 0
        result = result * _small_binomial(nd, kd) % p
    return result


def _small_binomial(n: int, k: int) -> int:
    num = 1
    for i in range(k):
        num = num * (n - i) // (i + 1)
    return num


def multinomial_p_power_coefficient(k: int, p: int) -> int:
    """k! / prod_s (p^s!)^{k_s} mod p, where k_s are the base-p digits of k.

    This is the coefficient relating the product of p-power divided powers
    to the single divided power of exponent k; it is never divisible by p,
    so the result is always a unit.
    """
    if k < 0:
        raise ValueError("exponent must be nonnegative")
    # Accumulate the product of binomials obtained by splitting off one
    # p^s factor at a time: k!/prod (p^s!)^{k_s} = prod C(m_i, p^{s_i})
    # over the sequence of partial sums m_i.
    result = 1
    remaining = k
    for s, digit in enumerate(base_p_digits(k, p)):
        for _ in range(digit):
            result = result * binomial_mod_p(remaining, p**s, p) % p
            remaining -= p**s
    assert remaining == 0
    assert result != 0, f"unit coefficient vanished for k={k}, p={p}"
    return result
