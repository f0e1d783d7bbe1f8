"""Exact arithmetic in prime fields F_p, plus the binomial coefficients mod
p used by the divided-power rewriting rules.

Coefficients are stored as least nonnegative residues; everything is exact
integer arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


# the first 12 primes: as Miller-Rabin bases they decide every n < 2^64,
# since the least strong pseudoprime to all of them exceeds 3 * 10^23
# (Sorenson and Webster, Math. Comp. 86, 2017)
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Primality of n < 2^64 by deterministic Miller-Rabin: write n - 1 =
    d 2^r with d odd; a prime n gives, for each base a, a^d = 1 or a^(d 2^k)
    = -1 mod n for some k < r."""
    if n < 2:
        return False
    for a in _BASES:
        if n % a == 0:
            return n == a
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(r):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


@dataclass(frozen=True)
class PrimeField:
    """The prime field F_p.  Elements are ints in [0, p)."""

    p: int

    def __post_init__(self):
        if self.p >= 2**64:
            raise ValueError(f"characteristic {self.p} is too large: p must be below 2^64")
        if not _is_prime(self.p):
            raise ValueError(f"characteristic {self.p} is not prime")

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return pow(a, self.p - 2, self.p)

    def __str__(self):
        return f"F_{self.p}"


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
        result = result * math.comb(nd, kd) % p
    return result
