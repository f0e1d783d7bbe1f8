"""Exact arithmetic in prime fields F_p, plus the binomial coefficients mod
p used by the divided-power rewriting rules.

Coefficients are stored as least nonnegative residues; everything is exact
integer arithmetic.
"""

from __future__ import annotations

import math
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
