"""Pell equation r**2 - D s**2 = 1: fundamental solutions, the k-th
solution, and divisibility filtering of the s-sequence.

The fundamental solution comes from the continued fraction expansion of
sqrt(D).  The (P, Q, a) recurrence of that expansion runs on small
integers, and the convergents h_i/k_i satisfy
h_i**2 - D k_i**2 = (-1)**(i+1) Q_{i+1}, so a solution is found by testing
Q_{i+1} = 1 at odd i and no convergent is squared.  The k-th solution
(r_k, s_k) comes from powering r1 + s1 sqrt(D).

The divisibility filter needs no period: s_k = s1 U_k for the Lucas
sequence U(2 r1, 1), which has strong divisibility since gcd(2 r1, 1) = 1
(Lucas, Amer. J. Math. 1 (1878); Lehmer, Ann. of Math. 31 (1930)).  So
m | s_k exactly when k is a multiple of the least k0 >= 1 with m | s_k0,
found by running s_{k+1} = 2 r1 s_k - s_{k-1} mod m from (0, s1).  The
step matrix has determinant 1, so that walk returns to (0, s1) and k0
exists.
"""

from __future__ import annotations

import itertools
import math

from .numtheory import decimal_digits_upper

__all__ = [
    "PellBudgetError",
    "fundamental_solution",
    "indices_with_s_divisible",
    "pair_at",
]

DEFAULT_DIGIT_BUDGET = 5000


class PellBudgetError(Exception):
    """Convergents outgrew the decimal digit budget before a solution."""

    def __init__(self, d: int, digits: int, budget: int):
        super().__init__(
            f"no fundamental solution for D={d} within {budget} digits "
            f"(reached about {digits})"
        )
        self.d = d
        self.digits = digits
        self.budget = budget


def fundamental_solution(
    d: int, digit_budget: int = DEFAULT_DIGIT_BUDGET
) -> tuple[int, int]:
    """Least positive (r, s) with r**2 - d s**2 = 1, for nonsquare d >= 2.

    Walks the continued fraction convergents h/k of sqrt(d); the first
    convergent with h**2 - d k**2 = 1 is the fundamental solution.  The
    digit budget is checked at every convergent that is not a solution.
    """
    if d < 2:
        raise ValueError("need d >= 2")
    a0 = math.isqrt(d)
    if a0 * a0 == d:
        raise ValueError(f"{d} is a perfect square")
    p, q, a = 0, 1, a0
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    sign = -1  # (-1)**(i+1) at convergent i
    while True:
        p = a * q - p
        q = (d - p * p) // q
        if sign * q == 1:  # h**2 - d k**2 = sign * q
            return h, k
        digits = decimal_digits_upper(h.bit_length())
        if digits > digit_budget:
            raise PellBudgetError(d, digits, digit_budget)
        sign = -sign
        a = (a0 + p) // q
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev


def pair_at(d: int, fundamental: tuple[int, int], k: int) -> tuple[int, int]:
    """k-th solution by fast powering of (r1 + s1 sqrt(d))."""
    if k < 0:
        raise ValueError("index must be nonnegative")
    r1, s1 = fundamental
    r, s = 1, 0
    br, bs = r1, s1
    e = k
    while e:
        if e & 1:
            r, s = r * br + d * s * bs, r * bs + s * br
        br, bs = br * br + d * bs * bs, 2 * br * bs
        e >>= 1
    return r, s


def indices_with_s_divisible(d: int, fundamental: tuple[int, int], m: int):
    """Iterator of all k >= 0 with m | s_k, in increasing order: the
    multiples of the least k0 >= 1 with m | s_k0."""
    if m < 1:
        raise ValueError("modulus must be positive")
    two_r1 = 2 * fundamental[0] % m
    prev, cur = 0, fundamental[1] % m
    k0 = 1
    while cur:
        prev, cur = cur, (two_r1 * cur - prev) % m
        k0 += 1
    return itertools.count(0, k0)
