"""Pell equation r**2 - D s**2 = 1: fundamental solutions, the k-th
solution, and divisibility filtering of the s-sequence.

The fundamental solution comes from the continued fraction expansion of
sqrt(D).  The (P, Q, a) recurrence of that expansion runs on small
integers, and the convergents h_i/k_i satisfy
h_i**2 - D k_i**2 = (-1)**(i+1) Q_{i+1}, so a solution is found by testing
Q_{i+1} = 1 at odd i and no convergent is squared.  The k-th solution
(r_k, s_k) comes from powering r1 + s1 sqrt(D); the divisibility filter
runs the linear recurrence x_{k+1} = 2 r1 x_k - x_{k-1}, from (1, 0) and
(r1, s1), mod the divisor.
"""

from __future__ import annotations

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
    """Generator of all k >= 0 with m | s_k, in increasing order.

    The pair sequence (r_k, s_k) mod m is purely periodic: the step
    matrix [[r1, d s1], [s1, r1]] has determinant 1, so it is invertible
    mod m and the orbit of (1, 0) is a cycle of length at most m**2.
    All residue-zero offsets within one period generate the full index
    set as a union of arithmetic progressions.
    """
    if m < 1:
        raise ValueError("modulus must be positive")
    r1m, s1m = fundamental[0] % m, fundamental[1] % m
    start = ((1 % m, 0), (r1m, s1m))
    zeros = [0]  # s_0 = 0 always
    prev, cur = start
    k = 1
    while True:
        if k > 1 and (prev, cur) == start:
            period = k - 1
            break
        if cur[1] == 0:
            zeros.append(k)
        prev, cur = cur, (
            (2 * r1m * cur[0] - prev[0]) % m,
            (2 * r1m * cur[1] - prev[1]) % m,
        )
        k += 1
        if k > m * m + 2:
            raise ArithmeticError("pair period exceeded the m**2 bound")
    zeros = [z for z in zeros if z < period]
    base = 0
    while True:
        for z in zeros:
            yield base + z
        base += period
