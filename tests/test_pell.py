"""Pell equation solutions and divisibility index streams."""

import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.solvers.diophantine.diophantine import diop_DN

from factoridiv.numtheory import decimal_digits_upper
from factoridiv.pell import (
    PellBudgetError,
    fundamental_solution,
    indices_with_s_divisible,
    pair_at,
)


def test_fundamental_anchors():
    assert fundamental_solution(2) == (3, 2)
    assert fundamental_solution(3) == (2, 1)
    assert fundamental_solution(5) == (9, 4)
    assert fundamental_solution(13) == (649, 180)
    assert fundamental_solution(61) == (1766319049, 226153980)
    assert fundamental_solution(661) == (
        16421658242965910275055840472270471049,
        638728478116949861246791167518480580,
    )


def test_fundamental_rejects_squares_and_small():
    for d in (-3, 0, 1, 4, 9, 100):
        with pytest.raises(ValueError):
            fundamental_solution(d)


def test_fundamental_brute_force_small():
    for d in range(2, 50):
        if math.isqrt(d) ** 2 == d:
            continue
        s = 1
        while not math.isqrt(1 + d * s * s) ** 2 == 1 + d * s * s:
            s += 1
        r = math.isqrt(1 + d * s * s)
        assert fundamental_solution(d) == (r, s)


def test_fundamental_against_sympy():
    for d in range(2, 301):
        if math.isqrt(d) ** 2 == d:
            continue
        sols = diop_DN(d, 1)
        assert sols, f"oracle found nothing for {d}"
        r, s = min((abs(x), abs(y)) for x, y in sols)
        assert fundamental_solution(d) == (r, s)


def test_digit_budget():
    with pytest.raises(PellBudgetError) as ei:
        fundamental_solution(661, digit_budget=5)
    assert ei.value.d == 661
    assert ei.value.budget == 5


def convergent_walk(d, digit_budget):
    """Reference: test h**2 - d k**2 = 1 at every convergent, check the
    digit budget at every convergent that fails the test."""
    a0 = math.isqrt(d)
    p, q, a = 0, 1, a0
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    while True:
        if h * h - d * k * k == 1:
            return h, k
        digits = decimal_digits_upper(h.bit_length())
        if digits > digit_budget:
            raise PellBudgetError(d, digits, digit_budget)
        p = a * q - p
        q = (d - p * p) // q
        a = (a0 + p) // q
        h_prev, h = h, a * h + h_prev
        k_prev, k = k, a * k + k_prev


def outcome(d, digit_budget, solver):
    try:
        return solver(d, digit_budget)
    except PellBudgetError as exc:
        return ("budget", exc.d, exc.digits, exc.budget, str(exc))


@settings(max_examples=300, deadline=None)
@given(d=st.integers(2, 10**5), digit_budget=st.integers(1, 60))
def test_fundamental_matches_convergent_walk(d, digit_budget):
    # the period test returns the same solutions and raises the same
    # budget errors as testing every convergent
    if math.isqrt(d) ** 2 == d:
        d += 1
    assert outcome(d, digit_budget, fundamental_solution) == outcome(
        d, digit_budget, convergent_walk
    )


def solutions(fund):
    """Reference: every solution (r_k, s_k), k = 0, 1, 2, ..., by the
    recurrence x_{k+1} = 2 r1 x_k - x_{k-1} from (1, 0) and (r1, s1)."""
    r1 = fund[0]
    prev, cur = (1, 0), fund
    while True:
        yield prev
        prev, cur = cur, (2 * r1 * cur[0] - prev[0], 2 * r1 * cur[1] - prev[1])


def test_stream_and_pair_at():
    for d in (2, 3, 13, 61):
        fund = fundamental_solution(d)
        pairs = list(itertools.islice(solutions(fund), 12))
        assert pairs[0] == (1, 0)
        assert pairs[1] == fund
        for k, (r, s) in enumerate(pairs):
            assert r * r - d * s * s == 1
            assert pair_at(d, fund, k) == (r, s)
        # s_k strictly increasing
        assert all(a[1] < b[1] for a, b in zip(pairs, pairs[1:]))


def test_indices_modulus_one():
    fund = fundamental_solution(2)
    assert list(itertools.islice(indices_with_s_divisible(2, fund, 1), 5)) == [
        0, 1, 2, 3, 4,
    ]
    with pytest.raises(ValueError):
        next(indices_with_s_divisible(2, fund, 0))


def test_indices_match_direct_scan():
    for d in (2, 3, 5, 13, 61, 97):
        fund = fundamental_solution(d)
        for m in (2, 3, 7, 12, 25, 30):
            got = list(itertools.islice(indices_with_s_divisible(d, fund, m), 30))
            direct = []
            for k, (_, s) in enumerate(solutions(fund)):
                if s % m == 0:
                    direct.append(k)
                    if len(direct) == 30:
                        break
            assert got == direct, (d, m)
            assert got[0] == 0
            assert all(a < b for a, b in zip(got, got[1:]))


def period_walk(fund, m):
    """Reference: every k >= 0 with m | s_k, from the zeros of s within one
    period of the pair sequence mod m, repeated period after period."""
    r1m, s1m = fund[0] % m, fund[1] % m
    start = ((1 % m, 0), (r1m, s1m))
    zeros, (prev, cur), k = [0], start, 1
    while k == 1 or (prev, cur) != start:
        if cur[1] == 0:
            zeros.append(k)
        prev, cur = cur, (
            (2 * r1m * cur[0] - prev[0]) % m,
            (2 * r1m * cur[1] - prev[1]) % m,
        )
        k += 1
    period = k - 1
    zeros = [z for z in zeros if z < period]
    return (base + z for base in itertools.count(0, period) for z in zeros)


@settings(max_examples=200, deadline=None)
@given(d=st.integers(2, 3000), m=st.integers(1, 400))
@example(d=2, m=1)
@example(d=13, m=36)  # s_1 = 180, so m | s_1
@example(d=7506001976, m=315)  # gcd(m, s_1) = 105, and m | s_k first at k = 3
def test_indices_match_period_walk(d, m):
    # strong divisibility: the indices are the multiples of the first one,
    # exactly the zeros that a whole period of the pair sequence yields
    if math.isqrt(d) ** 2 == d:
        d += 1
    fund = fundamental_solution(d)
    got = list(itertools.islice(indices_with_s_divisible(d, fund, m), 10))
    assert got == list(itertools.islice(period_walk(fund, m), 10))
