"""Primes, factorization, valuations, Mertens selection."""

import math
import random
from fractions import Fraction

import pytest
import sympy

from factoridiv.intpoly import IntPoly
from factoridiv.numtheory import (
    BudgetExceededError,
    FactorizationBudgetError,
    decimal_log_ratio,
    divisors,
    euler_phi,
    factorize,
    find_prime_divisor_of_values,
    is_perfect_square,
    is_probable_prime,
    largest_prime_factor,
    mertens_select,
    next_prime,
    nu_p_factorial,
    sieve_primes,
    valuation,
)

M61 = 2**61 - 1  # Mersenne prime


def test_sieve_primes():
    assert sieve_primes(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]
    assert sieve_primes(1) == []
    assert sieve_primes(2) == [2]
    assert len(sieve_primes(10_000)) == 1229


def test_is_probable_prime_matches_sieve():
    primes = set(sieve_primes(10_000))
    for n in range(-5, 10_001):
        assert is_probable_prime(n) == (n in primes)


def test_is_probable_prime_large():
    assert is_probable_prime(M61)
    assert not is_probable_prime(M61 * M61)
    assert not is_probable_prime(561)  # Carmichael
    assert not is_probable_prime(3215031751)  # strong pseudoprime to 2,3,5,7


def test_next_prime():
    assert next_prime(0) == 2
    assert next_prime(2) == 2
    assert next_prime(3) == 3
    assert next_prime(14) == 17
    assert next_prime(10**6) == 1000003


def test_is_perfect_square():
    for k in range(2000):
        assert is_perfect_square(k) == (math.isqrt(k) ** 2 == k)
    assert not is_perfect_square(-4)
    assert is_perfect_square(M61 * M61)


def test_valuation():
    assert valuation(48, 2) == 4
    assert valuation(-12, 3) == 1
    assert valuation(7, 2) == 0
    with pytest.raises(ValueError):
        valuation(0, 2)


def test_nu_p_factorial_against_direct_sum():
    for p in (2, 3, 5, 7, 11, 13):
        for n in (0, 1, 5, 25, 120):
            direct = sum(valuation(k, p) for k in range(2, n + 1))
            assert nu_p_factorial(p, n) == direct
    assert nu_p_factorial(2, 10) == 8
    with pytest.raises(ValueError):
        nu_p_factorial(4, 10)


def test_factorize_small_sweep():
    # independent oracle: smallest prime factor sieve
    bound = 20_000
    spf = list(range(bound + 1))
    for p in range(2, math.isqrt(bound) + 1):
        if spf[p] == p:
            for q in range(p * p, bound + 1, p):
                if spf[q] == q:
                    spf[q] = p
    for m in range(2, bound + 1):
        expected = {}
        k = m
        while k > 1:
            p = spf[k]
            expected[p] = expected.get(p, 0) + 1
            k //= p
        fac = factorize(m)
        assert fac.unit == 1
        assert dict(fac.factors) == expected
        assert fac.value == m


def test_factorize_negative_and_units():
    fac = factorize(-12)
    assert fac.unit == -1
    assert fac.factors == ((2, 2), (3, 1))
    assert fac.value == -12
    assert factorize(1).factors == ()
    assert factorize(-1).value == -1
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_random_words():
    rng = random.Random(101)
    for _ in range(60):
        m = rng.randrange(2, 1 << 48)
        fac = factorize(m)
        assert fac.value == m
        for p, e in fac.factors:
            assert e >= 1 and is_probable_prime(p)
        assert list(fac.factors) == sorted(fac.factors)


def test_factorize_budget_error():
    q = next_prime(2**62)
    m = M61 * q
    with pytest.raises(FactorizationBudgetError) as ei:
        factorize(m, budget=20_000)
    err = ei.value
    assert err.m == m
    assert err.partial.value * err.cofactor == m
    assert err.cofactor > 1 and not is_probable_prime(err.cofactor)
    assert err.budget == 20_000


def test_largest_prime_factor():
    assert largest_prime_factor(600851475143) == 6857
    assert largest_prime_factor(2) == 2
    assert largest_prime_factor(-15) == 5


def test_euler_phi():
    for n in range(1, 150):
        direct = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert euler_phi(n) == direct


def test_divisors_ascending():
    for n in list(range(1, 400)) + [30030, 2**12, 9973]:
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]
    with pytest.raises(ValueError):
        divisors(0)


def test_mertens_select_minimality():
    sel = mertens_select(2, 2)
    assert sel.primes == (2,)
    assert sel.product_value == Fraction(2)
    sel = mertens_select(2, 4)
    assert sel.primes == (2, 3, 5, 7)
    # dropping the last prime falls below the threshold
    short = Fraction(1)
    for p in sel.primes[:-1]:
        short *= Fraction(p, p - 1)
    assert short < sel.target <= sel.product_value
    sel = mertens_select(5, Fraction(3, 2))
    assert sel.primes[0] == 5
    assert all(b == next_prime(a + 1) for a, b in zip(sel.primes, sel.primes[1:]))
    # ratio scales the target
    assert mertens_select(2, 2, ratio=Fraction(2)).target == Fraction(4)


def test_find_prime_divisor_of_values():
    q = IntPoly((1, 0, 1))
    assert find_prime_divisor_of_values(q, 5) == (4, 17)
    # oracle: first l whose value has a prime factor above the bound
    for lower in (1, 3, 10):
        l, p = find_prime_divisor_of_values(q, lower)
        assert p > lower and q(l) % p == 0 and sympy.isprime(p)
        for j in range(l):
            v = abs(q(j))
            if v >= 2:
                assert all(r <= lower for r in sympy.primefactors(v))
    with pytest.raises(BudgetExceededError):
        find_prime_divisor_of_values(IntPoly((2,)), 2, scan_limit=50)


def test_decimal_log_ratio():
    from decimal import Decimal

    assert decimal_log_ratio(8, 2) == Decimal("3.0000")
    assert decimal_log_ratio(1, 7) == Decimal("0.0000")
    assert decimal_log_ratio(13, 239) == Decimal("0.4684")
    rng = random.Random(5)
    for _ in range(50):
        a = rng.randrange(1, 10**9)
        b = rng.randrange(2, 10**9)
        got = decimal_log_ratio(a, b)
        ref = math.log(a) / math.log(b)
        assert abs(float(got) - ref) < 2e-4
