"""Primes, factorization, valuations, divisors of polynomial values."""

import math
import random
from decimal import ROUND_UP, Decimal, Inexact, localcontext
from unittest import mock

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from factoridiv import numtheory
from factoridiv.intpoly import IntPoly
from factoridiv.numtheory import (
    BudgetExceededError,
    FactorizationBudgetError,
    decimal_digits,
    decimal_from_int,
    decimal_log_ratio,
    decimal_str,
    divisors,
    euler_phi,
    factorize,
    find_prime_divisor_of_values,
    int_from_digits,
    is_perfect_square,
    is_probable_prime,
    next_prime,
    nu_p_factorial,
    sieve_primes,
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


def test_nu_p_factorial_against_direct_sum():
    for p in (2, 3, 5, 7, 11, 13):
        for n in (0, 1, 5, 25, 120):
            direct = sum(sympy.multiplicity(p, k) for k in range(2, n + 1))
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


def test_euler_phi():
    for n in range(1, 150):
        direct = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert euler_phi(n) == direct


def test_divisors_ascending():
    for n in list(range(1, 400)) + [30030, 2**12, 9973]:
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]
    with pytest.raises(ValueError):
        divisors(0)


def test_find_prime_divisor_of_values():
    q = IntPoly((1, 0, 1))
    assert find_prime_divisor_of_values(q, 5) == (4, 17)
    # oracle: first l whose value has a prime factor above the bound
    for lower in (1, 3, 10):
        l, p = find_prime_divisor_of_values(q, lower)
        assert p > lower and q.evaluate(l) % p == 0 and sympy.isprime(p)
        for j in range(l):
            v = abs(q.evaluate(j))
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


def _reference_log_ratio(a, b):
    # the 50-digit Decimal body decimal_log_ratio falls back to
    with localcontext() as ctx:
        ctx.prec = 50
        val = Decimal(a).ln() / Decimal(b).ln()
        return val.quantize(Decimal("0.0001"))


class _SpyDecimal(Decimal):
    # counts Decimal.ln calls, which only the exact fallback makes
    calls = 0

    def ln(self, *args):
        _SpyDecimal.calls += 1
        return super().ln(*args)


def _log_ratio_checked(a, b):
    """decimal_log_ratio(a, b), equal to the reference in value, str and
    repr, as is log_ratio of a and b as Decimals; also returns whether the
    exact fallback ran, which it does for both or neither."""
    # the fallback brings ints across by decimal_from_int
    real = numtheory.decimal_from_int
    ran = []
    for args, patch in (
        ((a, b), lambda v: _SpyDecimal(real(v))),
        ((_SpyDecimal(real(a)), _SpyDecimal(real(b))), real),
    ):
        _SpyDecimal.calls = 0
        with mock.patch.object(numtheory, "decimal_from_int", patch):
            got = numtheory.log_ratio(*args)
        want = _reference_log_ratio(a, b)
        assert (str(got), repr(got)) == (str(want), repr(want))
        ran.append(_SpyDecimal.calls > 0)
    assert decimal_log_ratio(a, b) == got
    assert ran[0] == ran[1]
    return ran[0]


@settings(max_examples=300, deadline=None)
@given(
    a=st.one_of(st.just(1), st.integers(1, 10**6), st.integers(1, 2**20_000)),
    b=st.one_of(st.integers(2, 10**6), st.integers(2, 2**20_000)),
)
@example(a=2, b=2**32)
@example(a=1, b=2)
@example(a=8, b=2)
@example(a=10**40 - 1, b=10)
def test_decimal_log_ratio_matches_50_digit_body(a, b):
    _log_ratio_checked(a, b)


@settings(max_examples=60, deadline=None)
@given(
    c=st.integers(2, 100),
    k=st.integers(1, 15),
    tie=st.sampled_from([(1, 32), (3, 32), (31, 32), (1, 160), (7, 160)]),
)
@example(c=2, k=1, tie=(1, 20_000))
@example(c=3, k=1, tie=(3, 20_000))
def test_decimal_log_ratio_ties_take_the_fallback(c, k, tie):
    # log(c**(u*k)) / log(c**(v*k)) = u/v, and 10**4 * u/v is a half-integer
    u, v = tie
    assert _log_ratio_checked(c ** (u * k), c ** (v * k))


@settings(max_examples=20, deadline=None)
@given(
    top=st.integers(1, 2**64),
    low=st.integers(0, 2**64),
    shift=st.integers(50_001, 52_000),
)
def test_decimal_log_ratio_large_x_takes_the_fallback(top, low, shift):
    # x = 10**4 * log a / log 2 >= 5e8: the guard band is wider than 1/2
    assert _log_ratio_checked((top << shift) + low, 2)


def test_decimal_log_ratio_fast_path_is_taken():
    assert not _log_ratio_checked(13, 239)
    assert not _log_ratio_checked(3**30_000 + 1, 2**20_000 + 3)


def test_decimal_log_ratio_ignores_the_callers_context():
    # 10**4 * log(2**5) / log(2**100000) = 1/2 exactly: a tie, which the
    # 50-digit body rounds half-even to 0, whatever the caller has set
    with localcontext() as ctx:
        ctx.rounding = ROUND_UP
        assert str(decimal_log_ratio(2**5, 2**100_000)) == "0.0000"
    with localcontext() as ctx:
        ctx.traps[Inexact] = True
        assert str(decimal_log_ratio(2**5, 2**100_000)) == "0.0000"
        assert str(decimal_log_ratio(13, 239)) == "0.4684"


POWERS = list(range(1, 61)) + [100, 639, 640, 641, 4300, 4301, 12_345, 50_000]


@pytest.mark.parametrize("k", POWERS)
def test_decimal_digits_at_powers_of_ten(k):
    for n in (10**k - 1, 10**k, 10**k + 1):
        assert decimal_digits(n) == len(str(n))


def test_decimal_digits_small_and_negative():
    for n in range(1000):
        assert decimal_digits(n) == len(str(n))
    with pytest.raises(ValueError):
        decimal_digits(-1)
    with pytest.raises(ValueError):
        decimal_digits(Decimal(-1))


@pytest.mark.parametrize("k", [1, 2, 19, 20, 21, 640, 4301])
def test_decimal_digits_and_str_of_decimals(k):
    for n in (10**k - 1, 10**k, 10**k + 1):
        d = Decimal(str(n))
        assert decimal_digits(d) == len(str(n))
        assert decimal_str(d) == str(n)
    # integral Decimals written with an exponent or trailing zeros
    for d, text in ((Decimal("1E+3"), "1000"), (Decimal("5.00"), "5"),
                    (Decimal("0"), "0"), (Decimal("-7E+1"), "-70")):
        assert decimal_str(d) == text
        assert decimal_digits(abs(d)) == len(text.lstrip("-"))


# lengths around the splits of int_from_digits, which happen at 640 * 2**j
SPLIT_LENGTHS = [1, 2, 639, 640, 641, 1279, 1280, 1281, 2559, 2560, 2561,
                 5119, 5121, 10_241, 20_480]


@settings(max_examples=80, deadline=None)
@given(
    length=st.sampled_from(SPLIT_LENGTHS),
    zeros=st.integers(0, 700),
    seed=st.integers(0, 2**32),
)
def test_int_from_digits_matches_int(length, zeros, seed):
    rng = random.Random(seed)
    digits = "0" * zeros + "".join(rng.choices("0123456789", k=length))
    assert int_from_digits(digits) == int(digits)


# bit lengths around the splits of decimal_from_int, at 2048 * 2**j
SPLIT_BITS = [0, 1, 2047, 2048, 2049, 4095, 4096, 4097, 8193, 16_385, 70_000]


@settings(max_examples=80, deadline=None)
@given(
    bits=st.sampled_from(SPLIT_BITS),
    seed=st.integers(0, 2**32),
    negative=st.booleans(),
)
def test_decimal_from_int_matches_decimal(bits, seed, negative):
    n = random.Random(seed).getrandbits(bits) | (1 << bits >> 1)
    n = -n if negative else n
    with localcontext() as ctx:
        # the conversion is exact in any caller's context
        ctx.prec = 28
        ctx.traps[Inexact] = True
        got = decimal_from_int(n)
    want = Decimal(n)
    assert (str(got), repr(got)) == (str(want), repr(want))
