"""Smoothness scanning over polynomial values."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from factoridiv.construct import construct_quadratic
from factoridiv.intpoly import IntPoly
from factoridiv.numtheory import decimal_log_ratio, sieve_primes
from factoridiv.scan import (
    ScanRecord,
    _clamp_jobs,
    certificate_smoothness,
    record_json,
    scan_parallel,
    scan_range,
)

X2P1 = IntPoly((1, 0, 1))
THETA = Fraction(14, 25)


def oracle_hits(start, stop):
    """Full-factorization reference for x**2 + 1 hits at theta = 14/25."""
    primes = sieve_primes(stop)  # sqrt(stop**2 + 1) <= stop for stop >= 2
    out = {}
    for n in range(start, stop + 1):
        value = n * n + 1
        rem = value
        p_plus = 1
        for p in primes:
            if p * p > rem:
                break
            while rem % p == 0:
                p_plus = p
                rem //= p
        if rem > 1:
            p_plus = max(p_plus, rem)
        if p_plus**25 < n**14:
            out[n] = p_plus
    return out


def test_scan_matches_oracle():
    records, summary = scan_range(X2P1, 2, 10_000, THETA)
    expected = oracle_hits(2, 10_000)
    assert {r.n: r.p_plus for r in records} == expected
    for r in records:
        assert r.value == r.n * r.n + 1
        assert r.exponent == str(decimal_log_ratio(r.p_plus, r.n))
    assert summary.examined == 9_999
    assert summary.hits == len(expected)
    assert summary.unresolved == 0
    assert summary.min_exponent == str(min(Decimal(r.exponent) for r in records))


def test_scan_anchor_239():
    records, _ = scan_range(X2P1, 230, 250, THETA)
    by_n = {r.n: r for r in records}
    assert 239 in by_n
    assert by_n[239].p_plus == 13
    assert by_n[239].value == 57122
    assert by_n[239].exponent == "0.4684"


def test_scan_vacuous_values():
    records, summary = scan_range(IntPoly((-4, 1)), 2, 8, THETA)
    by_n = {r.n: r for r in records}
    # |value| <= 1 has no prime factors at all
    assert by_n[3].p_plus == 1 and by_n[3].value == -1
    assert by_n[4].p_plus == 1 and by_n[4].value == 0
    assert by_n[5].p_plus == 1 and by_n[5].value == 1
    assert by_n[3].exponent == "0.0000"
    assert 2 not in by_n  # 2**25 >= 2**14
    assert summary.examined == 7


def test_scan_division_budget():
    records, summary = scan_range(
        X2P1, 100, 200, THETA, division_budget=1
    )
    assert summary.unresolved > 0
    assert summary.examined == 101
    assert summary.hits == len(records)
    assert summary.hits + summary.unresolved <= summary.examined


def test_scan_input_validation():
    with pytest.raises(ValueError):
        scan_range(X2P1, 1, 10, THETA)
    with pytest.raises(ValueError):
        scan_range(X2P1, 10, 5, THETA)
    with pytest.raises(ValueError):
        scan_range(X2P1, 2, 10, Fraction(3, 2))
    with pytest.raises(ValueError):
        scan_parallel(X2P1, 2, 10, THETA, 0)


def test_parallel_byte_identical():
    seq_records, seq_summary = scan_range(X2P1, 2, 3_000, THETA)
    par_records, par_summary = scan_parallel(X2P1, 2, 3_000, THETA, 4)
    assert [record_json(r) for r in par_records] == [
        record_json(r) for r in seq_records
    ]
    assert par_summary == seq_summary
    # degenerate splits fall back to the sequential path
    few_records, few_summary = scan_parallel(X2P1, 2, 4, THETA, 8)
    assert few_summary.examined == 3


def test_record_json_format():
    records, _ = scan_range(X2P1, 239, 239, THETA)
    assert record_json(records[0]) == (
        '{"n":"239","value":"57122","p_plus":"13","exponent":"0.4684"}'
    )


def test_certificate_smoothness():
    cert = construct_quadratic(X2P1, 1)[0]
    assert certificate_smoothness(cert) == decimal_log_ratio(17, 21)


# trial division by these primes factors any value below 9973**2
ORACLE_PRIMES = sieve_primes(10_000)
THETAS = (Fraction(1, 3), Fraction(1, 2), Fraction(14, 25), Fraction(2, 3),
          Fraction(3, 4))


def largest_prime_factor(m):
    """P+ of m >= 2 by trial division up to sqrt(m)."""
    p_plus = 1
    for p in ORACLE_PRIMES:
        if p * p > m:
            break
        while m % p == 0:
            p_plus, m = p, m // p
    else:
        raise AssertionError("value too large for the oracle")
    return max(p_plus, m)


def oracle_scan(poly, start, stop, theta):
    """Full-factorization reference records for any polynomial."""
    j, k = theta.numerator, theta.denominator
    records = []
    for n in range(start, stop + 1):
        value = poly.evaluate(n)
        if abs(value) <= 1:
            records.append(ScanRecord(n, value, 1, "0.0000"))
            continue
        p_plus = largest_prime_factor(abs(value))
        if p_plus**k < n**j:
            records.append(
                ScanRecord(n, value, p_plus, str(decimal_log_ratio(p_plus, n)))
            )
    return records


@settings(max_examples=150, deadline=None)
@given(
    coeffs=st.lists(st.integers(-20, 20), min_size=1, max_size=5),
    start=st.integers(2, 30),
    length=st.integers(0, 15),
    theta=st.sampled_from(THETAS),
)
@example(coeffs=[6, 6, 0, 6], start=2, length=15, theta=Fraction(2, 3))
@example(coeffs=[-1, 0, 0, 0, 1], start=2, length=15, theta=Fraction(3, 4))
@example(coeffs=[0, -5, 1], start=2, length=15, theta=Fraction(1, 2))
@example(coeffs=[-4, 1], start=2, length=6, theta=Fraction(1, 3))
@example(coeffs=[-50, 0, 1], start=2, length=15, theta=Fraction(14, 25))
@example(coeffs=[-20, 0, 0, 0, -20], start=30, length=15, theta=Fraction(3, 4))
@example(coeffs=[0], start=2, length=5, theta=Fraction(1, 2))
@example(coeffs=[7], start=2, length=15, theta=Fraction(1, 2))
def test_scan_matches_factorization_oracle(coeffs, start, length, theta):
    # degree 0-4, content > 1, reducible, zero and negative values
    poly = IntPoly(coeffs)
    stop = start + length
    records, summary = scan_range(poly, start, stop, theta)
    assert records == oracle_scan(poly, start, stop, theta)
    assert summary.examined == length + 1
    assert summary.hits == len(records)
    assert summary.unresolved == 0
    exps = [Decimal(r.exponent) for r in records]
    assert summary.min_exponent == (str(min(exps)) if exps else None)


def test_scan_quartic_across_windows():
    x4m1 = IntPoly((-1, 0, 0, 0, 1))
    theta = Fraction(3, 4)
    # 8999 values span three sieve windows
    records, summary = scan_range(x4m1, 2, 9_000, theta)
    assert records == oracle_scan(x4m1, 2, 9_000, theta)
    assert summary.unresolved == 0
    par_records, par_summary = scan_parallel(x4m1, 2, 9_000, theta, 2)
    assert [record_json(r) for r in par_records] == [
        record_json(r) for r in records
    ]
    assert par_summary == summary


def test_scan_budget_suffix():
    t_cap = 1
    while (t_cap + 1) ** 25 <= 3_000**14:
        t_cap += 1
    primes = sieve_primes(t_cap)
    default = scan_range(X2P1, 100, 3_000, THETA)
    # a budget of pi(t_cap) primes resolves every value
    exact = scan_range(X2P1, 100, 3_000, THETA, division_budget=len(primes))
    assert exact == default and exact[1].unresolved == 0
    # one prime fewer: unresolved are exactly the n with t_n >= the last
    # prime, a suffix of the range; the values before it are unchanged
    records, summary = scan_range(
        X2P1, 100, 3_000, THETA, division_budget=len(primes) - 1
    )
    suffix = [n for n in range(100, 3_001) if n**14 >= primes[-1] ** 25]
    assert suffix == list(range(suffix[0], 3_001))
    assert summary.unresolved == len(suffix)
    assert records == [r for r in default[0] if r.n < suffix[0]]
    with pytest.raises(ValueError):
        scan_range(X2P1, 2, 10, THETA, division_budget=-1)


def test_scan_budget_keeps_vacuous_hits():
    # budget 0 resolves only n = 2, 3 (t_n = 1, no prime to try); of the
    # rest, the vacuous values n = 4, 5 are still hits
    records, summary = scan_range(IntPoly((-4, 1)), 2, 8, THETA,
                                  division_budget=0)
    assert [r.n for r in records] == [3, 4, 5]
    assert summary.unresolved == 3


def test_clamp_jobs():
    assert _clamp_jobs(8, 2, 100) == 2
    assert _clamp_jobs(2, 16, 100) == 2
    assert _clamp_jobs(10**9, 64, 3) == 3
    assert _clamp_jobs(4, None, 100) == 1
    assert _clamp_jobs(3, 8, 1) == 1
    # a huge request starts no more workers than there are values
    assert scan_parallel(X2P1, 2, 3, THETA, 10**9) == scan_range(X2P1, 2, 3, THETA)
