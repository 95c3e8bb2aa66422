"""Smoothness scanning over polynomial values."""

import concurrent.futures
import hashlib
import json
import math
import os
import random
import time
from decimal import Decimal
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from factoridiv import modp, scan
from factoridiv.intpoly import IntPoly
from factoridiv.numtheory import decimal_log_ratio, sieve_primes
from factoridiv.scan import (
    ScanRecord,
    record_json,
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
        scan_range(X2P1, 2, 10, THETA, jobs=0)


def test_record_json_format():
    records, _ = scan_range(X2P1, 239, 239, THETA)
    assert record_json(records[0]) == (
        '{"n":"239","value":"57122","p_plus":"13","exponent":"0.4684"}'
    )


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(2, 10**40),
    value=st.one_of(st.integers(-1, 1), st.integers(-10**4_000, 10**4_000)),
    p_plus=st.integers(1, 10**12),
    exponent=st.decimals(0, 1, places=4),
)
def test_record_json_matches_json_dumps(n, value, p_plus, exponent):
    rec = ScanRecord(n, value, p_plus, str(exponent))
    assert record_json(rec) == json.dumps(
        {"n": str(n), "value": str(value), "p_plus": str(p_plus),
         "exponent": str(exponent)},
        separators=(",", ":"),
    )


# trial division by these primes factors any value below 9973**2
ORACLE_PRIMES = sieve_primes(10_000)
THETAS = (Fraction(1, 3), Fraction(1, 2), Fraction(14, 25), Fraction(2, 3),
          Fraction(3, 4))


def largest_prime_factor(m):
    """P+ of m >= 2 by trial division up to sqrt(m), and sympy for a
    cofactor above 9973**2."""
    p_plus = 1
    for p in ORACLE_PRIMES:
        if p * p > m:
            break
        while m % p == 0:
            p_plus, m = p, m // p
    else:
        return max(p_plus, *sympy.primefactors(m))
    return max(p_plus, m)


def resolved(n, theta, budget):
    """Whether pi(floor(n**theta)) <= budget, for floor(n**theta) < 10**4."""
    if budget is None:
        return True
    j, k = theta.numerator, theta.denominator
    t = 1
    while (t + 1) ** k <= n**j:
        t += 1
    return sum(p <= t for p in ORACLE_PRIMES) <= budget


def oracle_scan(poly, start, stop, theta, budget=None):
    """Full-factorization reference records for any polynomial, leaving
    out the values a division_budget leaves unresolved."""
    j, k = theta.numerator, theta.denominator
    records = []
    for n in range(start, stop + 1):
        value = poly.evaluate(n)
        if abs(value) <= 1:
            records.append(ScanRecord(n, value, 1, "0.0000"))
            continue
        if not resolved(n, theta, budget):
            continue
        p_plus = largest_prime_factor(abs(value))
        if p_plus**k < n**j:
            records.append(
                ScanRecord(n, value, p_plus, str(decimal_log_ratio(p_plus, n)))
            )
    return records


X64 = [0] * 64 + [1]
# (x+1)**2, (x-1)(x+1)**2 and (x**2+1)**2 have roots that do not lift
# simply; 1009 is a content prime above some t_cap; x**64 reaches 2**640,
# past one bit per byte unit; (x-300)(x+7) has its integer root in the
# fifth 64-value window.  x**2 - 2000, -x**2 + 3x + 2000 and x**3 - 3000x
# (critical point 31.6, roots 0 and 54.8) have real roots of f and f' in
# windows below their monotone bound 128 (scan._rise); x**2 + 1 near
# 10**10 sieves primes up to 10**5, above 65 535; and x at n = 49 = 7**2,
# a window's first n, has P+ = 7 = floor(49**(1/2)), which is no hit
ORACLE_EXAMPLES = [
    ([6, 6, 0, 6], 2, 15, Fraction(2, 3)),
    ([-1, 0, 0, 0, 1], 2, 15, Fraction(3, 4)),
    ([0, -5, 1], 2, 15, Fraction(1, 2)),
    ([-4, 1], 2, 6, Fraction(1, 3)),
    ([-50, 0, 1], 2, 15, Fraction(14, 25)),
    ([-20, 0, 0, 0, -20], 30, 15, Fraction(3, 4)),
    ([0], 2, 5, Fraction(1, 2)),
    ([7], 2, 15, Fraction(1, 2)),
    ([1, 2, 1], 2, 600, Fraction(1, 2)),
    ([-1, -1, 1, 1], 2, 600, Fraction(2, 3)),
    ([1, 0, 2, 0, 1], 2, 600, Fraction(3, 4)),
    ([1009, 0, 1009], 2, 600, Fraction(14, 25)),
    ([1009, 0, 1009], 2, 600, Fraction(1, 3)),
    (X64, 2, 998, Fraction(1, 3)),
    ([-2_100, -293, 1], 2, 598, Fraction(1, 2)),
    ([-1, 0, 0, 0, 1], 2, 600, Fraction(3, 4)),
    ([-2_000, 0, 1], 2, 600, Fraction(1, 2)),
    ([2_000, 3, -1], 2, 600, Fraction(2, 3)),
    ([0, -3_000, 0, 1], 2, 600, Fraction(3, 4)),
    ([1, 0, 1], 10**10, 300, Fraction(1, 2)),
    ([0, 1], 49, 15, Fraction(1, 2)),
]

# (coeffs, start, length, theta, division_budget) with a budget cut inside
# the range and a last window whose t_hi lies above the last budget prime:
# for x**2 + 1, [514, 528] has t_hi = 22 > 19, and the other two have
# 72 > 71 and 40 > 37
BUDGET_EXAMPLES = [
    ([1, 0, 1], 2, 600, Fraction(1, 2), 8),
    ([-1, 0, 0, 0, 1], 2, 600, Fraction(3, 4), 20),
    ([6, 6, 0, 6], 2, 600, Fraction(2, 3), 12),
]


def check_against_oracle(coeffs, start, length, theta, budget=None):
    poly = IntPoly(coeffs)
    stop = start + length
    cap = {} if budget is None else {"division_budget": budget}
    records, summary = scan_range(poly, start, stop, theta, **cap)
    assert records == oracle_scan(poly, start, stop, theta, budget)
    assert summary.examined == length + 1
    assert summary.hits == len(records)
    assert summary.unresolved == sum(
        abs(poly.evaluate(n)) > 1 and not resolved(n, theta, budget)
        for n in range(start, stop + 1))
    exps = [Decimal(r.exponent) for r in records]
    assert summary.min_exponent == (str(min(exps)) if exps else None)
    return records


def examples(cases):
    def wrap(test):
        for coeffs, start, length, theta in reversed(cases):
            test = example(coeffs=coeffs, start=start, length=length,
                           theta=theta)(test)
        return test
    return wrap


@settings(max_examples=150, deadline=None)
@given(
    coeffs=st.lists(st.integers(-20, 20), min_size=1, max_size=5),
    start=st.integers(2, 30),
    length=st.integers(0, 600),
    theta=st.sampled_from(THETAS),
)
@examples(ORACLE_EXAMPLES)
def test_scan_matches_factorization_oracle(coeffs, start, length, theta):
    # degree 0-4 (and 64), content > 1, reducible and not squarefree, zero
    # and negative values; 64-value windows, so the ranges span windows and
    # prime powers well below and above the window length
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scan, "_WINDOW", 64)
        check_against_oracle(coeffs, start, length, theta)


def decided_exactly(case, override, monkeypatch):
    """check_against_oracle on 64-value windows, with every value a
    candidate ("all") or every candidate decided by the exact test
    ("exact")."""
    monkeypatch.setattr(scan, "_WINDOW", 64)
    exact = []
    if override == "all":
        # up starts saturated, so every value is a candidate and low alone
        # must never certify a value with a cofactor above the sieve
        plan = scan._plan
        monkeypatch.setattr(scan, "_plan",
                            lambda *args: plan(*args)._replace(up=255))
    elif override == "exact":
        # no low sum certifies, so every candidate takes the exact test;
        # the pow calls with a positive exponent are those tests
        def counted(*args):
            if args[1] > 0:
                exact.append(args)
            return pow(*args)

        monkeypatch.setattr(scan, "_lam", lambda t, a: -(10**9))
        monkeypatch.setattr(scan, "pow", counted, raising=False)
    records = check_against_oracle(*case)
    if override == "exact":
        # every smooth value with a prime factor was decided by pow
        assert len(exact) >= sum(r.p_plus > 1 for r in records)


@pytest.mark.parametrize("override", ["all", "exact"])
@pytest.mark.parametrize("coeffs, start, length, theta", ORACLE_EXAMPLES)
def test_candidates_decided_exactly(coeffs, start, length, theta, override,
                                    monkeypatch):
    decided_exactly((coeffs, start, length, theta), override, monkeypatch)


@pytest.mark.parametrize("override", ["none", "all", "exact"])
@pytest.mark.parametrize("case", BUDGET_EXAMPLES)
def test_budget_cut_matches_oracle(case, override, monkeypatch):
    decided_exactly(case, override, monkeypatch)


def test_x64_hits():
    records, summary = scan_range(IntPoly(X64), 2, 1_000, Fraction(1, 3))
    hits = {r.n for r in records}
    assert summary.hits == 84 and 512 in hits and 928 not in hits


def digest(records):
    return hashlib.sha256(
        "".join(record_json(r) + "\n" for r in records).encode()
    ).hexdigest()


# digests of the records before the byte-sum sieve: x**4 - 1 has t_cap
# 9457, above the window length
PINNED = [
    ((-1, 0, 0, 0, 1), 200_000, Fraction(3, 4), 4_943, "0.4643",
     "799fa40d09c7287c1fb8da2c317d484222b614be31ed59ebe55d43535ed4aaa3"),
    ((7, 0, 5, 3), 100_000, Fraction(3, 4), 191, "0.5234",
     "4c50536972c5eab8e8ce84d3f9b0947d8928a6fea67f51c05c28efb07d819f13"),
    ((1, 0, 1), 200_000, Fraction(14, 25), 1_121, "0.3497",
     "246e50e7608e6a943226a8e0c3d9bd93e6b5d2321d798bb4b2b6d9a8ef2b0b4f"),
]


@pytest.mark.parametrize("coeffs, stop, theta, hits, least, sha", PINNED,
                         ids=["x4-1", "cubic", "x2+1"])
@pytest.mark.parametrize("jobs", [1, 2])
def test_pinned_digests(coeffs, stop, theta, hits, least, sha, jobs,
                        monkeypatch):
    monkeypatch.setattr(scan, "_POOL_WINDOWS", 1)
    records, summary = scan_range(IntPoly(coeffs), 2, stop, theta, jobs=jobs)
    assert summary == (stop - 1, hits, 0, least)
    assert digest(records) == sha


def test_pow_cmp_large_exponents_are_fast():
    # the powers here have millions of bits; the log test decides
    assert scan._pow_cmp(999, 10**6, 1_000, 999_999) == -1
    assert scan._pow_cmp(1_000, 10**6, 1_000, 999_999) == 1
    assert scan._floor_root(1_000, 999_999, 10**6) == 999


@settings(max_examples=300, deadline=None)
@given(
    x=st.integers(1, 6),
    d=st.integers(-2, 2),
    a=st.integers(1, 10**6),
    b=st.integers(1, 10**6),
    j=st.integers(1, 1_000),
    k=st.integers(1, 1_000),
    tie=st.booleans(),
)
def test_pow_cmp_matches_exact_powers(x, d, a, b, j, k, tie):
    if tie:
        # a**k against b**j = x**(j'k): equal at d = 0, a near tie else
        j = min(j, 40)
        a, b = max(x**j + d, 1), x**k
    exact = a**k - b**j
    assert scan._pow_cmp(a, k, b, j) == (exact > 0) - (exact < 0)


@settings(max_examples=200, deadline=None)
@given(b=st.integers(1, 10**6), j=st.integers(1, 60), k=st.integers(1, 60))
def test_floor_root_matches_exact(b, j, k):
    t = scan._floor_root(b, j, k)
    assert t**k <= b**j < (t + 1) ** k


def valuation(x, p):
    e = 0
    while not x % p:
        x, e = x // p, e + 1
    return e


def assert_node_matches_valuations(g, p, e, r):
    dg = IntPoly(i * c for i, c in enumerate(g.coeffs) if i)
    m = p**e
    mu, ts = scan._node(g, dg, p, e, r)
    assert len(set(ts)) == len(ts)
    for t in range(p):
        values = [g.evaluate(r + (t + u * p) * m) for u in range(3)]
        vals = {valuation(v, p) for v in values if v}  # g(n) = 0 is no fault
        if t in ts:
            assert min(vals, default=mu + 1) > mu
        else:
            assert vals == {mu}


@settings(max_examples=100, deadline=None)
@given(
    coeffs=st.lists(st.integers(-50, 50), min_size=1, max_size=4).filter(any),
    s=st.integers(-50, 50),
    p=st.sampled_from([2, 3, 5, 7, 1_999]),
    e=st.integers(1, 3),
)
@example(coeffs=[1], s=0, p=1_999, e=1)  # x**2: Q = h**2, closed form
@example(coeffs=[-5, 1], s=5, p=1_999, e=1)  # (x - 5)**3: Q = h**3, split
def test_singular_class_matches_valuations(coeffs, s, p, e):
    # g = h (x - s)**2, so p | g'(s) and the class of s mod p**e takes the
    # general path: every n in it has v_p(g(n)) >= mu, exactly mu unless
    # n = r + t p**e (mod p**(e+1)) with t a zero of Q, and more if t is
    g = IntPoly(coeffs).multiply(IntPoly((s * s, -2 * s, 1)))
    assert_node_matches_valuations(g, p, e, s % p**e)


def test_node_at_two_reads_zeros_at_zero_and_one():
    # x**4 - 1 = (x + 1)**4 mod 2, so the classes of 1 are singular
    x4m1 = IntPoly((-1, 0, 0, 0, 1))
    for e in (1, 2, 3):
        for r in range(1, 2**e, 2):
            assert_node_matches_valuations(x4m1, 2, e, r)


def test_scan_quartic_across_windows(monkeypatch):
    x4m1 = IntPoly((-1, 0, 0, 0, 1))
    theta = Fraction(3, 4)
    # 8999 values span three sieve windows
    records, summary = scan_range(x4m1, 2, 9_000, theta)
    assert records == oracle_scan(x4m1, 2, 9_000, theta)
    assert summary.unresolved == 0
    par_records, par_summary = scan_range(x4m1, 2, 9_000, theta, jobs=2)
    assert [record_json(r) for r in par_records] == [
        record_json(r) for r in records
    ]
    assert par_summary == summary
    # roots split by Cantor-Zassenhaus for every prime above deg f
    monkeypatch.setattr(scan, "_CZ_FROM", 0)
    assert scan_range(x4m1, 2, 9_000, theta) == (records, summary)


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


def test_scan_budget_bounds_the_sieve(monkeypatch):
    # a budget of 10 primes uses the first 11 only, so the sieve stops far
    # below t_cap = 10**8; the spy fails before anything is allocated
    def spy(bound):
        if bound > 10**6:
            pytest.fail(f"sieve asked for the primes up to {bound}")
        return sieve_primes(bound)

    monkeypatch.setattr(scan, "sieve_primes", spy)
    records, summary = scan_range(X2P1, 10**16, 10**16 + 10, Fraction(1, 2),
                                  division_budget=10)
    assert (records, summary.unresolved) == ([], 11)


def test_scan_skips_the_sieve_for_a_wholly_unresolved_range(monkeypatch):
    half = Fraction(1, 2)

    def refuse(*args):
        pytest.fail("the scan sieved or planned a range it cannot resolve")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scan, "sieve_primes", refuse)
        mp.setattr(scan, "_plan", refuse)
        # t_start = 10**8 is past the default budget's prime bound 9.08e7
        t0 = time.perf_counter()
        got = scan_range(X2P1, 10**16, 10**16 + 10, half)
        assert time.perf_counter() - t0 < 1
        assert got == ([], scan.ScanSummary(11, 0, 11, None))
        # t_start = 8.7e7 is under that bound but past p_5000001 =
        # 86 028 157, as 8.7e7 / (ln 8.7e7 - 1) > 5 * 10**6
        start = 87_000_000**2
        assert start < scan._prime_bound(5_000_001) ** 2
        t0 = time.perf_counter()
        assert scan_range(X2P1, start, start + 10, half) == got
        assert time.perf_counter() - t0 < 0.1
        # budget 0 under t_start = 13: the vacuous values are still hits
        vacuous = scan_range(IntPoly((-200, 1)), 190, 210, half,
                             division_budget=0)
        assert [r.n for r in vacuous[0]] == [199, 200, 201]
        # budget 24 sieves to t_cap = 100, where the 25th prime 97 is at
        # most t_start: the sieve runs, the plan does not
        mp.setattr(scan, "sieve_primes", sieve_primes)
        sieved = scan_range(X2P1, 10**4, 10**4 + 10, half, division_budget=24)
        assert sieved == ([], scan.ScanSummary(11, 0, 11, None))
    # the same answers from a sieve to t_cap, as before the shortcut
    monkeypatch.setattr(scan, "_prime_bound", lambda m: 10**6)
    assert scan_range(IntPoly((-200, 1)), 190, 210, half,
                      division_budget=0) == vacuous
    assert scan_range(X2P1, 10**4, 10**4 + 10, half,
                      division_budget=24) == sieved


def test_past_budget_is_sound_and_finds_what_the_prime_bound_finds():
    # pi(t) > budget never fails where the test passes: it is monotone in
    # the budget, so budget = pi(t) is the case to check
    pi = 0
    primes = iter(sieve_primes(300_000))
    p = next(primes)
    for t in range(2, 300_001):
        if t == p:
            pi += 1
            p = next(primes, None)
        assert not scan._past_budget(t, pi)
    # every t from the prime bound on passes, as t / (ln t - 1) increases
    for budget in range(20_000):
        t = max(scan._prime_bound(budget + 1), 5393)
        assert scan._past_budget(t, budget)


class SieveAsked(Exception):
    pass


def test_scan_rejects_an_unindexable_sieve_bound(monkeypatch):
    # the spy stops the scan when it asks for the sieve, so no bound is
    # ever allocated here
    asked = []

    def spy(bound):
        asked.append(bound)
        raise SieveAsked

    monkeypatch.setattr(scan, "sieve_primes", spy)
    half = Fraction(1, 2)
    refused = "the sieve bound is above 268435456"
    # t_cap = 10**350, under a budget above it and one past float range;
    # then a budget of 10**12 on [2, 10**30], a bound of 3.09e13
    for stop, budget in ((10**700, 10**400), (10**700, 10**320),
                         (10**30, 10**12)):
        with pytest.raises(ValueError, match=refused):
            scan_range(X2P1, 2, stop, half, division_budget=budget)
    # the cap itself is sieved; one above it is refused
    top = scan._SIEVE_CAP
    assert top == 2**28
    with pytest.raises(SieveAsked):
        scan_range(X2P1, top**2, top**2, half, division_budget=top)
    with pytest.raises(ValueError, match=refused):
        scan_range(X2P1, (top + 1) ** 2, (top + 1) ** 2, half,
                   division_budget=top)
    assert asked == [top]


class HornerUpTo(IntPoly):
    """An IntPoly that fails when evaluated beyond 10**6."""

    __slots__ = ()

    def evaluate(self, x):
        if x > 10**6:
            pytest.fail(f"f evaluated at {x}")
        return super().evaluate(x)


def test_scan_counts_the_unresolved_tail_past_rise():
    # budget 100: cut = 547**2, 547 the 101st prime; past rise = 4 no value
    # of x**2 + 1 is vacuous, so the tail up to 10**30 is counted, not
    # evaluated
    t0 = time.perf_counter()
    records, summary = scan_range(HornerUpTo((1, 0, 1)), 2, 10**30,
                                  Fraction(1, 2), division_budget=100)
    assert time.perf_counter() - t0 < 2
    assert summary.unresolved == 10**30 - 299208
    assert records == scan_range(X2P1, 2, 547**2 - 1, Fraction(1, 2))[0]
    # x - 4 under budget 0: the tail from 4 has the vacuous n = 4, 5, and
    # n = 6..15 below rise = 16 are evaluated one by one
    records, summary = scan_range(HornerUpTo((-4, 1)), 2, 10**30, THETA,
                                  division_budget=0)
    assert scan._rise(IntPoly((-4, 1))) == 16
    assert [r.n for r in records] == [3, 4, 5]
    assert summary.unresolved == 10**30 - 5


def test_prime_bound_is_at_least_the_mth_prime():
    primes = sieve_primes(200_000)
    assert all(scan._prime_bound(m) >= p for m, p in enumerate(primes, 1))


class FakePool:
    """A stand-in for ProcessPoolExecutor that maps in-process and keeps
    the worker count and chunk size it was given."""

    started: list = []

    def __init__(self, max_workers):
        self.max_workers = max_workers
        FakePool.started.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        self.chunksize = chunksize
        return map(fn, items)


@pytest.fixture
def fake_pool(monkeypatch):
    FakePool.started = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    return FakePool.started


# ranges of three to five sieve windows: a plain one, a division_budget
# cut inside the fifth window, and a line whose values -1, 0, 1 at
# n = 8999, 9000, 9001 are vacuous hits inside the third window
POOL_CASES = [
    (X2P1, 2, 12_000, THETA, {}),
    (X2P1, 2, 20_000, THETA, {"division_budget": 50}),
    (IntPoly((-9_000, 1)), 2, 12_000, Fraction(1, 2), {}),
]


@pytest.mark.parametrize("poly, start, stop, theta, cap", POOL_CASES,
                         ids=["plain", "budget-cut", "vacuous"])
def test_jobs_give_identical_results(poly, start, stop, theta, cap, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.setattr(scan, "_POOL_WINDOWS", 1)
    want = scan_range(poly, start, stop, theta, **cap)
    for jobs in (2, 3):
        assert scan_range(poly, start, stop, theta, jobs=jobs, **cap) == want
    records, summary = want
    windows = -(-(stop - start + 1) // scan._WINDOW)
    assert windows >= 3 and len(records) > 0
    if cap:
        cut = stop + 1 - summary.unresolved
        assert start + 4 * scan._WINDOW < cut < start + 5 * scan._WINDOW
    if poly.degree == 1:
        assert {r.n for r in records if r.p_plus == 1} == {8_999, 9_000, 9_001}


@pytest.mark.parametrize("cpus, jobs, workers", [
    (2, 10**9, 2),
    (64, 10**9, 3),  # [2, 12000] is three windows
    (8, 2, 2),
])
def test_workers_are_clamped(cpus, jobs, workers, fake_pool, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(scan, "_POOL_WINDOWS", 1)
    got = scan_range(X2P1, 2, 12_000, THETA, jobs=jobs)
    assert [pool.max_workers for pool in fake_pool] == [workers]
    # one contiguous run of windows per worker
    assert fake_pool[0].chunksize == -(-3 // workers)
    assert got == scan_range(X2P1, 2, 12_000, THETA)


@pytest.mark.parametrize("cpus", [None, 1])
def test_unknown_or_one_cpu_starts_no_pool(cpus, fake_pool, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    scan_range(X2P1, 2, 12_000, THETA, jobs=10**9)
    assert fake_pool == []


def test_one_window_starts_no_pool(fake_pool, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert scan_range(X2P1, 2, 3_000, THETA, jobs=4) == scan_range(
        X2P1, 2, 3_000, THETA)
    assert scan_range(X2P1, 2, 3, THETA, jobs=10**9) == scan_range(
        X2P1, 2, 3, THETA)
    # a budget of 0 leaves no window to sieve
    assert scan_range(X2P1, 100, 20_000, THETA, jobs=4,
                      division_budget=0)[1].unresolved == 19_901
    assert fake_pool == []


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_roots_found_once_per_scan(jobs, monkeypatch):
    monkeypatch.setattr(scan, "_POOL_WINDOWS", 1)
    calls = []
    real = scan._prime_roots

    def counted(*args):
        calls.append(args[1:3])
        return real(*args)

    monkeypatch.setattr(scan, "_prime_roots", counted)
    scan_range(X2P1, 2, 12_000, THETA, jobs=jobs)
    assert calls == [(2, 12_000)]


def test_range_under_break_even_starts_no_pool(fake_pool, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(scan, "_WINDOW", 64)  # the real break-even, cheaper
    # the last range that runs in-process, 2 * _POOL_WINDOWS - 1 windows
    stop = 1 + (2 * scan._POOL_WINDOWS - 1) * scan._WINDOW
    want = scan_range(X2P1, 2, stop, Fraction(1, 3))
    for jobs in (2, 10**9):
        assert scan_range(X2P1, 2, stop, Fraction(1, 3), jobs=jobs) == want
    assert fake_pool == []
    # one window more gives two workers
    scan_range(X2P1, 2, stop + scan._WINDOW, Fraction(1, 3), jobs=10**9)
    assert [pool.max_workers for pool in fake_pool] == [2]


def listed_roots(poly, start, stop, primes):
    """The residues of each prime, listed from the values of the range."""
    ns = range(start, min(stop, start + primes[-1] - 1) + 1)
    values = [poly.evaluate(n) for n in ns]
    out = []
    for p in primes:
        residues = [n % p for n, v in zip(ns[:p], values) if not v % p]
        if residues:
            out.append((p, residues))
    return out


PRIMES_2000 = sieve_primes(2_000)


@settings(max_examples=200, deadline=None)
@given(
    coeffs=st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=5),
    p=st.sampled_from(PRIMES_2000),
    shape=st.sampled_from(["plain", "lead", "square"]),
    r=st.integers(-50, 50),
    start=st.integers(2, 3_000),
    length=st.integers(0, 2_500),
)
@example(coeffs=[6, 0, 6, 6], p=3, shape="plain", r=0, start=2, length=50)
@example(coeffs=[-1, 0, 0, 0, 1], p=1_999, shape="plain", r=0, start=2,
         length=2_500)
@example(coeffs=[-1, 0, 0, 0, 1], p=1_993, shape="plain", r=0, start=2,
         length=1_000)
@example(coeffs=[1, 2], p=1_999, shape="square", r=7, start=2, length=2_500)
@example(coeffs=[5, 3], p=1_997, shape="lead", r=0, start=2, length=2_500)
@example(coeffs=[2, 0, 1], p=2, shape="plain", r=0, start=2, length=9)
def test_cantor_zassenhaus_roots_match_listing(coeffs, p, shape, r, start,
                                               length):
    # shapes: p | lead (the degree drops mod p), a repeated root r (times
    # (x - r)**2), and p <= deg when p is small; the scan passes only
    # primitive polynomials
    poly = IntPoly(coeffs)
    if shape == "lead":
        poly = IntPoly(coeffs[:-1] + [coeffs[-1] * p])
    elif shape == "square":
        poly = poly.multiply(IntPoly((r * r, -2 * r, 1)))
    assume(poly.coeffs)
    poly = poly.content_split().primitive
    stop = start + length
    primes = sorted({2, 3, 5, p})
    want = listed_roots(poly, start, stop, primes)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scan, "_CZ_FROM", 0)  # split whatever p > deg f
        assert scan._prime_roots(poly, start, stop, primes) == want


PRIMES_200 = sieve_primes(200)


def test_sqrt_mod_finds_every_square_root():
    # Tonelli-Shanks for p = 1 (mod 4), among them 17, 41, 73, 97, 113,
    # 137 and 193 = 1 (mod 8), and one power for p = 3 (mod 4)
    for p in PRIMES_200[1:]:
        for n in {x * x % p for x in range(1, p)}:
            assert scan._sqrt_mod(n, p) ** 2 % p == n


def linear(u, v):
    return IntPoly((-u, v))  # v x - u


@settings(max_examples=300, deadline=None)
@given(
    lins=st.lists(st.tuples(st.integers(-40, 40), st.integers(1, 12)),
                  max_size=3),
    quad=st.none() | st.tuples(st.integers(-60, 60), st.integers(-60, 60),
                               st.integers(1, 30)),
    twice=st.booleans(),
    p=st.sampled_from(PRIMES_200),
    lead_p=st.booleans(),
)
@example(lins=[], quad=(2, 1, 1), twice=False, p=7, lead_p=False)  # p | D
@example(lins=[], quad=(1, 0, 1), twice=False, p=2, lead_p=False)
@example(lins=[(1, 2)], quad=(2, 0, 1), twice=False, p=2, lead_p=True)
@example(lins=[(3, 5), (-1, 1)], quad=None, twice=True, p=5, lead_p=False)
@example(lins=[], quad=(5, 3, 7), twice=False, p=7, lead_p=False)  # p | a
@example(lins=[], quad=(1, 2, 1), twice=False, p=3, lead_p=False)  # (x+1)**2
@example(lins=[(1, 1)], quad=(3, 0, 1), twice=False, p=193, lead_p=False)
def test_closed_form_roots_match_brute_force(lins, quad, twice, p, lead_p):
    # products of non-monic linear factors v x - u and a quadratic, with a
    # repeated factor (twice), p | lead (lead_p scales the quadratic's lead
    # by p, or the first linear factor's v), p | D and p = 2
    g = IntPoly((1,))
    for u, v in lins:
        g = g.multiply(linear(u, v))
    if quad:
        c, b, a = quad
        g = g.multiply(IntPoly((c, b, a * p if lead_p else a)))
    elif lead_p and lins:
        g = g.multiply(linear(lins[0][0], lins[0][1] * p))
    if twice and lins:
        g = g.multiply(linear(*lins[0]))
    assume(len(g.coeffs) > 1 and any(g.coeffs))
    g = g.content_split().primitive
    # the split: g = +-h prod(v x - u), in lowest terms, h not linear
    parts, h = scan._split(g)
    back = h
    for u, v in parts:
        assert v > 0 and math.gcd(u, v) == 1
        back = back.multiply(linear(u, v))
    assert back in (g, g.scale(-1))
    assert len(h.coeffs) != 2
    # every residue class once: the roots mod p of g by brute force
    want = [r for r in range(p) if not g.evaluate(r) % p]
    assert scan._prime_roots(g, 0, p - 1, [p]) == ([(p, want)] if want else [])
    reduced = [c % p for c in g.coeffs]
    if p > 2 and any(reduced):
        assert sorted(modp.roots_mod(reduced, p)) == want


@pytest.mark.parametrize("coeffs, listed", [
    ((-1, 0, 0, 0, 1), False), ((1, 0, 1), False), ((-6, 0, 1), False),
    ((-7, 0, 1), False), ((-5, 0, 1), False), ((-4, 0, 1), False),
    ((1, 1, 0, 1), True),
])
def test_linear_and_quadratic_factors_are_neither_listed_nor_split(
        coeffs, listed, monkeypatch):
    # x**4 - 1 = (x - 1)(x + 1)(x**2 + 1) and x**2 + c take their roots in
    # closed form at every prime, above _CZ_FROM (t_cap = 1682) as below;
    # the irreducible cubic x**3 + x + 1 is still listed
    poly = IntPoly(coeffs)
    primes = sieve_primes(1_682)
    want = []
    for p in primes:  # 19 999 values meet every residue mod p
        roots = [r for r in range(p) if not poly.evaluate(r) % p]
        if roots:
            want.append((p, sorted(roots, key=lambda r: (r - 2) % p)))

    def refuse(*args):
        raise AssertionError("roots listed or split")

    monkeypatch.setattr(scan, "_values", refuse)
    monkeypatch.setattr(modp, "roots_mod", refuse)
    if listed:
        with pytest.raises(AssertionError, match="listed or split"):
            scan._prime_roots(poly, 2, 20_000, primes)
    else:
        assert scan._prime_roots(poly, 2, 20_000, primes) == want


PRIMES_50 = sieve_primes(50)


def test_zeros_match_brute_force():
    # every p < 50, degrees 0-6 (p <= degree among them), with zero top
    # coefficients, random q and products of linear factors, whose repeated
    # roots must come out once
    rng = random.Random(29)
    for p in PRIMES_50:
        for deg in range(7):
            for _ in range(12):
                q = [rng.randrange(p) for _ in range(deg)] + [
                    rng.randrange(1, p)]
                if rng.random() < 0.5:
                    q = [rng.randrange(1, p)]
                    for _ in range(deg):
                        q = [(x - rng.randrange(p) * y) % p
                             for x, y in zip([0, *q], [*q, 0])]
                want = [r for r in range(p)
                        if not sum(c * r**i for i, c in enumerate(q)) % p]
                got = scan._zeros(q + [0] * rng.randrange(3), p)
                assert sorted(got) == want and len(set(got)) == len(got)


@pytest.mark.parametrize("coeffs", [(1, 2, 1), (1, 4, 5, 4, 4)],
                         ids=["(x+1)^2", "(2x+1)^2(x^2+1)"])
def test_squared_factors_take_zeros_in_closed_form(coeffs, monkeypatch):
    # a squared factor's roots are double at every prime but where they
    # meet another factor's, and the Q of a double root is at most
    # quadratic: only p = 5, where 2x + 1 and x**2 + 1 share the root 2, a
    # triple root, splits a cubic Q
    poly = IntPoly(coeffs)
    want = scan_range(poly, 10**10, 10**10 + 2_000, Fraction(1, 2))
    split = set()

    def spy(q, p):
        split.add(p)
        return sorted(r for r in range(p) if not IntPoly(q).evaluate(r) % p)

    monkeypatch.setattr(modp, "roots_mod", spy)
    assert scan_range(poly, 10**10, 10**10 + 2_000, Fraction(1, 2)) == want
    assert split == (set() if coeffs == (1, 2, 1) else {5})


HUGE = 10**40 + 1
# (coeffs, hits, min_exponent, sha256 of the records), recorded before
# closed-form roots: x**2 + HUGE, and the cubics (x - 3)(x**2 + HUGE) and
# x**3 + x + HUGE, whose 40-digit constants are past the rational-root
# test's bound, so they are listed and split as before
HUGE_CASES = [
    ((HUGE, 0, 1), 0, None,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ((-3 * HUGE, HUGE, -3, 1), 1, "0.0000",
     "99b87c285036acb50f2e45c3d335c5db25b41f398844911a1c5ad2100505da5d"),
    ((HUGE, 1, 0, 1), 0, None,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


@pytest.mark.parametrize("coeffs, hits, least, sha", HUGE_CASES,
                         ids=["quadratic", "reducible-cubic", "cubic"])
def test_huge_coefficients_scan_in_bounded_time(coeffs, hits, least, sha,
                                                monkeypatch):
    # numtheory.divisors trial-divides to the square root: a 40-digit
    # argument would never return
    real = scan.divisors

    def bounded(n):
        assert n < scan._RATIONAL_BELOW
        return real(n)

    monkeypatch.setattr(scan, "divisors", bounded)
    poly = IntPoly(coeffs)
    t0 = time.perf_counter()
    records, summary = scan_range(poly, 2, 20_000, Fraction(3, 4))
    assert time.perf_counter() - t0 < 1
    assert summary == (19_999, hits, 0, least)
    assert digest(records) == sha
    primes = sieve_primes(1_682)
    assert scan._prime_roots(poly, 2, 20_000, primes) == listed_roots(
        poly, 2, 20_000, primes)
