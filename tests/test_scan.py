"""Smoothness scanning over polynomial values."""

import concurrent.futures
import hashlib
import json
import os
from decimal import Decimal
from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from factoridiv import scan
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


X64 = [0] * 64 + [1]
# (x+1)**2, (x-1)(x+1)**2 and (x**2+1)**2 have roots that do not lift
# simply; 1009 is a content prime above some t_cap; x**64 reaches 2**640,
# past one bit per byte unit; (x-300)(x+7) has its integer root in the
# fifth 64-value window
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
]


def check_against_oracle(coeffs, start, length, theta):
    poly = IntPoly(coeffs)
    stop = start + length
    records, summary = scan_range(poly, start, stop, theta)
    assert records == oracle_scan(poly, start, stop, theta)
    assert summary.examined == length + 1
    assert summary.hits == len(records)
    assert summary.unresolved == 0
    exps = [Decimal(r.exponent) for r in records]
    assert summary.min_exponent == (str(min(exps)) if exps else None)


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


# "exact": no low sum certifies, so every candidate takes the exact test;
# "all": up starts saturated, so every value is a candidate and low alone
# must never certify a value with a cofactor above the sieve
PLAN_OVERRIDES = {"exact": {"lam": -(10**9)}, "all": {"up": 255}}


@pytest.mark.parametrize("override", sorted(PLAN_OVERRIDES))
@pytest.mark.parametrize("coeffs, start, length, theta", ORACLE_EXAMPLES)
def test_candidates_decided_exactly(coeffs, start, length, theta, override,
                                    monkeypatch):
    plan = scan._plan
    fields = PLAN_OVERRIDES[override]
    monkeypatch.setattr(scan, "_plan",
                        lambda *args: plan(*args)._replace(**fields))
    monkeypatch.setattr(scan, "_WINDOW", 64)
    check_against_oracle(coeffs, start, length, theta)


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


@settings(max_examples=100, deadline=None)
@given(
    coeffs=st.lists(st.integers(-50, 50), min_size=1, max_size=4).filter(any),
    s=st.integers(-50, 50),
    p=st.sampled_from([2, 3, 5, 7, 1_999]),
    e=st.integers(1, 3),
    split=st.booleans(),
)
@example(coeffs=[1], s=0, p=1_999, e=1, split=False)  # x**2
def test_singular_class_matches_valuations(coeffs, s, p, e, split):
    # g = h (x - s)**2, so p | g'(s) and the class of s mod p**e takes the
    # general path: every n in it has v_p(g(n)) >= mu, exactly mu unless
    # n = r + t p**e (mod p**(e+1)) with t listed, and more if t is.  With
    # split (and always for p = 1999) the zeros of Q come from
    # Cantor-Zassenhaus, else from its values
    g = IntPoly(coeffs).multiply(IntPoly((s * s, -2 * s, 1)))
    dg = IntPoly(i * c for i, c in enumerate(g.coeffs) if i)
    m = p**e
    with pytest.MonkeyPatch.context() as mp:
        if split:
            mp.setattr(scan, "_CZ_FROM", 0)
        mu, ts = scan._node(g, dg, p, e, r := s % m)
    assert len(set(ts)) == len(ts)
    for t in range(p):
        values = [g.evaluate(r + (t + u * p) * m) for u in range(3)]
        vals = {valuation(v, p) for v in values if v}  # g(n) = 0 is no fault
        if t in ts:
            assert min(vals, default=mu + 1) > mu
        else:
            assert vals == {mu}


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
    shape=st.sampled_from(["plain", "content", "lead", "square"]),
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
@example(coeffs=[4, 1], p=1_999, shape="content", r=0, start=2, length=2_500)
def test_cantor_zassenhaus_roots_match_listing(coeffs, p, shape, r, start,
                                               length):
    # shapes: p | content (f = 0 mod p), p | lead (the degree drops mod p),
    # a repeated root r (times (x - r)**2), and p <= deg when p is small
    poly = IntPoly(coeffs)
    if shape == "content":
        poly = poly.scale(p)
    elif shape == "lead":
        poly = IntPoly(coeffs[:-1] + [coeffs[-1] * p])
    elif shape == "square":
        poly = poly.multiply(IntPoly((r * r, -2 * r, 1)))
    stop = start + length
    primes = sorted({2, 3, 5, p})
    want = listed_roots(poly, start, stop, primes)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scan, "_CZ_FROM", 0)  # split whatever p > deg f
        assert scan._prime_roots(poly, start, stop, primes) == want
