"""Acceptance gate: one test per release criterion.

Run with `pytest tests/test_acceptance.py -v` to get one pass/fail line
per criterion; each test also prints its measured values (visible with
-s or in failure output).  Every check is exact integer arithmetic
except where a stated runtime bound applies.
"""

import itertools
import json
import math
import time
from decimal import Decimal
from fractions import Fraction

from factoridiv import cli, construct
from factoridiv.construct import (
    ConstructionBudgetError,
    construct_binomial_power,
    construct_chebyshev,
    construct_cubic,
    construct_cyclotomic,
    construct_quadratic,
    construct_quartic_biquadratic,
    construct_quartic_cubic_linear,
)
from factoridiv.intpoly import IntPoly
from factoridiv.numtheory import euler_phi, nu_p_factorial, sieve_primes
from factoridiv.pell import fundamental_solution, indices_with_s_divisible
from factoridiv.scan import record_json, scan_range
from factoridiv.specialpoly import (
    chebyshev_factor_values,
    chebyshev_t,
    chebyshev_t_value,
    cyclotomic,
    psi,
)
from factoridiv.verify import verify, verify_distinct


def value_at(poly, t):
    """poly(t) for a rational t, by Horner over Fraction."""
    acc = Fraction(0)
    for c in reversed(poly.coeffs):
        acc = acc * t + c
    return acc


X2P1 = IntPoly((1, 0, 1))
CUBIC_ONES = IntPoly((1, 1, 1, 1))

assert __debug__, "acceptance requires assertions enabled"


def factorial_divides(n, value):
    return math.factorial(n) % value == 0


def multiplicity(m, p):
    """Exponent of p in the positive integer m, by repeated division."""
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


def smoothness(cert):
    """log(max factor)/log(n), as verify reports it."""
    return Decimal(verify(cert).exponent)


def test_a01_quadratic_family(tmp_path):
    started = time.perf_counter()
    out = tmp_path / "quadratic.json"
    code = cli.main(
        ["construct", "--class", "quadratic", "--poly", "1,0,1",
         "--count", "5", "--out", str(out)]
    )
    elapsed = time.perf_counter() - started
    assert code == 0
    entries = json.loads(out.read_text())
    assert len(entries) >= 5
    assert entries[0]["n"] == "21"
    assert sorted(int(f) for f in entries[0]["factors"]) == [2, 13, 17]
    certs = construct_quadratic(X2P1, 5)
    for cert in certs:
        assert verify_distinct(cert).accepted
        assert cert.n <= 5000
        assert factorial_divides(cert.n, abs(X2P1.evaluate(cert.n)))
    assert elapsed < 1.0
    print(f"[PASS] a01 quadratic: first n=21 {certs[0].factors}, "
          f"5 certificates in {elapsed:.3f}s")


def test_a02_cubic_splitting():
    started = time.perf_counter()
    rows = construct._tau_rows(CUBIC_ONES, construct._TAUS_TOP)
    pieces = next(construct._schinzel_candidates(CUBIC_ONES, 1, rows))
    assert CUBIC_ONES.compose(pieces.g) == (
        pieces.f1.multiply(pieces.f2).scale(pieces.content)
    )
    outcome = None
    try:
        certs = construct_cubic(CUBIC_ONES)
    except ConstructionBudgetError as exc:
        assert "blocking_pell_d" in exc.report or "reason" in exc.report
        outcome = f"budget report: {exc.report}"
        certs = exc.partial
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    for cert in certs:
        report = verify(cert)
        assert report.accepted
        if cert.n > 10**6:
            assert max(cert.factors) ** 5 < cert.n**4
        outcome = (f"n with {len(str(cert.n))} digits, "
                   f"exponent {report.exponent}")
    assert outcome is not None
    print(f"[PASS] a02 cubic: F1={pieces.f1} at tau={pieces.tau}, "
          f"{outcome}, {elapsed:.2f}s")


def test_a03_quartic_cases():
    lin = IntPoly((1, 1))
    case1 = construct_quartic_cubic_linear(CUBIC_ONES, lin)[0]
    assert verify_distinct(case1).accepted
    assert len(set(case1.factors)) == len(case1.factors)
    assert all(f < case1.n for f in case1.factors)
    p = int(case1.params["p"])
    assert lin.evaluate(case1.n) % p == 0 and p in case1.factors

    case2 = construct_quartic_biquadratic(IntPoly((1, 2, 1)), IntPoly((1, 1, 1)))[0]
    assert verify_distinct(case2).accepted
    assert len(set(case2.factors)) == len(case2.factors)
    assert all(f < case2.n for f in case2.factors)
    # the in-construction congruence identities are assert statements;
    # reaching emission with assertions enabled means they all held
    print(f"[PASS] a03 quartics: case1 n has {len(str(case1.n))} digits "
          f"(p={p}), case2 n has {len(str(case2.n))} digits")


def test_a04_binomial_family():
    cert = construct_binomial_power(2, [2])[0]
    assert cert.n == 64
    assert sorted(cert.factors) == [3, 5, 13, 21]
    prod = 1
    for f in cert.factors:
        prod *= f
    assert prod == 4095 == 64 * 64 - 1
    assert verify(cert).accepted
    assert factorial_divides(64, 4095)

    for m in range(1, 5):
        for swept in construct_binomial_power(m, [2, 3, 4, 5]):
            assert verify(swept).accepted

    # the ratio trend needs feasible n; orders above 1 blow past any
    # digit budget at ratio 4, so the trend is certified at m = 1
    for s in (2, 3, 4, 5):
        smooth = []
        for ratio in (1, 2, 4):
            c = construct_binomial_power(1, [s], Fraction(ratio))[0]
            assert verify(c).accepted
            smooth.append(smoothness(c))
        assert smooth[0] > smooth[1] > smooth[2], (s, smooth)
    partial = [
        smoothness(construct_binomial_power(2, [2], Fraction(r))[0])
        for r in (1, 2)
    ]
    assert partial[0] > partial[1]
    print(f"[PASS] a04 binomial: n=64 factors {tuple(sorted(cert.factors))}, "
          f"m<=4 s<=5 verified, trend at m=1 s=2..5 strictly decreasing")


def test_a05_chebyshev_family():
    started = time.perf_counter()
    pairs = chebyshev_factor_values(210, 2)
    raw = 1
    for _, v in pairs:
        raw *= v
    assert raw == 2 * chebyshev_t_value(210, 2)

    cert = construct_chebyshev([2], [2])[0]
    elapsed = time.perf_counter() - started
    assert cert.n == chebyshev_t_value(105, 2)
    assert verify_distinct(cert).accepted
    assert all(f < cert.n for f in cert.factors)
    assert elapsed < 10.0
    smooth = smoothness(cert)
    assert smooth < Decimal("0.95")
    higher = smoothness(
        construct_chebyshev([2], [2], Fraction(9, 8))[0]
    )
    assert higher < smooth
    print(f"[PASS] a05 chebyshev: raw product = 2*T_210(2), "
          f"smoothness {smooth} -> {higher} at ratio 9/8, {elapsed:.2f}s")


def test_a06_identity_suites():
    started = time.perf_counter()
    for n in range(1, 201):
        prod = IntPoly((1,))
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod.multiply(cyclotomic(d))
        assert prod == IntPoly((-1,) + (0,) * (n - 1) + (1,))
    for n in range(3, 121):
        half = euler_phi(n) // 2
        for t in (Fraction(2), Fraction(7, 3)):
            lhs = value_at(psi(n), t + 1 / t) * t**half
            assert lhs == value_at(cyclotomic(n), t)
    for m in range(13):
        for n in range(13):
            assert chebyshev_t(m).compose(chebyshev_t(n)) == chebyshev_t(m * n)
    for n in range(1, 101):
        prod = 1
        for _, v in chebyshev_factor_values(n, 2):
            prod *= v
        assert prod == 2 * chebyshev_t_value(n, 2)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    print(f"[PASS] a06 identities: cyclotomic n<=200, psi n<=120, "
          f"composition m,n<=12, psi-product n<=100 in {elapsed:.2f}s")


def test_a07_legendre_valuations():
    checked = 0
    for p in sieve_primes(50):
        running = 0
        for n in range(1, 501):
            running += multiplicity(n, p)
            assert nu_p_factorial(p, n) == running
            checked += 1
    assert nu_p_factorial(2, 10) == 8
    print(f"[PASS] a07 legendre: {checked} (p, n) pairs with p<=50, n<=500; "
          f"nu_2(10!)=8")


def test_a08_pell_solutions():
    from sympy.solvers.diophantine.diophantine import diop_DN

    assert fundamental_solution(2) == (3, 2)
    assert fundamental_solution(3) == (2, 1)
    for d in range(2, 1001):
        if math.isqrt(d) ** 2 == d:
            continue
        sols = diop_DN(d, 1)
        assert sols
        assert fundamental_solution(d) == min(
            (abs(x), abs(y)) for x, y in sols
        )

    pairs = 0
    for d in range(2, 101):
        if math.isqrt(d) ** 2 == d:
            continue
        fund = fundamental_solution(d)
        r1, s1 = fund
        for m in range(2, 31):
            got = list(itertools.islice(indices_with_s_divisible(d, fund, m), 30))
            # independent oracle: step (r, s) mod m by the multiplication law
            r1m, s1m = r1 % m, s1 % m
            direct, k, r, s = [], 0, 1 % m, 0
            while len(direct) < 30:
                if s == 0:
                    direct.append(k)
                r, s = (r * r1m + d * s * s1m) % m, (r * s1m + s * r1m) % m
                k += 1
            assert got == direct, (d, m)
            pairs += 1
    print(f"[PASS] a08 pell: fundamentals match oracle for D<=1000, "
          f"divisibility indices match on {pairs} (D, m) pairs")


def test_a09_scanner():
    started = time.perf_counter()
    theta = Fraction(14, 25)
    records, summary = scan_range(X2P1, 2, 10_000, theta)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    assert summary.unresolved == 0

    primes = sieve_primes(10_000)
    expected = {}
    for n in range(2, 10_001):
        rem = n * n + 1
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
            expected[n] = p_plus
    assert {r.n: r.p_plus for r in records} == expected
    assert expected[239] == 13

    par_records, par_summary = scan_range(X2P1, 2, 10_000, theta, jobs=4)
    assert [record_json(r) for r in par_records] == [
        record_json(r) for r in records
    ]
    assert par_summary == summary
    print(f"[PASS] a09 scanner: {summary.hits} hits match the factorization "
          f"oracle on [2, 10000], n=239 hit with P+=13, {elapsed:.2f}s "
          f"single-threaded, jobs=4 run byte-identical")


def test_a10_soundness_sweep():
    certs = []
    certs += construct_quadratic(X2P1, 8)
    certs += construct_quadratic(IntPoly((1, 1, 1)), 5)
    certs += construct_quadratic(IntPoly((3, 0, 2)), 3)
    for m in (1, 2, 3):
        for s in (2, 3):
            certs += construct_binomial_power(m, [s])
            for ratio in (2, 4) if m == 1 else ():
                certs += construct_binomial_power(m, [s], Fraction(ratio))
    for m in (1, 2):
        certs += construct_cyclotomic(m, [2, 3])
    certs += construct_cubic(CUBIC_ONES)
    certs += construct_chebyshev([2], [2])

    small = [c for c in certs if c.n <= 5000]
    assert len(small) >= 15, "sweep needs witnesses in range"
    accepted = 0
    for cert in small:
        if verify(cert).accepted:
            value = abs(cert.poly.evaluate(cert.n))
            assert factorial_divides(cert.n, value), (
                f"verifier accepted n={cert.n} but {value} does not "
                f"divide {cert.n}!"
            )
            accepted += 1
    assert accepted >= 15
    print(f"[PASS] a10 soundness: {accepted} accepted certificates with "
          f"n <= 5000 all pass the factorial oracle "
          f"({len(certs)} constructed in total)")
