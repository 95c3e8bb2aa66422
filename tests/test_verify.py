"""Certificate verification: distinct rule, legendre rule, dispatch."""

import importlib
import math
from types import SimpleNamespace

from factoridiv.construct import WitnessCertificate, construct_quadratic
from factoridiv.intpoly import IntPoly
from factoridiv.numtheory import decimal_log_ratio, next_prime, nu_p_factorial
from factoridiv.verify import verify, verify_distinct, verify_legendre

# the module, which factoridiv shadows with its verify function
verify_module = importlib.import_module("factoridiv.verify")
X2P1 = IntPoly((1, 0, 1))
M61 = 2**61 - 1


def cert(poly, n, factors, mode="distinct", tag="quadratic"):
    return WitnessCertificate(poly, tag, n, tuple(factors), {}, mode)


def test_distinct_accepts_constructed():
    c = construct_quadratic(X2P1, 1)[0]
    report = verify_distinct(c)
    assert report.accepted
    assert report.rule == "distinct"
    assert report.reason is None
    assert (report.max_factor, report.n) == (17, 21)
    assert report.exponent == str(decimal_log_ratio(17, 21))


def test_distinct_reason_priority():
    # wrong product comes before anything else
    r = verify_distinct(cert(X2P1, 21, (2, 13, 19)))
    assert (r.accepted, r.reason) == (False, "product-mismatch")
    # right product with a duplicate
    r = verify_distinct(cert(IntPoly((0, 0, 1)), 6, (6, 6)))
    assert (r.accepted, r.reason) == (False, "duplicate-factor")
    # right product, distinct, but a factor above n
    r = verify_distinct(cert(X2P1, 3, (10,)))
    assert (r.accepted, r.reason) == (False, "factor-exceeds-n")
    # duplicate wins over exceeds-n so the legendre fallback can run
    r = verify_distinct(cert(IntPoly((100,)), 5, (10, 10)))
    assert (r.accepted, r.reason) == (False, "duplicate-factor")


def test_distinct_malformed():
    fake = SimpleNamespace(
        poly=X2P1, n=21, factors=("442",), params={}, mode_hint="distinct"
    )
    r = verify_distinct(fake)
    assert (r.accepted, r.reason) == (False, "malformed")
    assert verify(fake).reason == "malformed"


def test_legendre_accepts_composite_factor():
    c = cert(X2P1, 21, (442,), mode="legendre")
    report = verify_legendre(c)
    assert report.accepted and report.rule == "legendre"
    # 442 = 2 * 13 * 17; margins are nu_p(21!) - nu_p
    assert report.margins == {
        2: nu_p_factorial(2, 21) - 1,
        13: nu_p_factorial(13, 21) - 1,
        17: nu_p_factorial(17, 21) - 1,
    }
    assert report.margins[2] == 17
    assert min(report.margins.values()) >= 0


def test_legendre_rejects_excess_valuation():
    report = verify_legendre(cert(X2P1, 3, (10,)))
    assert (report.accepted, report.reason) == (False, "valuation-exceeds-factorial")
    assert report.margins[5] == -1


def test_legendre_product_cross_check():
    report = verify_legendre(cert(X2P1, 21, (441,)))
    assert (report.accepted, report.reason) == (False, "product-mismatch")


def test_legendre_unverifiable_within_budget():
    big = M61 * next_prime(2**62)
    c = cert(IntPoly((big,)), 100, (big,), mode="legendre")
    report = verify_legendre(c, budget=20_000)
    assert not report.accepted
    assert report.reason == "unverifiable"
    assert report.unverifiable_factor == big
    assert report.exponent is not None


def test_legendre_factors_each_distinct_factor_once(monkeypatch):
    calls = []
    real = verify_module.factorize

    def counted(f, *args):
        calls.append(f)
        return real(f, *args)

    monkeypatch.setattr(verify_module, "factorize", counted)
    factors = (12, 18, 12, 1, 18, 12)
    c = cert(IntPoly((math.prod(factors),)), 30, factors, mode="legendre")
    report = verify_legendre(c)
    assert calls == [12, 18]
    # 2**8 3**7 against nu_2(30!) = 26 and nu_3(30!) = 14
    assert report.accepted and report.margins == {2: 18, 3: 7}
    # the first factor in list order that fails is named
    big = M61 * next_prime(2**62)
    other = next_prime(2**61) * next_prime(2**62)
    factors = (6, other, big, 6, other)
    calls.clear()
    c = cert(IntPoly((math.prod(factors),)), 100, factors, mode="legendre")
    report = verify_legendre(c, budget=20_000)
    assert (report.reason, report.unverifiable_factor) == ("unverifiable", other)
    assert calls == [6, other]


def test_dispatch_falls_back_on_duplicates_only():
    # duplicate with valid valuations: accepted under the legendre rule
    c = cert(IntPoly((0, 0, 1)), 6, (6, 6))
    report = verify(c)
    assert report.accepted and report.rule == "legendre"
    # duplicate whose valuations overflow the factorial: final reject
    c = cert(IntPoly((0, 0, 1)), 4, (4, 4))
    assert math.factorial(4) % 16 != 0
    report = verify(c)
    assert (report.accepted, report.rule) == (False, "legendre")
    assert report.reason == "valuation-exceeds-factorial"
    # exceeds-n without duplication stays a distinct-rule reject
    report = verify(cert(X2P1, 3, (10,)))
    assert (report.accepted, report.rule) == (False, "distinct")
    assert report.reason == "factor-exceeds-n"


def test_legendre_matches_factorial_oracle_small():
    # the legendre rule is exact for a single-factor certificate:
    # acceptance iff P(n) divides n!
    for n in range(2, 40):
        value = X2P1.evaluate(n)
        c = cert(X2P1, n, (value,), mode="legendre")
        truth = math.factorial(n) % value == 0
        assert verify_legendre(c).accepted == truth, n
        # the dispatcher may reject more (no fallback for oversized
        # factors) but must never accept a false claim
        if verify(c).accepted:
            assert truth, n
