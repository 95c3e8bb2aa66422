"""Certificate verification: distinct rule, legendre rule, dispatch."""

import decimal
import importlib
import json
import math
import random
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from factoridiv import cli, numtheory
from factoridiv.construct import WitnessCertificate, construct_quadratic
from factoridiv.intpoly import IntPoly
from factoridiv.numtheory import (
    decimal_digits,
    decimal_log_ratio,
    next_prime,
    nu_p_factorial,
)
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


def test_verify_checks_the_product_once_on_a_duplicate(monkeypatch):
    calls = []
    real = verify_module._product_mismatch

    def counted(cert, rule):
        calls.append(rule)
        return real(cert, rule)

    monkeypatch.setattr(verify_module, "_product_mismatch", counted)
    report = verify(cert(IntPoly((0, 0, 1)), 6, (6, 6)))
    assert report.accepted and report.rule == "legendre"
    assert calls == ["distinct"]
    # verify_legendre on its own still checks it
    calls.clear()
    report = verify_legendre(cert(IntPoly((0, 0, 1)), 6, (6, 7)))
    assert report.reason == "product-mismatch" and calls == ["legendre"]


def test_product_tree_matches_prod():
    rng = random.Random(3)
    for k in (1, 2, 3, 4, 5, 7, 8, 9, 100, 257):
        xs = [rng.getrandbits(rng.choice((1, 8, 100, 3000))) for _ in range(k)]
        assert verify_module._product(xs) == math.prod(xs)
        with decimal.localcontext(numtheory.EXACT):
            ds = [numtheory.decimal_from_int(x) for x in xs]
            assert verify_module._product(ds) == numtheory.decimal_from_int(
                math.prod(xs))


def read(c):
    """c as verify reads it from a certificate file: n and the factors as
    Decimals."""
    return cli.cert_from_dict(json.loads(json.dumps(cli.cert_to_dict(c))))


def linear_cert(n, factors, scale=1, cubic=0):
    # P(x) = cubic*x**3 + scale*x + c, with c chosen so P(n) = prod(factors)
    value = math.prod(factors)
    poly = IntPoly((value - scale * n - cubic * n**3, scale, 0, cubic))
    return cert(poly, n, factors, tag="linear")


def same_verdicts(c, budget=2_000):
    """verify(c) and verify of c read from a file agree on every field,
    and so do the digit counts of n."""
    as_read = read(c)
    want = verify(c, budget)
    assert verify(as_read, budget) == want
    assert decimal_digits(as_read.n) == decimal_digits(c.n)
    return want


@settings(max_examples=60, deadline=None)
@given(
    digits=st.sampled_from([1, 2, 5, 12, 641, 900, 1500]),
    parts=st.integers(1, 4),
    change=st.sampled_from(["none", "mismatch", "duplicate", "exceeds", "one"]),
    scale=st.integers(-3, 3).filter(bool),
    cubic=st.integers(-1, 1),
    seed=st.integers(0, 2**32),
)
def test_file_read_and_int_certificates_verify_alike(
    digits, parts, change, scale, cubic, seed
):
    rng = random.Random(seed)
    n = rng.randrange(max(2, 10 ** (digits - 1)), 10**digits)
    factors = [rng.randrange(1, n + 1) for _ in range(parts)]
    factors += {"duplicate": factors[:1], "exceeds": [n + rng.randrange(1, 9)],
                "one": [1]}.get(change, [])
    c = linear_cert(n, factors, scale, cubic)
    if change == "mismatch":
        c = c._replace(factors=c.factors[:-1] + (c.factors[-1] + 1,))
    same_verdicts(c)


def test_a_low_digit_of_a_long_factor_is_checked():
    # 28-digit rounding would leave these products equal
    rng = random.Random(11)
    f1, f2 = (rng.randrange(10**9_999, 10**10_000) for _ in range(2))
    c = linear_cert(max(f1, f2) + 1, (f1, f2))
    assert same_verdicts(c).accepted
    for i in (0, 1):
        factors = list(c.factors)
        factors[i] += 1 if factors[i] % 10 != 9 else -1
        report = same_verdicts(c._replace(factors=tuple(factors)))
        assert (report.accepted, report.reason) == (False, "product-mismatch")
    report = same_verdicts(c._replace(n=c.n + 1))
    assert (report.accepted, report.reason) == (False, "product-mismatch")


def test_a_long_coefficient_verifies_alike():
    rng = random.Random(12)
    f1, f2 = (rng.randrange(10**9_999, 10**10_000) for _ in range(2))
    c = linear_cert(max(f1, f2) + 1, (f1, f2))
    assert decimal_digits(abs(c.poly.coeffs[0])) >= 19_999
    assert same_verdicts(c).accepted
    low = IntPoly((c.poly.coeffs[0] + 1, 1))
    report = same_verdicts(c._replace(poly=low))
    assert (report.accepted, report.reason) == (False, "product-mismatch")


class _AnyDecimal(type):
    def __instancecheck__(cls, obj):
        return isinstance(obj, decimal.Decimal)


class _WatchedDecimal(decimal.Decimal, metaclass=_AnyDecimal):
    # records the digits of every int made into a Decimal
    ints = []

    def __new__(cls, value="0", context=None):
        if isinstance(value, int):
            _WatchedDecimal.ints.append(decimal_digits(abs(value)))
        return decimal.Decimal(value, context)


def test_no_long_int_is_made_into_a_decimal(tmp_path, monkeypatch, capsys):
    # Decimal(int) is quadratic on 3.10 and 3.11
    for module in (cli, numtheory, verify_module):
        monkeypatch.setattr(module, "Decimal", _WatchedDecimal)
    rng = random.Random(13)
    f1, f2 = (rng.randrange(10**2_999, 10**3_000) for _ in range(2))
    certs = [
        linear_cert(max(f1, f2) + 1, (f1, f2), cubic=1),  # long coefficients
        linear_cert(10**700 + 1, (6, 6), scale=-2),  # legendre rule
        cert(IntPoly((1,)), 2**20_000, (2,)),  # log(2)/log(n) is a tie
    ]
    _WatchedDecimal.ints = []
    for c in certs:
        verify(c)
    path = tmp_path / "c.json"
    path.write_text(json.dumps([cli.cert_to_dict(c) for c in certs]))
    assert cli.main(["verify", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "cert 0: ACCEPT rule=distinct n_digits=3000 exponent=1.0000",
        "cert 1: ACCEPT rule=legendre n_digits=701 exponent=0.0011",
        "cert 2: REJECT rule=distinct reason=product-mismatch",
    ]
    assert _WatchedDecimal.ints and max(_WatchedDecimal.ints) <= 640
