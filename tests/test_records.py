"""Value semantics of the package's record types.

IntPoly is an immutable slotted class; the other public records are named
tuples, so they also compare equal to plain tuples of the same fields.
"""

import copy
import pickle
from decimal import Decimal

import pytest

from factoridiv import (
    ScanRecord,
    ScanSummary,
    VerificationReport,
    WitnessCertificate,
    schinzel_pieces,
    verify,
)
from factoridiv.intpoly import ContentSplit, IntPoly
from factoridiv.numtheory import PrimeFactorization, factorize

X2P1 = IntPoly((1, 0, 1))


def cert():
    return WitnessCertificate(X2P1, "quadratic", 21, (2, 13, 17), {"q": "2"}, "distinct")


def records():
    return [
        X2P1,
        X2P1.scale(-3).content_split(),
        factorize(-360),
        cert(),
        schinzel_pieces(IntPoly((1, 1, 1, 1))),
        ScanRecord(7, 50, 5, "0.8271"),
        ScanSummary(19, 1, 0, "0.8271"),
        verify(cert()),
    ]


@pytest.mark.parametrize("rec", records(), ids=lambda r: type(r).__name__)
def test_records_are_immutable(rec):
    field = "coeffs" if isinstance(rec, IntPoly) else rec._fields[0]
    with pytest.raises(AttributeError):
        setattr(rec, field, 1)
    with pytest.raises(AttributeError):
        rec.extra = 1
    with pytest.raises(AttributeError):
        delattr(rec, field)


def test_equal_intpolys_hash_equal():
    a, b = IntPoly((1, 2, 0, 0)), IntPoly(iter([1, 2]))
    assert a is not b and a == b and hash(a) == hash(b)
    assert {a: "p"}[b] == "p"
    assert len({a, b, IntPoly((1, 2, 3))}) == 2
    assert a != (1, 2) and a != IntPoly((2, 1))


@pytest.mark.parametrize("proto", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_round_trips(proto):
    # scan --jobs sends polynomials to its pool workers and records back
    for rec in (X2P1, IntPoly(), ScanRecord(7, 50, 5, "0.8271"), cert()):
        back = pickle.loads(pickle.dumps(rec, proto))
        assert back == rec and type(back) is type(rec)


def test_copies_are_equal():
    for rec in records():
        assert copy.copy(rec) == rec
        assert copy.deepcopy(rec) == rec


def test_reprs():
    assert repr(ScanRecord(7, 50, 5, "0.8271")) == (
        "ScanRecord(n=7, value=50, p_plus=5, exponent='0.8271')"
    )
    assert repr(verify(cert())) == (
        "VerificationReport(accepted=True, rule='distinct', reason=None, "
        "margins={}, max_factor=17, n=21, exponent='0.9306', "
        "unverifiable_factor=None)"
    )
    assert repr(VerificationReport(False, "distinct", "malformed")) == (
        "VerificationReport(accepted=False, rule='distinct', reason='malformed', "
        "margins={}, max_factor=None, n=None, exponent=None, "
        "unverifiable_factor=None)"
    )
    assert repr(X2P1) == "IntPoly([1, 0, 1])"


@pytest.mark.parametrize(
    "n, factors, mode, message",
    [
        (1, (2,), "distinct", "n must be an integer >= 2"),
        ("21", (2,), "distinct", "n must be an integer >= 2"),
        (5, (), "distinct", "empty factor list"),
        (5, (2, 0), "distinct", "factors must be positive integers"),
        (5, (2, "3"), "distinct", "factors must be positive integers"),
        (5, (2,), "nonsense", "unknown mode hint 'nonsense'"),
    ],
)
def test_certificate_checks(n, factors, mode, message):
    with pytest.raises(ValueError) as info:
        WitnessCertificate(X2P1, "quadratic", n, factors, {}, mode)
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        cert()._replace(n=n, factors=factors, mode_hint=mode)
    assert str(info.value) == message


MIXED = "n and factors must be all ints or all Decimals"


@pytest.mark.parametrize(
    "n, factors, message",
    [
        (Decimal("NaN"), (Decimal(2),), "n must be an integer >= 2"),
        (Decimal("sNaN"), (Decimal(2),), "n must be an integer >= 2"),
        (Decimal("Infinity"), (Decimal(2),), "n must be an integer >= 2"),
        (Decimal("21.5"), (Decimal(2),), "n must be an integer >= 2"),
        (Decimal(1), (Decimal(2),), "n must be an integer >= 2"),
        (Decimal(-21), (Decimal(2),), "n must be an integer >= 2"),
        (Decimal(21), (Decimal("NaN"),), "factors must be positive integers"),
        (Decimal(21), (-Decimal("Infinity"),), "factors must be positive integers"),
        (Decimal(21), (Decimal("2.5"),), "factors must be positive integers"),
        (Decimal(21), (Decimal(0),), "factors must be positive integers"),
        (Decimal(21), (Decimal("-0"),), "factors must be positive integers"),
        (Decimal(21), (Decimal(-2),), "factors must be positive integers"),
        (Decimal(21), (Decimal(2), 13), MIXED),
        (21, (Decimal(2),), MIXED),
    ],
)
def test_certificate_checks_decimals(n, factors, message):
    with pytest.raises(ValueError) as info:
        WitnessCertificate(X2P1, "quadratic", n, factors, {}, "distinct")
    assert str(info.value) == message


def test_certificate_takes_integral_decimals():
    # verify reads certificate files in Decimal; an integral Decimal may
    # carry an exponent or trailing zeros
    n, factors = Decimal("2.1E+1"), (Decimal("2.00"), Decimal(13), Decimal(17))
    c = WitnessCertificate(X2P1, "quadratic", n, factors, {}, "distinct")
    assert c == cert()._replace(params={}) and c.n is n
    report = verify(c)
    assert report.accepted and report.exponent == "0.9306"
    assert type(report.n) is type(report.max_factor) is Decimal


def test_certificate_keeps_factors_as_a_tuple():
    c = WitnessCertificate(
        poly=X2P1, class_tag="quadratic", n=21, factors=[2, 13, 17],
        params={}, mode_hint="legendre",
    )
    assert c.factors == (2, 13, 17) and isinstance(c.factors, tuple)
    assert c == cert()._replace(params={}, mode_hint="legendre")


def test_default_reports_do_not_share_margins():
    a = VerificationReport(False, "legendre")
    b = VerificationReport(False, "legendre")
    a.margins[2] = 1
    assert b.margins == {} and a.margins is not b.margins
    assert VerificationReport(True, "legendre", margins={3: 0}).margins == {3: 0}


def test_records_are_tuples():
    # a stated API change: records compare equal to plain tuples
    assert ScanRecord(7, 50, 5, "0.8271") == (7, 50, 5, "0.8271")
    assert factorize(12) == (((2, 2), (3, 1)), 1)
    assert PrimeFactorization(((2, 2), (3, 1))).value == 12
    assert ContentSplit(-3, X2P1) == (-3, X2P1)
