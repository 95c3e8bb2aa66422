"""Certificate verification.

Two admissibility rules:

  distinct   the factors are pairwise distinct positive integers, none
             exceeding n, multiplying to |P(n)|; such a list divides n!
             term by term.

  legendre   the factors multiply to |P(n)| and for every prime p the
             total valuation of the product stays within the valuation
             of n!, computed by the floor-sum formula.

verify() tries the distinct rule first and falls back to the legendre
rule only when the sole obstruction is a duplicated factor.

A certificate read from a file holds n and its factors as Decimals, the
base they are written in, so checking it converts no large integer to
binary; every check runs in the exact context numtheory.EXACT, where any
rounding raises.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from decimal import Decimal, localcontext

from .certificate import WitnessCertificate
from .numtheory import (
    DEFAULT_FACTOR_BUDGET,
    EXACT,
    FactorizationBudgetError,
    decimal_from_int,
    decimal_str,
    factorize,
    int_from_digits,
    log_ratio,
    nu_p_factorial,
)

__all__ = [
    "VerificationReport",
    "verify",
    "verify_distinct",
    "verify_legendre",
]


class VerificationReport(
    namedtuple(
        "VerificationReport",
        "accepted rule reason margins max_factor n exponent unverifiable_factor",
        defaults=(None,) * 6,
    )
):
    """Outcome of checking one certificate.

    margins maps each prime of the factorization (legendre rule only) to
    nu_p(n!) - nu_p(product), never negative on acceptance.
    max_factor is the largest factor and n the certificate's n, of the
    certificate's own type (int or Decimal); exponent is
    log(max factor)/log(n) to four decimal places.
    """

    __slots__ = ()

    def __new__(cls, accepted, rule, reason=None, margins=None, *rest, **fields):
        # a dict of its own for each report
        margins = {} if margins is None else margins
        return super().__new__(cls, accepted, rule, reason, margins, *rest, **fields)


def _report(cert: WitnessCertificate, rule: str, reason=None, **fields):
    # past the malformed check every report carries the largest factor's
    # size relative to n; it is accepted exactly when there is no reason
    mx = max(cert.factors)
    return VerificationReport(
        reason is None, rule, reason, max_factor=mx, n=cert.n,
        exponent=str(log_ratio(mx, cert.n)), **fields,
    )


def _product(values):
    """The product of values by a balanced product tree: neighbours are
    multiplied pairwise, round after round, so every multiplication is
    between operands of similar size and fast multiplication pays off
    (Bernstein, "Fast multiplication and its applications", 2008)."""
    values = list(values)
    while len(values) > 1:
        values = [math.prod(values[i:i + 2]) for i in range(0, len(values), 2)]
    return values[0]


def _value(poly, n):
    """|poly(n)|; for a Decimal n each coefficient comes across once by
    decimal_from_int, since Decimal arithmetic with an int operand
    converts it in quadratic time."""
    if not isinstance(n, Decimal):
        return abs(poly.evaluate(n))
    acc = Decimal(0)
    for c in reversed(poly.coeffs):
        acc = acc * n + decimal_from_int(c)
    return abs(acc)


def _as_int(x) -> int:
    # the legendre rule factors in ints; int(Decimal) is quadratic
    return int_from_digits(decimal_str(x)) if isinstance(x, Decimal) else x


def _product_mismatch(cert: WitnessCertificate, rule: str):
    """The product-mismatch report under rule, or None when the factors
    multiply to |P(n)|; both rules check this first."""
    if _product(cert.factors) == _value(cert.poly, cert.n):
        return None
    return _report(cert, rule, "product-mismatch")


def _distinct(cert: WitnessCertificate) -> VerificationReport:
    try:
        if any(f < 1 for f in cert.factors) or cert.n < 2:
            return VerificationReport(False, "distinct", "malformed")
        mismatch = _product_mismatch(cert, "distinct")
        if mismatch is not None:
            return mismatch
        if len(set(cert.factors)) != len(cert.factors):
            return _report(cert, "distinct", "duplicate-factor")
        if any(f > cert.n for f in cert.factors):
            return _report(cert, "distinct", "factor-exceeds-n")
        return _report(cert, "distinct")
    except (TypeError, AttributeError):
        return VerificationReport(False, "distinct", "malformed")


def _valuations(cert: WitnessCertificate, budget: int) -> VerificationReport:
    # the legendre rule past its product check
    totals: dict[int, int] = {}
    # each distinct factor is factored once, in list order, and weighted
    # by its multiplicity
    for f, times in Counter(cert.factors).items():
        if f == 1:
            continue
        try:
            fac = factorize(_as_int(f), budget)
        except FactorizationBudgetError:
            return _report(cert, "legendre", "unverifiable", unverifiable_factor=f)
        for p, e in fac.factors:
            totals[p] = totals.get(p, 0) + e * times
    n = _as_int(cert.n)
    margins = {}
    for p, e in sorted(totals.items()):
        cap = nu_p_factorial(p, n)
        margins[p] = cap - e
        if e > cap:
            return _report(
                cert, "legendre", "valuation-exceeds-factorial", margins=margins
            )
    return _report(cert, "legendre", margins=margins)


def verify_distinct(cert: WitnessCertificate) -> VerificationReport:
    """Check the distinct rule; reasons are product-mismatch,
    duplicate-factor, factor-exceeds-n, or malformed."""
    with localcontext(EXACT):
        return _distinct(cert)


def verify_legendre(
    cert: WitnessCertificate, budget: int = DEFAULT_FACTOR_BUDGET
) -> VerificationReport:
    """Check the legendre rule by factoring every listed factor.

    A factor that cannot be factored within the budget makes the
    certificate unverifiable (reported, not accepted)."""
    with localcontext(EXACT):
        return _product_mismatch(cert, "legendre") or _valuations(cert, budget)


def verify(
    cert: WitnessCertificate, budget: int = DEFAULT_FACTOR_BUDGET
) -> VerificationReport:
    """Distinct rule first; fall back to the legendre rule only when the
    single obstruction is a duplicated factor."""
    with localcontext(EXACT):
        report = _distinct(cert)
        if report.reason == "duplicate-factor":
            # the distinct rule checked the product before the duplicates
            return _valuations(cert, budget)
        return report
