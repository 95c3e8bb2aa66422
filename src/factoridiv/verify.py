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
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple

from .certificate import WitnessCertificate
from .numtheory import (
    DEFAULT_FACTOR_BUDGET,
    FactorizationBudgetError,
    decimal_log_ratio,
    factorize,
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
    max_factor is the largest factor and n the certificate's n;
    exponent is log(max factor)/log(n) to four decimal places.
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
        exponent=str(decimal_log_ratio(mx, cert.n)), **fields,
    )


def _product_mismatch(cert: WitnessCertificate, rule: str):
    """The product-mismatch report under rule, or None when the factors
    multiply to |P(n)|; both rules check this first."""
    if math.prod(cert.factors) == abs(cert.poly.evaluate(cert.n)):
        return None
    return _report(cert, rule, "product-mismatch")


def verify_distinct(cert: WitnessCertificate) -> VerificationReport:
    """Check the distinct rule; reasons are product-mismatch,
    duplicate-factor, factor-exceeds-n, or malformed."""
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


def verify_legendre(
    cert: WitnessCertificate, budget: int = DEFAULT_FACTOR_BUDGET
) -> VerificationReport:
    """Check the legendre rule by factoring every listed factor.

    A factor that cannot be factored within the budget makes the
    certificate unverifiable (reported, not accepted)."""
    mismatch = _product_mismatch(cert, "legendre")
    if mismatch is not None:
        return mismatch
    totals: dict[int, int] = {}
    # each distinct factor is factored once, in list order, and weighted
    # by its multiplicity
    for f, times in Counter(cert.factors).items():
        if f == 1:
            continue
        try:
            fac = factorize(f, budget)
        except FactorizationBudgetError:
            return _report(cert, "legendre", "unverifiable", unverifiable_factor=f)
        for p, e in fac.factors:
            totals[p] = totals.get(p, 0) + e * times
    margins = {}
    for p, e in sorted(totals.items()):
        cap = nu_p_factorial(p, cert.n)
        margins[p] = cap - e
        if e > cap:
            return _report(
                cert, "legendre", "valuation-exceeds-factorial", margins=margins
            )
    return _report(cert, "legendre", margins=margins)


def verify(
    cert: WitnessCertificate, budget: int = DEFAULT_FACTOR_BUDGET
) -> VerificationReport:
    """Distinct rule first; fall back to the legendre rule only when the
    single obstruction is a duplicated factor."""
    report = verify_distinct(cert)
    if not report.accepted and report.reason == "duplicate-factor":
        return verify_legendre(cert, budget)
    return report
