"""The witness certificate: n together with a factor list for P(n).

verify and scan read certificates through this module alone, so the
checking path imports none of the constructors' search code.
"""

from collections import namedtuple
from decimal import Decimal

__all__ = ["WitnessCertificate"]


def _integer(x) -> bool:
    # verify checks a certificate read from a file in Decimal
    if isinstance(x, Decimal):
        return x.is_finite() and x == x.to_integral_value()
    return isinstance(x, int)


class WitnessCertificate(
    namedtuple("WitnessCertificate", "poly class_tag n factors params mode_hint")
):
    """A claim that the factor list multiplies to |poly(n)|.

    The claim itself is checked by the verify module; construction only
    enforces structural sanity so that tampered certificates remain
    representable (and rejectable).  n and the factors are all ints or
    all integral Decimals.
    """

    __slots__ = ()

    def __new__(cls, poly, class_tag, n, factors, params, mode_hint):
        if not _integer(n) or n < 2:
            raise ValueError("n must be an integer >= 2")
        if not factors:
            raise ValueError("empty factor list")
        for f in factors:
            if not _integer(f) or f < 1:
                raise ValueError("factors must be positive integers")
            if isinstance(f, Decimal) != isinstance(n, Decimal):
                raise ValueError("n and factors must be all ints or all Decimals")
        if mode_hint not in ("distinct", "legendre"):
            raise ValueError(f"unknown mode hint {mode_hint!r}")
        return super().__new__(
            cls, poly, class_tag, n, tuple(factors), params, mode_hint
        )

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make; check its result too
        return cls(*iterable)
