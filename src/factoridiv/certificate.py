"""The witness certificate: n together with a factor list for P(n), and
the JSON file format that holds a list of them.

verify reads certificates through this module alone, so the checking
path imports none of the constructors' search code.
"""

import json
from collections import namedtuple
from decimal import Decimal

from .intpoly import IntPoly
from .numtheory import decimal_from_int, decimal_str, int_from_digits

__all__ = ["WitnessCertificate", "MAX_DIGITS", "cert_to_dict",
           "cert_from_dict", "read_entries"]

CERT_VERSION = 1

# the most decimal digits an integer of a certificate may have; cli.main
# raises Python's int_max_str_digits to it
MAX_DIGITS = 2_000_000


def _integer(x) -> bool:
    # verify checks a certificate read from a file in Decimal; a bool is an
    # int to isinstance, but cert_to_dict would write it as "True"
    if isinstance(x, Decimal):
        return x.is_finite() and x == x.to_integral_value()
    return isinstance(x, int) and not isinstance(x, bool)


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


def cert_to_dict(cert: WitnessCertificate) -> dict:
    return {
        "v": CERT_VERSION,
        "class": cert.class_tag,
        "poly": [decimal_str(c) for c in cert.poly.coeffs],
        "n": decimal_str(cert.n),
        "factors": [decimal_str(f) for f in cert.factors],
        "params": dict(cert.params),
        "mode": cert.mode_hint,
    }


def _plain(value) -> bool:
    # a string of plain digits within the format bound, which parses in
    # subquadratic time whatever int_max_str_digits is
    return (isinstance(value, str) and len(value) <= MAX_DIGITS
            and value.isascii() and value.isdigit())


def _int(value) -> int:
    # a JSON float or boolean is no integer, though int() would take it;
    # every string but a plain one, over-long ones included, goes to int()
    # with its syntax and error messages
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"expected an integer, got {type(value).__name__}")
    return int_from_digits(value) if _plain(value) else int(value)


def _decimal(value) -> Decimal:
    # n and the factors are checked in decimal, the base they are written
    # in: Decimal() reads plain digits in linear time; anything else is
    # read by _int, with its checks and messages, and brought across
    return Decimal(value) if _plain(value) else decimal_from_int(_int(value))


def _json_int(literal: str) -> int:
    # json would parse an integer literal with int(), quadratic on 3.11
    return -_int(literal[1:]) if literal.startswith("-") else _int(literal)


def _params(value) -> dict:
    # verify never reads params, so they are kept as written, not converted
    if not (isinstance(value, dict)
            and all(isinstance(v, str) for v in value.values())):
        raise ValueError("certificate field 'params' must map names to strings")
    return dict(value)


def _text(data: dict, key: str, default=None) -> str:
    # str() of a huge JSON number would take quadratic time
    value = data.get(key, default)
    if not isinstance(value, str):
        raise ValueError(f"certificate field {key!r} must be a string")
    return value


def cert_from_dict(data: dict) -> WitnessCertificate:
    """Parse one certificate object; unknown fields are ignored, unknown
    versions rejected.  n and the factors become Decimals, the poly
    coefficients ints."""
    if not isinstance(data, dict):
        raise ValueError("certificate entry must be an object")
    if data.get("v") != CERT_VERSION:
        raise ValueError(f"unsupported certificate version {data.get('v')!r}")
    for key in ("class", "poly", "n", "factors"):
        if key not in data:
            raise ValueError(f"missing certificate field {key!r}")
    for key in ("poly", "factors"):
        if not isinstance(data[key], list):
            raise ValueError(f"certificate field {key!r} must be an array")
    poly = IntPoly(_int(c) for c in data["poly"])
    return WitnessCertificate(
        poly=poly,
        class_tag=_text(data, "class"),
        n=_decimal(data["n"]),
        factors=tuple(_decimal(f) for f in data["factors"]),
        params=_params(data.get("params", {})),
        mode_hint=_text(data, "mode", "distinct"),
    )


def read_entries(fh) -> list:
    """The entries of a certificate file, each for cert_from_dict; ValueError
    if it is no JSON array or nests too deeply for the parser."""
    try:
        data = json.load(fh, parse_int=_json_int)
    except RecursionError:
        raise ValueError("certificate file is nested too deeply") from None
    if not isinstance(data, list):
        raise ValueError("certificate file must hold a JSON array")
    return data
