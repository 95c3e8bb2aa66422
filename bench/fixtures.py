"""Write the certificate files of the verify workload for one variant.

Usage: python3 bench/fixtures.py VARIANT   (run from the repository root)

The files are built with the library constructors (and, for the legendre,
budget and valuation cases, by hand), so verifying them exercises parsing,
the distinct and legendre rules, factorize and decimal_log_ratio without
running any construction.  Each file's expected exit code is written next
to the files in expected.json.  The variant picks which quartic-cl entry is
tampered, the binomial base s and the small prime of the valuation case.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from factoridiv import (  # noqa: E402
    IntPoly,
    WitnessCertificate,
    construct_binomial_power,
    construct_chebyshev,
    construct_cubic,
    construct_quartic_cubic_linear,
)
from factoridiv.cli import cert_to_dict  # noqa: E402
from factoridiv.numtheory import next_prime  # noqa: E402

from ops import fixture_dir  # noqa: E402

BINOMIAL_BASES = (2**36 - 5, 2**36 - 7, 2**36 - 11, 2**36 - 17)
VALUATION_PRIMES = (7, 11, 13, 17)
CHEBYSHEV_BASES = ((2, 3, 4), (3, 4, 5), (2, 4, 5), (3, 5, 6))


def _linear_cert(n: int, factors, tag: str) -> dict:
    """A certificate for P(x) = x + c with c chosen so that the factors
    multiply to P(n) exactly."""
    product = 1
    for f in factors:
        product *= f
    cert = WitnessCertificate(
        IntPoly((product - n, 1)), tag, n, tuple(factors), {}, "legendre"
    )
    return cert_to_dict(cert)


def _semiprime_cert(bits: int, k: int) -> dict:
    # the square of a semiprime p*q whose primes lie above the trial
    # division bound, at the smallest n with nu_p(n!) >= 2 for both
    p = next_prime((1 << bits) + 7919 * k)
    q = next_prime((1 << bits) + 104_729 * (k + 3))
    return _linear_cert(2 * q, (p * q, p * q), "duplicated-semiprime")


def _exceeds_n(entry: dict) -> dict:
    # merge the largest factors into one until it exceeds n; the product
    # is unchanged, so only the factor-exceeds-n check fails
    n = int(entry["n"])
    factors = sorted(int(f) for f in entry["factors"])
    merged = factors.pop()
    while merged <= n:
        merged *= factors.pop()
    return dict(entry, factors=[str(f) for f in factors + [merged]])


def build(v: int) -> dict[str, tuple[list, int]]:
    """File name -> (JSON array of entries, expected exit code)."""
    cubic = [cert_to_dict(c) for c in construct_cubic(IntPoly((1, 1, 0, 1)), 16)]
    quartic = [
        cert_to_dict(c)
        for c in construct_quartic_cubic_linear(
            IntPoly((1, 1, 1, 1)), IntPoly((1, 1)), 3
        )
    ]
    binomial = [
        cert_to_dict(c)
        for c in construct_binomial_power(
            4, [BINOMIAL_BASES[v]], Fraction(6, 5), max_n_digits=200_000
        )
    ]
    chebyshev = [
        cert_to_dict(c)
        for c in construct_chebyshev([2], CHEBYSHEV_BASES[v], Fraction(9, 8))
    ]
    t = v % len(quartic)

    def tampered(change) -> list:
        return [change(e) if i == t else e for i, e in enumerate(quartic)]

    def mismatch(entry):
        factors = list(entry["factors"])
        factors[-1] = str(int(factors[-1]) + 2)
        return dict(entry, factors=factors)

    malformed = tampered(lambda e: {k: e[k] for k in e if k != "n"}) + [
        dict(quartic[t], v=2),
        dict(quartic[t], factors=["12", "abc"]),
        dict(quartic[t], factors=["-3"] + quartic[t]["factors"]),
        "not an object",
    ]
    p = VALUATION_PRIMES[v]
    # n = 2p - 1 gives nu_p(n!) = 1, but p appears twice
    valuation = [_linear_cert(2 * p - 1, (p, p), "duplicated-small-prime")]
    legendre = [_semiprime_cert(28, k) for k in range(6)]
    unverifiable = [_semiprime_cert(40, 0)]
    return {
        "accept-cubic": (cubic, 0),
        "accept-quartic-cl": (quartic, 0),
        "accept-binomial": (binomial, 0),
        "accept-chebyshev": (chebyshev, 0),
        "accept-legendre": (legendre, 0),
        "reject-mismatch": (tampered(mismatch), 1),
        "reject-exceeds-n": (tampered(_exceeds_n), 1),
        "reject-malformed": (malformed, 1),
        "reject-valuation": (valuation, 1),
        "unverifiable-budget": (unverifiable, 3),
    }


def main() -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(2_000_000)
    v = int(sys.argv[1])
    out = os.path.join(ROOT, fixture_dir(v))
    os.makedirs(out, exist_ok=True)
    expected = {}
    for name, (entries, code) in build(v).items():
        with open(os.path.join(out, f"{name}.json"), "w") as fh:
            json.dump(entries, fh, indent=2)
            fh.write("\n")
        expected[name] = code
    with open(os.path.join(out, "expected.json"), "w") as fh:
        json.dump(expected, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
