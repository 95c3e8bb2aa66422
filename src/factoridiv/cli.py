"""Command line interface.

Subcommands: construct, verify, scan, table.  Exit codes: 0 success,
1 verification rejected, 2 construction budget exhausted (partial output
still written), 3 certificate unverifiable within the factoring budget,
64 usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from decimal import Decimal
from fractions import Fraction

from .certificate import WitnessCertificate
from .construct import (
    ConstructionBudgetError,
    construct_binomial_power,
    construct_chebyshev,
    construct_cubic,
    construct_cyclotomic,
    construct_quadratic,
    construct_quartic_biquadratic,
    construct_quartic_cubic_linear,
)
from .intpoly import IntPoly
from .numtheory import (
    DEFAULT_FACTOR_BUDGET,
    decimal_digits,
    decimal_from_int,
    decimal_str,
    int_from_digits,
)
from .scan import record_json, scan_range
from .specialpoly import chebyshev_terms, cyclotomic, psi
from .verify import verify

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_BUDGET = 2
EXIT_UNVERIFIABLE = 3
EXIT_USAGE = 64

CERT_VERSION = 1

# the most decimal digits an integer of a certificate may have; main raises
# Python's int_max_str_digits to it
MAX_DIGITS = 2_000_000


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage, which collides with the budget
    # exit code; remap to 64 (the BSD EX_USAGE convention)
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


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


def _int(value) -> int:
    # a JSON float or boolean is no integer, though int() would take it
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"expected an integer, got {type(value).__name__}")
    # plain digit strings within the format bound parse in subquadratic time
    # and whatever int_max_str_digits is; every other string, over-long ones
    # included, goes to int() with its syntax and error messages
    if (isinstance(value, str) and len(value) <= MAX_DIGITS
            and value.isascii() and value.isdigit()):
        return int_from_digits(value)
    return int(value)


def _decimal(value) -> Decimal:
    # n and the factors are checked in decimal, the base they are written
    # in: Decimal() reads plain digits in linear time; anything else is
    # read by _int, with its checks and messages, and brought across
    if (isinstance(value, str) and len(value) <= MAX_DIGITS
            and value.isascii() and value.isdigit()):
        return Decimal(value)
    return decimal_from_int(_int(value))


def _json_int(literal: str) -> int:
    # json would parse an integer literal with int(), quadratic on 3.11
    if literal.startswith("-"):
        return -_int(literal[1:])
    return _int(literal)


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


def _write_certs(certs, path: str | None) -> None:
    text = json.dumps([cert_to_dict(c) for c in certs], indent=2) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _int_list(text: str) -> list[int]:
    try:
        return [int(part.strip()) for part in text.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad integer list {text!r}") from exc


def _fraction(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise UsageError(f"{flag} has a zero denominator: {text!r}") from None


def _poly_by_degree(polys, degree: int) -> IntPoly:
    for p in polys:
        if p.degree == degree:
            return p
    raise UsageError(f"need a factor of degree {degree}")


def _factor_budget(args) -> int:
    """The factoring budget: --budget, else FACTORIDIV_BUDGET, else the
    library default."""
    if getattr(args, "budget", None) is not None:
        return args.budget
    env_budget = os.environ.get("FACTORIDIV_BUDGET")
    if not env_budget:
        return DEFAULT_FACTOR_BUDGET
    try:
        budget = int(env_budget)
    except ValueError:
        raise UsageError(
            f"FACTORIDIV_BUDGET must be an integer, got {env_budget!r}"
        ) from None
    if budget < 0:
        raise UsageError("FACTORIDIV_BUDGET must be non-negative")
    return budget


_POLYS = ("poly", "count")
_M_S = ("m", "s", "ratio")

# family -> (the flags it reads besides --out, its argument
# check, the usage complaint when the check fails, its constructor call);
# the check and the call take the parsed arguments and the --poly list
FAMILIES = {
    "quadratic": (
        _POLYS, lambda a, p: len(p) == 1, "takes exactly one --poly",
        lambda a, p: construct_quadratic(p[0], a.count)),
    "cubic": (
        _POLYS, lambda a, p: len(p) == 1, "takes exactly one --poly",
        lambda a, p: construct_cubic(p[0], a.count)),
    "quartic-cl": (
        _POLYS, lambda a, p: len(p) == 2, "takes two --poly factors",
        lambda a, p: construct_quartic_cubic_linear(
            _poly_by_degree(p, 3), _poly_by_degree(p, 1), a.count)),
    "quartic-qq": (
        _POLYS, lambda a, p: len(p) == 2 and all(q.degree == 2 for q in p),
        "takes two quadratic --poly factors",
        lambda a, p: construct_quartic_biquadratic(p[0], p[1], a.count)),
    "binomial": (
        _M_S, lambda a, p: a.m is not None and a.s, "needs --m and --s",
        lambda a, p: construct_binomial_power(
            a.m, _int_list(a.s), _fraction(a.ratio, "--ratio"))),
    "cyclotomic": (
        _M_S, lambda a, p: a.m is not None and a.s, "needs --m and --s",
        lambda a, p: construct_cyclotomic(
            a.m, _int_list(a.s), _fraction(a.ratio, "--ratio"))),
    "chebyshev": (
        ("ms", "s", "ratio"), lambda a, p: a.ms and a.s, "needs --ms and --s",
        lambda a, p: construct_chebyshev(
            _int_list(a.ms), _int_list(a.s), _fraction(a.ratio, "--ratio"))),
}


def _cmd_construct(args, budget: int) -> int:
    reads, check, complaint, build = FAMILIES[args.family]
    for flag in ("poly", "m", "ms", "s", "count", "ratio"):
        if flag not in reads and getattr(args, flag) is not None:
            raise UsageError(f"{args.family} does not take --{flag}")
    args.count = 1 if args.count is None else args.count
    args.ratio = "1" if args.ratio is None else args.ratio
    polys = [IntPoly.from_string(p) for p in (args.poly or [])]
    if not check(args, polys):
        raise UsageError(f"{args.family} {complaint}")
    try:
        certs = build(args, polys)
    except ConstructionBudgetError as exc:
        _write_certs(exc.partial, args.out)
        print(json.dumps(exc.report, sort_keys=True), file=sys.stderr)
        return EXIT_BUDGET
    reports = [verify(c, budget=budget) for c in certs]
    _write_certs(certs, args.out)
    bad = [r for r in reports if not r.accepted]
    if bad:
        print(
            f"internal error: {len(bad)} emitted certificate(s) failed "
            f"verification ({bad[0].reason})",
            file=sys.stderr,
        )
        return EXIT_REJECT
    return EXIT_OK


def _cmd_verify(args, budget: int) -> int:
    with open(args.file) as fh:
        try:
            data = json.load(fh, parse_int=_json_int)
        except RecursionError:
            raise UsageError("certificate file is nested too deeply") from None
    if not isinstance(data, list):
        raise UsageError("certificate file must hold a JSON array")
    any_reject = False
    any_unverifiable = False
    for i, entry in enumerate(data):
        try:
            cert = cert_from_dict(entry)
        except (ValueError, TypeError) as exc:
            print(f"cert {i}: REJECT reason=malformed ({exc})")
            any_reject = True
            continue
        report = verify(cert, budget=budget)
        if report.accepted:
            print(
                f"cert {i}: ACCEPT rule={report.rule} n_digits="
                f"{decimal_digits(cert.n)} exponent={report.exponent}"
            )
        elif report.reason == "unverifiable":
            any_unverifiable = True
            print(
                f"cert {i}: UNVERIFIABLE factor={report.unverifiable_factor}"
            )
        else:
            any_reject = True
            print(f"cert {i}: REJECT rule={report.rule} reason={report.reason}")
    if any_reject:
        return EXIT_REJECT
    if any_unverifiable:
        return EXIT_UNVERIFIABLE
    return EXIT_OK


def _cmd_scan(args) -> int:
    poly = IntPoly.from_string(args.poly)
    theta = _fraction(args.theta, "--theta")
    # the library default resolves every value; FACTORIDIV_BUDGET is the
    # factoring budget of construct and verify, not a sieve cap
    cap = {} if args.budget is None else {"division_budget": args.budget}
    records, summary = scan_range(
        poly, args.start, args.stop, theta, jobs=args.jobs, **cap
    )
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        for rec in records:
            print(record_json(rec), file=out)
    finally:
        if args.out:
            out.close()
    print(
        json.dumps(
            {
                "examined": summary.examined,
                "hits": summary.hits,
                "unresolved": summary.unresolved,
                "min_exponent": summary.min_exponent,
            },
            sort_keys=True,
        ),
        file=sys.stderr,
    )
    return EXIT_OK


def _cmd_table(args) -> int:
    if args.max < 0:
        raise UsageError("--max must be non-negative")
    if args.kind == "phi":
        rows = [(i, cyclotomic(i)) for i in range(1, args.max + 1)]
    elif args.kind == "psi":
        rows = [(i, psi(i)) for i in range(3, args.max + 1)]
    else:
        rows = zip(range(args.max + 1), chebyshev_terms())
    for i, poly in rows:
        print(f"{i}\t{poly.to_string()}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="factoridiv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    con = sub.add_parser("construct", help="build witness certificates")
    con.add_argument(
        "--class",
        dest="family",
        required=True,
        choices=list(FAMILIES),
    )
    con.add_argument("--poly", action="append",
                     help="comma separated coefficients, ascending")
    con.add_argument("--m", type=int, help="order for binomial/cyclotomic")
    con.add_argument("--ms", help="comma separated Chebyshev orders")
    con.add_argument("--s", help="comma separated base values")
    con.add_argument("--count", type=int)
    con.add_argument("--ratio", help="Mertens oversampling ratio, e.g. 9/8")
    con.add_argument("--out", help="output file (default stdout)")

    ver = sub.add_parser("verify", help="verify a certificate file")
    ver.add_argument("file")
    ver.add_argument("--budget", type=int, default=None)

    sca = sub.add_parser("scan", help="scan for smooth polynomial values")
    sca.add_argument("--poly", required=True)
    sca.add_argument("--from", dest="start", type=int, required=True)
    sca.add_argument("--to", dest="stop", type=int, required=True)
    sca.add_argument("--theta", required=True, help="exponent as j/k")
    sca.add_argument("--jobs", type=int, default=1,
                     help="worker processes that sieve runs of 4096-value "
                     "windows; at most the CPU count and one per 160 windows, "
                     "so a range under 320 windows runs in-process")
    sca.add_argument("--budget", type=int, default=None,
                     help="cap on the sieve primes per value; values that "
                     "need more are counted unresolved (default: no cap)")
    sca.add_argument("--out", help="output file (default stdout)")

    tab = sub.add_parser("table", help="print polynomial tables")
    tab.add_argument("kind", choices=["phi", "psi", "chebyshev"])
    tab.add_argument("--max", type=int, required=True)

    return parser


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(MAX_DIGITS)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "budget", None) is not None and args.budget < 0:
            raise UsageError("--budget must be non-negative")
        if args.command == "construct":
            return _cmd_construct(args, _factor_budget(args))
        if args.command == "verify":
            return _cmd_verify(args, _factor_budget(args))
        if args.command == "scan":
            return _cmd_scan(args)
        return _cmd_table(args)
    except UsageError as exc:
        print(f"factoridiv: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"factoridiv: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
