"""Command line interface.

Subcommands: construct, verify, scan, table.  Exit codes: 0 success,
1 verification rejected, 2 construction budget exhausted (partial output
still written), 3 certificate unverifiable within the factoring budget,
64 usage errors.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import sys
from fractions import Fraction
from types import SimpleNamespace

from .certificate import MAX_DIGITS, cert_from_dict, cert_to_dict, read_entries
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
from .numtheory import DEFAULT_FACTOR_BUDGET
from .scan import _POOL_VALUES, record_json, scan_range
from .specialpoly import chebyshev_terms, cyclotomic, psi
from .verify import verify

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_BUDGET = 2
EXIT_UNVERIFIABLE = 3
EXIT_USAGE = 64


class UsageError(Exception):
    pass


def _output(path: str | None):
    return open(path, "w") if path else contextlib.nullcontext(sys.stdout)


def _write_certs(certs, path: str | None) -> None:
    text = json.dumps([cert_to_dict(c) for c in certs], indent=2) + "\n"
    with _output(path) as fh:
        fh.write(text)


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
        entries = read_entries(fh)
    any_reject = False
    any_unverifiable = False
    for i, entry in enumerate(entries):
        try:
            cert = cert_from_dict(entry)
        except (ValueError, TypeError) as exc:
            print(f"cert {i}: REJECT reason=malformed ({exc})")
            any_reject = True
            continue
        report = verify(cert, budget=budget)
        if report.accepted:
            # cert_from_dict reads n as an integral Decimal
            print(
                f"cert {i}: ACCEPT rule={report.rule} n_digits="
                f"{cert.n.adjusted() + 1} exponent={report.exponent}"
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
    # without --budget, scan_range's default cap applies; FACTORIDIV_BUDGET
    # is the factoring budget of construct and verify, not a sieve cap
    cap = {} if args.budget is None else {"division_budget": args.budget}
    records, summary = scan_range(
        poly, args.start, args.stop, theta, jobs=args.jobs, **cap
    )
    with _output(args.out) as out:
        out.writelines(f"{record_json(rec)}\n" for rec in records)
    print(json.dumps(summary._asdict(), sort_keys=True), file=sys.stderr)
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


_REQUIRED = object()
_HELP = {"-h": None, "--help": None}

# command -> (its help, its arguments); an argument is a flag (--name) or a
# positional (name), in usage order, and maps to (dest, kind, default,
# help): kind is int, str, a tuple of the strings allowed, or list for a
# flag that may repeat, each value appended
COMMANDS = {
    "construct": ("build witness certificates", {
        "--class": ("family", tuple(FAMILIES), _REQUIRED,
                    f"one of {', '.join(FAMILIES)}"),
        "--poly": ("poly", list, None,
                   "comma separated coefficients, ascending"),
        "--m": ("m", int, None, "order for binomial/cyclotomic"),
        "--ms": ("ms", str, None, "comma separated Chebyshev orders"),
        "--s": ("s", str, None, "comma separated base values"),
        "--count": ("count", int, None, "certificates to build (default 1)"),
        "--ratio": ("ratio", str, None,
                    "Mertens oversampling ratio, e.g. 9/8"),
        "--out": ("out", str, None, "output file (default stdout)"),
    }),
    "verify": ("verify a certificate file", {
        "file": ("file", str, _REQUIRED, "a JSON array of certificates"),
        "--budget": ("budget", int, None, "factoring budget (default "
                     "FACTORIDIV_BUDGET, else the library's)"),
    }),
    "scan": ("scan for smooth polynomial values", {
        "--poly": ("poly", str, _REQUIRED,
                   "comma separated coefficients, ascending"),
        "--from": ("start", int, _REQUIRED, "first n"),
        "--to": ("stop", int, _REQUIRED, "last n"),
        "--theta": ("theta", str, _REQUIRED, "exponent as j/k"),
        "--jobs": ("jobs", int, 1, "worker processes that sieve runs of "
                   "windows; at most the CPU count and one per "
                   f"{_POOL_VALUES} values, so a range under "
                   f"{2 * _POOL_VALUES} values runs in-process"),
        "--budget": ("budget", int, None, "cap on the sieve primes per "
                     "value; values that need more are counted unresolved "
                     "(default: 5000000)"),
        "--out": ("out", str, None, "output file (default stdout)"),
    }),
    "table": ("print polynomial tables", {
        "kind": ("kind", ("phi", "psi", "chebyshev"), _REQUIRED, "the table"),
        "--max": ("max", int, _REQUIRED, "last index"),
    }),
}


def _metavar(name: str, dest: str, kind) -> str:
    if name[0] == "-":
        return f"{name} {dest.upper()}"
    return "{" + ",".join(kind) + "}" if type(kind) is tuple else dest.upper()


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: factoridiv [-h] {{{','.join(COMMANDS)}}} ..."
    words = [
        _metavar(name, dest, kind) if default is _REQUIRED
        else f"[{_metavar(name, dest, kind)}]"
        for name, (dest, kind, default, _) in COMMANDS[command][1].items()
    ]
    return f"usage: factoridiv {command} [-h] {' '.join(words)}"


def _help(command: str | None) -> str:
    if command is None:
        head, rows = __doc__, [(c, h) for c, (h, _) in COMMANDS.items()]
    else:
        head, args = COMMANDS[command]
        rows = [(_metavar(n, d, k), h) for n, (d, k, _, h) in args.items()]
    rows.insert(0, ("-h, --help", "show this help and exit"))
    width = max(len(row[0]) for row in rows)
    lines = [f"  {name:<{width}}  {text}" for name, text in rows]
    return "\n".join([_usage(command), "", head.strip(), "", *lines])


def _option(tok: str, spec) -> tuple[str | None, str | None]:
    """(flag, the value after its '=' or None) for a token that names a
    flag of spec in full or by a unique prefix, ("", None) for another
    token that reads as a flag, and (None, None) for a value: as in
    argparse, a token that is -, -N or -.N (no flag looks like a number)
    or holds a space is a value."""
    if tok[:1] != "-" or tok == "-":
        return None, None
    if tok in spec:
        return tok, None
    head, eq, value = tok.partition("=")
    if eq and head in spec:
        return head, value
    if tok[1] != "-" and tok[:2] in spec:  # -hVALUE, -h's explicit value
        return tok[:2], tok[2:]
    if tok.startswith("--"):
        hits = [flag for flag in spec if flag.startswith(head)]
        if len(hits) > 1:
            raise UsageError(
                f"ambiguous option: {tok} could match {', '.join(hits)}")
        if hits:
            return hits[0], value if eq else None
    if re.match(r"^-\d+$|^-\d*\.\d+$", tok) or " " in tok:
        return None, None
    return "", None


def _parse(argv) -> SimpleNamespace:
    """The command in argv and its argument values, read in one pass as
    argparse read them: --flag value or --flag=value, a unique prefix for
    a flag, the last of repeated values (each one for a list flag),
    positionals anywhere among the flags, and every token after the
    first -- a positional.  A rejected argv prints the usage and the
    error to stderr and exits 64; -h or --help prints the help and exits
    0."""
    command, values, extra, ended, filled, i = None, {}, [], False, False, 0
    spec = {**_HELP, "command": ("command", tuple(COMMANDS), _REQUIRED, "")}
    slots = ["command"]
    try:
        while i < len(argv):
            tok, i = argv[i], i + 1
            if tok == "--" and not ended:
                ended = True
                # as in argparse, a -- is the command when it comes first,
                # and unrecognized unless a positional is read beside it
                if command and (slots or filled):
                    continue
            flag, value = (None, None) if ended else _option(tok, spec)
            # tok fills a positional of the command
            filled = flag is None and command is not None and bool(slots)
            if flag is None:
                if not slots:
                    extra.append(tok)
                    continue
                flag, value = slots.pop(0), tok
            elif not flag:
                extra.append(tok)
                continue
            elif spec[flag] is None:
                if value is not None:
                    raise UsageError(
                        f"argument -h/--help: ignored explicit argument "
                        f"{value!r}")
                print(_help(command))
                raise SystemExit(EXIT_OK)
            elif value is None:
                if (i == len(argv) or argv[i] == "--"
                        or _option(argv[i], spec)[0] is not None):
                    raise UsageError(f"argument {flag}: expected one argument")
                value, i = argv[i], i + 1
            dest, kind, _, _ = spec[flag]
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    raise UsageError(
                        f"argument {flag}: invalid int value: {value!r}"
                    ) from None
            elif type(kind) is tuple and value not in kind:
                raise UsageError(
                    f"argument {flag}: invalid choice: {value!r} (choose "
                    f"from {', '.join(map(repr, kind))})")
            if kind is list:
                values.setdefault(dest, []).append(value)
            else:
                values[dest] = value
            if dest == "command":
                command, spec = value, {**_HELP, **COMMANDS[value][1]}
                slots = [name for name in spec if name[0] != "-"]
        missing = [name for name, s in spec.items()
                   if s and s[2] is _REQUIRED and s[0] not in values]
        if missing:
            raise UsageError(
                f"the following arguments are required: {', '.join(missing)}")
        if extra:
            raise UsageError(f"unrecognized arguments: {' '.join(extra)}")
    except UsageError as exc:
        print(f"{_usage(command)}\nfactoridiv: error: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from None
    return SimpleNamespace(**{s[0]: s[2] for s in spec.values() if s} | values)


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(MAX_DIGITS)
    args = _parse(sys.argv[1:] if argv is None else argv)
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
    except (UsageError, ValueError, OSError) as exc:
        print(f"factoridiv: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
