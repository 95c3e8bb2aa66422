"""The op lists of the three workloads.

An op is one CLI invocation, ``factoridiv.cli.main(argv)``, run in a fresh
interpreter.  The seed picks one of ``VARIANTS`` input variants; a variant
changes only the scan constant term (x^2 + c), the bases s and which verify
fixtures are tampered, so the op list and its cost class stay the same for
every seed.  Variant 0 (seed 0) gives exactly the inputs in README.md.
"""

from __future__ import annotations

from dataclasses import dataclass

VARIANTS = 4

# x^2 + c for the scan workload; these c give within 0.2% of the trial
# divisions of c = 1 on [2, 10^5] and 470 to 566 hits against 527
SCAN_C = (1, -6, -7, -5)
# bases for the certify ops that take --s
BINOMIAL_S = ("2,3", "3,2", "2,5", "5,3")
CYCLOTOMIC_S = ("2,3,5", "3,5,2", "2,5,7", "5,7,3")
CHEBYSHEV_S = ("2,3,4,5,6", "3,4,5,6,7", "2,4,5,6,7", "3,5,6,7,8")

WORKLOADS = ("scan", "certify", "verify")


@dataclass(frozen=True)
class Op:
    name: str  # unique within a workload
    kind: str  # the metric class the op's time is added to
    argv: tuple[str, ...]
    values: int = 0  # scan ops: values examined
    exit: int = 0  # declared exit code (verify ops: see fixtures.py)


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def scan_ops(v: int) -> list[Op]:
    quad = ("scan", f"--poly={SCAN_C[v]},0,1", "--from", "2", "--to", "100000",
            "--theta", "14/25")
    return [
        Op("quad-j1", "scan_jobs1", quad, 99_999),
        Op("quad-j2", "scan_jobs2", quad + ("--jobs", "2"), 99_999),
        Op("cubic-content6", "scan_jobs1",
           ("scan", "--poly", "6,6,0,6", "--from", "2", "--to", "30000",
            "--theta", "2/3"), 29_999),
        Op("quartic-reducible", "scan_jobs1",
           ("scan", "--poly=-1,0,0,0,1", "--from", "2", "--to", "20000",
            "--theta", "3/4"), 19_999),
    ]


def certify_ops(v: int) -> list[Op]:
    def con(name, kind, *args, exit=0):
        return Op(name, kind, ("construct", "--class") + args, exit=exit)

    return [
        con("quadratic", "construct", "quadratic", "--poly", "1,0,1",
            "--count", "50"),
        con("quadratic-content", "construct", "quadratic", "--poly", "3,0,2",
            "--count", "20"),
        con("cubic", "construct", "cubic", "--poly", "1,1,1,1", "--count", "6"),
        con("quartic-cl", "construct", "quartic-cl", "--poly", "1,1,1,1",
            "--poly", "1,1", "--count", "3"),
        con("quartic-qq", "construct", "quartic-qq", "--poly", "1,2,1",
            "--poly", "1,1,1", "--count", "5"),
        con("binomial", "construct", "binomial", "--m", "4",
            "--s", BINOMIAL_S[v], "--ratio", "6/5"),
        con("cyclotomic", "construct", "cyclotomic", "--m", "2",
            "--s", CYCLOTOMIC_S[v]),
        con("chebyshev", "construct", "chebyshev", "--ms", "2",
            "--s", CHEBYSHEV_S[v], "--ratio", "9/8"),
        con("cubic-exhausted", "construct_exhausted", "cubic",
            "--poly", "5,0,0,1", exit=2),
        Op("table-phi", "table", ("table", "phi", "--max", "300")),
        Op("table-psi", "table", ("table", "psi", "--max", "200")),
        Op("table-chebyshev", "table", ("table", "chebyshev", "--max", "200")),
    ]


# verify fixtures: file name -> (op kind, extra CLI arguments)
VERIFY_FILES = {
    "accept-cubic": ("verify", ()),
    "accept-quartic-cl": ("verify", ()),
    "accept-binomial": ("verify", ()),
    "accept-chebyshev": ("verify", ()),
    "accept-legendre": ("verify", ()),
    "reject-mismatch": ("verify_reject", ()),
    "reject-exceeds-n": ("verify_reject", ()),
    "reject-malformed": ("verify_reject", ()),
    "reject-valuation": ("verify_reject", ()),
    "unverifiable-budget": ("verify_reject", ("--budget", "2000")),
}


def fixture_dir(v: int) -> str:
    """Where the verify fixtures of variant v live, relative to the root."""
    return f"bench/_work/fixtures/v{v}"


def verify_ops(v: int) -> list[Op]:
    return [
        Op(name, kind, ("verify", f"{fixture_dir(v)}/{name}.json") + extra)
        for name, (kind, extra) in VERIFY_FILES.items()
    ]


def ops_for(workload: str, v: int) -> list[Op]:
    return {"scan": scan_ops, "certify": certify_ops, "verify": verify_ops}[
        workload](v)
