"""Range scanning for smooth polynomial values.

A value f(n) is a hit at exponent theta = j/k when its largest prime
factor P+ satisfies (P+)**k < n**j (exact integer comparison, never
floating point).

The scanner is a root sieve, as in the quadratic sieve (Pomerance 1982;
Crandall & Pomerance, Prime Numbers, sections 3.2 and 6.1).  For each
prime p <= t_cap = floor(stop**(j/k)) it finds once the residues r with
f(r) = 0 (mod p).  For p up to _CZ_FROM, or a range that short, it reads
them off the first p values of the range; above, modp.roots_mod splits
f mod p by Cantor-Zassenhaus (Math. Comp. 36, 1981) with the shifts
a = 0, 1, 2, ..., so root finding costs O(deg**2 log p) per prime, not
O(p), and uses no randomness.  Either way the residues come in the
order the range meets them.  Then it walks n = r (mod p) through
contiguous windows of _WINDOW values, divides p out of f(n) completely at
each step, and records p as the current P+; primes run in ascending
order, so the last one recorded is the largest.  After the sieve a cofactor of 1 means every prime factor
is known, and the value is a hit iff P+**k < n**j.  A cofactor above 1
has a prime factor above t_cap >= t_n = floor(n**(j/k)), so P+**k > n**j
and the value is certainly not a hit.  No value is misclassified, and no
per-value root is taken.

A value with |f(n)| <= 1, f(n) = 0 included, has no prime factors at all:
it is a vacuous hit with P+ = 1 and exponent 0.0000, and it never enters
the division loop (0 would never divide out).

division_budget caps the sieve primes per value: f(n) is unresolved iff
pi(t_n) > division_budget, where pi counts the primes.  Since t_n grows
with n, the unresolved values are a suffix of the range; the scanner
finds where it starts and never sieves it, though vacuous values in it
are still hits.  A budget of at least pi(t_cap) resolves every value.

jobs > 1 deals the windows to worker processes, one contiguous run of
windows per worker.  The roots are found once, in the calling process,
and the records come back in window order, so the output does not depend
on jobs.  jobs is clamped to the CPU count and so that each worker gets
at least _POOL_WINDOWS windows, below which a pool costs more than it
saves: a range of fewer than 2 * _POOL_WINDOWS windows is sieved
in-process whatever jobs is.
"""

from __future__ import annotations

import json
import os
from collections import namedtuple
from decimal import Decimal
from fractions import Fraction
from functools import partial
from itertools import accumulate, repeat

from .intpoly import IntPoly
from .numtheory import decimal_log_ratio, sieve_primes

__all__ = [
    "ScanRecord",
    "ScanSummary",
    "scan_range",
    "record_json",
]

# values per sieve window: small enough to keep memory flat, large enough
# that the per-window cost of walking every root stays small
_WINDOW = 1 << 12

# the fewest windows per worker process.  Below it starting the pool and
# pickling the records cost more than the split sieve saves.  On 2 CPUs,
# for x**2 + 1 at theta = 14/25 (the cheapest windows), two workers beat
# one in every paired run from 80 windows each up; below, the break-even
# moved between 49 and 80 windows each with the host's load
_POOL_WINDOWS = 64

# the roots mod p of primes up to this are listed from the values of f,
# above it found by Cantor-Zassenhaus: listing costs min(p, range length)
# reductions, splitting about log2(p) polynomial squarings per split.  On
# quadratics to quartics splitting was 0.6-1.0 times as fast as listing
# near p = 500, 1.0-1.7 times near 1000 and 1.3-2.2 times near 1500
_CZ_FROM = 1500


# exponent is log(P+)/log(n) as a string, to four decimal places
ScanRecord = namedtuple("ScanRecord", "n value p_plus exponent")
ScanSummary = namedtuple("ScanSummary", "examined hits unresolved min_exponent")


def _integer_kth_root(x: int, k: int) -> int:
    """Largest r with r**k <= x."""
    if x < 0 or k < 1:
        raise ValueError("need x >= 0 and k >= 1")
    if k == 1 or x < 2:
        return x
    r = 1 << (-(-x.bit_length() // k))
    while True:
        nr = ((k - 1) * r + x // r ** (k - 1)) // k
        if nr >= r:
            break
        r = nr
    while r**k > x:
        r -= 1
    while (r + 1) ** k <= x:
        r += 1
    return r


def _values(poly: IntPoly, lo: int, hi: int) -> list[int]:
    """f(n) for n in [lo, hi]: Horner at the first deg f + 1 values, then
    the constant (deg f)-th difference summed up deg f times, each pass one
    C-level accumulate."""
    d = max(len(poly.coeffs) - 1, 0)
    first = [poly.evaluate(n) for n in range(lo, min(hi, lo + d) + 1)]
    if hi - lo <= d:
        return first
    diffs = []  # f(lo) and its forward differences up to order d
    while first:
        diffs.append(first[0])
        first = [b - a for a, b in zip(first, first[1:])]
    values = repeat(diffs.pop(), hi - lo + 1 - d)
    for x in reversed(diffs):
        values = accumulate(values, initial=x)
    return list(values)


def _prime_roots(poly: IntPoly, start: int, stop: int, primes: list[int]):
    """(p, residues r with f(r) = 0 mod p) for each of the primes that
    divides some f(n) with n in [start, stop], the residues in the order
    the range meets them, that is by (r - start) mod p."""
    size = stop - start + 1
    # listing reads f at the first min(p, size) values of the range: p
    # consecutive values meet every residue class mod p once, a range
    # shorter than p only the classes of its own values.  Splitting needs
    # an odd p, so primes p <= deg f (p = 2 among them) are listed too
    lim = max(_CZ_FROM, len(poly.coeffs) - 1)
    last = min(stop, start + min(lim, primes[-1]) - 1) if primes else start - 1
    head = _values(poly, start, last)
    if primes and min(size, primes[-1]) > lim:
        # imported here: a scan that lists every root, like most CLI
        # calls, would pay for compiling it otherwise
        from .modp import roots_mod
    roots = []
    for p in primes:
        m = min(p, size)
        if m <= lim:
            residues = [(start + i) % p for i in range(m) if not head[i] % p]
        elif any(f := [c % p for c in poly.coeffs]):
            residues = sorted((r for r in roots_mod(f, p)
                               if (r - start) % p < size),
                              key=lambda r: (r - start) % p)
        else:  # p divides every coefficient
            residues = [(start + i) % p for i in range(m)]
        if residues:
            roots.append((p, residues))
    return roots


def _sieve_window(poly: IntPoly, roots, j: int, k: int, window):
    """The hits among n in window = (lo, hi), in order, as ScanRecords."""
    lo, hi = window
    values = _values(poly, lo, hi)
    # f(n) = 0 would never divide out; as 1 it takes no division, and it
    # is a vacuous hit whatever the sieve records for it
    rem = [abs(v) or 1 for v in values]
    size = len(rem)
    top = [1] * size
    for p, residues in roots:
        for r in residues:
            for i in range((r - lo) % p, size, p):
                v = rem[i]
                while not v % p:
                    v //= p
                rem[i] = v
                top[i] = p
    records = []
    # a cofactor above 1 has a prime factor above t_cap: certain non-hit
    for i in [i for i, v in enumerate(rem) if v == 1]:
        n, value = lo + i, values[i]
        if -1 <= value <= 1:
            records.append(ScanRecord(n, value, 1, "0.0000"))
        elif top[i] ** k < n**j:
            records.append(
                ScanRecord(n, value, top[i], str(decimal_log_ratio(top[i], n)))
            )
    return records


def scan_range(
    poly: IntPoly,
    start: int,
    stop: int,
    theta: Fraction,
    *,
    jobs: int = 1,
    division_budget: int = 5_000_000,
) -> tuple[list[ScanRecord], ScanSummary]:
    """Scan n in [start, stop] and record every hit.

    division_budget caps the sieve primes per value: a value f(n) with
    pi(floor(n**theta)) > division_budget is counted unresolved and never
    recorded, unless |f(n)| <= 1 (a vacuous hit).  Those values form a
    suffix of the range.  With division_budget >= pi(floor(stop**theta))
    every value is resolved.

    jobs is the number of worker processes that sieve the windows; it is
    clamped to the CPU count and to one worker per _POOL_WINDOWS windows,
    and the result does not depend on it."""
    theta = Fraction(theta)
    if not 0 < theta < 1:
        raise ValueError("theta must be strictly between 0 and 1")
    if start < 2:
        raise ValueError("scan starts at n >= 2")
    if stop < start:
        raise ValueError("empty range")
    if division_budget < 0:
        raise ValueError("division_budget must be non-negative")
    if jobs < 1:
        raise ValueError("jobs must be positive")
    j, k = theta.numerator, theta.denominator
    primes = sieve_primes(_integer_kth_root(stop**j, k))
    cut = stop + 1  # the first unresolved n
    if division_budget < len(primes):
        # pi(t_n) > budget iff t_n >= q iff n**j >= q**k, q the next
        # prime; below cut every t_n < q, so the first budget primes
        # cover every prime <= t_n there
        q = primes[division_budget]
        cut = max(start, _integer_kth_root(q**k - 1, j) + 1)
        del primes[division_budget:]
    roots = _prime_roots(poly, start, cut - 1, primes)
    windows = [(lo, min(lo + _WINDOW, cut) - 1)
               for lo in range(start, cut, _WINDOW)]
    jobs = min(jobs, os.cpu_count() or 1, len(windows) // _POOL_WINDOWS)
    sieve = partial(_sieve_window, poly, roots, j, k)
    if jobs > 1:
        # imported here: every CLI call would pay for the import otherwise
        from concurrent.futures import ProcessPoolExecutor

        # one contiguous run of windows per worker, so the roots are
        # pickled once per worker
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            batches = list(pool.map(sieve, windows,
                                    chunksize=-(-len(windows) // jobs)))
    else:
        batches = map(sieve, windows)
    records = [rec for batch in batches for rec in batch]
    unresolved = 0
    for n in range(cut, stop + 1):
        value = poly.evaluate(n)
        if -1 <= value <= 1:
            records.append(ScanRecord(n, value, 1, "0.0000"))
        else:
            unresolved += 1
    exps = [Decimal(rec.exponent) for rec in records]
    summary = ScanSummary(
        examined=stop - start + 1,
        hits=len(records),
        unresolved=unresolved,
        min_exponent=str(min(exps)) if exps else None,
    )
    return records, summary


def record_json(rec: ScanRecord) -> str:
    """One scan record as a JSON line; integers as decimal strings."""
    return json.dumps(
        {
            "n": str(rec.n),
            "value": str(rec.value),
            "p_plus": str(rec.p_plus),
            "exponent": rec.exponent,
        },
        separators=(",", ":"),
    )

