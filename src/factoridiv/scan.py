"""Range scanning for smooth polynomial values.

A value f(n) is a hit at exponent theta = j/k when its largest prime
factor P+ satisfies (P+)**k < n**j.  Every hit is decided in integers: a
float only ever settles a comparison whose margin it proves (_pow_cmp).

The scanner is a logarithmic root sieve, as in the quadratic sieve
(Pomerance 1982; Crandall & Pomerance, Prime Numbers, sections 3.2 and
6.1).  Write f = c g with c the content.  For each prime p <= t_cap =
floor(stop**(j/k)) it finds once the residues r with g(r) = 0 (mod p).
For p up to _CZ_FROM, or a range that short, it reads them off the first
p values of the range; above, modp.roots_mod splits g mod p by
Cantor-Zassenhaus (Math. Comp. 36, 1981) with the shifts a = 0, 1, 2,
..., so root finding costs O(deg**2 log p) per prime, not O(p), and uses
no randomness.

Prime-power classes.  Each root class is lifted to its classes mod p**e
while p**e is at most the range length L (_node): a simple root has one
Hensel lift, and a root with p | g'(r) has those of its p children on
which the valuation grows.  Each class carries the weight w by which it
raises the least valuation of its parent, so that along the classes of n
the weights add up to v_p(g(n)).  A class mod p**e > L meets the range
at most once; its n is found and its remaining exponent taken by exact
division, once per scan.  Every value also gets v_p(c).

Byte sums.  A unit is b/a bits, the finest that keeps every bound below
within a byte (a/b is set from a bound on |f(n)| over the range).  Each
window keeps two bytearrays, up and low, and every class adds to its n,
with one C-level translate of a slice, the least up(p**w) and the
greatest low(p**w) with 2**(b up) >= p**(a w) >= 2**(b low), saturating
at 255.  So up[n] >= a/b log2 S and low[n] <= a/b log2 S, where S is the
part of |f(n)| made of sieve primes.  top[n] is set to p by the classes
mod p; primes run in ascending order, so it ends at the largest.

Deciding a value, with B the bit length of |f(n)| >= 2 and P the largest
sieve prime:
- candidate iff b up >= a (B - 1).  A smooth value (S = |f(n)|) has
  a/b log2 S >= a/b (B - 1), and a saturated byte still passes, since
  a (B - 1) / b <= 255 by the choice of unit.  A value that is no
  candidate is not smooth, so not a hit.
- a candidate is smooth if b low >= a B - lam, lam = floor(a log2(P+1)).
  Proof: a cofactor |f(n)| / S above 1 has only primes above the sieve,
  so it is at least P + 1, and then S < 2**B / (P+1) gives b low <=
  a log2 S < a B - a log2(P+1) <= a B - lam.  Saturation only lowers low.
- any other candidate is smooth iff pow(M mod |f(n)|, B, |f(n)|) = 0, M
  the product of the sieve primes: no exponent in |f(n)| reaches B.
A smooth value is a hit iff P+**k < n**j with P+ = max(top[n], P+(c)).  A
value that is not smooth has a prime factor above t_cap >= t_n =
floor(n**(j/k)), so P+**k > n**j.  No value is divided per hit, none is
misclassified, and no per-value root is taken.

A value with |f(n)| <= 1, f(n) = 0 included, has no prime factors at all:
it is a vacuous hit with P+ = 1 and exponent 0.0000.

division_budget caps the sieve primes per value: f(n) is unresolved iff
pi(t_n) > division_budget, where pi counts the primes.  Since t_n grows
with n, the unresolved values are a suffix of the range; the scanner
finds where it starts and never sieves it, though vacuous values in it
are still hits.  A budget of at least pi(t_cap) resolves every value.

jobs > 1 deals the windows to worker processes, one contiguous run of
windows per worker.  The classes are found once, in the calling
process, and the records come back in window order, so the output does
not depend on jobs.  jobs is clamped to the CPU count and so that each
worker gets at least _POOL_WINDOWS windows, below which a pool costs
more than it saves: a range of fewer than 2 * _POOL_WINDOWS windows is
sieved in-process whatever jobs is.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from decimal import Decimal
from fractions import Fraction
from functools import cache, partial
from itertools import accumulate, compress, repeat

from .intpoly import IntPoly
from .numtheory import _ln, decimal_log_ratio, sieve_primes

__all__ = [
    "ScanRecord",
    "ScanSummary",
    "scan_range",
    "record_json",
]

# values per sieve window: small enough to keep memory flat, large enough
# that the per-window cost of visiting every class stays small
_WINDOW = 1 << 12

# the fewest windows per worker process.  Below it starting the pool and
# pickling the records cost more than the split sieve saves.  On 2 CPUs,
# for x**2 + 1 at theta = 14/25 (the cheapest windows), two workers beat
# one in every paired CLI run from 160 windows each up (20 of 20 pairs at
# 160-192); from 96 to 144 windows each the pool won 17 of 26 pairs, with
# the host's load, and at 32-64 windows each 1 of 8
_POOL_WINDOWS = 160

# the roots mod p of primes up to this are listed from the values of f,
# above it found by Cantor-Zassenhaus: listing costs min(p, range length)
# reductions, splitting about log2(p) polynomial squarings per split.  On
# quadratics to quartics splitting was 0.6-1.0 times as fast as listing
# near p = 500, 1.0-1.7 times near 1000 and 1.3-2.2 times near 1500
_CZ_FROM = 1500


# exponent is log(P+)/log(n) as a string, to four decimal places
ScanRecord = namedtuple("ScanRecord", "n value p_plus exponent")
ScanSummary = namedtuple("ScanSummary", "examined hits unresolved min_exponent")


def _pow_cmp(a: int, k: int, b: int, j: int) -> int:
    """The sign of a**k - b**j for a, b >= 1 and k, j >= 1, built only when
    the bit lengths leave it open and the powers are short or a log test
    leaves it open too.  2**(A-1) <= a < 2**A for A = bits(a), so a**k lies
    in [2**(k(A-1)), 2**(kA)); likewise b**j.  numtheory._ln is within a
    relative 2**-51 of ln, and each product adds 2**-53, so x and y below
    are each within 1.25 * 2**-51 of k ln a and j ln b, relative: a gap
    over 2**-44 * (x + y) has the sign of the true one."""
    ka, jb = k * a.bit_length(), j * b.bit_length()
    if ka <= jb - j:
        return -1
    if jb <= ka - k:
        return 1
    # up to about 512 bits the powers cost no more than the two logs
    if ka > 512:
        x, y = k * _ln(a), j * _ln(b)
        if abs(x - y) > (x + y) * 2**-44:
            return -1 if x < y else 1
    d = a**k - b**j
    return (d > 0) - (d < 0)


def _floor_root(b: int, j: int, k: int) -> int:
    """Largest t with t**k <= b**j, for b >= 1, by bisection on _pow_cmp:
    no power of the size of b**j is built unless a comparison is a near
    tie."""
    lo, hi = 1, 1 << -(-j * b.bit_length() // k)  # b**j < 2**(j bits(b))
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _pow_cmp(mid, k, b, j) <= 0:
            lo = mid
        else:
            hi = mid
    return lo


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


@cache
def _adder(c: int) -> bytes:
    """The translate table of x -> min(x + c, 255), for c >= 0."""
    c = min(c, 255)
    return bytes(range(c, 256)) + b"\xff" * c


def _valuation(x: int, p: int) -> int:
    """The exponent of p in x != 0."""
    e = 0
    while not x % p:
        x //= p
        e += 1
    return e


def _node(g: IntPoly, dg: IntPoly, p: int, e: int, r: int):
    """(mu, ts) for the class n = r (mod p**e), e >= 1: every n in it has
    v_p(g(n)) >= mu, and those of r + t p**e (mod p**(e+1)) all have more
    iff t is in ts; the rest have exactly mu.

    With g(r + p**e h) = sum c_i h**i, mu is the least v_p(c_i), and
    Q(h) = sum (c_i / p**mu) h**i mod p gives ts as its zeros:
    g(r + p**e (t + p h)) / p**mu = Q(t) + p * (an integer).  A root with
    p not dividing g'(r) has mu = e and one zero, its Hensel lift: c_1 =
    g'(r) p**e, and c_i for i >= 2 holds p**(2e).  Otherwise the zeros of Q
    are listed from its values or split like the roots of g, so that a g
    with a repeated factor, all of whose roots take this path, pays no
    O(p) per root above _CZ_FROM."""
    m = p**e
    d = dg.evaluate(r)
    if d % p:
        return e, [-(g.evaluate(r) // m) * pow(d, -1, p) % p]
    cs = g.compose(IntPoly((r, m))).coeffs
    mu = min(_valuation(c, p) for c in cs if c)
    q = [c // p**mu % p for c in cs]
    if p > max(_CZ_FROM, len(q) - 1):
        from .modp import roots_mod
        return mu, roots_mod(q, p)
    return mu, [t for t, v in enumerate(_values(IntPoly(q), 0, p - 1))
                if not v % p]


# The windows' shared part: the scale a/b of the byte sums, lam, the
# sieve primes, the content's share (up, low, P+) of every
# value's sums, and the byte updates of each prime-power class as
# (modulus, residue, up table, low table, p at level 1 else 0): slices
# (modulus <= _WINDOW) and strides (above it, at most one n per window).
_Plan = namedtuple("_Plan", "a b lam primes up low top slices strides")


def _plan(poly: IntPoly, start: int, stop: int, primes: list[int]) -> _Plan:
    """The classes of [start, stop] and the scale of its byte sums."""
    size = stop - start + 1
    # an upper bound on |f(n)| fixes the scale: a/b units per bit, the
    # finest that keeps a (bits - 1) / b, the candidate bound, within a byte
    bound = sum(abs(c) * stop**i for i, c in enumerate(poly.coeffs))
    bits = bound.bit_length()
    if bits <= 256:
        a, b = 255 // max(bits - 1, 1), 1
    else:
        a, b = 1, -(-(bits - 1) // 255)

    def tables(p, w):
        # the byte sums of p**w: least c with 2**(c b) >= p**(a w), and
        # greatest c with 2**(c b) <= p**(a w)
        q = p ** (a * w)
        return (_adder(-(-(q - 1).bit_length() // b)),
                _adder((q.bit_length() - 1) // b))

    up = low = 0
    top = 1
    slices, strides = [], []
    if poly.coeffs:
        content, g = poly.content_split()
        for p in primes:
            if not content % p:
                add_up, add_low = tables(p, _valuation(content, p))
                up, low, top = add_up[up], add_low[low], p
        dg = IntPoly(i * c for i, c in enumerate(g.coeffs) if i)  # g'
        for p, residues in _prime_roots(g, start, stop, primes):
            stack = [(1, r, 0) for r in residues]
            while stack:
                e, r, base = stack.pop()
                m = p**e
                if m > size:
                    # meets the range at most once: its exponent exactly
                    n = start + (r - start) % m
                    if n <= stop and (v := g.evaluate(n)):
                        w = _valuation(v, p) - base
                        strides.append(
                            (m, r, *tables(p, w), p if e == 1 else 0))
                    continue
                mu, ts = _node(g, dg, p, e, r)
                (slices if m <= _WINDOW else strides).append(
                    (m, r, *tables(p, mu - base), p if e == 1 else 0))
                stack += [(e + 1, r + t * m, mu) for t in ts]
    # a cofactor of primes above the sieve is at least P + 1
    lam = ((primes[-1] + 1 if primes else 2) ** a).bit_length() - 1
    return _Plan(a, b, lam, primes, up, low, top, slices, strides)


def _sieve_window(poly: IntPoly, plan: _Plan, j: int, k: int, window):
    """The hits among n in window = (lo, hi), in order, as ScanRecords."""
    lo, hi = window
    values = _values(poly, lo, hi)
    size = len(values)
    up = bytearray([plan.up]) * size
    low = bytearray([plan.low]) * size
    top = [1] * size
    for m, r, add_up, add_low, p in plan.slices:
        i = (r - lo) % m
        up[i::m] = up[i::m].translate(add_up)
        low[i::m] = low[i::m].translate(add_low)
        if p:
            top[i::m] = [p] * len(range(i, size, m))
    for m, r, add_up, add_low, p in plan.strides:
        i = (r - lo) % m
        if i < size:
            up[i] = add_up[up[i]]
            low[i] = add_low[low[i]]
            if p:
                top[i] = p
    a, b, lam = plan.a, plan.b, plan.lam
    # the candidate bound of the shortest value admits every candidate
    least = -(-a * max(min(map(int.bit_length, values)) - 1, 0) // b)
    records = []
    mod = None  # the product of the sieve primes, once a candidate needs it
    at_least = bytes(least) + b"\x01" * (256 - least)  # x -> [x >= least]
    for i in compress(range(size), up.translate(at_least)):
        n, value = lo + i, values[i]
        bits = value.bit_length()
        if bits <= 1:
            # |f(n)| <= 1 has no prime factors: a vacuous hit
            records.append(ScanRecord(n, value, 1, "0.0000"))
            continue
        if b * up[i] < a * (bits - 1):
            continue  # a prime factor above the sieve
        if b * low[i] < a * bits - lam:
            # not certified by low: smooth iff |f(n)| divides mod**bits
            mod = mod or math.prod(plan.primes)
            v = abs(value)
            if pow(mod % v, bits, v):
                continue
        p_plus = max(top[i], plan.top)
        if _pow_cmp(p_plus, k, n, j) < 0:
            records.append(
                ScanRecord(n, value, p_plus, str(decimal_log_ratio(p_plus, n)))
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
    primes = sieve_primes(_floor_root(stop, j, k))
    cut = stop + 1  # the first unresolved n
    if division_budget < len(primes):
        # pi(t_n) > budget iff t_n >= q iff n**j >= q**k, q the next
        # prime; below cut every t_n < q, so the first budget primes
        # cover every prime <= t_n there
        q = primes[division_budget]
        r = _floor_root(q, k, j)
        cut = max(start, r if _pow_cmp(r, j, q, k) == 0 else r + 1)
        del primes[division_budget:]
    plan = _plan(poly, start, cut - 1, primes)
    windows = [(lo, min(lo + _WINDOW, cut) - 1)
               for lo in range(start, cut, _WINDOW)]
    jobs = min(jobs, os.cpu_count() or 1, len(windows) // _POOL_WINDOWS)
    sieve = partial(_sieve_window, poly, plan, j, k)
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
    """One scan record as a JSON line; integers as decimal strings.  Each
    field is digits, a sign or a decimal point, so none needs escaping."""
    return (f'{{"n":"{rec.n}","value":"{rec.value}",'
            f'"p_plus":"{rec.p_plus}","exponent":"{rec.exponent}"}}')

