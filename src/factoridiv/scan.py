"""Range scanning for smooth polynomial values.

A value f(n) is a hit at exponent theta = j/k when its largest prime
factor P+ satisfies (P+)**k < n**j.  Every hit is decided in integers: a
float only ever settles a comparison whose margin it proves (_pow_cmp).

The scanner is a logarithmic root sieve, as in the quadratic sieve
(Pomerance 1982; Crandall & Pomerance, Prime Numbers, sections 3.2 and
6.1).  Write f = c g with c the content.  For each prime p <= t_cap =
floor(stop**(j/k)) it finds once the residues r with g(r) = 0 (mod p).

Roots mod p.  _split writes g = +-h prod(v_i x - u_i) once, over Q: a
quadratic splits iff its discriminant is a square, and a g of higher
degree sheds the factors x and, when its lead and g(0) are small, the
v x - u of its rational roots u/v.  The roots of g mod p are those of its
factors: reducing the product mod p and evaluating at r are ring maps,
and Z/p is a field, so g(r) = 0 (mod p) iff some factor vanishes at r.
A factor v x - u, with gcd(u, v) = 1, has the root u/v mod p, none when
p | v.  An h of degree >= 3 has its roots read off the first min(p, L)
values of the range, L its length, while that is at most _CZ_FROM.  Any
other h, reduced mod p (not all zero, as h is primitive), goes to _zeros,
as does the Q of a prime-power class (below).  _zeros reads a polynomial
at 0 and 1 for p = 2.  For odd p it strips the top zeros, which p | lead
leaves: a linear b x + c has the zero -c/b, and a quadratic a x**2 + b x
+ c has zeros iff its discriminant D is a square mod p (Euler's
criterion), then (-b +- sqrt D) / 2a, the square root by Tonelli-Shanks.
From degree 3 on, modp.roots_mod splits it by Cantor-Zassenhaus (Math.
Comp. 36, 1981) with the shifts a = 0, 1, 2, ..., so root finding costs
O(deg**2 log p) per prime, not O(p), and uses no randomness.  The union
of the residues, in the order the range meets them, is what listing g
itself would give.

Prime-power classes.  Each root class is lifted to its classes mod p**e
while p**e is at most the range length L (_node): a simple root has one
Hensel lift, and a root with p | g'(r) has those of its p children on
which the valuation grows, the zeros (_zeros) of a polynomial Q mod p of
degree at most the root's multiplicity.  Each class carries the weight w
by which it raises the least valuation of its parent, so that along the
classes of n the weights add up to v_p(g(n)).  A class mod p**e > L
meets the range at most once; its n is found and its remaining exponent
taken by exact division, once per scan.  Every value also gets v_p(c).

Byte sums.  A unit is b/a bits, the finest that keeps every bound below
within a byte (a/b is set from a bound on |f(n)| over the range).  The
classes form one list in ascending p.  Each window keeps two bytearrays,
up and low, and every class adds to its n the least up(p**w) and the
greatest low(p**w) with 2**(b up) >= p**(a w) >= 2**(b low), saturating
at 255: with one C-level translate of a slice if its modulus is below the
window's length, else at the one n, if any, where the window meets it.
So up[n] >= a/b log2 S and low[n] <= a/b log2 S, where S is the part of
|f(n)| that the window's classes and the content count, whatever the
window's width.  top[n] is set to p by the classes mod p; primes run in
ascending order, so it ends at the largest.

Windows.  A window is as wide as the largest power of two <= lo, held
within [_WINDOW, _WINDOW_MAX]: it visits its classes once for up to lo
values, and from lo >= _WINDOW on its hi is below 2 lo.  A hit at n
needs P+ <= t_n = floor(n**(j/k)), so the window [lo, hi] sieves only
the classes of the primes up to P = t_hi = floor(hi**(j/k)): a value
with a prime factor above P is no hit in it.
So S holds every prime up to P to its full exponent, and a content prime
above P to at most its full exponent.  With B the bit length of
|f(n)| >= 2:
- candidate iff b up >= a (B - 1).  A value whose prime factors are all
  at most P has S = |f(n)| and a/b log2 S >= a/b (B - 1), and a saturated
  byte still passes, since a (B - 1) / b <= 255 by the choice of unit.  A
  value that is no candidate has a prime factor above P: no hit.
- a candidate has S = |f(n)| if b low >= a B - lam, lam = floor(a
  log2(P+1)) (_lam).  Proof: a cofactor |f(n)| / S above 1 has only
  primes above P, so it is at least P + 1, and then S < 2**B / (P+1)
  gives b low <= a log2 S < a B - a log2(P+1) <= a B - lam.  Saturation
  only lowers low.
- any other candidate has no prime factor above P, and then S = |f(n)|,
  iff pow(M mod |f(n)|, B, |f(n)|) = 0, M the product of the primes up
  to P: no exponent in |f(n)| reaches B.  M holds no prime above P: a
  prime q in (P, t_cap] is not sieved in the window, so a value with q
  would pass and, q missing from top, be taken for a hit.
A value with S = |f(n)| has P+ = max(top[n], P+(c)), a content prime
above P included.  It is a hit iff P+**k < n**j: with t_lo =
floor(lo**(j/k)), P+ < t_lo gives P+**k < t_lo**k <= lo**j <= n**j, a
hit, and P+ > t_hi gives P+**k >= (t_hi+1)**k > hi**j >= n**j, none, so
only P+ in [t_lo, t_hi] calls _pow_cmp.  Every other value has a prime
factor above P >= t_n, so P+**k > n**j.  No value is divided per hit,
none is misclassified, and no per-value root is taken.

Values.  One bound, from the shortest value in a window, admits every
candidate in it.  For f of degree d >= 1 with coefficients a_i, rise =
2 max_i 2**ceil(e_i / i), with e_i = max(bits(a_(d-i)) - bits(a_d) + 1,
0) for i = 1..d, exceeds every real root of f and of f': 2**e_i >
|a_(d-i) / a_d|, so by Fujiwara's bound (Tohoku Math. J. 10, 1916) every
complex root z of f has |z| <= 2 max_i |a_(d-i) / a_d|**(1/i) < rise, and
by Gauss-Lucas the roots of f' lie in their convex hull.  On [rise, oo)
neither f nor f' vanishes, so both have the sign of a_d, f f' > 0 and
|f| increases (for d = 0, rise = 0 and |f| is constant).  A window with
lo >= rise takes the bound from |f(lo)| and evaluates f by Horner at its
candidates only; a window below rise computes all its values (_values)
and takes their least bit length.  From rise on bit lengths do not
decrease, so a window that the shortest value's bound leaves with more
than s bits(size) values, s the bits that f(hi) has over the shortest
value, finds where each bit length starts by bisection (_bit_runs) and
gives each run its own bound: from rise on that is the candidate test
itself, and the bisection costs fewer evaluations than it saves.

A value with |f(n)| <= 1, f(n) = 0 included, has no prime factors at all:
it is a vacuous hit with P+ = 1 and exponent 0.0000.

division_budget caps the sieve primes per value: f(n) is unresolved iff
pi(t_n) > division_budget, where pi counts the primes.  Since t_n grows
with n, the unresolved values are a suffix of the range; the scanner
finds where it starts and never sieves it, though vacuous values in it
are still hits, up to the first n >= rise with |f(n)| > 1.  A budget of
at least pi(t_cap) resolves every value.
Only the first division_budget + 1 primes are ever used, so the sieve
stops at a bound on the (division_budget + 1)-th prime (_prime_bound)
when that is below t_cap: a small budget sieves little near 10**18.
If t_start = floor(start**(j/k)) already reaches that bound, or from
5393 on exceeds division_budget (ln t_start - 1), so that pi(t_start) >
division_budget by Dusart's lower bound (_past_budget), every value is
unresolved and neither the sieve nor the plan is built.  A sieve bound
above _SIEVE_CAP raises ValueError before anything is allocated.

jobs > 1 deals the windows to worker processes, one contiguous run of
windows per worker.  The classes are found once, in the calling
process, and the records come back in window order, so the output does
not depend on jobs.  jobs is clamped to the CPU count, the window count
and so that each worker gets at least _POOL_VALUES values, below which a
pool costs more than it saves: a range of fewer than 2 * _POOL_VALUES
values to sieve is sieved in-process whatever jobs is.  The windows widen
along the range, so the workers' runs hold equal window counts but not
equal value counts.
"""

from __future__ import annotations

import math
import os
import sys
from bisect import bisect_right
from collections import namedtuple
from fractions import Fraction
from functools import cache, partial
from itertools import accumulate, compress, islice, pairwise, repeat
from operator import itemgetter

from .intpoly import IntPoly
from .numtheory import (
    _log_ratio_e4,
    _pow_cmp,
    decimal_log_ratio,
    divisors,
    sieve_primes,
)

__all__ = [
    "ScanRecord",
    "ScanSummary",
    "scan_range",
    "record_json",
]

# the least and the greatest values per sieve window.  A window is as wide
# as the largest power of two <= its first n, held within these: a wide
# window visits every class once for many values, one below 2 lo keeps
# its values' t and bit lengths close, and the cap keeps memory flat, two
# bytearrays and a list of 65 536 entries per window
_WINDOW = 1 << 12
_WINDOW_MAX = 1 << 16

# the fewest values per worker process, 160 windows of 4096.  Below it
# starting the pool and pickling the records cost more than the split
# sieve saves.  On 2 CPUs, for x**2 + 1 at theta = 14/25 (the cheapest
# values), with 4096-value windows, two workers beat one in every paired
# CLI run from 160 windows each up (20 of 20 pairs at 160-192); from 96 to
# 144 windows each the pool won 17 of 26 pairs, with the host's load, and
# at 32-64 windows each 1 of 8
_POOL_VALUES = 655_360

# the roots mod p of a remainder of degree >= 3 (_split) are listed from
# the values of the range while min(p, range length) is at most this,
# above it found by Cantor-Zassenhaus (_zeros): listing costs min(p, range
# length) reductions, splitting about log2(p) polynomial squarings per
# split.  On quadratics to quartics splitting was 0.6-1.0 times as fast
# as listing near p = 500, 1.0-1.7 times near 1000 and 1.3-2.2 times near
# 1500
_CZ_FROM = 1500

# _split looks for rational roots only when |g(0)| and the lead are below
# this: it tries the divisors u of g(0) over those v of the lead, and
# numtheory.divisors trial-divides up to the square root, which took 1 s
# at 10**14 + 31.  Below 10**6 a value has at most 240 divisors
_RATIONAL_BELOW = 10**6

# the largest sieve bound: bound + 36 pi(bound) bytes, the bytearray and
# the prime list, is under 1 GB, and the default budget's bound is 9.1e7
_SIEVE_CAP = 1 << 28


# exponent is log(P+)/log(n) as a string, to four decimal places
ScanRecord = namedtuple("ScanRecord", "n value p_plus exponent")
ScanSummary = namedtuple("ScanSummary", "examined hits unresolved min_exponent")


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


def _prime_bound(m: int) -> int:
    """An integer at least p_m, the m-th prime, for m >= 1: p_m < m (ln m
    + ln ln m) for m >= 6 (Rosser & Schoenfeld, Illinois J. Math. 6
    (1962)), and p_5 = 11.  The + 1 absorbs the float rounding, under 1
    for any bound below 2**50; above, p_m < m (ln m + ln ln m - 0.9484)
    for m >= 39017 (Dusart, Math. Comp. 68 (1999)) leaves a margin above
    m/2, far more than the rounding."""
    if m < 6:
        return 13
    return math.ceil(m * (math.log(m) + math.log(math.log(m)))) + 1


def _past_budget(t: int, budget: int) -> bool:
    """True only if pi(t) > budget, for 0 <= budget < sys.maxsize.  Below
    5393, t >= _prime_bound(budget + 1) >= p_(budget+1).  From 5393 on,
    pi(t) >= t / (ln t - 1) (Dusart, thesis, Limoges 1998); the float
    budget (ln t - 1), with ln t - 1 > 7.5, is within a relative 2**-50,
    which the factor 1 + 2**-40 covers, and an int and a float compare
    exactly.  Every t >= _prime_bound(budget + 1) passes (checked for each
    budget up to 2 * 10**5 and sampled up to sys.maxsize)."""
    if t < 5393:
        return t >= _prime_bound(budget + 1)
    return t > budget * (math.log(t) - 1) * (1 + 2**-40)


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


def _split(g: IntPoly) -> tuple[list[tuple[int, int]], IntPoly]:
    """(lins, h) with g = +-h prod(v x - u for (u, v) in lins), each u/v in
    lowest terms with v > 0, for g primitive with a positive lead.  h is
    primitive (Gauss's lemma) with a positive lead: 1 once g is split into
    linear factors, else a quadratic with no rational root, or a g of
    degree >= 3 that the rational-root test skipped or found no root of.
    Every rational root r of a primitive g gives a primitive factor
    v x - u of it in Z[x], so the quotient is integral."""
    lins = []
    while len(g.coeffs) > 1:
        cs = g.coeffs
        if len(cs) == 2:
            lins.append((-cs[0], cs[1]))
            return lins, IntPoly((1,))
        if len(cs) == 3:
            c, b, a = cs
            disc = b * b - 4 * a * c
            s = math.isqrt(disc) if disc >= 0 else -1
            if s * s != disc:
                break  # no rational root
            for u in (s - b, -s - b):
                d = math.gcd(u, 2 * a)
                lins.append((u // d, 2 * a // d))
            return lins, IntPoly((1,))
        if not cs[0]:
            lins.append((0, 1))
            g = IntPoly(cs[1:])
            continue
        found = _linear_factor(g)
        if found is None:
            break
        u, v, g = found
        lins.append((u, v))
    return lins, g


def _linear_factor(g: IntPoly):
    """(u, v, g / (v x - u)) for a root u/v of g in lowest terms, v > 0,
    or None: g(0) != 0 and deg g >= 3.  A root has u | g(0) and v | lead;
    only g with both below _RATIONAL_BELOW is searched."""
    c, lead = abs(g.coeffs[0]), g.coeffs[-1]
    if max(c, lead) >= _RATIONAL_BELOW:
        return None
    at_one, at_minus_one = g.evaluate(1), g.evaluate(-1)
    for v in divisors(lead):
        for d in divisors(c):
            for u in (d, -d):
                # v x - u | g gives v - u | g(1) and v + u | g(-1)
                if (math.gcd(u, v) > 1 or v != u and at_one % (v - u)
                        or v != -u and at_minus_one % (v + u)):
                    continue
                q = g.exact_divide(IntPoly((-u, v)))
                if q is not None:
                    return u, v, q
    return None


def _sqrt_mod(n: int, p: int) -> int:
    """A square root of n mod p, for an odd prime p and a nonzero square n
    mod p, by Tonelli-Shanks (Cohen, A Course in Computational Algebraic
    Number Theory, Alg. 1.5.1): one power when p = 3 (mod 4)."""
    if p & 3 == 3:
        return pow(n, (p + 1) >> 2, p)
    e = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = 2**e q, q odd
    q = (p - 1) >> e
    z = 2
    while pow(z, p >> 1, p) == 1:  # a non-square
        z += 1
    y, r = pow(z, q, p), e
    x = pow(n, q >> 1, p)
    b = n * x * x % p
    x = n * x % p
    while b != 1:
        m, t = 1, b * b % p
        while t != 1:
            m, t = m + 1, t * t % p
        t = pow(y, 1 << (r - m - 1), p)
        y, r = t * t % p, m
        x, b = x * t % p, b * y % p
    return x


def _zeros(q: list[int], p: int) -> list[int]:
    """The distinct zeros mod p of q, a coefficient list reduced mod p and
    not all zero, whose top zeros it strips in place: read at 0 and 1 for
    p = 2, in closed form up to degree 2, and split by Cantor-Zassenhaus
    (modp.roots_mod) from degree 3 on."""
    if p == 2:
        return [r for r, v in ((0, q[0]), (1, sum(q))) if not v % 2]
    while not q[-1]:
        q.pop()
    if len(q) > 3:
        # imported here: a scan with no zeros of degree >= 3 to find would
        # pay for compiling it otherwise
        from .modp import roots_mod
        return roots_mod(q, p)
    if len(q) < 3:
        return [-q[0] * pow(q[1], -1, p) % p] if len(q) == 2 else []
    c, b, a = q
    d = (b * b - 4 * a * c) % p
    inv = pow(2 * a, -1, p)
    if not d:
        return [-b * inv % p]
    if pow(d, p >> 1, p) != 1:  # Euler's criterion: no square root
        return []
    s = _sqrt_mod(d, p)
    return [(s - b) * inv % p, (-s - b) * inv % p]


def _prime_roots(poly: IntPoly, start: int, stop: int, primes: list[int]):
    """(p, residues r with f(r) = 0 mod p) for each of the primes that
    divides some f(n) with n in [start, stop], the residues in the order
    the range meets them, that is by (r - start) mod p.  f is primitive
    with a positive lead, so no prime divides all its coefficients.  Each
    factor of f (_split) gives its roots mod p on its own (module
    docstring)."""
    size = stop - start + 1
    lins, h = _split(poly)
    lins = set(lins)  # a repeated factor's copies give one residue
    # a remainder of degree >= 3 is read at the first min(p, size) values
    # of the range while that is at most _CZ_FROM: p consecutive values
    # meet every residue class mod p once, a range shorter than p only the
    # classes of its own values
    head = (_values(h, start, start + min(size, _CZ_FROM, primes[-1]) - 1)
            if len(h.coeffs) > 3 and primes else None)
    roots = []
    for p in primes:
        found = {u * pow(v, -1, p) % p for u, v in lins if v % p}
        if head and (m := min(p, size)) <= _CZ_FROM:
            found.update((start + i) % p for i in range(m) if not head[i] % p)
        elif len(h.coeffs) > 1:  # h = 1 once g splits into linear factors
            found.update(_zeros([c % p for c in h.coeffs], p))
        # by (r - start) mod p, of those the range meets
        keys = sorted({(r - start) % p for r in found})
        if residues := [(start + i) % p for i in keys if i < size]:
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
    g'(r) p**e, and c_i for i >= 2 holds p**(2e).  Otherwise Q has degree
    at most the multiplicity k of r as a root of g mod p: c_i = g_i p**(e i)
    with g_i the i-th Taylor coefficient of g at r, which mod p is that of
    g mod p, so c_k has valuation exactly e k, and c_i for i > k holds
    p**(e i), more than p**(e k) >= p**mu.  So Q is at most quadratic at a
    double root, which is what a squared factor has at every prime but the
    few where its roots meet another factor's, and _zeros splits Q only at
    a root of multiplicity 3 or more."""
    m = p**e
    d = dg.evaluate(r)
    if d % p:
        return e, [-(g.evaluate(r) // m) * pow(d, -1, p) % p]
    cs = g.compose(IntPoly((r, m))).coeffs
    mu = min(_valuation(c, p) for c in cs if c)
    return mu, _zeros([c // p**mu % p for c in cs], p)


# The windows' shared part: the scale a/b of the byte sums, rise (see
# _rise), the sieve primes, the content's share (up, low, P+) of every
# value's sums, and the byte updates of each prime-power class as
# (modulus, residue, up table, low table, p), in ascending order of p, so
# that a window takes a prefix.  A class is of level 1 iff modulus == p.
_Plan = namedtuple("_Plan", "a b rise primes up low top classes")

_BASE = itemgetter(4)  # the prime of a class


def _rise(poly: IntPoly) -> int:
    """An n from which |f| increases, or stays constant for deg f <= 0: a
    bound above the real roots of f and f' (Values, module docstring)."""
    *rest, lead = poly.coeffs or (0,)
    shift = lead.bit_length() - 1
    return 2 * max((1 << -(-max(c.bit_length() - shift, 0) // i)
                    for i, c in enumerate(reversed(rest), 1)), default=0)


def _lam(t: int, a: int) -> int:
    """floor(a log2(t + 1)), at most a log2 of any integer above 1 whose
    prime factors all exceed t."""
    return ((t + 1) ** a).bit_length() - 1


def _plan(poly: IntPoly, start: int, stop: int, primes: list[int],
          rise: int) -> _Plan:
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
    classes = []
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
                        classes.append((m, r, *tables(p, w), p))
                    continue
                mu, ts = _node(g, dg, p, e, r)
                classes.append((m, r, *tables(p, mu - base), p))
                stack += [(e + 1, r + t * m, mu) for t in ts]
    return _Plan(a, b, rise, primes, up, low, top, classes)


@cache
def _at_least(least: int) -> bytes:
    """The translate table of x -> [x >= least], for 0 <= least <= 255."""
    return bytes(least) + b"\x01" * (256 - least)


def _bit_runs(poly: IntPoly, lo: int, hi: int, rise: int, values):
    """[(i, B), ...] in ascending i from i = 0, one per run of [lo, hi]: B
    is the least bit length of |f(n)| for n = lo + i up to the next run.
    From rise on |f| increases, so bit lengths do not decrease, and each
    run is one bit length, whose start is found by bisection; below rise
    one run takes the least of all.  values is f on [lo, hi], computed
    whenever lo < rise, or None."""
    size = hi - lo + 1

    def bits(i):
        return (poly.evaluate(lo + i) if values is None
                else values[i]).bit_length()

    i = max(min(rise - lo, size), 0)
    runs = [(0, min(map(int.bit_length, values[:i])))] if i else []
    while i < size:
        runs.append((i, bits(i)))
        last, i = i, size  # bits(last) is the run's, bits(i) is longer
        while i - last > 1:
            mid = (last + i) // 2
            if bits(mid) > runs[-1][1]:
                i = mid
            else:
                last = mid
    return runs


def _exponent(p: int, n: int) -> str:
    """str(log_ratio(p, n)): four decimals from the float quotient, the
    50-digit one only near a tie."""
    k = _log_ratio_e4(p, n)
    if k is None:
        return str(decimal_log_ratio(p, n))
    return f"{k // 10000}.{k % 10000:04d}"


def _sieve_window(poly: IntPoly, plan: _Plan, j: int, k: int, window):
    """The hits among n in window = (lo, hi), in order, as ScanRecords."""
    lo, hi = window
    size = hi - lo + 1
    # a hit needs P+ <= t_hi: the primes above it are not sieved here
    t_lo, t_hi = _floor_root(lo, j, k), _floor_root(hi, j, k)
    up = bytearray([plan.up]) * size
    low = bytearray([plan.low]) * size
    top = [1] * size
    for m, r, add_up, add_low, p in islice(
            plan.classes, bisect_right(plan.classes, t_hi, key=_BASE)):
        i = (r - lo) % m
        if m < size:
            up[i::m] = up[i::m].translate(add_up)
            low[i::m] = low[i::m].translate(add_low)
            if m == p:
                top[i::m] = [p] * len(range(i, size, m))
        elif i < size:  # the window meets the class at most once
            up[i] = add_up[up[i]]
            low[i] = add_low[low[i]]
            if m == p:
                top[i] = p
    a, b = plan.a, plan.b

    def at_least(bits):  # the candidate test of a value of these bits
        return _at_least(-(-a * max(bits - 1, 0) // b))

    if lo < plan.rise:
        values = _values(poly, lo, hi)
        shortest = min(map(int.bit_length, values))
    else:  # |f| increases from lo on: f(lo) is the shortest value
        values = None
        shortest = poly.evaluate(lo).bit_length()
    # the candidate bound of the shortest value admits every candidate
    cand = up.translate(at_least(shortest))
    if hi >= plan.rise:
        # where that bound admits more values than finding the runs of the
        # span bit lengths costs evaluations, each run takes its own bound
        span = (poly.evaluate(hi) if values is None
                else values[-1]).bit_length() - shortest
        if span and cand.count(1) > span * size.bit_length():
            runs = _bit_runs(poly, lo, hi, plan.rise, values)
            for (i, bits), (end, _) in pairwise(runs + [(size, 0)]):
                cand[i:end] = up[i:end].translate(at_least(bits))
    lam = _lam(t_hi, a)
    records = []
    mod = None  # the product of the primes up to t_hi, once needed
    for i in compress(range(size), cand):
        n = lo + i
        value = poly.evaluate(n) if values is None else values[i]
        bits = value.bit_length()
        if bits <= 1:
            # |f(n)| <= 1 has no prime factors: a vacuous hit
            records.append(ScanRecord(n, value, 1, "0.0000"))
            continue
        if b * up[i] < a * (bits - 1):
            continue  # a prime factor above t_hi
        if b * low[i] < a * bits - lam:
            # not certified by low: P+ <= t_hi iff |f(n)| divides mod**bits
            if mod is None:
                mod = math.prod(islice(plan.primes,
                                       bisect_right(plan.primes, t_hi)))
            v = abs(value)
            if pow(mod % v, bits, v):
                continue
        p_plus = max(top[i], plan.top)
        if p_plus < t_lo or p_plus <= t_hi and _pow_cmp(p_plus, k, n, j) < 0:
            records.append(ScanRecord(n, value, p_plus, _exponent(p_plus, n)))
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
    clamped to the CPU count, the window count and one worker per
    _POOL_VALUES values, and the result does not depend on it."""
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
    # the scan keeps at most the first division_budget + 1 primes, and
    # there are fewer than t_cap primes up to t_cap
    bound = _floor_root(stop, j, k)
    cut = stop + 1  # the first unresolved n
    # a budget >= sys.maxsize caps at >= sys.maxsize: skip its float math
    if division_budget < min(bound, sys.maxsize):
        if _past_budget(_floor_root(start, j, k), division_budget):
            cut = start  # every t_n reaches the next prime: none resolved
        bound = min(bound, _prime_bound(division_budget + 1))
    if cut > start and bound > _SIEVE_CAP:
        raise ValueError(f"the sieve bound is above {_SIEVE_CAP}, the "
                         "largest the scan allocates")
    primes = sieve_primes(bound) if cut > start else []
    if division_budget < len(primes):
        # pi(t_n) > budget iff t_n >= q iff n**j >= q**k, q the next
        # prime; below cut every t_n < q, so the first budget primes
        # cover every prime <= t_n there
        q = primes[division_budget]
        r = _floor_root(q, k, j)
        cut = max(start, r if _pow_cmp(r, j, q, k) == 0 else r + 1)
        del primes[division_budget:]
    windows = []
    lo = start
    while lo < cut:
        # the largest power of two <= lo, within [_WINDOW, _WINDOW_MAX]
        width = max(_WINDOW, min(1 << (lo.bit_length() - 1), _WINDOW_MAX))
        windows.append((lo, min(lo + width, cut) - 1))
        lo += width
    jobs = min(jobs, os.cpu_count() or 1, len(windows),
               (cut - start) // _POOL_VALUES)
    rise = _rise(poly)
    plan = _plan(poly, start, cut - 1, primes, rise) if windows else None
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
    tail = []  # the vacuous hits among the unresolved values
    for n in range(cut, stop + 1):
        value = poly.evaluate(n)
        if -1 <= value <= 1:
            tail.append(ScanRecord(n, value, 1, "0.0000"))
        elif n >= rise:
            break  # |f| increases from rise on: no vacuous value is left
    records += tail
    # an exponent is "0.dddd" or "1.0000" (P+ < n**theta with theta < 1,
    # or a vacuous 0.0000), so string order is numeric order
    summary = ScanSummary(
        examined=stop - start + 1,
        hits=len(records),
        unresolved=stop + 1 - cut - len(tail),
        min_exponent=min((rec.exponent for rec in records), default=None),
    )
    return records, summary


def record_json(rec: ScanRecord) -> str:
    """One scan record as a JSON line; integers as decimal strings.  Each
    field is digits, a sign or a decimal point, so none needs escaping."""
    return (f'{{"n":"{rec.n}","value":"{rec.value}",'
            f'"p_plus":"{rec.p_plus}","exponent":"{rec.exponent}"}}')

