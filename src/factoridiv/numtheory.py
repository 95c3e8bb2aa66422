"""Integer utilities: primality, factorization with budgets, Legendre
valuations of factorials, the prime runs of Mertens-style selection, and
log ratios and decimal conversions of huge integers.

Factorization is trial division over a small sieve followed by Brent's
variant of Pollard rho.  Rho work is metered by an iteration budget so
callers never hang on a hard semiprime; exceeding the budget raises
FactorizationBudgetError carrying whatever was already split off.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import namedtuple
from decimal import (
    MAX_EMAX,
    MAX_PREC,
    MIN_EMIN,
    ROUND_HALF_EVEN,
    Context,
    Decimal,
    DivisionByZero,
    Inexact,
    InvalidOperation,
    Overflow,
    Rounded,
    localcontext,
)

__all__ = [
    "BudgetExceededError",
    "FactorizationBudgetError",
    "PrimeFactorization",
    "sieve_primes",
    "is_probable_prime",
    "next_prime",
    "is_perfect_square",
    "nu_p_factorial",
    "factorize",
    "euler_phi",
    "divisors",
    "find_prime_divisor_of_values",
    "decimal_log_ratio",
    "DEFAULT_FACTOR_BUDGET",
]

DEFAULT_FACTOR_BUDGET = 2_000_000

_TRIAL_BOUND = 10_000


def sieve_primes(bound: int) -> list[int]:
    """All primes <= bound, by sieve of Eratosthenes."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(bound) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, bound + 1, p)))
    return list(itertools.compress(range(bound + 1), sieve))


_SMALL_PRIMES = sieve_primes(_TRIAL_BOUND)
_SMALL_PRIME_SET = set(_SMALL_PRIMES)

# Strong-pseudoprime test with this base set is deterministic below
# 3317044064679887385961981 (Sorenson-Webster).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_DETERMINISTIC_BOUND = 3317044064679887385961981


class BudgetExceededError(Exception):
    """Base for all budget exhaustion conditions."""


class PrimeFactorization(
    namedtuple("PrimeFactorization", "factors unit", defaults=(1,))
):
    """Sorted (prime, exponent) pairs plus a unit of +-1.

    value reassembles the original integer exactly.
    """

    __slots__ = ()

    @property
    def value(self) -> int:
        out = self.unit
        for p, e in self.factors:
            out *= p**e
        return out


class FactorizationBudgetError(BudgetExceededError):
    """Rho ran out of iterations.

    partial holds the prime factors found so far, cofactor the remaining
    composite piece, budget the limit that was hit.
    """

    def __init__(self, m: int, partial: PrimeFactorization, cofactor: int, budget: int):
        super().__init__(
            f"factorization budget {budget} exhausted on {m}: "
            f"composite cofactor of {cofactor.bit_length()} bits remains"
        )
        self.m = m
        self.partial = partial
        self.cofactor = cofactor
        self.budget = budget


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin; deterministic for n below ~3.3e24, else the fixed
    bases plus 12 extra rounds at bases drawn from a generator seeded
    with n, so the answer depends on n alone."""
    if n < 2:
        return False
    if n < _TRIAL_BOUND:
        return n in _SMALL_PRIME_SET
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1

    def witness(a: int) -> bool:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            return False
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                return False
        return True

    for a in _MR_BASES:
        if witness(a):
            return False
    if n < _MR_DETERMINISTIC_BOUND:
        return True
    rng = random.Random(n)
    for _ in range(12):
        a = rng.randrange(2, n - 1)
        if witness(a):
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    if n <= 2:
        return 2
    cand = n | 1
    while not is_probable_prime(cand):
        cand += 2
    return cand


def is_perfect_square(m: int) -> bool:
    if m < 0:
        return False
    r = math.isqrt(m)
    return r * r == m


def nu_p_factorial(p: int, n: int) -> int:
    """Exponent of the prime p in n!, by the floor-sum formula."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if not is_probable_prime(p):
        raise ValueError(f"{p} is not prime")
    total = 0
    q = p
    while q <= n:
        total += n // q
        q *= p
    return total


def _brent_rho(n: int, budget: int, rng: random.Random) -> tuple[int, int]:
    """Return (nontrivial factor or 0, iterations used).  n odd composite."""
    used = 0
    while used < budget:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1 and used < budget:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1 and used < budget:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                used += min(m, r - k)
                g = math.gcd(q, n)
                k += m
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
                used += 1
                if used >= budget:
                    break
        if 1 < g < n:
            return g, used
    return 0, used


def factorize(m: int, budget: int = DEFAULT_FACTOR_BUDGET) -> PrimeFactorization:
    """Full prime factorization of a nonzero integer.

    Deterministic for a fixed m: rho draws its starts from a generator
    seeded with m.  Raises FactorizationBudgetError when the rho
    iteration budget runs out, with the partial split attached.
    """
    if m == 0:
        raise ValueError("cannot factor zero")
    unit = -1 if m < 0 else 1
    m = abs(m)
    found: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        if p * p > m:
            break
        while m % p == 0:
            found[p] = found.get(p, 0) + 1
            m //= p
    remaining = budget
    rng = None  # seeded with m once rho first runs
    stack = [m] if m > 1 else []
    while stack:
        v = stack.pop()  # > 1: m, a square root, or d, v // d with 1 < d < v
        if is_probable_prime(v):
            found[v] = found.get(v, 0) + 1
            continue
        if is_perfect_square(v):
            r = math.isqrt(v)
            stack.extend((r, r))
            continue
        rng = rng or random.Random((m << 16) ^ 0xF1D0)
        d, used = _brent_rho(v, remaining, rng)
        remaining -= used
        if d == 0:
            cofactor = v
            for w in stack:
                cofactor *= w
            partial = PrimeFactorization(tuple(sorted(found.items())), unit)
            raise FactorizationBudgetError(partial.value * cofactor,
                                           partial, cofactor, budget)
        stack.extend((d, v // d))
    return PrimeFactorization(tuple(sorted(found.items())), unit)


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("n must be positive")
    out = n
    for p, _ in factorize(n).factors:
        out = out // p * (p - 1)
    return out


def divisors(n: int) -> list[int]:
    """The positive divisors of n in ascending order, by trial to sqrt(n)."""
    if n < 1:
        raise ValueError("n must be positive")
    small = []
    large = []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i != n // i:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def _mertens_runs(min_prime: int):
    """Yield (primes, num, den) for ever longer runs of consecutive primes
    from the least prime >= min_prime, with num / den = prod p/(p-1) and
    num the product of the primes.  primes is one list, grown in place."""
    primes: list[int] = []
    num = den = 1
    p = next_prime(min_prime)
    while True:
        primes.append(p)
        num *= p
        den *= p - 1
        yield primes, num, den
        p = next_prime(p + 1)


def find_prime_divisor_of_values(
    q,
    lower_bound: int,
    scan_limit: int = 10_000,
) -> tuple[int, int]:
    """First (l, p) with p prime, p > lower_bound, p | q(l), scanning
    l = 0, 1, 2, ... and taking the smallest qualifying prime of each
    value.  Raises BudgetExceededError after scan_limit values."""
    for l in range(scan_limit + 1):
        v = abs(q.evaluate(l))
        if v < 2:
            continue
        fac = factorize(v)
        for p, _ in fac.factors:
            if p > lower_bound:
                return l, p
    raise BudgetExceededError(
        f"no prime divisor above {lower_bound} among q(0..{scan_limit})"
    )


# Integer arithmetic in Decimal: no sum or product of integers needs more
# than MAX_PREC digits or leaves the exponent range, so nothing rounds, and
# if anything did it would raise.  Use it through localcontext(EXACT), which
# works on a copy.
EXACT = Context(
    prec=MAX_PREC, rounding=ROUND_HALF_EVEN, Emax=MAX_EMAX, Emin=MIN_EMIN,
    traps=[Inexact, Rounded, InvalidOperation, Overflow],
)

# The 50-digit context of log_ratio, fixed here so that no caller's
# rounding or traps reach it.
_LOG_CONTEXT = Context(
    prec=50, rounding=ROUND_HALF_EVEN, Emax=MAX_EMAX, Emin=MIN_EMIN,
    traps=[InvalidOperation, DivisionByZero, Overflow],
)

_LN10 = math.log(10)


def _ln(x) -> float:
    # ln x within a relative 2**-51 for x >= 2, at a cost that does not
    # depend on the size of x.  math.log reads only the top bits of an int
    # (beyond float range it takes log(m) + e*log(2) from a 53-bit frexp):
    # the rounding of x or m and one ulp of libm's log stay within that,
    # against ln x >= ln 2.  A Decimal of at most 20 digits gives math.log
    # the float an int of its value would.  A longer one is y * 10**e with
    # y in [10**19, 10**20) taken to 50 digits, and ln x = ln y + e*ln 10:
    # the float rounding of y, libm's log and the two roundings of e*ln 10
    # add at most 2**-53 * ln x together, as ln y and e*ln 10 sum to
    # ln x > 46, and the final sum adds 2**-53 * ln x more.
    if not isinstance(x, Decimal):
        return math.log(x)
    e = max(x.adjusted() - 19, 0)
    return math.log(float(x.scaleb(-e))) + e * _LN10


def _pow_cmp(a: int, k: int, b: int, j: int) -> int:
    """The sign of a**k - b**j for a >= 0, b >= 1 and k, j >= 1, built only
    when the bit lengths leave it open and the powers are short or a log
    test leaves it open too.  2**(A-1) <= a < 2**A for A = bits(a) >= 1, so
    a**k lies in [2**(k(A-1)), 2**(kA)); likewise b**j, and a = 0 is
    settled by bits(0) = 0 <= j (bits(b) - 1).  _ln is within a
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


def log_ratio(a, b) -> Decimal:
    """log(a)/log(b) for integers a >= 1, b >= 2, given as ints or as
    integral Decimals, quantized to four decimal places (banker's
    rounding)."""
    if a < 1 or b < 2:
        raise ValueError("need a >= 1 and b >= 2")
    with localcontext(_LOG_CONTEXT):
        # Fast path.  Each _ln is within a relative 2**-51 of the true
        # value; the quotient and the product by 10**4 (an exact float) add
        # 2**-53 each.  So x is within 1.2e-15 * x of
        # X = 10**4 * ln a / ln b, and the 50-digit quotient below within
        # about 1e-48 * X of it.  If x is farther than 1e-9 * (1 + x) from
        # the half-integer k + 1/2 (k = floor(x), so x - k is exact), X and
        # the 50-digit quotient lie on the same side of it, and both round
        # to the integer nearest x.  Every x near a tie, and every x >= 5e8
        # (where the band is wider than 1/2), takes the exact body below.
        x = _ln(a) / _ln(b) * 10**4
        k = math.floor(x)
        if abs(x - k - 0.5) > 1e-9 * (1 + x):
            return Decimal(k + (x - k > 0.5)).scaleb(-4)
        # Decimal.ln hardly slows with the size of its argument (under a
        # millisecond at 2 * 10**6 digits); an int comes across by
        # decimal_from_int, as Decimal(int) is quadratic on 3.10 and 3.11
        num, den = (
            v if isinstance(v, Decimal) else decimal_from_int(v) for v in (a, b)
        )
        val = num.ln() / den.ln()
        return val.quantize(Decimal(1).scaleb(-4))


def decimal_log_ratio(a: int, b: int) -> Decimal:
    """log(a)/log(b) for integers a >= 1, b >= 2, quantized to four decimal
    places (banker's rounding)."""
    # log_ratio takes Decimals too, and verify calls it directly: the
    # bench/layers.py hook on this name reads the bit length of its
    # arguments, which a Decimal does not have
    return log_ratio(a, b)


# Kept out of __all__, whose functions bench/layers.py traces: it runs once
# per Pell convergent.
def decimal_digits_upper(bits: int) -> int:
    """Upper estimate of the decimal digits of an integer of the given bit
    length, without str() (which is quadratic on huge integers)."""
    return bits * 30103 // 100000 + 1


# The decimal conversions below are kept out of __all__ as well.  Strings of
# at most _DIGIT_CHUNK digits go straight to int() and str(): no process may
# set int_max_str_digits to a nonzero value below 640, so those calls never
# depend on it.
_DIGIT_CHUNK = 640


# called only with _DIGIT_CHUNK * 2**j, so a few entries serve every integer
@functools.lru_cache(maxsize=32)
def _pow10(k: int) -> int:
    return 10**k


def int_from_digits(digits: str) -> int:
    """int(digits) for a string of ASCII digits, at any length.

    A long run splits into a low part of _DIGIT_CHUNK * 2**j digits and a
    high part no longer than that, joined as hi * 10**len(lo) + lo, so
    CPython's Karatsuba multiplication does the work: subquadratic, where
    int() is quadratic on 3.11.  Only the leaves are sliced out."""

    def parse(start: int, stop: int) -> int:
        if stop - start <= _DIGIT_CHUNK:
            return int(digits[start:stop])
        k = _DIGIT_CHUNK
        while 2 * k < stop - start:
            k *= 2
        return parse(start, stop - k) * _pow10(k) + parse(stop - k, stop)

    return parse(0, len(digits))


# bits per leaf of decimal_from_int: 2**2048 has 617 digits, so no int it
# passes to Decimal() has more than _DIGIT_CHUNK digits
_BIT_CHUNK = 2048


# called only with _BIT_CHUNK * 2**j, inside EXACT
@functools.lru_cache(maxsize=32)
def _pow2(k: int) -> Decimal:
    if k == _BIT_CHUNK:
        return Decimal(1 << k)
    half = _pow2(k // 2)
    return half * half


def decimal_from_int(n: int) -> Decimal:
    """Decimal(n), exact, at any size.

    The mirror of int_from_digits: a long n splits into a low part of
    _BIT_CHUNK * 2**j bits and a high part no longer than that, joined as
    hi * 2**k + lo in exact Decimal arithmetic, so libmpdec's fast
    multiplication does the work: subquadratic, where Decimal(n) is
    quadratic on 3.10 and 3.11."""

    def convert(m: int, bits: int) -> Decimal:
        if bits <= _BIT_CHUNK:
            return Decimal(m)
        k = _BIT_CHUNK
        while 2 * k < bits:
            k *= 2
        hi = m >> k
        return convert(hi, bits - k) * _pow2(k) + convert(m - (hi << k), k)

    with localcontext(EXACT):
        d = convert(abs(n), n.bit_length())
        return -d if n < 0 else d


def decimal_str(n) -> str:
    """str(n) at any size, whatever int_max_str_digits allows.  An int
    longer than _BIT_CHUNK bits is written by decimal_from_int, whose
    binary splitting is subquadratic where str() is quadratic on 3.10 and
    3.11.  An integral Decimal gives its plain digits."""
    if isinstance(n, Decimal):
        return format(n.to_integral_value(), "f")
    if n.bit_length() <= _BIT_CHUNK:
        return str(n)
    return format(decimal_from_int(n), "f")
