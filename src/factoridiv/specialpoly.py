"""Cyclotomic polynomials, their real halves, and Chebyshev polynomials.

cyclotomic(n) divides x**n - 1 by the product of the lower cyclotomics,
memoized.  That product is monic, so the division runs on plain integers
(IntPoly.exact_divide never leaves Z for a divisor led by +-1).  Two
classical identities keep the recursion on squarefree odd kernels so
large even indices stay cheap:

    Phi_{2m}(x)  = Phi_m(-x)        for odd m > 1
    Phi_{pm}(x)  = Phi_m(x**p)      when the prime p already divides m

psi(n) is the integer polynomial of degree phi(n)/2 with
psi(y + 1/y) * y**(phi(n)/2) = Phi_n(y); equivalently the minimal
polynomial of 2*cos(2*pi/n) once n >= 3.

chebyshev_terms() generates the first-kind Chebyshev polynomials
T_0, T_1, ... under T_{n+1} = 2x T_n - T_{n-1}, holding only the last
two; chebyshev_t(n) is its n-th term and a table is one pass over it.

The identity checks here raise ArithmeticError, so they also run under
python -O.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice

from .intpoly import IntPoly
from .numtheory import divisors, factorize

__all__ = [
    "cyclotomic",
    "psi",
    "chebyshev_terms",
    "chebyshev_t",
    "chebyshev_t_value",
    "chebyshev_factor_values",
]

_cyclo_cache: dict[int, IntPoly] = {}


def _cyclotomic_base(n: int) -> IntPoly:
    # x**n - 1 divided by the product of Phi_d over proper divisors d.
    if n == 1:
        return IntPoly((-1, 1))
    denom = IntPoly((1,))
    for d in divisors(n)[:-1]:
        denom = denom.multiply(cyclotomic(d))
    xn1 = IntPoly((-1,) + (0,) * (n - 1) + (1,))
    q = xn1.exact_divide(denom)
    if not isinstance(q, IntPoly):
        raise ArithmeticError(f"cyclotomic recursion broke at {n}")
    return q


def cyclotomic(n: int) -> IntPoly:
    if n < 1:
        raise ValueError("index must be positive")
    got = _cyclo_cache.get(n)
    if got is not None:
        return got
    sf = 1  # squarefree kernel
    rest = 1
    for p, e in factorize(n).factors:
        sf *= p
        rest *= p ** (e - 1)
    if sf != n:
        inner = cyclotomic(sf)
        out = inner.compose(IntPoly.monomial(rest))
    elif n % 2 == 0 and n > 2:
        m = n // 2  # odd and > 1 here since n is squarefree
        inner = cyclotomic(m)
        out = inner.compose(IntPoly((0, -1)))
        if out.leading < 0:
            out = out.negate()
    else:
        out = _cyclotomic_base(n)
    _cyclo_cache[n] = out
    return out


def psi(n: int) -> IntPoly:
    """Real half of the n-th cyclotomic polynomial, n >= 3.

    Writing m = phi(n)/2 and using that Phi_n is palindromic of degree 2m,
    Phi_n(y)/y**m = c_m + sum_{k>=1} c_{m+k} (y**k + y**-k), and
    y**k + y**-k = V_k(y + 1/y) with V_0 = 2, V_1 = x,
    V_k = x V_{k-1} - V_{k-2}.
    """
    if n < 3:
        raise ValueError("defined for n >= 3")
    phin = cyclotomic(n)
    c = phin.coeffs
    m = (len(c) - 1) // 2
    if len(c) - 1 != 2 * m:
        raise ArithmeticError(f"Phi_{n} has odd degree")
    if any(c[m + k] != c[m - k] for k in range(1, m + 1)):
        raise ArithmeticError(f"Phi_{n} is not palindromic")
    out = IntPoly((c[m],))
    v_prev = IntPoly((2,))
    v_cur = IntPoly((0, 1))
    x = IntPoly((0, 1))
    for k in range(1, m + 1):
        out = out.add(v_cur.scale(c[m + k]))
        v_prev, v_cur = v_cur, x.multiply(v_cur).subtract(v_prev)
    return out


def chebyshev_terms():
    """T_0, T_1, T_2, ... without end; only the last two are kept."""
    t_prev = IntPoly((1,))
    t_cur = IntPoly((0, 1))
    two_x = IntPoly((0, 2))
    yield t_prev
    while True:
        yield t_cur
        t_prev, t_cur = t_cur, two_x.multiply(t_cur).subtract(t_prev)


@lru_cache(maxsize=None)
def chebyshev_t(n: int) -> IntPoly:
    if n < 0:
        raise ValueError("index must be nonnegative")
    return next(islice(chebyshev_terms(), n, None))


def chebyshev_t_value(n: int, s: int) -> int:
    """T_n(s) by the value recurrence t_{k+1} = 2 s t_k - t_{k-1}."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    if n == 0:
        return 1
    t_prev, t_cur = 1, s
    for _ in range(n - 1):
        t_prev, t_cur = t_cur, 2 * s * t_cur - t_prev
    return t_cur


def chebyshev_factor_values(n: int, s: int) -> list[tuple[int, int]]:
    """Pairs (d, psi_{4d}(2s)) over divisors d of n with n/d odd.

    The values multiply to exactly 2*T_n(s); this identity is checked.
    Values are produced by recursion on the identity itself,
    psi_{4P}(2s) = 2 T_P(s) / prod_{d | P, P/d odd, d < P} psi_{4d}(2s),
    so no large-degree polynomial is ever built.  A zero intermediate
    (possible only for tiny |s|) falls back to direct evaluation.
    """
    if n < 1:
        raise ValueError("index must be positive")
    odd_cofactor = [d for d in divisors(n) if (n // d) % 2 == 1]
    values: dict[int, int] = {}
    for d in odd_cofactor:
        prod = 1
        for e in odd_cofactor:
            if e < d and d % e == 0 and (d // e) % 2 == 1:
                prod *= values[e]
        numer = 2 * chebyshev_t_value(d, s)
        if prod != 0 and numer % prod == 0:
            values[d] = numer // prod
        else:
            values[d] = psi(4 * d).evaluate(2 * s)
    check = 1
    for d in odd_cofactor:
        check *= values[d]
    if check != 2 * chebyshev_t_value(n, s):
        raise ArithmeticError("psi product identity failed")
    return [(d, values[d]) for d in odd_cofactor]
