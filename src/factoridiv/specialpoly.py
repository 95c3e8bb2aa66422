"""Cyclotomic polynomials, their real halves, and Chebyshev polynomials.

Everything cyclotomic here rests on the Moebius form of x**n - 1 =
prod_{d | n} Phi_d(x):

    Phi_n(x) = prod_{e | n} (x**e - 1)**mu(n/e)

Only the 2**omega(n) divisors e = n/k with k squarefree carry mu != 0.

cyclotomic_value(n, b) applies it to an integer: the factors with
mu = +1 and those with mu = -1 are multiplied separately and divided once,
exactly.  The cost is 2**omega(n) powers b**e with e <= n, two products of
them and one division whose quotient has about phi(n) * log2|b| bits; no
polynomial is built.

cyclotomic(n) applies it to a power series (Arnold and Monagan,
"Calculating cyclotomic polynomials", Math. Comp. 80 (2011)).  For n > 1,
Phi_n(x) = prod (1 - x**e)**mu(n/e), and each factor acts on the series
cut at degree phi(n) + 1 in one pass over a list of ints: multiplying by
1 - x**e subtracts the list shifted by e, dividing by it adds the running
sums taken in steps of e.  That is O(phi(n) * 2**omega(n)) integer
additions.  The product is a polynomial of degree phi(n), so a top
coefficient other than 1, or a nonzero coefficient past it, raises.

psi(n) is the integer polynomial of degree phi(n)/2 with
psi(y + 1/y) * y**(phi(n)/2) = Phi_n(y); equivalently the minimal
polynomial of 2*cos(2*pi/n) once n >= 3.

chebyshev_terms() generates the first-kind Chebyshev polynomials
T_0, T_1, ... under T_{n+1} = 2x T_n - T_{n-1}, holding only the last
two; chebyshev_t(n) is its n-th term and a table is one pass over it.

chebyshev_factor_values(n, s) inverts 2 T_n(s) = prod psi_{4d}(2s) the
same way, with values 2 T_k(s) from one pass of the integer recurrence.

The identity checks here raise ArithmeticError, so they also run under
python -O.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate, islice
from operator import sub

from .intpoly import IntPoly
from .numtheory import divisors, factorize

__all__ = [
    "cyclotomic",
    "cyclotomic_value",
    "psi",
    "chebyshev_terms",
    "chebyshev_t",
    "chebyshev_t_value",
    "chebyshev_factor_values",
]


def _mobius_terms(n: int) -> list[tuple[int, int]]:
    # (e, mu(n/e)) over the divisors e of n with n/e squarefree
    terms = [(n, 1)]
    for p, _ in factorize(n).factors:
        terms += [(e // p, -mu) for e, mu in terms]
    return terms


def _mobius_product(terms, value, name: str) -> int:
    # prod value(e)**mu over (e, mu) in terms: the factors with mu = +1
    # over those with mu = -1, by one exact division
    num = den = 1
    for e, mu in terms:
        if mu > 0:
            num *= value(e)
        else:
            den *= value(e)
    out, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"Moebius product for {name} is not exact")
    return out


def cyclotomic_value(n: int, b: int) -> int:
    """Phi_n(b) = prod_{e | n} (b**e - 1)**mu(n/e), by one exact division."""
    if n < 1:
        raise ValueError("index must be positive")
    if b in (-1, 0, 1):
        # some b**e - 1 vanishes; the polynomial is cheap at these points
        return cyclotomic(n).evaluate(b)
    return _mobius_product(_mobius_terms(n), lambda e: b**e - 1,
                           f"Phi_{n}({b})")


def cyclotomic(n: int) -> IntPoly:
    if n < 1:
        raise ValueError("index must be positive")
    if n == 1:
        return IntPoly((-1, 1))
    terms = _mobius_terms(n)
    top = sum(mu * e for e, mu in terms)  # phi(n)
    a = [1] + [0] * (top + 1)
    size = len(a)
    for e, mu in terms:
        if e >= size:
            continue
        if mu > 0:
            a[e:] = map(sub, a[e:], a)
        else:
            for r in range(e):
                a[r::e] = accumulate(a[r::e])
    if a[top] != 1 or a[top + 1] != 0:
        raise ArithmeticError(f"series for Phi_{n} is not a monic polynomial "
                              f"of degree {top}")
    return IntPoly(a)


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
    out = [c[m]] + [0] * m
    v_prev, v_cur = [2], [0, 1]
    for k in range(1, m + 1):
        ck = c[m + k]
        if ck:
            out[: k + 1] = [o + ck * v for o, v in zip(out, v_cur)]
        v_next = [0] + v_cur
        v_next[:k] = map(sub, v_next, v_prev)
        v_prev, v_cur = v_cur, v_next
    return IntPoly(out)


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


def _chebyshev_values(s: int):
    # T_0(s), T_1(s), ... by the value recurrence t_{k+1} = 2 s t_k - t_{k-1}
    t_prev, t_cur = 1, s
    yield t_prev
    while True:
        yield t_cur
        t_prev, t_cur = t_cur, 2 * s * t_cur - t_prev


def chebyshev_t_value(n: int, s: int) -> int:
    """T_n(s) by the value recurrence t_{k+1} = 2 s t_k - t_{k-1}."""
    if n < 0:
        raise ValueError("index must be nonnegative")
    return next(islice(_chebyshev_values(s), n, None))


def chebyshev_factor_values(n: int, s: int) -> list[tuple[int, int]]:
    """Pairs (d, psi_{4d}(2s)) over divisors d of n with n/d odd.

    The values multiply to exactly 2*T_n(s); this identity is checked.
    With t = n & -n every such d is t*e for an odd e | n/t, and Moebius
    inversion of the identity over e gives
    psi_{4te}(2s) = prod_{e' | e} (2 T_{te'}(s))**mu(e/e'),
    one exact division per value; one pass of the value recurrence up to
    n gives every T_{te'}(s), so no large-degree polynomial is built.
    T_e(0) = 0 for odd e, so at s = 0 with n odd the values come from psi.
    """
    if n < 1:
        raise ValueError("index must be positive")
    t = n & -n
    odd = divisors(n // t)
    wanted = {t * e for e in odd}
    two_t = {k: 2 * v for k, v in enumerate(islice(_chebyshev_values(s), n + 1))
             if k in wanted}
    if s == 0 and t == 1:
        values = [psi(4 * e).evaluate(0) for e in odd]
    else:
        values = [
            _mobius_product(_mobius_terms(e), lambda f: two_t[t * f],
                            f"psi_{4 * t * e}({2 * s})")
            for e in odd
        ]
    if math.prod(values) != two_t[n]:
        raise ArithmeticError("psi product identity failed")
    return [(t * e, v) for e, v in zip(odd, values)]
