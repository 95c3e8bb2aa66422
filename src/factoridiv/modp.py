"""Roots of integer polynomials modulo a prime, by Cantor-Zassenhaus.

Polynomials are coefficient lists over Z/p, from the constant term up as
in IntPoly.  The scanner loads this module only for zeros of degree 3 or
more that it does not list.
"""

from __future__ import annotations

__all__ = ["roots_mod"]


def _strip(u: list[int]) -> list[int]:
    """u without its zero top coefficients."""
    while u and not u[-1]:
        u.pop()
    return u


def _monic(u: list[int], p: int) -> list[int]:
    inv = pow(u[-1], -1, p)
    return [c * inv % p for c in u]


def _gcd_mod(u: list[int], v: list[int], p: int) -> list[int]:
    """The monic gcd of u (monic) and v over Z/p."""
    while v:
        v = _monic(v, p)
        dv = len(v) - 1
        u = list(u)
        for k in range(len(u) - 1, dv - 1, -1):
            c = u[k] % p
            if c:
                for j in range(dv):
                    u[k - dv + j] -= c * v[j]
        u, v = v, _strip([c % p for c in u[:dv]])
    return u


def _linear_power(a: int, e: int, g: list[int], p: int) -> list[int]:
    """(x + a)**e mod g over Z/p, g monic of degree d >= 2, as d
    coefficients.  The coefficients are packed into w-bit slots of one
    integer (Kronecker substitution), so a square is one big-integer
    product; its slots k >= d are folded back in as multiples of x**k mod
    g, a step times x + a is a shift and a multiple, and only then is each
    slot reduced mod p.  A slot stays below d**2 p**3 after the fold, and
    below 3 d**2 p**4 < 2**w after the step."""
    d = len(g) - 1
    w = 4 * p.bit_length() + 2 * d.bit_length() + 2
    mask = (1 << w) - 1
    slots = range(0, w * d, w)
    neg = [-c % p for c in g[:d]]  # x**d mod g
    row, folds = neg, []
    for _ in range(d - 1):
        folds.append(sum(c << s for c, s in zip(row, slots)))
        top = row[-1]
        row = [top * neg[0] % p] + [
            (row[j - 1] + top * neg[j]) % p for j in range(1, d)]
    x_d = folds[0]
    folds = list(zip(range(w * d, w * (2 * d - 1), w), folds))
    low = (1 << w * d) - 1
    packed = a | 1 << w
    for bit in bin(e)[3:]:
        sq = packed * packed
        t = sq & low
        for s, fold in folds:
            t += (sq >> s & mask) * fold
        if bit == "1":
            t = (t << w) + a * t
            t = (t & low) + (t >> w * d) * x_d
        packed = 0
        for s in slots:
            packed |= (t >> s & mask) % p << s
    return [packed >> s & mask for s in slots]


def roots_mod(f: list[int], p: int) -> list[int]:
    """The distinct roots of f over Z/p, in no particular order: p a prime,
    odd unless deg f <= 1, and f a coefficient list reduced mod p, not all
    zero.

    Cantor-Zassenhaus equal-degree splitting (Cohen, A Course in
    Computational Algebraic Number Theory, 1.6) with the shifts
    a = 0, 1, 2, ... in turn: the roots r of g with r + a a nonzero square
    are those of gcd(g, (x + a)**((p - 1)/2) - 1), the others but -a
    those of gcd(g, (x + a)**((p - 1)/2) + 1).  At a = 0 the two gcds and
    x together make gcd(f, x**p - x), the product of x - r over the
    distinct roots, free of f's repeated and nonlinear factors; later
    shifts split each part until it is linear.  Some shift below p splits
    any two roots, as no translate of the nonzero squares is itself."""
    f = _strip(list(f))
    e = p >> 1
    roots = []
    todo = [(_monic(f, p), 0)] if len(f) > 1 else []
    while todo:
        g, a = todo.pop()
        if len(g) == 2:
            roots.append(-g[0] % p)
            continue
        h = _linear_power(a, e, g, p)
        parts = [_gcd_mod(g, _strip([(h[0] + t) % p] + h[1:]), p)
                 for t in (-1, 1)]
        if len(g) in map(len, parts):  # no split at this shift
            todo.append((g, a + 1))
            continue
        value = 0
        for c in reversed(g):
            value = (value * -a + c) % p
        if not value:
            roots.append(-a % p)
        todo += [(part, a + 1) for part in parts if len(part) > 1]
    return roots
