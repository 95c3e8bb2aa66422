"""Constructors for witness certificates of the divisibility P(n) | n!.

A certificate names n and a factor list for P(n).  Under the "distinct"
rule the factors are pairwise distinct positive integers not exceeding n,
so their product automatically divides n!.  Under the "legendre" rule the
prime valuations of the product are compared against the valuations of n!
instead.

Families covered:

  quadratic            P(P(m) + m) = P(m) * Q(m) with Q = P(P(x)+x)/P(x)
  cubic                two-level splitting of P(g(x)) into cubic factors,
                       linked through a Pell equation so the two level-2
                       arguments meet at a common value
  quartic, cubic*linear  the cubic pipeline on a Pell subsequence forcing
                       a known divisor of the linear part
  quartic, quadratic*quadratic  a two-quadratic chain with a shared
                       constant term, again linked through a Pell equation
  binomial x**m - 1    n = s**N with N a product of primes chosen by a
                       Mertens-type criterion; cyclotomic values factor n
  cyclotomic Phi_m     the same idea applied to Phi_m(s**N)
  chebyshev            n = T_N(s); the psi values along divisors of m*N
                       factor the product of T_m(n)

Every constructor is deterministic for fixed arguments and either returns
fully checked certificates or raises ConstructionBudgetError carrying the
partial results and a structured report of what blocked the search.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections import namedtuple
from fractions import Fraction

from .certificate import WitnessCertificate
from .intpoly import IntPoly
from .numtheory import (
    BudgetExceededError,
    _mertens_runs,
    decimal_digits_upper,
    divisors,
    euler_phi,
    find_prime_divisor_of_values,
    is_perfect_square,
)
from .pell import (
    PellBudgetError,
    fundamental_solution,
    indices_with_s_divisible,
    pair_at,
)
from .specialpoly import (
    chebyshev_factor_values,
    chebyshev_t,
    chebyshev_t_value,
    cyclotomic,
    cyclotomic_value,
)

__all__ = [
    "WitnessCertificate",
    "ConstructionBudgetError",
    "SchinzelPieces",
    "SchinzelInconsistency",
    "schinzel_pieces",
    "construct_quadratic",
    "construct_cubic",
    "construct_quartic_cubic_linear",
    "construct_quartic_biquadratic",
    "construct_binomial_power",
    "construct_cyclotomic",
    "construct_chebyshev",
]


class ConstructionBudgetError(BudgetExceededError):
    """Search space or a sub-budget ran out.

    partial holds certificates already completed; report is a flat
    string-to-string dict describing the blocking point.
    """

    def __init__(self, partial, report):
        reason = report.get("reason", "search space exhausted")
        super().__init__(f"construction stopped: {reason}")
        self.partial = list(partial)
        self.report = dict(report)


# --------------------------------------------------------------------------
# shared emission helpers


def _require(ok: bool, what: str) -> None:
    # identity checks that must also run under python -O
    if not ok:
        raise ArithmeticError(what)


def _absorb_content(values: list[int], content: int, n: int) -> list[int]:
    # Fold |content| into one factor: smallest factor whose scaled value
    # still fits the distinct rule; if none fits, the smallest regardless
    # (the mode decision below will demote the certificate).
    c = abs(content)
    if c == 1:
        return list(values)
    order = sorted(range(len(values)), key=lambda i: values[i])
    for i in order:
        cand = values[i] * c
        rest = values[:i] + values[i + 1 :]
        if cand <= n and cand not in rest:
            return values[:i] + [cand] + values[i + 1 :]
    i = order[0]
    return values[:i] + [values[i] * c] + values[i + 1 :]


def _merge_duplicates(values: list[int], n: int):
    """Repeatedly replace a duplicated value v, v by v*v.

    Returns the merged sorted list, or None when a merge would exceed n
    and so cannot satisfy the distinct rule."""
    vals = sorted(values)
    while True:
        dup = None
        for a, b in zip(vals, vals[1:]):
            if a == b:
                dup = a
                break
        if dup is None:
            return vals
        merged = dup * dup
        if merged > n:
            return None
        vals.remove(dup)
        vals.remove(dup)
        bisect.insort(vals, merged)


def _distinct_ok(values, n: int) -> bool:
    return len(set(values)) == len(values) and all(1 <= v < n for v in values)


# --------------------------------------------------------------------------
# quadratic family


def construct_quadratic(
    poly: IntPoly,
    count: int = 1,
    *,
    scan_limit: int = 10_000,
    seed: int = 0,
) -> list[WitnessCertificate]:
    """Certificates for a quadratic P via the self-composition identity
    P(P(m) + m) = P(m) * Q(m), where Q = P(P(x)+x)/P(x) is an integer
    quadratic.

    A prime q > lead(Q)/lead(P) dividing some Q(l) splits Q(m) for every
    m = l + j*q, giving the chain 1 < q < Q(m)/q < P(m) < n at n=P(m)+m.
    """
    if poly.degree != 2:
        raise ValueError("need a quadratic polynomial")
    if poly.leading < 1 or poly.coefficient(0) < 1 or any(c < 0 for c in poly.coeffs):
        raise ValueError("need nonnegative coefficients with positive ends")
    if count < 1:
        raise ValueError("count must be positive")
    comp = poly.compose(poly.add(IntPoly((0, 1))))
    q_poly = comp.exact_divide(poly)
    _require(q_poly is not None, "P(x) must divide P(P(x)+x)")
    lower = q_poly.leading // poly.leading
    l, q = find_prime_divisor_of_values(q_poly, lower, scan_limit, seed=seed)
    certs: list[WitnessCertificate] = []
    m = l if l >= 1 else l + q
    steps = 0
    while len(certs) < count and steps <= scan_limit:
        steps += 1
        qm = q_poly.evaluate(m)
        pm = poly.evaluate(m)
        _require(qm % q == 0, "q must divide Q(m) along the progression")
        n = pm + m
        f1, f2, f3 = q, qm // q, pm
        if 1 < f1 < f2 < f3 < n:
            certs.append(
                WitnessCertificate(
                    poly,
                    "quadratic",
                    n,
                    (f1, f2, f3),
                    {"q": str(q), "l": str(l), "m": str(m)},
                    "distinct",
                )
            )
        m += q
    if len(certs) < count:
        raise ConstructionBudgetError(
            certs,
            {
                "class": "quadratic",
                "reason": f"chain condition failed along {steps} progression points",
                "q": str(q),
                "l": str(l),
            },
        )
    return certs


# --------------------------------------------------------------------------
# the cubic splitting engine
#
# For a cubic f with positive leading coefficient and a parameter kappa,
# look for an integer quadratic g = g2 x**2 + g1 x + 2 kappa such that
# f(g(x)) splits as content * F1(x) * F2(x) with integer cubics F1, F2.
# Writing theta for a root of f, the six roots of f(g(x)) pair up
# Galois-stably exactly when the root discriminant
# g1**2 - 4 g2 (2 kappa - theta) is a square in Q[theta]/(f).  The square
# is sought in the two-parameter form E = theta**2 + tau theta + e0: the
# theta**2 coordinate of E**2 mod f vanishes for a unique e0 given tau
# (a conic solve), after which E**2 = d1 theta + d0 must satisfy that
# d0 + 2 kappa d1 is a rational square r**2.  Scaling by the least T
# making T**2 d1 / 4 and T r integral yields g2 = T**2 d1 / 4 and
# g1 = +-T r, and F1 is the characteristic resolvent
# det((g1 + 2 g2 x) I - T M_E) of the multiplication-by-E matrix, taken
# primitive.  Exact division of f(g(x)) by F1 then certifies the split;
# every candidate that reaches the caller has been verified that way.


def _tau_pairs(denominators, max_numerator) -> list[tuple[int, int]]:
    """Reduced (nu, delta) of every nonzero nu/delta with delta in
    denominators and |nu| <= max_numerator, in search order: by |nu| delta,
    positive first, then by |tau|, which for equal |nu| delta is |nu|."""
    pairs = set()
    for de in denominators:
        for nu in range(-max_numerator, max_numerator + 1):
            if nu:
                g = math.gcd(nu, de)
                pairs.add((nu // g, de // g))
    return sorted(pairs, key=lambda p: (abs(p[0]) * p[1], p[0] < 0, abs(p[0])))


# every CLI call builds these, so the grids are deduped and sorted as
# integer pairs and each Fraction is made once.  _TAUS_PUBLIC is the top
# grid, then the wide grid's new values in wide-grid order
_TOP_PAIRS = _tau_pairs((1, 2, 4, 8), 16)
_WIDE_PAIRS = _tau_pairs((1, 2, 3, 4, 8, 16), 48)
_TAU = {p: Fraction(*p) for p in dict.fromkeys(_TOP_PAIRS + _WIDE_PAIRS)}
_TAUS_TOP = tuple(_TAU[p] for p in _TOP_PAIRS)
_TAUS_WIDE = tuple(_TAU[p] for p in _WIDE_PAIRS)
_TAUS_PUBLIC = tuple(_TAU.values())


def _resolvent(m, a, b):
    """Coefficients, lowest first, of det((a + b x) I - m) for a 3x3
    integer matrix m."""
    (s00, s01, s02), (s10, s11, s12), (s20, s21, s22) = (
        [(a if i == j else 0) - v for j, v in enumerate(row)]
        for i, row in enumerate(m)
    )
    c12 = s11 * s22 - s12 * s21
    minors = s00 * s11 - s01 * s10 + s00 * s22 - s02 * s20 + c12
    det = s00 * c12 - s01 * (s10 * s22 - s12 * s20) + s02 * (s10 * s21 - s11 * s20)
    return det, b * minors, b * b * (s00 + s11 + s22), b**3


_EngineHit = namedtuple("_EngineHit", "tau g f1 f2 content")


# The screen over tau runs in integers, since almost every tau fails the
# square test.  With A = lead(f), P2, P1, P0 = -b, -c, -d (so p_i = P_i/A),
# Q2 = P2**2 + A P1, Q1 = P2 P1 + A P0, Q0 = P2 P0 (so q_i = Q_i/A**2) and
# tau = nu/delta, clearing denominators in
#
#   e0 = -(q2 + 2 tau p2 + tau**2) / 2
#   d1 = q1 + 2 tau p1 + 2 tau e0
#   d0 = q0 + 2 tau p0 + e0**2
#
# gives e0 = E / (2 A**2 delta**2), d1 = N1 / (A**3 delta**3) and
# d0 + 2 kappa d1 = N / (2 A**2 delta**2)**2 with
#
#   E  = -(Q2 delta**2 + 2 nu delta A P2 + nu**2 A**2)
#   N1 = Q1 A delta**3 + 2 nu P1 A**2 delta**2 + nu A E
#   N  = N0 + kappa 8 A delta N1,
#   N0 = 4 A**2 delta**4 Q0 + 8 nu P0 A**3 delta**3 + E**2.
#
# The denominator of the last is a square, so d0 + 2 kappa d1 is a rational
# square exactly when N >= 0 and isqrt(N)**2 == N, and then
# r = isqrt(N) / (2 A**2 delta**2).  Only N depends on kappa, so one table
# of rows (tau, E, N1, N0, 8 A delta N1) per cubic serves every kappa: the
# level-1 search reuses it for kappa = 1 .. kappa_max, the level-2 search
# for l = 1 .. l_max.  The survivors stay in integers too: with
# D = 2 A**2 delta**2 the matrix D M_E is integral, and
# det((g1 + 2 g2 x) D I - T D M_E) is D**3 times the resolvent over Q, so
# both have the same primitive part.


def _lowered(f: IntPoly):
    """A, (P2, P1, P0) and (Q2, Q1, Q0) of the screen above."""
    A = f.coefficient(3)
    if A <= 0:
        raise ValueError("need a positive leading coefficient")
    P2, P1, P0 = -f.coefficient(2), -f.coefficient(1), -f.coefficient(0)
    return A, (P2, P1, P0), (P2 * P2 + A * P1, P2 * P1 + A * P0, P2 * P0)


def _tau_rows(f: IntPoly, taus):
    """The kappa-free part of the screen: (tau, E, N1, N0, 8 A delta N1)
    for each tau with N1 != 0 whose N can be a square for some kappa >= 1;
    lead(f) must be positive."""
    A, (P2, P1, P0), (Q2, Q1, Q0) = _lowered(f)
    A2 = A * A
    A3 = A2 * A
    rows = []
    for tau in taus:
        nu, de = tau.numerator, tau.denominator
        de2 = de * de
        E = -(Q2 * de2 + 2 * nu * de * A * P2 + nu * nu * A2)
        N1 = Q1 * A * de2 * de + 2 * nu * P1 * A2 * de2 + nu * A * E
        if N1:
            N0 = 4 * A2 * de2 * de2 * Q0 + 8 * nu * P0 * A3 * de2 * de + E * E
            step = 8 * A * de * N1
            # N1 < 0 and N < 0 at kappa = 1 give N < 0 at every kappa >= 1
            if N1 > 0 or N0 + step >= 0:
                rows.append((tau, E, N1, N0, step))
    return rows


def _square_rows(rows, kappa: int):
    """Yield (row, isqrt(N)) for each row whose N is a perfect square."""
    for row in rows:
        N = row[3] + kappa * row[4]
        if N >= 0:
            root = math.isqrt(N)
            if root * root == N:
                yield row, root


def _tau_screen(f: IntPoly, kappa: int, taus):
    """Yield (tau, e0, d1, r) for each tau with d1 != 0 and
    d0 + 2 kappa d1 = r**2 a rational square; lead(f) must be positive."""
    A = f.coefficient(3)
    for (tau, E, N1, _, _), root in _square_rows(_tau_rows(f, taus), kappa):
        de = tau.denominator
        D = 2 * A * A * de * de
        yield tau, Fraction(E, D), Fraction(N1, A * D * de // 2), Fraction(root, D)


def _e_matrix(f: IntPoly, tau: Fraction, E: int):
    """D M_E with D = 2 A**2 delta**2, M_E the matrix of multiplication by
    theta**2 + tau theta + e0 in Q[theta]/(f)."""
    A, (P2, P1, P0), (Q2, Q1, Q0) = _lowered(f)
    nu, de = tau.numerator, tau.denominator
    ad, an = A * de, A * nu
    return (
        (E, 2 * ad * de * P0, 2 * de * (an * P0 + de * Q0)),
        (2 * ad * an, E + 2 * ad * de * P1, 2 * de * (an * P1 + de * Q1)),
        (2 * ad * ad, 2 * ad * (an + de * P2), E + 2 * de * (an * P2 + de * Q2)),
    )


def _split_guesses(f: IntPoly, kappa: int, row, root: int):
    """(g, f1) for each sign of g1 at one screen survivor: g from the least
    scale T, f1 the primitive resolvent, not yet checked to divide f(g)."""
    tau, E, N1 = row[:3]
    A, de = f.coefficient(3), tau.denominator
    D = 2 * A * A * de * de  # e0 = E / D and r = root / D
    d1_den = A * D * de // 2  # d1 = N1 / d1_den
    den = math.lcm(d1_den // math.gcd(N1, d1_den), D // math.gcd(root, D))
    for t in divisors(2 * den):
        if t * t * N1 % (4 * d1_den) == 0 and t * root % D == 0:
            break
    else:
        # t = 2 * lcm of the denominators always qualifies
        raise ArithmeticError(f"no integral scale T at tau = {tau}")
    g2 = t * t * N1 // (4 * d1_den)  # nonzero, as N1 is
    g1_mag = t * root // D
    tm = [[t * v for v in r] for r in _e_matrix(f, tau, E)]
    for g1 in ((g1_mag, -g1_mag) if g1_mag else (0,)):
        # the x**3 coefficient (2 g2 D)**3 is nonzero, so f1 is a cubic
        f1 = IntPoly(_resolvent(tm, g1 * D, 2 * g2 * D)).content_split().primitive
        yield IntPoly((2 * kappa, g1, g2)), f1


def _schinzel_candidates(f: IntPoly, kappa: int, rows):
    """Yield verified splits of f(g(x)) in deterministic grid order, from
    rows = _tau_rows(f, taus)."""
    for row, root in _square_rows(rows, kappa):
        for g, f1 in _split_guesses(f, kappa, row, root):
            fg = f.compose(g)
            quot = fg.exact_divide(f1)
            if quot is None or quot.is_zero:
                continue
            split = quot.content_split()
            content, f2 = split.content, split.primitive
            if f2.degree != 3:
                continue
            if f1.multiply(f2).scale(content) != fg:
                continue
            yield _EngineHit(row[0], g, f1, f2, content)


class SchinzelPieces(
    namedtuple(
        "SchinzelPieces",
        "g f1 f2 content A B kappa tau formula_g formula_f1 disc_marker",
    )
):
    """A verified split f(g(x)) = content * f1(x) * f2(x).

    A and B are the leading and negated linear coefficients of g, the
    quantities the Pell linkage runs on.  formula_g, formula_f1 and
    disc_marker are the closed-form display values for the same input;
    they are reported for comparison and are not required to satisfy the
    division identity (g, f1, f2 always do).
    """

    __slots__ = ()


class SchinzelInconsistency(Exception):
    """No split was found in the scan grid.

    Carries the closed-form candidates and the scan size so callers can
    report exactly what was tried."""

    def __init__(self, poly, kappa, formula_g, formula_f1, scanned):
        super().__init__(
            f"no quadratic/cubic split found for {poly} at kappa={kappa} "
            f"({scanned} parameter values scanned)"
        )
        self.poly = poly
        self.kappa = kappa
        self.formula_g = formula_g
        self.formula_f1 = formula_f1
        self.scanned = scanned


def _display_formula(f: IntPoly, kappa: int):
    # closed-form candidate pair; kept for reporting
    a, b, c, d = (f.coefficient(i) for i in (3, 2, 1, 0))
    big_a = 2 * a * (
        (2 * a * kappa + b) * (4 * a * a * kappa * kappa + 4 * a * c - b * b)
        - 8 * a * a * d
    )
    big_b = 12 * a * a * kappa * kappa + 4 * a * b * kappa + 4 * a * c - b * b
    g = IntPoly((2 * kappa, big_b, big_a))
    f1 = IntPoly((-1, 3 * kappa + 2 * a * b, -big_b, big_a))
    marker = big_b * big_b - 3 * big_a * (3 * kappa + 2 * a * b)
    return g, f1, marker


def schinzel_pieces(poly: IntPoly, kappa: int = 1) -> SchinzelPieces:
    """First verified split of poly(g(x)) for a positive cubic.

    The closed-form display pair is tried first; if it fails the exact
    division test the parameter grid is scanned.  Raises
    SchinzelInconsistency when nothing in the grid verifies.
    """
    if poly.degree != 3 or any(c <= 0 for c in poly.coeffs):
        raise ValueError("need a cubic with positive coefficients")
    if kappa < 1:
        raise ValueError("kappa must be positive")
    formula_g, formula_f1, marker = _display_formula(poly, kappa)

    def _pack(g, f1, f2, content, tau):
        return SchinzelPieces(
            g, f1, f2, content, g.coefficient(2), -g.coefficient(1), kappa, tau,
            formula_g, formula_f1, marker,
        )

    if formula_f1.degree == 3 and formula_g.degree == 2:
        fg = poly.compose(formula_g)
        quot = fg.exact_divide(formula_f1)
        if quot is not None and not quot.is_zero:
            split = quot.content_split()
            if formula_f1.multiply(split.primitive).scale(split.content) == fg:
                return _pack(
                    formula_g, formula_f1, split.primitive, split.content, Fraction(0)
                )
    for hit in _schinzel_candidates(poly, kappa, _tau_rows(poly, _TAUS_PUBLIC)):
        return _pack(hit.g, hit.f1, hit.f2, hit.content, hit.tau)
    raise SchinzelInconsistency(poly, kappa, formula_g, formula_f1, len(_TAUS_PUBLIC))


# --------------------------------------------------------------------------
# cubic pipeline: level-1 split of P, level-2 splits of both cubic factors
# at a shared constant 2l, Pell linkage between the two quadratic arguments


class _LinkedInstance(namedtuple("_LinkedInstance", "kappa top l r_hit s_hit")):
    __slots__ = ()

    @property
    def sides(self):
        # A, B from the R side, C, D from the S side; all positive
        return (
            self.r_hit.g.coefficient(2),
            -self.r_hit.g.coefficient(1),
            self.s_hit.g.coefficient(2),
            -self.s_hit.g.coefficient(1),
        )

    @property
    def pell_d(self) -> int:
        a, _, c, _ = self.sides
        return a * c


def _level1_variants(p: IntPoly, kappa_max: int, per_kappa: int):
    rows = _tau_rows(p, _TAUS_TOP)
    out = []
    for kappa in range(1, kappa_max + 1):
        for hit in itertools.islice(_schinzel_candidates(p, kappa, rows), per_kappa):
            out.append((kappa, hit))
    return out


def _linked_instances(p: IntPoly, kappa_max: int, l_max: int, per_kappa: int):
    variants = _level1_variants(p, kappa_max, per_kappa)
    rows = {}  # wide-grid rows of each level-1 factor, shared by every l

    def side(cubic, l):
        # first level-2 split with positive leading and negative linear
        # coefficient of g, the sign pattern the Pell identity needs
        if cubic not in rows:
            rows[cubic] = _tau_rows(cubic, _TAUS_WIDE)
        for hit in _schinzel_candidates(cubic, l, rows[cubic]):
            if hit.g.coefficient(2) > 0 and hit.g.coefficient(1) < 0:
                return hit
        return None

    for l in range(1, l_max + 1):
        for kappa, top in variants:
            r_hit = side(top.f1, l)
            if r_hit is None:
                continue
            s_hit = side(top.f2, l)
            if s_hit is None:
                continue
            inst = _LinkedInstance(kappa, top, l, r_hit, s_hit)
            if is_perfect_square(inst.pell_d):
                continue
            yield inst


def _conic_point(a, b, c, d, r, s):
    # For r**2 - (a c) s**2 = 1 the pair below satisfies
    # a x**2 - b x = c y**2 - d y identically in (r, s); see the check.
    x = -b * c * s * s - d * r * s
    y = -b * r * s - a * d * s * s
    _require(a * x * x - b * x == c * y * y - d * y,
             "the point must lie on the conic")
    return x, y


def _cubic_attempt(poly, shift_y, inst, r, s, max_n_digits):
    a, b, c, d = inst.sides
    u, v = _conic_point(a, b, c, d, r, s)
    t = inst.r_hit.g.evaluate(u)
    _require(t == inst.s_hit.g.evaluate(v), "linked arguments must meet")
    n_shift = inst.top.g.evaluate(t)
    n = n_shift + shift_y
    if n < 2 or decimal_digits_upper(n.bit_length()) > max_n_digits:
        return None
    vals = [
        inst.r_hit.f1.evaluate(u),
        inst.r_hit.f2.evaluate(u),
        inst.s_hit.f1.evaluate(v),
        inst.s_hit.f2.evaluate(v),
    ]
    content = inst.top.content * inst.r_hit.content * inst.s_hit.content
    shifted = poly.shift(shift_y)
    _require(math.prod(vals) * content == shifted.evaluate(n_shift),
             "cubic pieces must multiply to P(n)")
    if any(v == 0 for v in vals):
        return None
    factors = _absorb_content([abs(x) for x in vals], content, n)
    if not _distinct_ok(factors, n):
        return None
    if n > 10**6:
        mx = max(factors)
        if mx**5 >= n**4:  # max factor must stay under n**0.8
            return None
    return n, factors


# The cubic and both quartic families share one search.  Each candidate
# names a Pell equation r**2 - D s**2 = 1 and a modulus M; _pell_search
# solves the equation, walks the indices j >= 1 with M | s_j and hands
# each to the family's attempt, which builds n and its factor list from
# the pair (r_j, s_j) or gives up on that index.


def _pell_search(cls, poly, cases, count, tries, pell_digit_budget, reason):
    """Certificates of class cls for poly from the Pell-linked cases.

    cases yields one entry per candidate: None for a candidate dropped
    before its Pell equation, else (l, pell_d, modulus, attempt).
    attempt(j, fund) returns (n, factors, params) or None; pell_d and
    pell_index are appended to params.  At most tries indices are tried
    per candidate.  cases is resumed only after the driver is done with
    the previous attempt, so an attempt may close over the loop variables
    of the generator that made it.  Short of count certificates, raises
    ConstructionBudgetError with reason.format(candidates seen).
    """
    if count < 1:
        raise ValueError("count must be positive")
    certs: list[WitnessCertificate] = []
    report: dict[str, str] = {"class": cls}
    seen = 0
    for case in cases:
        seen += 1
        if case is None:
            continue
        l, pell_d, modulus, attempt = case
        try:
            fund = fundamental_solution(pell_d, pell_digit_budget)
        except PellBudgetError as exc:
            report.setdefault("blocking_pell_d", str(exc.d))
            report.setdefault("blocking_l", str(l))
            report.setdefault("blocking_digits", str(exc.digits))
            continue
        indices = indices_with_s_divisible(pell_d, fund, modulus)
        for j in itertools.islice(indices, 1, tries + 1):  # s_0 = 0
            got = attempt(j, fund)
            if got is None:
                continue
            n, factors, params = got
            params.update(pell_d=str(pell_d), pell_index=str(j))
            certs.append(
                WitnessCertificate(poly, cls, n, tuple(factors), params, "distinct")
            )
            if len(certs) == count:
                return certs
    report["reason"] = reason.format(seen)
    raise ConstructionBudgetError(certs, report)


def construct_cubic(
    poly: IntPoly,
    count: int = 1,
    *,
    kappa_max: int = 4,
    l_max: int = 30,
    per_kappa: int = 6,
    index_cap: int = 8,
    pell_digit_budget: int = 5000,
    max_n_digits: int = 200_000,
) -> list[WitnessCertificate]:
    """Certificates for a cubic P with positive leading coefficient.

    P is shifted to positive coefficients, split at level 1 into
    content * R * S along a quadratic reparametrization, then R and S are
    split again at a shared constant term 2l.  A Pell equation on the
    product of the two level-2 leading coefficients supplies infinitely
    many integer points where both level-2 arguments coincide; each one
    yields four cubic factor values plus the content.
    """
    if poly.degree != 3 or poly.leading < 1:
        raise ValueError("need a cubic with positive leading coefficient")
    shift_y, shifted = poly.shift_to_positive()

    def cases():
        for inst in _linked_instances(shifted, kappa_max, l_max, per_kappa):

            def attempt(j, fund):
                r, s = pair_at(inst.pell_d, fund, j)
                got = _cubic_attempt(poly, shift_y, inst, r, s, max_n_digits)
                if got is None:
                    return None
                return *got, {
                    "shift": str(shift_y),
                    "kappa": str(inst.kappa),
                    "tau_top": str(inst.top.tau),
                    "l": str(inst.l),
                    "tau_r": str(inst.r_hit.tau),
                    "tau_s": str(inst.s_hit.tau),
                }

            yield inst.l, inst.pell_d, 1, attempt

    return _pell_search(
        "cubic", poly, cases(), count, index_cap, pell_digit_budget,
        f"exhausted {{}} linked instances (kappa<={kappa_max}, l<={l_max})",
    )


def construct_quartic_cubic_linear(
    cubic: IntPoly,
    linear: IntPoly,
    count: int = 1,
    *,
    kappa_max: int = 4,
    l_max: int = 30,
    per_kappa: int = 6,
    index_tries: int = 3,
    pell_digit_budget: int = 5000,
    max_n_digits: int = 400_000,
) -> list[WitnessCertificate]:
    """Certificates for P = cubic * linear.

    Runs the cubic pipeline restricted to the Pell subsequence where
    p = e * Q(2l) + f divides s: there u and v vanish mod p, so the
    argument t is 2l mod p and p divides linear(n).  The factor list is
    the four cubic pieces plus p and linear(n)/p.
    """
    if cubic.degree != 3 or cubic.leading < 1:
        raise ValueError("need a cubic with positive leading coefficient")
    if linear.degree != 1 or linear.leading < 1:
        raise ValueError("need a linear factor with positive slope")
    e = linear.coefficient(1)
    shift_y, shifted = cubic.shift_to_positive()
    f_eff = linear.coefficient(0) + e * shift_y

    def cases():
        for inst in _linked_instances(shifted, kappa_max, l_max, per_kappa):
            p_val = e * inst.top.g.evaluate(2 * inst.l) + f_eff
            # the index filter walks the pair sequence mod p_val, so keep the
            # modulus small enough for the period scan
            if p_val < 2 or p_val > 100_000:
                yield None
                continue

            def attempt(j, fund):
                # the subsequence grows fast; give up before huge pairs
                if decimal_digits_upper(fund[1].bit_length()) * j * 9 > max_n_digits:
                    return None
                r, s = pair_at(inst.pell_d, fund, j)
                _require(s % p_val == 0, "p must divide s")
                got = _cubic_attempt(cubic, shift_y, inst, r, s, max_n_digits)
                if got is None:
                    return None
                n, cubic_factors = got
                lin_val = linear.evaluate(n)
                _require(lin_val % p_val == 0, "p must divide the linear value")
                factors = sorted(cubic_factors + [p_val, lin_val // p_val])
                if not _distinct_ok(factors, n):
                    return None
                return n, factors, {
                    "shift": str(shift_y),
                    "kappa": str(inst.kappa),
                    "l": str(inst.l),
                    "p": str(p_val),
                }

            yield inst.l, inst.pell_d, p_val, attempt

    return _pell_search(
        "quartic_cubic_linear", cubic.multiply(linear), cases(), count,
        index_tries, pell_digit_budget,
        f"exhausted {{}} linked instances (kappa<={kappa_max}, l<={l_max})",
    )


# --------------------------------------------------------------------------
# quartic = quadratic * quadratic


def construct_quartic_biquadratic(
    first: IntPoly,
    second: IntPoly,
    count: int = 1,
    *,
    l_max: int = 12,
    index_tries: int = 3,
    modulus_cap: int = 5000,
    pell_digit_budget: int = 5000,
    max_n_digits: int = 200_000,
) -> list[WitnessCertificate]:
    """Certificates for P = first * second, both positive quadratics.

    One factor is rescaled to constant term 1 (the u side), the other
    drives the k side.  The chain n = (k+f) + l f Q(k+f) = u + v R(u)
    makes Q(k+f) | Q(n) and R(u) | R(n); a Pell equation on the product
    of the two leading coefficients links k and u, and restricting to the
    subsequence where the cofactor constant M = c_q c_r divides s makes
    both cofactors divisible by their constant terms, which pulls every
    factor below n.
    """
    for p in (first, second):
        if p.degree != 2 or p.leading < 1 or p.coefficient(0) < 1 or any(
            c < 0 for c in p.coeffs
        ):
            raise ValueError("need quadratics with nonnegative coefficients "
                             "and positive ends")
    poly = first.multiply(second)

    def cases():
        sides = ((first, second), (second, first))
        for l, (u_side, k_side) in itertools.product(range(1, l_max + 1), sides):
            c1 = u_side.coefficient(0)
            # R(x) = u_side(c1 x)/c1 has constant term 1 and stays integral
            r_poly = IntPoly(
                (1, u_side.coefficient(1), u_side.coefficient(2) * c1)
            )
            q_poly = IntPoly(
                (
                    k_side.coefficient(0),
                    k_side.coefficient(1) * c1,
                    k_side.coefficient(2) * c1 * c1,
                )
            )
            dq = q_poly.coefficient(2)
            eq = q_poly.coefficient(1)
            fq = q_poly.coefficient(0)
            v_const = fq * (1 + l * fq * (dq * fq + eq + 1))
            g_k = IntPoly(
                (v_const, 1 + l * fq * (2 * dq * fq + eq), l * fq * dq)
            )
            h_u = IntPoly(
                (v_const, v_const * r_poly.coefficient(1) + 1,
                 v_const * r_poly.coefficient(2))
            )
            q1_poly = q_poly.shift(fq)
            chain = IntPoly((fq, 1)).add(q1_poly.scale(l * fq))
            _require(chain == g_k, "k-side chain must close")
            _require(IntPoly((0, 1)).add(r_poly.scale(v_const)) == h_u,
                     "u-side chain must close")
            a_k = g_k.coefficient(2)
            b_k = g_k.coefficient(1)
            c_u = h_u.coefficient(2)
            d_u = h_u.coefficient(1)
            pell_d = a_k * c_u
            if pell_d < 2 or is_perfect_square(pell_d):
                yield None
                continue
            q2_poly = q_poly.compose(g_k).exact_divide(q1_poly)
            r2_poly = r_poly.compose(h_u).exact_divide(r_poly)
            _require(q2_poly is not None and r2_poly is not None,
                     "the chains must divide exactly")
            c_q = q2_poly.coefficient(0)
            c_r = r2_poly.coefficient(0)
            modulus = c_q * c_r
            if modulus < 1 or modulus > modulus_cap:
                yield None
                continue

            def attempt(j, fund):
                if decimal_digits_upper(fund[1].bit_length()) * j * 5 > max_n_digits:
                    return None
                r, s = pair_at(pell_d, fund, j)
                k_val, u_val = _conic_point(a_k, -b_k, c_u, -d_u, r, s)
                _require(k_val > 0 and u_val > 0, "k and u must be positive")
                n_inner = g_k.evaluate(k_val)
                _require(n_inner == h_u.evaluate(u_val), "k and u must meet")
                q1_val = q_poly.evaluate(k_val + fq)
                r1_val = r_poly.evaluate(u_val)
                _require(n_inner == (k_val + fq) + l * fq * q1_val,
                         "k-side chain must hold at k")
                _require(n_inner == u_val + v_const * r1_val,
                         "u-side chain must hold at u")
                qn_val = q_poly.evaluate(n_inner)
                rn_val = r_poly.evaluate(n_inner)
                _require(qn_val % q1_val == 0, "Q(k+f) must divide Q(n)")
                _require(rn_val % r1_val == 0, "R(u) must divide R(n)")
                q2_val = qn_val // q1_val
                r2_val = rn_val // r1_val
                _require(q2_val % c_q == 0 and r2_val % c_r == 0,
                         "c_q and c_r must divide the cofactors")
                n = c1 * n_inner
                vals = [modulus, q1_val, r1_val, q2_val // c_q, r2_val // c_r]
                _require(math.prod(vals) * c1 == poly.evaluate(n),
                         "quadratic pieces must multiply to P(n)")
                factors = _absorb_content(vals, c1, n)
                if not _distinct_ok(factors, n):
                    return None
                return n, sorted(factors), {
                    "l": str(l),
                    "scale": str(c1),
                    "v": str(v_const),
                    "c_q": str(c_q),
                    "c_r": str(c_r),
                }

            yield l, pell_d, modulus, attempt

    return _pell_search(
        "quartic_biquadratic", poly, cases(), count, index_tries,
        pell_digit_budget, "exhausted {} (l, assignment) candidates",
    )


# --------------------------------------------------------------------------
# binomial, cyclotomic and Chebyshev families


def _prime_run(min_prime: int, threshold: Fraction, sized, max_n_digits: int,
               tag: str):
    """The shortest run of consecutive primes from the least prime >=
    min_prime with prod p/(p-1) > threshold (strict, so the product
    identities downstream have slack), and the generator that extends it.

    sized pairs each s with the bits of n per unit of N.  Once _emit would
    refuse the run for every s, it would refuse every longer run too, so
    the search stops there with ConstructionBudgetError."""
    if any(s < 2 for s, _ in sized):
        raise ValueError("each s must be at least 2")
    if not sized:
        return [], None
    s, bits = min(sized, key=lambda pair: pair[1])
    runs = _mertens_runs(min_prime)
    for primes, num, den in runs:
        if num * threshold.denominator > threshold.numerator * den:
            return primes, runs
        if decimal_digits_upper(num * bits) > max_n_digits:
            raise ConstructionBudgetError([], {
                "reason": f"n would need over {max_n_digits} digits before "
                "prod p/(p-1) passes the target",
                "class": tag, "s": str(s), "primes_chosen": str(len(primes))})


def _emit(certs, poly, tag, head, primes, s, ratio, bits, max_n_digits, split,
          fallback) -> bool:
    """The shared tail of the binomial, cyclotomic and Chebyshev families:
    digit check, product identity, merge, certificate.

    With N the product of primes, n has at most about N * bits bits;
    split(N) gives n and factor values that must multiply to P(n).  When
    merging cannot give a distinct list, fallback(raw, merged) returns the
    factors of a legendre certificate, or None to emit nothing (it may
    also raise).  Returns whether a certificate was appended."""
    n_value = math.prod(primes)
    digits_est = decimal_digits_upper(n_value * bits)
    if digits_est > max_n_digits:
        raise ConstructionBudgetError(certs, {
            "reason": f"n would need about {digits_est} digits",
            "class": tag, "N": str(n_value), "s": str(s),
        })
    n, raw = split(n_value)
    _require(math.prod(raw) == poly.evaluate(n),
             "factor values must multiply to P(n)")
    merged = _merge_duplicates(raw, n)
    if merged is not None and _distinct_ok(merged, n):
        factors, mode = merged, "distinct"
    else:
        factors, mode = fallback(raw, merged), "legendre"
        if factors is None:
            return False
    params = dict(head, s=str(s), ratio=str(Fraction(ratio)),
                  primes=",".join(str(p) for p in primes), N=str(n_value))
    certs.append(WitnessCertificate(poly, tag, n, tuple(factors), params, mode))
    return True


def construct_binomial_power(
    m: int,
    s_values,
    ratio=1,
    *,
    max_n_digits: int = 100_000,
) -> list[WitnessCertificate]:
    """Certificates for P = x**m - 1 at n = s**N.

    N is the product of the shortest run of primes from 2 with
    prod p/(p-1) > ratio * m; then P(n) = (s**m)**N - 1 splits into the
    cyclotomic values Phi_d(s**m) over divisors d of N.  Equal values are
    merged; if merging cannot stay below n the certificate falls back to
    the legendre rule with the raw list.
    """
    if m < 1:
        raise ValueError("m must be positive")
    # bit-length bound keeps the estimate in integers
    sized = [(s, m * s.bit_length()) for s in s_values]
    primes, _ = _prime_run(2, Fraction(ratio) * m, sized, max_n_digits,
                           "binomial_power")
    certs: list[WitnessCertificate] = []
    poly = IntPoly((-1,) + (0,) * (m - 1) + (1,))
    for s, bits in sized:
        _emit(certs, poly, "binomial_power", {"m": str(m)}, primes, s, ratio,
              bits, max_n_digits,
              lambda nv: (s**nv, [cyclotomic_value(d, s**m)
                                  for d in divisors(nv)]),
              lambda raw, merged: raw if merged is None else merged)
    return certs


def construct_cyclotomic(
    m: int,
    s_values,
    ratio=1,
    *,
    max_extensions: int = 6,
    max_n_digits: int = 100_000,
) -> list[WitnessCertificate]:
    """Certificates for P = Phi_m at n = s**N.

    N is a squarefree product of primes exceeding m (so coprime to m),
    chosen Mertens-style against the target phi(m) and extended while the
    merged factor list cannot stay below n.  The factorization used is
    Phi_m(s**N) = prod over d | N of Phi_{m d}(s).
    """
    if m < 1:
        raise ValueError("m must be positive")
    sized = [(s, s.bit_length()) for s in s_values]
    primes, runs = _prime_run(m + 1, Fraction(ratio) * euler_phi(m), sized,
                              max_n_digits, "cyclotomic")
    base = len(primes)
    poly = cyclotomic(m)
    certs: list[WitnessCertificate] = []
    for s, bits in sized:
        for k in range(base, base + max_extensions + 1):
            if k > len(primes):
                next(runs)
            if _emit(certs, poly, "cyclotomic", {"m": str(m)}, primes[:k], s,
                     ratio, bits, max_n_digits,
                     lambda nv: (s**nv, [cyclotomic_value(m * d, s)
                                         for d in divisors(nv)]),
                     lambda raw, merged: None):
                break
        else:
            raise ConstructionBudgetError(certs, {
                "class": "cyclotomic", "m": str(m), "s": str(s),
                "reason": f"no valid prime run within {max_extensions} "
                "extensions"})
    return certs


def construct_chebyshev(
    ms,
    s_values,
    ratio=1,
    *,
    max_n_digits: int = 100_000,
) -> list[WitnessCertificate]:
    """Certificates for P = prod of T_m over m in ms, at n = T_N(s).

    N is a squarefree product of primes above max(ms) selected against
    the target 2*phi(max(ms)).  For each m the values psi_{4d}(2s) over
    divisors d of mN with odd cofactor multiply to 2*T_{mN}(s); halving
    one even value per m absorbs the doubling, and the union of the
    lists multiplies to P(n) exactly.
    """
    ms = list(ms)
    if not ms or any(m < 1 for m in ms):
        raise ValueError("need a nonempty list of positive orders")
    big = max(ms)
    tag = "chebyshev" if len(ms) == 1 else "chebyshev_product"
    sized = [(s, big * (2 * s).bit_length()) for s in s_values]
    primes, _ = _prime_run(big + 1, Fraction(ratio) * 2 * euler_phi(big),
                           sized, max_n_digits, tag)
    poly = IntPoly((1,))
    for m in ms:
        poly = poly.multiply(chebyshev_t(m))
    certs: list[WitnessCertificate] = []

    def split(n_value):
        all_vals: list[int] = []
        for m in ms:
            vals = [v for _, v in chebyshev_factor_values(m * n_value, s)]
            for i, v in enumerate(vals):
                if v % 2 == 0:
                    vals[i] = v // 2
                    break
            else:
                raise ArithmeticError("an even psi value must exist")
            _require(math.prod(vals) == chebyshev_t_value(m * n_value, s),
                     "psi values must multiply to T_mN(s)")
            all_vals.extend(vals)
        return chebyshev_t_value(n_value, s), all_vals

    def clash(raw, merged):
        raise ConstructionBudgetError(certs, {
            "class": tag, "reason": "factor merging could not stay below n",
            "s": str(s), "N": str(math.prod(primes)),
        })

    for s, bits in sized:
        _emit(certs, poly, tag, {"ms": ",".join(str(m) for m in ms)}, primes,
              s, ratio, bits, max_n_digits, split, clash)
    return certs
