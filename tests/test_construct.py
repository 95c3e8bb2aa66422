"""Certificate constructors for every polynomial family."""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import factoridiv
from factoridiv import construct, numtheory
from factoridiv.cli import cert_to_dict
from factoridiv.construct import (
    ConstructionBudgetError,
    WitnessCertificate,
    construct_binomial_power,
    construct_chebyshev,
    construct_cubic,
    construct_cyclotomic,
    construct_quadratic,
    construct_quartic_biquadratic,
    construct_quartic_cubic_linear,
)
from factoridiv.intpoly import IntPoly
from factoridiv.numtheory import _pow_cmp, divisors
from factoridiv.specialpoly import chebyshev_t_value
from factoridiv.verify import verify, verify_distinct

X2P1 = IntPoly((1, 0, 1))
CUBIC_ONES = IntPoly((1, 1, 1, 1))


def assert_certificate_shape(cert, tag):
    assert cert.class_tag == tag
    assert cert.n >= 2
    prod = 1
    for f in cert.factors:
        prod *= f
    assert prod == abs(cert.poly.evaluate(cert.n))
    assert all(isinstance(v, str) for v in cert.params.values())


def test_certificate_structural_validation():
    with pytest.raises(ValueError):
        WitnessCertificate(X2P1, "quadratic", 1, (2,), {}, "distinct")
    with pytest.raises(ValueError):
        WitnessCertificate(X2P1, "quadratic", 5, (), {}, "distinct")
    with pytest.raises(ValueError):
        WitnessCertificate(X2P1, "quadratic", 5, (0,), {}, "distinct")
    with pytest.raises(ValueError):
        WitnessCertificate(X2P1, "quadratic", 5, (2,), {}, "nonsense")
    # a wrong product is representable; only verification rejects it
    bad = WitnessCertificate(X2P1, "quadratic", 5, (7,), {}, "distinct")
    assert not verify_distinct(bad).accepted


# -- quadratic ---------------------------------------------------------------


def test_quadratic_first_instances():
    certs = construct_quadratic(X2P1, 5)
    got = [(c.n, c.factors) for c in certs]
    assert got == [
        (21, (2, 13, 17)),
        (43, (2, 25, 37)),
        (73, (2, 41, 65)),
        (111, (2, 61, 101)),
        (157, (2, 85, 145)),
    ]
    for c in certs:
        assert_certificate_shape(c, "quadratic")
        assert c.mode_hint == "distinct"
        assert verify(c).accepted
        # chain ordering 1 < q < Q(m)/q < P(m) < n
        f1, f2, f3 = c.factors
        assert 1 < f1 < f2 < f3 < c.n
        assert c.params["q"] == "2"


def test_quadratic_other_polynomials():
    for coeffs in ((3, 0, 2), (1, 1, 1), (5, 2, 1)):
        certs = construct_quadratic(IntPoly(coeffs), 3)
        assert len(certs) == 3
        for c in certs:
            assert_certificate_shape(c, "quadratic")
            assert verify(c).accepted


def test_quadratic_input_validation():
    with pytest.raises(ValueError):
        construct_quadratic(IntPoly((1, 1)))
    with pytest.raises(ValueError):
        construct_quadratic(IntPoly((-1, 0, 1)))
    with pytest.raises(ValueError):
        construct_quadratic(X2P1, 0)


# -- cubic splitting ---------------------------------------------------------


def first_split(f, kappa, taus):
    """The first verified split of f(g(x)) over the tau grid, or None."""
    hits = construct._schinzel_candidates(f, kappa, construct._tau_rows(f, taus))
    return next(hits, None)


def test_schinzel_pieces_flagship():
    # the first split of the level-1 (top) grid really divides
    hit = first_split(CUBIC_ONES, 1, construct._TAUS_TOP)
    assert hit.g == IntPoly((2, 19, 26))
    assert CUBIC_ONES.compose(hit.g) == hit.f1.multiply(hit.f2).scale(hit.content)
    assert hit.f1.degree == 3 and hit.f2.degree == 3


def test_schinzel_pieces_random_cubics():
    # every split over the wide grid must satisfy the division identity
    # exactly; inputs with no split in the grid yield none
    rng = random.Random(42)
    ok = 0
    for _ in range(60):
        f = IntPoly([rng.randint(1, 9) for _ in range(4)])
        kappa = rng.randint(1, 3)
        p = first_split(f, kappa, construct._TAUS_WIDE)
        if p is None:
            continue
        assert f.compose(p.g) == p.f1.multiply(p.f2).scale(p.content)
        assert p.f1.degree == 3 and p.f2.degree == 3
        assert p.g.degree == 2 and p.g.coefficient(0) == 2 * kappa
        ok += 1
    assert ok >= 30


def fraction_screen(f, kappa, taus):
    """Reference tau screen in Fraction arithmetic: keep tau = nu/delta,
    given as (nu, delta), when d1 != 0 and d0 + 2 kappa d1 is a rational
    square r**2."""
    a, b, c, d = (Fraction(f.coefficient(i)) for i in (3, 2, 1, 0))
    p2, p1, p0 = -b / a, -c / a, -d / a
    q2, q1, q0 = p2 * p2 + p1, p2 * p1 + p0, p2 * p0
    kept = []
    for tau in (Fraction(*pair) for pair in taus):
        e0 = -(q2 + 2 * tau * p2 + tau * tau) / 2
        d1 = q1 + 2 * tau * p1 + 2 * tau * e0
        if d1 == 0:
            continue
        v = q0 + 2 * tau * p0 + e0 * e0 + 2 * kappa * d1
        if v < 0:
            continue
        rn, rd = math.isqrt(v.numerator), math.isqrt(v.denominator)
        if rn * rn == v.numerator and rd * rd == v.denominator:
            kept.append((tau, e0, d1, Fraction(rn, rd)))
    return kept


def rational_screen(f, kappa, taus):
    """The integer screen's survivors as (tau, e0, d1, r) in Fractions,
    with e0 = E / D, d1 = N1 / (A D delta / 2) and r = root / D for
    D = 2 A**2 delta**2."""
    a = f.coefficient(3)
    out = []
    for ((nu, de), e, n1, _, _), root in construct._square_rows(
            construct._tau_rows(f, taus), kappa):
        d = 2 * a * a * de * de
        out.append((Fraction(nu, de), Fraction(e, d),
                    Fraction(n1, a * d * de // 2), Fraction(root, d)))
    return out


@settings(max_examples=100, deadline=None)
@given(
    coeffs=st.lists(st.integers(1, 20), min_size=4, max_size=4),
    kappa=st.integers(1, 6),
    taus=st.lists(st.sampled_from(construct._TAUS_WIDE), max_size=40),
)
@example(coeffs=[1, 1, 1, 1], kappa=2, taus=list(construct._TAUS_WIDE))
@example(coeffs=[1, 0, 0, 5], kappa=1, taus=list(construct._TAUS_WIDE))
def test_integer_tau_screen_matches_fraction_screen(coeffs, kappa, taus):
    f = IntPoly(coeffs)
    assert rational_screen(f, kappa, taus) == fraction_screen(f, kappa, taus)


def test_integer_tau_screen_keeps_squares():
    # the property above is not vacuous: six wide-grid tau pass here
    assert len(rational_screen(CUBIC_ONES, 2, construct._TAUS_WIDE)) == 6


@settings(max_examples=10, deadline=None)
@given(coeffs=st.lists(st.integers(1, 20), min_size=4, max_size=4))
@example(coeffs=[1, 1, 1, 1])
def test_one_tau_row_table_serves_every_kappa(coeffs):
    f = IntPoly(coeffs)
    a = f.coefficient(3)
    table = construct._tau_rows(f, construct._TAUS_WIDE)
    before = list(table)
    for kappa in range(1, 7):
        got = []
        for ((nu, de), e, n1, _, _), root in construct._square_rows(table, kappa):
            d = 2 * a * a * de * de
            got.append((Fraction(nu, de), Fraction(e, d),
                        Fraction(n1, a**3 * de**3), Fraction(root, d)))
        assert got == fraction_screen(f, kappa, construct._TAUS_WIDE)
    assert table == before


def unpruned_tau_rows(f, taus):
    """_tau_rows without dropping the rows whose N is negative at every
    kappa >= 1."""
    a, b, c, d = (f.coefficient(i) for i in (3, 2, 1, 0))
    q2, q1, q0 = b * b - a * c, b * c - a * d, b * d
    rows = []
    for tau in taus:
        nu, de = tau
        e = -(q2 * de**2 - 2 * nu * de * a * b + nu**2 * a**2)
        n1 = q1 * a * de**3 - 2 * nu * c * a**2 * de**2 + nu * a * e
        if n1:
            n0 = 4 * a**2 * de**4 * q0 - 8 * nu * d * a**3 * de**3 + e * e
            rows.append((tau, e, n1, n0, 8 * a * de * n1))
    return rows


@settings(max_examples=30, deadline=None)
@given(
    lead=st.integers(1, 30),
    rest=st.lists(st.integers(-30, 30), min_size=3, max_size=3),
)
@example(lead=1, rest=[5, 0, 0])  # x^3 + 5, the bench op "cubic-exhausted"
def test_pruned_tau_rows_keep_every_square(lead, rest):
    # rows are built tau by tau, and the wide grid holds the top one
    f = IntPoly(rest + [lead])
    rows = construct._tau_rows(f, construct._TAUS_WIDE)
    full = unpruned_tau_rows(f, construct._TAUS_WIDE)
    assert all(row in full for row in rows)
    for kappa in range(1, 61):
        assert list(construct._square_rows(rows, kappa)) == list(
            construct._square_rows(full, kappa))


def test_pruning_drops_rows_of_x3_plus_5():
    f = IntPoly((5, 0, 0, 1))
    rows = construct._tau_rows(f, construct._TAUS_WIDE)
    assert len(rows) < len(unpruned_tau_rows(f, construct._TAUS_WIDE))


@pytest.mark.parametrize(
    "m, table",
    [(64, construct._SQ64), (63, construct._SQ63), (65, construct._SQ65)],
)
def test_square_tables_hold_exactly_the_squares(m, table):
    assert {r for r in range(m) if table[r]} == {x * x % m for x in range(m)}


def isqrt_square_rows(rows, kappa):
    """_square_rows without the residue tables."""
    for row in rows:
        n = row[3] + kappa * row[4]
        if n >= 0 and math.isqrt(n) ** 2 == n:
            yield row, math.isqrt(n)


@settings(max_examples=200, deadline=None)
@given(
    roots=st.lists(st.integers(0, 2**200), max_size=20),
    shifts=st.lists(st.integers(-5000, 5000), max_size=20),
    kappa=st.integers(1, 60),
)
def test_square_rows_match_isqrt_only(roots, shifts, kappa):
    # each N = root**2 + shift - kappa * step: every exact square must
    # pass the tables, and near misses and negatives must not
    rows = []
    for i, (root, shift) in enumerate(zip(roots, shifts)):
        step = i - 10
        rows.append((i, 0, 0, root * root + shift - kappa * step, step))
    rows += [(-1, 0, 0, r * r - kappa, 1) for r in roots]
    got = list(construct._square_rows(rows, kappa))
    assert got == list(isqrt_square_rows(rows, kappa))
    assert len(got) >= len(roots)


def iroot(x, k):
    """floor(x ** (1/k)) for x >= 0."""
    r = 1 << -(-x.bit_length() // k)
    while r**k > x:
        r = ((k - 1) * r + x // r ** (k - 1)) // k
    return r


@settings(max_examples=300, deadline=None)
@given(
    n=st.one_of(st.integers(1, 2**64), st.integers(1, 2**4000)),
    offset=st.integers(-1, 1),
    scale=st.sampled_from([None, 0, 1, 3, 7, 1000]),
)
@example(n=10**6 + 1, offset=0, scale=None)
@example(n=2**1000, offset=0, scale=None)
@example(n=2**1000, offset=1, scale=None)
def test_four_fifths_cap_matches_the_powers(n, offset, scale):
    # near ties m = floor(n**(4/5)) + offset, and m far from them
    root = iroot(n**4, 5)
    assert root**5 <= n**4 < (root + 1) ** 5
    m = root + offset if scale is None else root * scale // 2
    assert (_pow_cmp(m, 5, n, 4) >= 0) == (m**5 >= n**4)


def test_four_fifths_cap_at_bit_length_corners():
    # the least and greatest m and n of each bit length, wherever the two
    # bit-length tests come close to deciding
    for bits_n in range(1, 160):
        lo, hi = (4 * bits_n - 6) // 5, (4 * bits_n + 6) // 5
        for bits_m in range(max(0, lo), hi + 1):
            for m in (1 << bits_m >> 1, (1 << bits_m) - 1):
                for n in (1 << bits_n >> 1, (1 << bits_n) - 1):
                    assert (_pow_cmp(m, 5, n, 4) >= 0) == (
                        m**5 >= n**4), (m, n)


def _lin_mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        if pi:
            for j, qj in enumerate(q):
                out[i + j] += pi * qj
    return out


_PERMS3 = (
    ((0, 1, 2), 1),
    ((1, 2, 0), 1),
    ((2, 0, 1), 1),
    ((0, 2, 1), -1),
    ((2, 1, 0), -1),
    ((1, 0, 2), -1),
)


def fraction_det3_linear(ent):
    """Determinant of a 3x3 matrix of degree-<=1 polynomials over Q."""
    total = [Fraction(0)] * 4
    for perm, sign in _PERMS3:
        term = _lin_mul(
            _lin_mul(ent[0][perm[0]], ent[1][perm[1]]), ent[2][perm[2]]
        )
        for k, v in enumerate(term):
            total[k] += v if sign > 0 else -v
    return total


def fraction_content_split(coeffs):
    """(content, primitive) of a rational coefficient vector, with the
    sign in the content so that the primitive part leads positive."""
    den = math.lcm(*(Fraction(c).denominator for c in coeffs))
    split = IntPoly(int(c * den) for c in coeffs).content_split()
    return Fraction(split.content, den), split.primitive


def fraction_split_guesses(f, kappa, tau, e0, d1, r):
    """Reference (g, f1) pairs at one screen survivor in Fraction
    arithmetic: least scale T, the multiplication-by-E matrix over Q and a
    permutation expansion of det((g1 + 2 g2 x) I - T M_E)."""
    a = f.coefficient(3)
    p2, p1, p0 = (Fraction(-f.coefficient(i), a) for i in (2, 1, 0))
    q2, q1, q0 = p2 * p2 + p1, p2 * p1 + p0, p2 * p0
    den = math.lcm(d1.denominator, r.denominator)
    T = next(
        Fraction(t) for t in divisors(2 * den)
        if (t * t * d1 / 4).denominator == 1 and (t * r).denominator == 1
    )
    g2 = int(T * T * d1 / 4)
    if g2 == 0:
        return []
    g1_mag = int(T * r)
    mat = (
        (e0, p0, tau * p0 + q0),
        (tau, e0 + p1, tau * p1 + q1),
        (Fraction(1), tau + p2, e0 + tau * p2 + q2),
    )
    out = []
    for g1 in ((g1_mag, -g1_mag) if g1_mag else (0,)):
        ent = [
            [
                (
                    (Fraction(g1) if i == j else Fraction(0)) - T * mat[i][j],
                    Fraction(2 * g2) if i == j else Fraction(0),
                )
                for j in range(3)
            ]
            for i in range(3)
        ]
        det = fraction_det3_linear(ent)
        if all(v == 0 for v in det):
            continue
        _, f1 = fraction_content_split(det)
        if f1.degree == 3:
            out.append((IntPoly((2 * kappa, g1, g2)), f1))
    return out


def check_split_guesses(f, kappa):
    """Compare the integer guesses with the Fraction reference at every
    survivor of the wide grid; return the number of survivors."""
    rows = construct._tau_rows(f, construct._TAUS_WIDE)
    survivors = list(construct._square_rows(rows, kappa))
    screen = rational_screen(f, kappa, construct._TAUS_WIDE)
    assert [Fraction(*row[0]) for row, _ in survivors] == [s[0] for s in screen]
    for (row, root), rational in zip(survivors, screen):
        got = list(construct._split_guesses(f, kappa, row, root))
        assert got == fraction_split_guesses(f, kappa, *rational)
    return len(survivors)


def test_integer_resolvent_matches_fraction_determinant_on_cubic_ones():
    # kappa <= 4 covers the level-1 search, kappa = l <= 30 the level-2 one
    assert sum(check_split_guesses(CUBIC_ONES, k) for k in range(1, 31)) >= 30


@settings(max_examples=100, deadline=None)
@given(
    lead=st.integers(1, 30),
    rest=st.lists(st.integers(-30, 30), min_size=3, max_size=3),
    kappa=st.integers(1, 30),
)
@example(lead=680, rest=[-1, 30, -300], kappa=1)  # a level-1 factor of x^3 + 5
@example(lead=1, rest=[1, 1, 1], kappa=2)
def test_integer_resolvent_matches_fraction_determinant(lead, rest, kappa):
    check_split_guesses(IntPoly(rest + [lead]), kappa)


def test_cubic_exhausted_pinned(monkeypatch):
    # the bench op "cubic-exhausted": every level-1 and level-2 screen runs
    # to the end, and each cubic's tau rows are built once
    seen = []
    rows = construct._tau_rows

    def counted(f, taus):
        seen.append(f)
        return rows(f, taus)

    monkeypatch.setattr(construct, "_tau_rows", counted)
    with pytest.raises(ConstructionBudgetError) as ei:
        construct_cubic(IntPoly((5, 0, 0, 1)))
    assert ei.value.partial == []
    assert ei.value.report == {
        "class": "cubic",
        "reason": "exhausted 0 linked instances (kappa<=4, l<=30)",
    }
    assert len(seen) == len(set(seen)) > 1


def _certs_digest(certs):
    text = json.dumps([cert_to_dict(c) for c in certs], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_cubic_pipeline_certificates_pinned():
    # digests of the certificate JSON as the Fraction tau engine produced it
    assert _certs_digest(construct_cubic(CUBIC_ONES, 6)) == (
        "5237bcc874d934490cb159e2ef916b9588e246af21c33b597a66fdd252885c24"
    )
    certs = construct_quartic_cubic_linear(CUBIC_ONES, IntPoly((1, 1)), 3)
    assert _certs_digest(certs) == (
        "ed277778639ee58e3f5ba9b64254620a1d3d3d001ef1b9e9e3945bc3ae5b0dcc"
    )


@pytest.mark.parametrize("cubic, linear, digest", [
    # p = 315 shares 105 with s_1, and 315 | s_k first at k = 3
    ((1, 1, 0, 1), (2, 1),
     "2c9d70a4a1ae39cdd975c9d83c89d338f198e853b93d0307ffa7f03f8b31fe5c"),
    # p = 34, and 34 | s_k first at k = 2
    ((1, 0, 1, 1), (3, 1),
     "5c9af956f1321f295f1a85c7bc5e473ab40169641764a9271b1336461ef1575e"),
])
def test_quartic_cubic_linear_pinned(cubic, linear, digest):
    # digests of the certificate JSON from the index filter that walked a
    # whole period of the pair sequence mod p
    certs = construct_quartic_cubic_linear(IntPoly(cubic), IntPoly(linear), 2)
    assert _certs_digest(certs) == digest


@pytest.mark.parametrize("coeffs, digest", [
    # four of these need a shift of 1 or 2 to positive coefficients
    ((1, -2, 0, 1),
     "78298a82b53d4d04b44dd36dc8795444672a14232acfbc68f7142569e8a8d93a"),
    ((-3, 1, 0, 1),
     "298c50009a2d1981fa00872bce19f9c40fddff4dca467ce66e2344b149619fef"),
    ((3, -2, -1, 1),
     "296ccfb1ddc1d5030a685f02a075b793247049a3a44b27cc27cd4eeaad542080"),
    ((-1, 1, 1, 1),
     "021729104f2a8b79daa4e29576f7153bbbf6d2d15ffde126b8e086851d99bd91"),
    ((3, 1, 2, 1),
     "f74acadb3f051f28c94a0df8324d716a85a926667405486455be89aeb3132cca"),
])
def test_sweep_cubics_pinned(coeffs, digest):
    # digests of the certificate JSON from the constructor that still
    # multiplied every factor list back out against P(n)
    assert _certs_digest(construct_cubic(IntPoly(coeffs), 2)) == digest


@pytest.mark.parametrize("first, second, count, digest", [
    ((1, 2, 1), (1, 1, 1), 5,
     "b3a14c18269c34e6e5711af06c512c30241a9fa1017aaa2d9f356595df2b174f"),
    # c1 = 2, so P(c1 x) = c1 R(x) Q(x) is checked at a scale above 1
    ((1, 0, 1), (2, 1, 1), 3,
     "c253d95483a97a94d7fb4f2a5862d697068d53abf640ae4619581efddf4dcd8a"),
])
def test_quartic_biquadratic_pinned(first, second, count, digest):
    certs = construct_quartic_biquadratic(IntPoly(first), IntPoly(second), count)
    assert _certs_digest(certs) == digest


@pytest.mark.parametrize("ms, s_values, digest", [
    ([2], [2, 3, 4, 5, 6],
     "7fdd0b9caf5cec20c11532eec56d65223cec84535f6bfe807c0866e6a9c17fb6"),
    ([1, 2], [3, 5],
     "d1c0229061f98e8edb9fd529562bf4833588ed191c163e485aabaee1f6d340ef"),
])
def test_chebyshev_pinned(ms, s_values, digest):
    certs = construct_chebyshev(ms, s_values, Fraction(9, 8))
    assert _certs_digest(certs) == digest


def test_construct_cubic_flagship():
    cert = construct_cubic(CUBIC_ONES)[0]
    assert_certificate_shape(cert, "cubic")
    assert cert.params == {
        "shift": "0",
        "kappa": "1",
        "tau_top": "-4",
        "l": "1",
        "tau_r": "-1/4",
        "tau_s": "-7/3",
        "pell_d": "129585492816",
        "pell_index": "1",
    }
    assert len(str(cert.n)) == 564
    assert len(cert.factors) == 4
    report = verify(cert)
    assert report.accepted and report.rule == "distinct"
    assert report.exponent == "0.7521"
    # the smoothness guard for large n: max factor below n**(4/5)
    assert max(cert.factors) ** 5 < cert.n**4


def test_construct_cubic_budget_reports(monkeypatch):
    monkeypatch.setattr(construct, "_KAPPA_MAX", 1)
    monkeypatch.setattr(construct, "_L_MAX", 2)
    monkeypatch.setattr(construct, "_PER_KAPPA", 1)
    monkeypatch.setattr(construct, "_CUBIC_TRIES", 1)
    with pytest.raises(ConstructionBudgetError) as ei:
        construct_cubic(CUBIC_ONES, max_n_digits=1)
    assert ei.value.partial == []
    assert ei.value.report["class"] == "cubic"
    # the reason names the limits in force when the search ran
    assert ei.value.report["reason"].endswith("(kappa<=1, l<=2)")
    # a Pell digit budget of zero names the blocking instance
    monkeypatch.setattr(construct, "_L_MAX", 1)
    monkeypatch.setattr(construct, "_PER_KAPPA", 4)
    monkeypatch.setattr(construct, "_PELL_DIGIT_BUDGET", 0)
    with pytest.raises(ConstructionBudgetError) as ei:
        construct_cubic(CUBIC_ONES, max_n_digits=1)
    assert ei.value.report["blocking_pell_d"] == "129585492816"
    assert ei.value.report["blocking_l"] == "1"


@pytest.mark.parametrize("build, args, removed", [
    (construct_quadratic, (X2P1,), ["scan_limit"]),
    (construct_cubic, (CUBIC_ONES,),
     ["kappa_max", "l_max", "per_kappa", "index_cap", "pell_digit_budget"]),
    (construct_quartic_cubic_linear, (CUBIC_ONES, IntPoly((1, 1))),
     ["kappa_max", "l_max", "per_kappa", "index_tries", "pell_digit_budget"]),
    (construct_quartic_biquadratic, (IntPoly((1, 2, 1)), IntPoly((1, 1, 1))),
     ["l_max", "index_tries", "modulus_cap", "pell_digit_budget"]),
], ids=["quadratic", "cubic", "quartic-cl", "quartic-qq"])
def test_search_limits_are_not_keywords(build, args, removed):
    # the search limits are module constants in construct; a call sets
    # only count and max_n_digits (the quadratic only count)
    for name in removed:
        with pytest.raises(TypeError):
            build(*args, **{name: 1})


def test_construct_cubic_input_validation():
    with pytest.raises(ValueError):
        construct_cubic(X2P1)
    with pytest.raises(ValueError):
        construct_cubic(IntPoly((1, 1, 1, -2)))


# -- quartic families --------------------------------------------------------


def test_quartic_cubic_linear():
    lin = IntPoly((1, 1))
    cert = construct_quartic_cubic_linear(CUBIC_ONES, lin)[0]
    assert_certificate_shape(cert, "quartic_cubic_linear")
    assert cert.poly == CUBIC_ONES.multiply(lin)
    assert cert.params["p"] == "69"
    assert cert.params["pell_d"] == "129585492816"
    assert cert.params["pell_index"] == "11"
    assert len(str(cert.n)) == 6177
    assert len(cert.factors) == 6
    # the chosen modulus divides the linear value and appears as a factor
    p = int(cert.params["p"])
    assert lin.evaluate(cert.n) % p == 0
    assert p in cert.factors
    report = verify(cert)
    assert report.accepted and report.rule == "distinct"
    assert all(1 <= f < cert.n for f in cert.factors)
    assert len(set(cert.factors)) == len(cert.factors)


def test_quartic_biquadratic():
    cert = construct_quartic_biquadratic(IntPoly((1, 2, 1)), IntPoly((1, 1, 1)))[0]
    assert_certificate_shape(cert, "quartic_biquadratic")
    assert cert.poly == IntPoly((1, 2, 1)).multiply(IntPoly((1, 1, 1)))
    assert cert.n == 529672195663531782747246674773338023519081063756405
    assert cert.factors == (
        279,
        58852466184836864749694077531994037059632707678241,
        85430999300569642378588175010610283042785252809001,
        105934439132706356549449332896178458434578712019401,
        529672195663531782747246651758729713501467758408644,
    )
    assert cert.params == {
        "l": "1",
        "scale": "1",
        "v": "5",
        "c_q": "9",
        "c_r": "31",
        "pell_d": "5",
        "pell_index": "10",
    }
    report = verify(cert)
    assert report.accepted and report.rule == "distinct"
    assert all(1 <= f < cert.n for f in cert.factors)
    assert len(set(cert.factors)) == len(cert.factors)


def test_quartic_input_validation():
    with pytest.raises(ValueError):
        construct_quartic_cubic_linear(X2P1, IntPoly((1, 1)))
    with pytest.raises(ValueError):
        construct_quartic_cubic_linear(CUBIC_ONES, X2P1)
    with pytest.raises(ValueError):
        construct_quartic_biquadratic(CUBIC_ONES, X2P1)


def test_quartic_cubic_linear_reports():
    # a Pell digit budget below the one linked instance's solution
    with pytest.raises(ConstructionBudgetError) as ei, \
            pytest.MonkeyPatch.context() as mp:
        mp.setattr(construct, "_PELL_DIGIT_BUDGET", 40)
        construct_quartic_cubic_linear(CUBIC_ONES, IntPoly((3, 2)), 2,
                                       max_n_digits=20_000)
    assert ei.value.partial == []
    assert ei.value.report == {
        "class": "quartic_cubic_linear",
        "blocking_pell_d": "129585492816",
        "blocking_l": "1",
        "blocking_digits": "41",
        "reason": "exhausted 1 linked instances (kappa<=4, l<=30)",
    }
    # more certificates asked for than the Pell indices tried allow
    with pytest.raises(ConstructionBudgetError) as ei, \
            pytest.MonkeyPatch.context() as mp:
        mp.setattr(construct, "_QUARTIC_TRIES", 5)
        construct_quartic_cubic_linear(CUBIC_ONES, IntPoly((1, 1)), 20)
    assert [c.params["pell_index"] for c in ei.value.partial] == [
        "11", "22", "33", "44", "55",
    ]
    # the Pell keys come last, which keeps the certificate JSON unchanged
    assert list(ei.value.partial[0].params) == [
        "shift", "kappa", "l", "p", "pell_d", "pell_index",
    ]
    assert ei.value.report == {
        "class": "quartic_cubic_linear",
        "reason": "exhausted 1 linked instances (kappa<=4, l<=30)",
    }


def test_quartic_biquadratic_reports():
    with pytest.raises(ConstructionBudgetError) as ei, \
            pytest.MonkeyPatch.context() as mp:
        mp.setattr(construct, "_BIQ_L_MAX", 4)
        mp.setattr(construct, "_PELL_DIGIT_BUDGET", 30)
        construct_quartic_biquadratic(IntPoly((1, 2, 1)), IntPoly((1, 1, 1)),
                                      30)
    assert [c.params["pell_index"] for c in ei.value.partial] == [
        "10", "20", "30", "80", "160", "240", "105", "210", "315", "66",
        "132", "198",
    ]
    assert list(ei.value.partial[0].params) == [
        "l", "scale", "v", "c_q", "c_r", "pell_d", "pell_index",
    ]
    assert ei.value.report == {
        "class": "quartic_biquadratic",
        "reason": "exhausted 8 (l, assignment) candidates",
    }
    # every candidate is counted, also those dropped before their Pell
    # equation
    with pytest.raises(ConstructionBudgetError) as ei, \
            pytest.MonkeyPatch.context() as mp:
        mp.setattr(construct, "_MODULUS_CAP", 100000)
        construct_quartic_biquadratic(IntPoly((3, 1, 2)), IntPoly((1, 4, 1)),
                                      3, max_n_digits=500)
    assert ei.value.report["reason"] == "exhausted 24 (l, assignment) candidates"


def test_biquadratic_side_identity_checked_once_per_side(monkeypatch):
    checked = []
    require = construct._require

    def spy(ok, what):
        checked.append(what)
        require(ok, what)

    monkeypatch.setattr(construct, "_require", spy)
    side = "P(c1 x) must equal c1 R(x) Q(x)"
    with pytest.raises(ConstructionBudgetError) as ei:
        construct_quartic_biquadratic(IntPoly((1, 1, 1)), IntPoly((2, 0, 1)))
    assert ei.value.report["reason"] == "exhausted 24 (l, assignment) candidates"
    assert checked.count(side) == 2
    checked.clear()
    construct_quartic_biquadratic(IntPoly((1, 2, 1)), IntPoly((1, 1, 1)), 5)
    assert checked.count(side) == 2


def spy_attempts(monkeypatch):
    """Whether each _cubic_attempt gave a certificate, in call order."""
    made = []
    attempt = construct._cubic_attempt

    def spy(*args):
        got = attempt(*args)
        made.append(got is not None)
        return got

    monkeypatch.setattr(construct, "_cubic_attempt", spy)
    return made


def test_cubic_refused_attempts_then_a_certificate(monkeypatch):
    # the first 8 Pell pairs of x**3 + x**2 - 2x + 2 give n < 2
    made = spy_attempts(monkeypatch)
    certs = construct_cubic(IntPoly((2, -2, 1, 1)))
    assert made == [False] * 8 + [True]
    assert len(certs) == 1 and verify(certs[0]).accepted


def test_cubic_with_every_attempt_refused(monkeypatch):
    # every Pell pair of x**3 - x**2 - 2x + 2 gives n < 2
    made = spy_attempts(monkeypatch)
    with pytest.raises(ConstructionBudgetError) as ei:
        construct_cubic(IntPoly((2, -2, -1, 1)))
    assert made == [False] * 240
    assert ei.value.partial == []
    assert ei.value.report == {
        "class": "cubic",
        "reason": "exhausted 30 linked instances (kappa<=4, l<=30)",
    }


def test_tau_params_read_as_fractions():
    # tau_top, tau_r and tau_s are written from the reduced pairs
    assert set(construct._TAUS_TOP) <= set(construct._TAUS_WIDE)
    for nu, de in construct._TAUS_WIDE:
        assert construct._tau_str((nu, de)) == str(Fraction(nu, de))


@pytest.mark.parametrize("build", [
    lambda: construct_cubic(CUBIC_ONES),
    lambda: construct_quartic_cubic_linear(CUBIC_ONES, IntPoly((1, 1))),
    lambda: construct_quartic_biquadratic(IntPoly((1, 2, 1)), IntPoly((1, 1, 1))),
], ids=["cubic", "quartic-cl", "quartic-qq"])
def test_pell_constructors_raise_arithmetic_error(monkeypatch, build):
    # a pair off the Pell curve breaks the identities, which are explicit
    # checks and so also run under -O
    real = construct.pair_at

    def wrong(d, fund, k):
        r, s = real(d, fund, k)
        return r, s + 1

    monkeypatch.setattr(construct, "pair_at", wrong)
    with pytest.raises(ArithmeticError) as ei:
        build()
    assert ei.type is ArithmeticError


# -- binomial, cyclotomic, Chebyshev families --------------------------------


def _mertens_product(primes):
    return math.prod(Fraction(p, p - 1) for p in primes)


def test_prime_run_minimality():
    cases = [
        (2, Fraction(2), [2, 3]),  # 2/1 = 2 is not above 2: strict
        (2, Fraction(4), [2, 3, 5, 7]),
        (1, Fraction(9, 8), [2]),
        (5, Fraction(3, 2), None),
        (8, Fraction(2), None),
    ]
    for min_prime, threshold, want in cases:
        primes, _ = construct._prime_run(min_prime, threshold, [(2, 1)],
                                         10**100, "binomial_power")
        assert want is None or primes == want
        assert primes[0] == numtheory.next_prime(min_prime)
        assert all(b == numtheory.next_prime(a + 1)
                   for a, b in zip(primes, primes[1:]))
        # the shortest such run: without its last prime it is not above
        assert (_mertens_product(primes[:-1]) <= threshold
                < _mertens_product(primes))


def test_binomial_power_anchor():
    cert = construct_binomial_power(2, [2])[0]
    assert_certificate_shape(cert, "binomial_power")
    assert cert.n == 64
    assert cert.factors == (3, 5, 13, 21)
    assert 3 * 5 * 13 * 21 == 4095 == 64 * 64 - 1
    assert cert.params["N"] == "6"
    assert cert.params["primes"] == "2,3"
    assert math.factorial(64) % 4095 == 0
    assert verify(cert).accepted


def test_binomial_power_multiple_s():
    certs = construct_binomial_power(3, [2, 3, 4])
    assert [c.params["s"] for c in certs] == ["2", "3", "4"]
    for c in certs:
        assert_certificate_shape(c, "binomial_power")
        assert verify(c).accepted


def test_binomial_smoothness_decreases_with_ratio():
    vals = []
    for ratio in (1, 2, 4):
        cert = construct_binomial_power(1, [2], Fraction(ratio))[0]
        report = verify(cert)
        assert report.accepted
        vals.append(Decimal(report.exponent))
    assert vals[0] > vals[1] > vals[2]


def test_binomial_wrong_cyclotomic_raises_arithmetic_error(monkeypatch):
    # the product identity is an explicit check, so it also runs under -O
    real = construct.cyclotomic_value

    def wrong(d, b):
        return real(d, b) + 1 if d == 3 else real(d, b)

    monkeypatch.setattr(construct, "cyclotomic_value", wrong)
    with pytest.raises(ArithmeticError, match="multiply to P"):
        construct_binomial_power(4, [2], Fraction(6, 5))


def test_binomial_power_m5_pinned():
    # N = 30030 and n = 2**30030; the digest is of the certificate JSON as
    # the dense-polynomial cyclotomic layer produced it
    cert = construct_binomial_power(5, [2])[0]
    assert cert.params["N"] == "30030"
    assert verify(cert).accepted
    text = json.dumps(cert_to_dict(cert), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "1b80a9767f5faf7c4779e64509161a1399a4cb14c3f5961a84520f50d1988cf8"
    )


@pytest.mark.parametrize("m, ratio, big_n", [
    (2, Fraction(1, 10), 2), (2, Fraction(1, 2), 2), (2, Fraction(3, 4), 2),
    (3, Fraction(1, 10), 2), (3, Fraction(1, 2), 2), (3, Fraction(3, 4), 6),
    (4, Fraction(1, 10), 2), (4, Fraction(1, 2), 6), (4, Fraction(3, 4), 30),
])
def test_binomial_ratio_below_one_stops_with_a_report(m, ratio, big_n):
    # with nothing to merge, a value above n is no legendre case: no rule
    # accepts a factor above n
    with pytest.raises(ConstructionBudgetError) as ei:
        construct_binomial_power(m, [2, 3], ratio)
    assert ei.value.partial == []
    assert ei.value.report == {
        "class": "binomial_power",
        "reason": "factor merging could not stay below n",
        "s": "2",
        "N": str(big_n),
    }


def test_binomial_input_validation():
    with pytest.raises(ValueError):
        construct_binomial_power(0, [2])
    with pytest.raises(ValueError):
        construct_binomial_power(2, [1])


def test_cyclotomic_anchor():
    cert = construct_cyclotomic(2, [2])[0]
    assert_certificate_shape(cert, "cyclotomic")
    assert cert.n == 32768
    assert cert.factors == (9, 11, 331)
    assert cert.params["N"] == "15"
    assert cert.params["primes"] == "3,5"
    assert 9 * 11 * 331 == 32769 == cert.poly.evaluate(cert.n)
    assert verify(cert).accepted


def test_cyclotomic_first_order():
    cert = construct_cyclotomic(1, [2])[0]
    assert_certificate_shape(cert, "cyclotomic")
    assert cert.n == 4 and cert.factors == (1, 3)
    assert verify(cert).accepted


def test_cyclotomic_wrong_value_raises_arithmetic_error(monkeypatch):
    # Phi_2(2**15) = prod of Phi_{2d}(2) over d | 15; a wrong Phi_6 value
    # must trip the explicit product identity
    real = construct.cyclotomic_value

    def wrong(d, b):
        return real(d, b) + 1 if d == 6 else real(d, b)

    monkeypatch.setattr(construct, "cyclotomic_value", wrong)
    with pytest.raises(ArithmeticError, match="multiply to P"):
        construct_cyclotomic(2, [2])


def test_cyclotomic_infeasible_orders_report_cleanly():
    # orders whose prime selection starts above 3 need an astronomical n;
    # the constructor must report, not crash
    with pytest.raises(ConstructionBudgetError) as ei:
        construct_cyclotomic(3, [2])
    assert "digits" in ei.value.report["reason"]
    assert ei.value.partial == []


def test_chebyshev_anchor():
    cert = construct_chebyshev([2], [2])[0]
    assert_certificate_shape(cert, "chebyshev")
    assert cert.n == chebyshev_t_value(105, 2)
    assert len(str(cert.n)) == 60
    assert cert.params["primes"] == "3,5,7"
    assert cert.params["N"] == "105"
    assert len(cert.factors) == 8
    assert verify(cert).accepted
    assert all(1 <= f < cert.n for f in cert.factors)


def test_chebyshev_product_of_orders():
    cert = construct_chebyshev([1, 2], [2])[0]
    assert cert.class_tag == "chebyshev_product"
    assert_certificate_shape(cert, "chebyshev_product")
    assert cert.params["N"] == "105"
    assert len(cert.factors) == 16
    assert verify(cert).accepted


def test_chebyshev_infeasible_orders_report_cleanly():
    with pytest.raises(ConstructionBudgetError) as ei:
        construct_chebyshev([2, 3], [2])
    assert "digits" in ei.value.report["reason"]


# n = s**N (or T_N(s)) has at least 2 bits per unit of N for every s >= 2,
# so it passes the 100 000-digit budget once N > 166 096; a run of k primes
# has N >= 2**k, so the selector stops within 18 primes, and cyclotomic may
# read 6 more as extensions
@pytest.mark.parametrize("m", range(1, 41))
@pytest.mark.parametrize("family", ["binomial", "cyclotomic", "chebyshev"])
def test_selection_ends_within_the_digit_budget(family, m, monkeypatch):
    real = numtheory.next_prime
    steps = 0

    def counted(n):
        nonlocal steps
        steps += 1
        return real(n)

    monkeypatch.setattr(numtheory, "next_prime", counted)
    build = {
        "binomial": lambda s: construct_binomial_power(m, [s]),
        "cyclotomic": lambda s: construct_cyclotomic(m, [s]),
        "chebyshev": lambda s: construct_chebyshev([m], [s]),
    }[family]
    for s in (2, 3, 10):
        steps = 0
        try:
            assert build(s)
        except ConstructionBudgetError as exc:
            assert len(json.dumps(exc.report)) < 1024
            if "primes_chosen" in exc.report:
                assert "digits" in exc.report["reason"]
                assert "N" not in exc.report
        assert steps <= 18 + 6


def test_digit_stop_reads_the_s_of_fewest_bits():
    # 2**30 alone would stop the search at 5 primes; s = 2 still fits at the
    # full run N = 30030, so its certificate comes first, then the report
    with pytest.raises(ConstructionBudgetError) as ei:
        construct_binomial_power(5, [2, 2**30])
    assert [c.params["s"] for c in ei.value.partial] == ["2"]
    assert ei.value.report["N"] == "30030"
    assert ei.value.report["s"] == str(2**30)
    # at 5 primes n = 2**2310 has at most 6954 digits, which is not over a
    # budget of 6954, so the run completes and _emit refuses N = 30030
    with pytest.raises(ConstructionBudgetError) as ei:
        construct_binomial_power(5, [2], max_n_digits=6954)
    assert ei.value.report["N"] == "30030"
    with pytest.raises(ConstructionBudgetError) as ei:
        construct_binomial_power(5, [2], max_n_digits=6953)
    assert ei.value.report["primes_chosen"] == "5"


def test_cyclotomic_extensions_restart_for_each_s():
    # s = 2 needs one extension past the run (3,); s = 3 does not
    certs = construct_cyclotomic(2, [2, 3, 2])
    assert [c.params["primes"] for c in certs] == ["3,5", "3", "3,5"]


def test_stopped_selection_reports_at_the_default_str_limit():
    # a library caller keeps Python's 4300-digit int_max_str_digits; a
    # report must not format an N of thousands of digits
    script = (
        "import sys\n"
        "from factoridiv.construct import (ConstructionBudgetError,\n"
        "    construct_binomial_power, construct_cyclotomic)\n"
        "for build, m in ((construct_binomial_power, 17),\n"
        "                 (construct_cyclotomic, 8)):\n"
        "    try:\n"
        "        build(m, [2])\n"
        "    except ConstructionBudgetError as exc:\n"
        "        print(sys.get_int_max_str_digits(), sorted(exc.report))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(factoridiv.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    line = "4300 ['class', 'primes_chosen', 'reason', 's']\n"
    assert proc.stdout == line * 2


def test_chebyshev_input_validation():
    with pytest.raises(ValueError):
        construct_chebyshev([], [2])
    with pytest.raises(ValueError):
        construct_chebyshev([0], [2])
    with pytest.raises(ValueError):
        construct_chebyshev([2], [1])
