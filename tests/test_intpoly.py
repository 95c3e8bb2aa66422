"""Exact integer polynomial arithmetic."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from factoridiv.intpoly import (
    ContentSplit,
    DivisionReport,
    IntPoly,
    fraction_content_split,
)


def rand_poly(rng, max_deg=8, bound=50, nonzero=False):
    while True:
        deg = rng.randrange(max_deg + 1)
        p = IntPoly([rng.randint(-bound, bound) for _ in range(deg + 1)])
        if not nonzero or not p.is_zero:
            return p


def test_trailing_zeros_trimmed():
    assert IntPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPoly((0, 0, 0)).coeffs == ()
    assert IntPoly(()).is_zero
    assert IntPoly(iter([1, 0, 1])).coeffs == (1, 0, 1)


def test_integer_coefficients_enforced():
    with pytest.raises(TypeError):
        IntPoly((1.5, 2))
    with pytest.raises(TypeError):
        IntPoly((Fraction(1, 2),))


def test_degree_leading_coefficient():
    p = IntPoly((1, 0, 3))
    assert p.degree == 2
    assert p.leading == 3
    assert p.coefficient(0) == 1
    assert p.coefficient(1) == 0
    assert p.coefficient(99) == 0
    assert IntPoly.zero().degree == float("-inf")
    with pytest.raises(ValueError):
        IntPoly.zero().leading


def test_constructors():
    assert IntPoly.zero().coeffs == ()
    assert IntPoly.one().coeffs == (1,)
    assert IntPoly.x().coeffs == (0, 1)
    assert IntPoly.monomial(3, -2).coeffs == (0, 0, 0, -2)
    with pytest.raises(ValueError):
        IntPoly.monomial(-1)


def test_string_round_trip():
    assert IntPoly.from_string("1,0,1").coeffs == (1, 0, 1)
    assert IntPoly.from_string(" 2 , -3 ").coeffs == (2, -3)
    assert IntPoly.from_string("0").is_zero
    assert IntPoly.from_string("0").to_string() == "0"
    with pytest.raises(ValueError):
        IntPoly.from_string("")
    with pytest.raises(ValueError):
        IntPoly.from_string("1,x")
    rng = random.Random(7)
    for _ in range(100):
        p = rand_poly(rng)
        assert IntPoly.from_string(p.to_string()) == p


def test_arithmetic_matches_evaluation():
    rng = random.Random(11)
    for _ in range(500):
        p = rand_poly(rng)
        q = rand_poly(rng)
        x = rng.randint(-20, 20)
        assert (p + q)(x) == p(x) + q(x)
        assert (p - q)(x) == p(x) - q(x)
        assert (p * q)(x) == p(x) * q(x)
        assert (-p)(x) == -p(x)
        assert (p + 3)(x) == p(x) + 3
        assert (2 * p)(x) == 2 * p(x)


def test_compose_matches_evaluation():
    rng = random.Random(13)
    for _ in range(300):
        p = rand_poly(rng, max_deg=5)
        q = rand_poly(rng, max_deg=5)
        x = rng.randint(-10, 10)
        assert p.compose(q)(x) == p(q(x))


def test_derivative():
    assert IntPoly((5, 3, 0, 2)).derivative().coeffs == (3, 0, 6)
    assert IntPoly((7,)).derivative().is_zero
    assert IntPoly.zero().derivative().is_zero


def test_evaluate_fraction():
    p = IntPoly((1, 0, 1))
    assert p.evaluate_fraction(Fraction(1, 2)) == Fraction(5, 4)


def test_exact_divide_integer_quotient():
    rng = random.Random(17)
    for _ in range(300):
        q = rand_poly(rng, max_deg=4, nonzero=True)
        d = rand_poly(rng, max_deg=4, nonzero=True)
        prod = q * d
        got = prod.exact_divide(d)
        assert isinstance(got, IntPoly)
        assert got == q
        assert d.divides(prod)


def test_exact_divide_not_a_factor():
    rep = IntPoly((1, 0, 1)).exact_divide(IntPoly((-1, 1)))
    assert isinstance(rep, DivisionReport)
    assert rep.kind == "not-a-factor"
    assert not rep.exact_over_rationals
    # remainder is x^2+1 at x=1, namely 2
    assert rep.remainder == (Fraction(2),)


def test_exact_divide_rational_quotient():
    # (2x+1)(x+1) / 2 is exact over Q only
    rep = (IntPoly((1, 2)) * IntPoly((1, 1))).exact_divide(IntPoly((2,)))
    assert isinstance(rep, DivisionReport)
    assert rep.kind == "rational-quotient"
    assert rep.exact_over_rationals
    assert rep.quotient == (Fraction(1, 2), Fraction(3, 2), Fraction(1))


def fraction_long_divide(num, den):
    """Reference: ordinary long division over Q, as (quotient, remainder)."""
    num = [Fraction(c) for c in num]
    quot = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    for shift in range(len(quot) - 1, -1, -1):
        q = num[shift + len(den) - 1] / den[-1]
        quot[shift] = q
        for i, c in enumerate(den):
            num[shift + i] -= q * c
    rem = num[: len(den) - 1]
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


UNIT_LEAD = st.builds(
    lambda lower, lead: IntPoly(lower + [lead]),
    st.lists(st.integers(-30, 30), max_size=6),
    st.sampled_from([1, -1]),
)


@settings(max_examples=150, deadline=None)
@given(
    divisor=UNIT_LEAD,
    cofactor=st.lists(st.integers(-30, 30), max_size=6),
    extra=st.lists(st.integers(-50, 50), max_size=10),
)
@example(divisor=IntPoly((1,)), cofactor=[], extra=[])  # zero dividend
@example(divisor=IntPoly((-1,)), cofactor=[], extra=[4, -3, 2])  # constant
@example(divisor=IntPoly((5, 0, 0, 0, 1)), cofactor=[], extra=[1, 2])  # higher
@example(divisor=IntPoly((1, 0, -1)), cofactor=[0, 7, 1], extra=[])  # exact
@example(divisor=IntPoly((0, 0, -1)), cofactor=[3, 1], extra=[0, 5])
def test_exact_divide_unit_lead_matches_fraction_division(divisor, cofactor, extra):
    # random dividends plus exact multiples of the divisor
    dividend = divisor * IntPoly(cofactor) + IntPoly(extra)
    quot, rem = fraction_long_divide(dividend.coeffs, divisor.coeffs)
    got = dividend.exact_divide(divisor)
    if rem:
        assert got == DivisionReport("not-a-factor", tuple(quot), tuple(rem))
        assert all(isinstance(c, Fraction) for c in got.quotient + got.remainder)
    else:
        assert all(q.denominator == 1 for q in quot)
        assert got == IntPoly(int(q) for q in quot)
        if not extra:
            assert got == IntPoly(cofactor)


def test_divide_by_zero():
    with pytest.raises(ZeroDivisionError):
        IntPoly((1, 1)).exact_divide(IntPoly.zero())


def test_content_split():
    cs = IntPoly((6, -12, 18)).content_split()
    assert cs == ContentSplit(6, IntPoly((1, -2, 3)))
    cs = IntPoly((3, -3)).content_split()
    assert cs.content == -3 and cs.primitive == IntPoly((-1, 1))
    assert cs.primitive.leading > 0
    with pytest.raises(ValueError):
        IntPoly.zero().content_split()
    rng = random.Random(19)
    for _ in range(200):
        p = rand_poly(rng, nonzero=True)
        cs = p.content_split()
        assert IntPoly((cs.content,)) * cs.primitive == p
        assert cs.primitive.leading > 0
        g = cs.primitive.content_split()
        assert abs(g.content) == 1


def test_shift():
    p = IntPoly((0, 0, 1))  # x^2
    assert p.shift(1) == IntPoly((1, 2, 1))
    rng = random.Random(23)
    for _ in range(100):
        p = rand_poly(rng)
        y = rng.randint(-5, 5)
        x = rng.randint(-5, 5)
        assert p.shift(y)(x) == p(x + y)


def test_shift_to_positive_minimality():
    p = IntPoly((-10, -4, 1))
    y, shifted = p.shift_to_positive()
    assert all(c > 0 for c in shifted.coeffs)
    assert shifted == p.shift(y)
    # y is least: the previous shift still has a nonpositive coefficient
    assert y > 0
    assert any(c <= 0 for c in p.shift(y - 1).coeffs)
    assert IntPoly((1, 1)).shift_to_positive() == (0, IntPoly((1, 1)))
    with pytest.raises(ValueError):
        IntPoly((5,)).shift_to_positive()
    with pytest.raises(ValueError):
        IntPoly((0, -1)).shift_to_positive()


def test_fraction_content_split():
    content, prim = fraction_content_split((Fraction(1, 2), Fraction(3, 2)))
    assert content == Fraction(1, 2)
    assert prim == IntPoly((1, 3))
    content, prim = fraction_content_split((Fraction(-4), Fraction(-6)))
    assert content == Fraction(-2)
    assert prim == IntPoly((2, 3))
    assert prim.leading > 0
    with pytest.raises(ValueError):
        fraction_content_split((Fraction(0),))
