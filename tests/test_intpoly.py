"""Exact integer polynomial arithmetic."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from factoridiv.intpoly import ContentSplit, IntPoly


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


@pytest.mark.parametrize("coeffs", [(1, True), (False, 1), (True,)])
def test_bool_coefficients_rejected(coeffs):
    # a bool is an int to isinstance, but to_string would write "True"
    with pytest.raises(TypeError):
        IntPoly(coeffs)


def test_degree_leading_coefficient():
    p = IntPoly((1, 0, 3))
    assert p.degree == 2
    assert p.leading == 3
    assert p.coefficient(0) == 1
    assert p.coefficient(1) == 0
    assert p.coefficient(99) == 0
    assert IntPoly().degree == float("-inf")
    with pytest.raises(ValueError):
        IntPoly().leading


def test_constructors():
    assert IntPoly().coeffs == ()
    assert not IntPoly() and IntPoly((0, 1))
    # one spelling per operation: no named constants, operators or calls
    for name in ("zero", "one", "x"):
        assert not hasattr(IntPoly, name)
    p = IntPoly((1, 1))
    with pytest.raises(TypeError):
        p + p
    with pytest.raises(TypeError):
        2 * p
    with pytest.raises(TypeError):
        -p
    with pytest.raises(TypeError):
        p(3)


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
        px, qx = p.evaluate(x), q.evaluate(x)
        assert p.add(q).evaluate(x) == px + qx
        assert p.subtract(q).evaluate(x) == px - qx
        assert p.multiply(q).evaluate(x) == px * qx
        assert p.scale(-1).evaluate(x) == -px
        assert p.add(IntPoly((3,))).evaluate(x) == px + 3
        assert p.scale(2).evaluate(x) == 2 * px


def test_compose_matches_evaluation():
    rng = random.Random(13)
    for _ in range(300):
        p = rand_poly(rng, max_deg=5)
        q = rand_poly(rng, max_deg=5)
        x = rng.randint(-10, 10)
        assert p.compose(q).evaluate(x) == p.evaluate(q.evaluate(x))


def test_exact_divide_integer_quotient():
    rng = random.Random(17)
    for _ in range(300):
        q = rand_poly(rng, max_deg=4, nonzero=True)
        d = rand_poly(rng, max_deg=4, nonzero=True)
        prod = q.multiply(d)
        assert prod.exact_divide(d) == q


def test_exact_divide_not_a_factor():
    # the remainder of x^2+1 by x-1 is 2
    assert IntPoly((1, 0, 1)).exact_divide(IntPoly((-1, 1))) is None


def test_exact_divide_rational_quotient():
    # (2x+1)(x+1) / 2 is exact over Q only
    assert IntPoly((1, 2)).multiply(IntPoly((1, 1))).exact_divide(IntPoly((2,))) is None


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


DIVISORS = st.builds(
    lambda lower, lead: IntPoly(lower + [lead]),
    st.lists(st.integers(-30, 30), max_size=6),
    st.integers(-6, 6).filter(bool),
)


@settings(max_examples=300, deadline=None)
@given(
    divisor=DIVISORS,
    cofactor=st.lists(st.integers(-30, 30), max_size=6),
    extra=st.lists(st.integers(-50, 50), max_size=10),
)
@example(divisor=IntPoly((1,)), cofactor=[], extra=[])  # zero dividend
@example(divisor=IntPoly((-1,)), cofactor=[], extra=[4, -3, 2])  # constant
@example(divisor=IntPoly((5, 0, 0, 0, 1)), cofactor=[], extra=[1, 2])  # higher
@example(divisor=IntPoly((1, 0, -1)), cofactor=[0, 7, 1], extra=[])  # exact
@example(divisor=IntPoly((0, 0, -1)), cofactor=[3, 1], extra=[0, 5])
@example(divisor=IntPoly((2,)), cofactor=[], extra=[1, 3, 2])  # rational
@example(divisor=IntPoly((2,)), cofactor=[3, -1], extra=[])  # content 2
@example(divisor=IntPoly((4, 0, 2)), cofactor=[1, 1], extra=[0, 2])
@example(divisor=IntPoly((1, 3)), cofactor=[], extra=[1, 0, 9])  # remainder 2
def test_exact_divide_matches_fraction_division(divisor, cofactor, extra):
    # random dividends plus exact multiples of the divisor, whose leading
    # coefficient need not be a unit nor the divisor primitive
    dividend = divisor.multiply(IntPoly(cofactor)).add(IntPoly(extra))
    quot, rem = fraction_long_divide(dividend.coeffs, divisor.coeffs)
    got = dividend.exact_divide(divisor)
    if rem or any(q.denominator != 1 for q in quot):
        assert got is None
    else:
        assert got == IntPoly(int(q) for q in quot)
        if not extra:
            assert got == IntPoly(cofactor)


def test_divide_by_zero():
    with pytest.raises(ZeroDivisionError):
        IntPoly((1, 1)).exact_divide(IntPoly())


def test_content_split():
    cs = IntPoly((6, -12, 18)).content_split()
    assert cs == ContentSplit(6, IntPoly((1, -2, 3)))
    cs = IntPoly((3, -3)).content_split()
    assert cs.content == -3 and cs.primitive == IntPoly((-1, 1))
    assert cs.primitive.leading > 0
    with pytest.raises(ValueError):
        IntPoly().content_split()
    rng = random.Random(19)
    for _ in range(200):
        p = rand_poly(rng, nonzero=True)
        cs = p.content_split()
        assert cs.primitive.scale(cs.content) == p
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
        assert p.shift(y).evaluate(x) == p.evaluate(x + y)


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

