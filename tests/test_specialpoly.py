"""Cyclotomic, real-cyclotomic and Chebyshev polynomial identities."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from factoridiv.intpoly import IntPoly
from factoridiv.numtheory import euler_phi
from factoridiv.specialpoly import (
    chebyshev_factor_values,
    chebyshev_t,
    chebyshev_t_value,
    cyclotomic,
    cyclotomic_value,
    psi,
)


def value_at(poly, t):
    """poly(t) for a rational t, by Horner over Fraction."""
    acc = Fraction(0)
    for c in reversed(poly.coeffs):
        acc = acc * t + c
    return acc


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_cyclotomic_anchors():
    assert cyclotomic(1) == IntPoly((-1, 1))
    assert cyclotomic(2) == IntPoly((1, 1))
    assert cyclotomic(3) == IntPoly((1, 1, 1))
    assert cyclotomic(4) == IntPoly((1, 0, 1))
    assert cyclotomic(6) == IntPoly((1, -1, 1))
    assert cyclotomic(12) == IntPoly((1, 0, -1, 0, 1))
    with pytest.raises(ValueError):
        cyclotomic(0)


def test_cyclotomic_product_identity():
    for n in range(1, 61):
        prod = IntPoly((1,))
        for d in divisors(n):
            prod = prod.multiply(cyclotomic(d))
        assert prod == IntPoly((-1,) + (0,) * (n - 1) + (1,))


def test_cyclotomic_degree_is_totient():
    for n in range(1, 301):
        assert cyclotomic(n).degree == euler_phi(n)


def test_cyclotomic_coefficient_bounds():
    for n in range(1, 105):
        assert all(c in (-1, 0, 1) for c in cyclotomic(n).coeffs)
    c105 = cyclotomic(105)
    assert c105.coefficient(7) == -2
    assert c105.coefficient(41) == -2


def test_psi_anchors():
    assert psi(3) == IntPoly((1, 1))
    assert psi(4) == IntPoly((0, 1))
    assert psi(6) == IntPoly((-1, 1))
    assert psi(12) == IntPoly((-3, 0, 1))
    with pytest.raises(ValueError):
        psi(2)


def test_psi_defining_identity():
    # psi_n(t + 1/t) * t**(phi(n)/2) == Phi_n(t), checked at rational points
    for n in range(3, 81):
        half = euler_phi(n) // 2
        assert psi(n).degree == half
        for t in (2, 3, Fraction(5, 2)):
            t = Fraction(t)
            lhs = value_at(psi(n), t + 1 / t) * t**half
            assert lhs == value_at(cyclotomic(n), t)


def test_chebyshev_anchors():
    assert chebyshev_t(0) == IntPoly((1,))
    assert chebyshev_t(1) == IntPoly((0, 1))
    assert chebyshev_t(2) == IntPoly((-1, 0, 2))
    assert chebyshev_t(3) == IntPoly((0, -3, 0, 4))
    assert chebyshev_t(10).leading == 2**9


def test_chebyshev_composition():
    for m in range(0, 7):
        for n in range(0, 7):
            assert chebyshev_t(m).compose(chebyshev_t(n)) == chebyshev_t(m * n)


def test_chebyshev_value_recurrence():
    for n in range(0, 31):
        for s in range(-3, 4):
            assert chebyshev_t_value(n, s) == chebyshev_t(n).evaluate(s)


def test_chebyshev_factor_values():
    # product over divisors d of n with n/d odd equals 2 T_n(s); s = 0 and
    # s = +-1 included, and n with large powers of 2
    for n in (1, 2, 6, 12, 15, 21, 40, 64, 96, 105, 192):
        for s in range(-3, 4):
            pairs = chebyshev_factor_values(n, s)
            assert [d for d, _ in pairs] == [
                d for d in divisors(n) if (n // d) % 2 == 1
            ]
            prod = 1
            for _, v in pairs:
                prod *= v
            assert prod == 2 * chebyshev_t_value(n, s)
            # each listed value is the real-cyclotomic factor at 2s
            for d, v in pairs:
                assert v == psi(4 * d).evaluate(2 * s)


def test_cyclotomic_product_identity_to_250():
    for n in range(1, 251):
        prod = IntPoly((1,))
        for d in divisors(n):
            prod = prod.multiply(cyclotomic(d))
        assert prod == IntPoly((-1,) + (0,) * (n - 1) + (1,))


def test_cyclotomic_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for n in range(1, 251):
        ref = sympy.cyclotomic_poly(n, x, polys=True).all_coeffs()
        assert cyclotomic(n).coeffs == tuple(int(c) for c in reversed(ref))


def test_chebyshev_table_matches_single_terms(capsys):
    from factoridiv import cli

    assert cli.main(["table", "chebyshev", "--max", "60"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 61
    for i, line in enumerate(lines):
        index, coeffs = line.split("\t")
        poly = IntPoly.from_string(coeffs)
        assert int(index) == i
        assert poly == chebyshev_t.__wrapped__(i) == chebyshev_t(i)
        for s in (-2, 3, 7):
            assert poly.evaluate(s) == chebyshev_t_value(i, s)



@given(st.integers(1, 500), st.integers(2, 10**6))
def test_cyclotomic_value_matches_polynomial(d, b):
    assert cyclotomic_value(d, b) == cyclotomic(d).evaluate(b)


def test_cyclotomic_value_small_and_negative_bases():
    # b in (-1, 0, 1) makes some b**e - 1 vanish; negative b keeps signs
    for n in range(1, 61):
        for b in range(-4, 5):
            assert cyclotomic_value(n, b) == cyclotomic(n).evaluate(b)
    with pytest.raises(ValueError):
        cyclotomic_value(0, 2)


def test_cyclotomic_value_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for n in range(1, 201):
        for b in (2, 7, -3):
            assert cyclotomic_value(n, b) == int(sympy.cyclotomic_poly(n, b))


def test_cyclotomic_product_identity_to_300():
    # extends test_cyclotomic_product_identity_to_250
    for n in range(251, 301):
        prod = IntPoly((1,))
        for d in divisors(n):
            prod = prod.multiply(cyclotomic(d))
        assert prod == IntPoly((-1,) + (0,) * (n - 1) + (1,))


def test_psi_defining_identity_to_200():
    for n in range(3, 201):
        half = euler_phi(n) // 2
        assert psi(n).degree == half
        for t in (Fraction(2), Fraction(5, 2)):
            lhs = value_at(psi(n), t + 1 / t) * t**half
            assert lhs == value_at(cyclotomic(n), t)
