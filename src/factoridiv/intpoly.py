"""Exact dense univariate polynomials over the integers.

Coefficients are stored ascending (index i holds the coefficient of x**i)
in a normalized tuple with no trailing zeros, so equality and hashing are
structural.  The zero polynomial is the empty tuple and reports degree
-inf.  All arithmetic is exact; nothing here ever rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

__all__ = [
    "IntPoly",
    "DivisionReport",
    "ContentSplit",
    "fraction_content_split",
]

NEG_INF = float("-inf")


@dataclass(frozen=True)
class DivisionReport:
    """Outcome of an attempted exact division that did not stay in Z[x].

    kind is "not-a-factor" when the remainder is nonzero, or
    "rational-quotient" when the division is exact over Q but the quotient
    has at least one non-integer coefficient.  quotient and remainder hold
    the rational result of ordinary polynomial long division.
    """

    kind: str
    quotient: tuple[Fraction, ...]
    remainder: tuple[Fraction, ...]

    @property
    def exact_over_rationals(self) -> bool:
        return self.kind == "rational-quotient"


@dataclass(frozen=True)
class ContentSplit:
    """A polynomial written as content * primitive.

    content carries the sign so that the primitive part has a positive
    leading coefficient; primitive has coefficient gcd 1.
    """

    content: int
    primitive: "IntPoly"


@dataclass(frozen=True)
class IntPoly:
    coeffs: tuple[int, ...]

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficients required, got {c!r}")
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- construction helpers -------------------------------------------

    @classmethod
    def zero(cls) -> "IntPoly":
        return cls(())

    @classmethod
    def one(cls) -> "IntPoly":
        return cls((1,))

    @classmethod
    def x(cls) -> "IntPoly":
        return cls((0, 1))

    @classmethod
    def monomial(cls, degree: int, coeff: int = 1) -> "IntPoly":
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        return cls((0,) * degree + (coeff,))

    @classmethod
    def from_string(cls, text: str) -> "IntPoly":
        """Parse the comma-separated ascending coefficient form.

        "1,0,1" means 1 + 0*x + 1*x**2.  The empty string is rejected;
        "0" parses to the zero polynomial.
        """
        if not text.strip():
            raise ValueError("empty coefficient list")
        try:
            cs = [int(part.strip()) for part in text.split(",")]
        except ValueError as exc:
            raise ValueError(f"bad coefficient list {text!r}") from exc
        return cls(cs)

    def to_string(self) -> str:
        if not self.coeffs:
            return "0"
        return ",".join(str(c) for c in self.coeffs)

    # -- basic queries ----------------------------------------------------

    @property
    def degree(self):
        """Degree as an int, or -inf for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def coefficient(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)!r})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                term = str(mag)
            elif i == 1:
                term = "x" if mag == 1 else f"{mag}*x"
            else:
                term = f"x^{i}" if mag == 1 else f"{mag}*x^{i}"
            parts.append((sign, term))
        first_sign, first_term = parts[0]
        out = ("-" if first_sign == "-" else "") + first_term
        for sign, term in parts[1:]:
            out += f" {sign} {term}"
        return out

    # -- ring operations --------------------------------------------------

    def add(self, other: "IntPoly") -> "IntPoly":
        return IntPoly(
            a + b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        )

    def subtract(self, other: "IntPoly") -> "IntPoly":
        return IntPoly(
            a - b for a, b in zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        )

    def negate(self) -> "IntPoly":
        return IntPoly(-c for c in self.coeffs)

    def multiply(self, other: "IntPoly") -> "IntPoly":
        if not self.coeffs or not other.coeffs:
            return IntPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPoly(out)

    def scale(self, k: int) -> "IntPoly":
        return IntPoly(k * c for c in self.coeffs)

    def __add__(self, other):
        return self.add(self._coerce(other))

    def __sub__(self, other):
        return self.subtract(self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, int):
            return self.scale(other)
        return self.multiply(self._coerce(other))

    __rmul__ = __mul__

    def __radd__(self, other):
        return self._coerce(other).add(self)

    def __rsub__(self, other):
        return self._coerce(other).subtract(self)

    def __neg__(self):
        return self.negate()

    @staticmethod
    def _coerce(value) -> "IntPoly":
        if isinstance(value, IntPoly):
            return value
        if isinstance(value, int):
            return IntPoly((value,))
        raise TypeError(f"cannot treat {value!r} as an integer polynomial")

    def derivative(self) -> "IntPoly":
        return IntPoly(i * c for i, c in enumerate(self.coeffs) if i >= 1)

    # -- evaluation and composition ---------------------------------------

    def evaluate(self, x: int) -> int:
        """Horner evaluation; exact for arbitrary-precision arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def evaluate_fraction(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __call__(self, x: int) -> int:
        return self.evaluate(x)

    def compose(self, inner: "IntPoly") -> "IntPoly":
        """self(inner(x)), via Horner on polynomial values."""
        acc = IntPoly()
        for c in reversed(self.coeffs):
            acc = acc.multiply(inner).add(IntPoly((c,)))
        return acc

    # -- division ---------------------------------------------------------

    def exact_divide(self, divisor: "IntPoly"):
        """Divide by divisor, insisting the quotient stays in Z[x].

        Returns the quotient IntPoly on success.  Otherwise returns a
        DivisionReport: kind "not-a-factor" when a nonzero remainder is
        left, kind "rational-quotient" when the division is exact but
        needs rational coefficients.  A divisor with leading coefficient
        +-1 is divided in plain integers (its quotient is always integral);
        any other divisor goes through Fraction long division.
        """
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if divisor.leading in (1, -1):
            quot, rem = self._long_divide_unit(divisor)
            if rem:
                return DivisionReport(
                    "not-a-factor",
                    tuple(map(Fraction, quot)),
                    tuple(map(Fraction, rem)),
                )
            return IntPoly(quot)
        quot, rem = self._long_divide(divisor)
        if any(rem):
            return DivisionReport("not-a-factor", tuple(quot), tuple(rem))
        if all(q.denominator == 1 for q in quot):
            return IntPoly(int(q) for q in quot)
        return DivisionReport("rational-quotient", tuple(quot), tuple(rem))

    def _long_divide(self, divisor: "IntPoly"):
        num = [Fraction(c) for c in self.coeffs]
        den = [Fraction(c) for c in divisor.coeffs]
        dd = len(den) - 1
        lead = den[-1]
        quot = [Fraction(0)] * max(len(num) - dd, 0)
        while len(num) - 1 >= dd and any(num):
            # strip exact zero leading entries produced by cancellation
            while num and num[-1] == 0:
                num.pop()
            if len(num) - 1 < dd:
                break
            shift = len(num) - 1 - dd
            q = num[-1] / lead
            quot[shift] = q
            for i, dc in enumerate(den):
                num[shift + i] -= q * dc
            num.pop()
        while num and num[-1] == 0:
            num.pop()
        return quot, num

    def _long_divide_unit(self, divisor: "IntPoly"):
        # leading coefficient u = +-1, so 1/u = u and each quotient
        # coefficient is top * u; only the nonzero lower terms are touched
        num = list(self.coeffs)
        dd = len(divisor.coeffs) - 1
        lead = divisor.coeffs[-1]
        lower = [(i, c) for i, c in enumerate(divisor.coeffs[:-1]) if c]
        quot = [0] * max(len(num) - dd, 0)
        for shift in range(len(quot) - 1, -1, -1):
            q = num.pop() * lead
            if q:
                quot[shift] = q
                for i, c in lower:
                    num[shift + i] -= q * c
        while num and num[-1] == 0:
            num.pop()
        return quot, num

    def divides(self, other: "IntPoly") -> bool:
        return isinstance(other.exact_divide(self), IntPoly)

    # -- content and shifts -------------------------------------------------

    def content_split(self) -> ContentSplit:
        """Split into content * primitive with a positive-leading primitive.

        The content absorbs the sign: -3x + 3 splits as content -3 and
        primitive x - 1.
        """
        if not self.coeffs:
            raise ValueError("zero polynomial has no content split")
        g = 0
        for c in self.coeffs:
            g = math.gcd(g, c)
        if self.coeffs[-1] < 0:
            g = -g
        return ContentSplit(g, IntPoly(c // g for c in self.coeffs))

    def shift(self, y: int) -> "IntPoly":
        """The polynomial p(x + y)."""
        return self.compose(IntPoly((y, 1)))

    def shift_to_positive(self) -> tuple[int, "IntPoly"]:
        """Least y >= 0 making every coefficient of p(x + y) positive.

        Requires a positive leading coefficient and degree >= 1, so such a
        shift exists; returns (y, shifted polynomial).
        """
        if self.is_zero or self.degree < 1:
            raise ValueError("need degree >= 1")
        if self.leading <= 0:
            raise ValueError("need a positive leading coefficient")
        y = 0
        while True:
            cand = self.shift(y)
            if all(c > 0 for c in cand.coeffs):
                return y, cand
            y += 1


def fraction_content_split(coeffs) -> tuple[Fraction, IntPoly]:
    """Content split for a rational coefficient vector.

    Returns (content, primitive) with content = sign * gcd(numerators) /
    lcm(denominators) and a primitive integer polynomial with positive
    leading coefficient.  Used when a quotient lands in Q[x] but a scaled
    integer polynomial is wanted.
    """
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        raise ValueError("zero polynomial has no content split")
    den_lcm = 1
    for c in cs:
        den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
    scaled = [int(c * den_lcm) for c in cs]
    g = 0
    for c in scaled:
        g = math.gcd(g, c)
    if scaled[-1] < 0:
        g = -g
    prim = IntPoly(c // g for c in scaled)
    return Fraction(g, den_lcm), prim
