"""Exact dense univariate polynomials over the integers.

Coefficients are stored ascending (index i holds the coefficient of x**i)
in a normalized tuple with no trailing zeros, so equality and hashing are
structural.  The zero polynomial is the empty tuple and reports degree
-inf.  All arithmetic is in integers, division included, so nothing here
ever rounds or leaves Z[x].
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import zip_longest

__all__ = ["IntPoly", "ContentSplit"]

NEG_INF = float("-inf")


class ContentSplit(namedtuple("ContentSplit", "content primitive")):
    """A polynomial written as content * primitive.

    content carries the sign so that the primitive part has a positive
    leading coefficient; primitive has coefficient gcd 1.
    """

    __slots__ = ()


class IntPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficients required, got {c!r}")
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value=None):
        raise AttributeError(f"IntPoly is immutable: cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        # unpickling goes through __init__, since __setattr__ refuses
        return IntPoly, (self.coeffs,)

    def __eq__(self, other):
        if isinstance(other, IntPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

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

    # -- evaluation and composition ---------------------------------------

    def evaluate(self, x: int) -> int:
        """Horner evaluation; exact for arbitrary-precision arguments."""
        acc = 0
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

    def exact_divide(self, divisor: "IntPoly") -> "IntPoly | None":
        """The quotient self / divisor if it lies in Z[x], else None.

        One long division in integers.  When the quotient is integral,
        each step's top coefficient over the divisor's leading one is that
        integer quotient coefficient.  So the division stops with None as
        soon as that step leaves a remainder, or when a nonzero remainder
        polynomial is left, for any divisor, primitive or not.
        """
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        num = list(self.coeffs)
        dd = len(divisor.coeffs) - 1
        lead = divisor.coeffs[-1]
        lower = [(i, c) for i, c in enumerate(divisor.coeffs[:-1]) if c]
        quot = [0] * max(len(num) - dd, 0)
        for shift in range(len(quot) - 1, -1, -1):
            q, r = divmod(num.pop(), lead)
            if r:
                return None
            if q:
                quot[shift] = q
                for i, c in lower:
                    num[shift + i] -= q * c
        return None if any(num) else IntPoly(quot)

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

