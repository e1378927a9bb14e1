"""Exact arithmetic in the quadratic field of a + b*sqrt(5).

Every golden-section quantity (phi, phi**2, 2+sqrt(5), ...) lives here
exactly.  Values are pairs of rationals; the representation is unique,
so equality is componentwise and sign is decided by pure integer
comparisons, never floating point.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from ..errors import DivisionByZero
from .rational import Rational, as_rational


class Sign(enum.Enum):
    """Exhaustive three-way sign classification."""

    NEGATIVE = -1
    ZERO = 0
    POSITIVE = 1

    @staticmethod
    def of_rational(q: Fraction) -> "Sign":
        if q > 0:
            return Sign.POSITIVE
        if q < 0:
            return Sign.NEGATIVE
        return Sign.ZERO

    @property
    def is_nonnegative(self) -> bool:
        return self is not Sign.NEGATIVE


@dataclass(frozen=True)
class GoldenNumber:
    """An element ``a + b*sqrt(5)`` of the quadratic field over the
    rationals.

    Closed under +, -, *, and / (by nonzero); two values are equal iff
    their components are equal.
    """

    a: Rational
    b: Rational

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", as_rational(self.a))
        object.__setattr__(self, "b", as_rational(self.b))

    # -- constructors -----------------------------------------------------

    @staticmethod
    def from_rational(q: int | str | Fraction) -> "GoldenNumber":
        return GoldenNumber(as_rational(q), Fraction(0))

    # -- field operations --------------------------------------------------

    def __add__(self, other: "GoldenNumber") -> "GoldenNumber":
        if not isinstance(other, GoldenNumber):
            return NotImplemented
        return GoldenNumber(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "GoldenNumber") -> "GoldenNumber":
        if not isinstance(other, GoldenNumber):
            return NotImplemented
        return GoldenNumber(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "GoldenNumber":
        return GoldenNumber(-self.a, -self.b)

    def __mul__(self, other: "GoldenNumber") -> "GoldenNumber":
        if not isinstance(other, GoldenNumber):
            return NotImplemented
        # (a + b sqrt5)(c + d sqrt5) = ac + 5bd + (ad + bc) sqrt5
        return GoldenNumber(
            self.a * other.a + 5 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    def __truediv__(self, other: "GoldenNumber") -> "GoldenNumber":
        if not isinstance(other, GoldenNumber):
            return NotImplemented
        return self * other.inverse()

    def inverse(self) -> "GoldenNumber":
        """Multiplicative inverse via the conjugate:
        1/(a + b sqrt5) = (a - b sqrt5)/(a^2 - 5 b^2)."""
        norm = self.a * self.a - 5 * self.b * self.b
        if norm == 0:
            # a^2 = 5 b^2 has no nonzero rational solutions, so this is 0.
            raise DivisionByZero("division by zero in quadratic field")
        return GoldenNumber(self.a / norm, -self.b / norm)

    # -- predicates --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    @property
    def is_rational(self) -> bool:
        return self.b == 0

    def sign(self) -> Sign:
        """Exact sign of a + b*sqrt(5), by integer case analysis.

        When a and b have opposite signs the comparison reduces to
        a^2 vs 5 b^2; the tie a^2 = 5 b^2 cannot occur for nonzero
        rationals because sqrt(5) is irrational.
        """
        if self.b == 0:
            return Sign.of_rational(self.a)
        if self.a == 0:
            return Sign.of_rational(self.b)
        if self.a > 0 and self.b > 0:
            return Sign.POSITIVE
        if self.a < 0 and self.b < 0:
            return Sign.NEGATIVE
        a2 = self.a * self.a
        b2_5 = 5 * self.b * self.b
        if a2 == b2_5:  # unreachable for nonzero components; keep total
            return Sign.ZERO
        dominant_is_a = a2 > b2_5
        if dominant_is_a:
            return Sign.of_rational(self.a)
        return Sign.of_rational(self.b)

    def __str__(self) -> str:
        return f"{self.a} + {self.b}*sqrt(5)"


PHI = GoldenNumber(Fraction(1, 2), Fraction(1, 2))
GN_ZERO = GoldenNumber(Fraction(0), Fraction(0))
GN_ONE = GoldenNumber(Fraction(1), Fraction(0))


def gn_sqrt(x: GoldenNumber) -> GoldenNumber | None:
    """Exact square root within the field, if one exists.

    Solves (a + b sqrt5)^2 = c + d sqrt5 over the rationals and returns
    the nonnegative root, or None when x is not a perfect square in the
    field.
    """
    from .rational import is_perfect_square

    sgn = x.sign()
    if sgn is Sign.NEGATIVE:
        return None
    if sgn is Sign.ZERO:
        return GN_ZERO
    c, d = x.a, x.b
    if d == 0:
        r = is_perfect_square(c)
        if r is not None:
            return GoldenNumber(r, Fraction(0))
        r = is_perfect_square(c / 5)
        if r is not None:
            return GoldenNumber(Fraction(0), r)
        return None
    # a^2 is a root of t^2 - c t + 5 (d/2)^2 = 0.
    disc = c * c - 5 * d * d
    root_disc = is_perfect_square(disc)
    if root_disc is None:
        return None
    for t in ((c + root_disc) / 2, (c - root_disc) / 2):
        a = is_perfect_square(t)
        if a is None or a == 0:
            continue
        b = d / (2 * a)
        candidate = GoldenNumber(a, b)
        if candidate * candidate == x and candidate.sign() is Sign.POSITIVE:
            return candidate
        candidate = -candidate
        if candidate * candidate == x and candidate.sign() is Sign.POSITIVE:
            return candidate
    return None
