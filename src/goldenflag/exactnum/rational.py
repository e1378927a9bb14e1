"""Arbitrary-precision rationals.

The scalar bedrock is :class:`fractions.Fraction` from the standard
library: it already maintains the canonical reduced form (positive
denominator, gcd(|num|, den) = 1) that every exact computation here
relies on.  This module pins the alias and provides exact parsing
helpers used by the CLI and the flag-spec language.
"""

from __future__ import annotations

from fractions import Fraction

Rational = Fraction

ZERO = Fraction(0)


def as_rational(value: int | str | Fraction) -> Fraction:
    """Convert exactly to a Fraction.

    Accepts ints, Fractions, and strings in integer (``"3"``),
    fraction (``"3/2"``) or finite decimal (``"2.4"``) form.  Decimal
    strings convert exactly (``2.4`` becomes ``12/5``), never through
    binary floating point.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not an exact rational literal: {value!r}") from exc
    raise TypeError(f"cannot convert {type(value).__name__} to Rational")


def is_perfect_square(q: Fraction) -> Fraction | None:
    """Return the nonnegative rational square root of ``q`` if one
    exists, else None."""
    if q < 0:
        return None
    if q == 0:
        return ZERO
    from math import isqrt

    rn = isqrt(q.numerator)
    if rn * rn != q.numerator:
        return None
    rd = isqrt(q.denominator)
    if rd * rd != q.denominator:
        return None
    return Fraction(rn, rd)
