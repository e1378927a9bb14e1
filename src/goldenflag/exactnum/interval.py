"""Deterministic fixed-point interval arithmetic.

An interval at working precision ``w`` is a pair of integers ``(lo, hi)``
denoting ``[lo * 2**-w, hi * 2**-w]``.  Every operation rounds outward,
so the represented real set always contains the exact result; everything
is plain integer arithmetic, which makes results bit-identical across
platforms and runs.

Addition and subtraction are exact in fixed point; multiplication,
division, and square root shift back to scale ``2**-w`` with floor/ceil
rounding.  ``isqrt`` provides the floor square root of arbitrary-size
integers.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

IntPair = tuple[int, int]


class StraddlesZero(ArithmeticError):
    """Divisor interval contains zero at the current working precision."""


def from_fraction(q: Fraction, w: int) -> IntPair:
    """Tightest enclosure of an exact rational at scale 2**-w."""
    num = q.numerator << w
    den = q.denominator
    lo = num // den
    hi = -((-num) // den)
    return lo, hi


def add(x: IntPair, y: IntPair) -> IntPair:
    return x[0] + y[0], x[1] + y[1]


def sub(x: IntPair, y: IntPair) -> IntPair:
    return x[0] - y[1], x[1] - y[0]


def neg(x: IntPair) -> IntPair:
    return -x[1], -x[0]


def _floor_shift(v: int, w: int) -> int:
    return v >> w


def _ceil_shift(v: int, w: int) -> int:
    return -((-v) >> w)


def mul(x: IntPair, y: IntPair, w: int) -> IntPair:
    products = (x[0] * y[0], x[0] * y[1], x[1] * y[0], x[1] * y[1])
    return _floor_shift(min(products), w), _ceil_shift(max(products), w)


def div(x: IntPair, y: IntPair, w: int) -> IntPair:
    """Quotient interval; raises StraddlesZero when 0 in y.

    With the divisor positive, the sign of each end of ``x`` picks the
    end of ``y`` that bounds the quotient; a negative divisor is first
    moved to the positive side by negating both operands."""
    if y[0] <= 0 <= y[1]:
        raise StraddlesZero
    if y[0] < 0:
        x, y = neg(x), neg(y)
    (x0, x1), (y0, y1) = x, y
    lo = (x0 << w) // (y1 if x0 >= 0 else y0)
    hi = -((-x1 << w) // (y0 if x1 >= 0 else y1))
    return lo, hi


def sqrt(x: IntPair, w: int) -> IntPair:
    """Square root of an interval certified nonnegative.

    A slightly negative lower endpoint (rounding slack on an exact zero)
    is clamped; the true value is known to be >= 0.
    """
    lo, hi = x
    if lo < 0:
        lo = 0
    if hi < 0:
        hi = 0
    root_lo = isqrt(lo << w)
    root_hi = isqrt(hi << w)
    if root_hi * root_hi != hi << w:
        root_hi += 1
    return root_lo, root_hi
