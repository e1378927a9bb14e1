"""Deterministic fixed-point interval arithmetic.

An interval at working precision ``w`` is a pair of integers ``(lo, hi)``
with ``lo <= hi``, denoting ``[lo * 2**-w, hi * 2**-w]``.  Every
operation rounds outward, so the represented real set always contains
the exact result; everything is plain integer arithmetic, which makes
results bit-identical across platforms and runs.

Addition and subtraction are exact in fixed point; multiplication,
division, and square root shift back to scale ``2**-w`` with floor/ceil
rounding.  Each of the three returns the tightest such pair: the floor
of the least and the ceiling of the greatest value the exact operation
takes on the operands' real sets.  Those two integers are determined by
the operands alone, so how an end is computed never changes the pair.

At precision ``w`` the two ends of an enclosure usually differ by a few
units while each is about ``w`` bits wide.  So each operation computes
one end at full width -- one product, one long division or one
``isqrt`` -- and gets the other end from it by corrections whose
operands are as wide as the interval: products of a full-width and a
narrow integer, and divisions with a narrow quotient.  A quotient by an
exact integer (``phi``'s ``/2``, any integer literal divisor) needs no
long division: each end is divided by that integer.
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


def mul(x: IntPair, y: IntPair, w: int) -> IntPair:
    """Product interval.

    When neither operand straddles zero, both are moved to the
    nonnegative side by negation, as in :func:`div`; then the product
    of the low ends is the low end, and the high end ``x1*y1`` is that
    product plus ``x0*(y1 - y0) + (x1 - x0)*y1``, two full-width by
    narrow products.  An operand that straddles zero takes the least
    and greatest of the four end products."""
    (x0, x1), (y0, y1) = x, y
    if x0 < 0 < x1 or y0 < 0 < y1:
        products = (x0 * y0, x0 * y1, x1 * y0, x1 * y1)
        return min(products) >> w, -(-max(products) >> w)
    negative = False
    if x1 <= 0:
        x0, x1, negative = -x1, -x0, True
    if y1 <= 0:
        y0, y1, negative = -y1, -y0, not negative
    lo = x0 * y0
    hi = lo + x0 * (y1 - y0) + (x1 - x0) * y1
    if negative:
        return -hi >> w, -(lo >> w)
    return lo >> w, -(-hi >> w)


def div(x: IntPair, y: IntPair, w: int) -> IntPair:
    """Quotient interval; raises StraddlesZero when 0 in y.

    With the divisor positive, the sign of each end of ``x`` picks the
    end of ``y`` that bounds the quotient; a negative divisor is first
    moved to the positive side by negating both operands.  The low end
    ``q`` is one long division.  For any integer ``q``, the high end
    ``ceil((x1 << w) / b)`` is ``q + ceil(((x1 << w) - q*b) / b)``, whose
    quotient is only as wide as the interval.  A point divisor whose low
    ``w`` bits are zero is the exact integer ``k``, and the same
    tightest pair is ``(floor(x0 / k), ceil(x1 / k))``: two divisions by
    an integer ``w`` bits narrower than the divisor, linear in the width
    for a small ``k``."""
    (x0, x1), (y0, y1) = x, y
    if y0 <= 0:
        if y1 >= 0:
            raise StraddlesZero
        x0, x1, y0, y1 = -x1, -x0, -y1, -y0
    if y0 == y1 and not y0 & ((1 << w) - 1):
        k = y0 >> w
        return x0 // k, -(-x1 // k)
    q = (x0 << w) // (y1 if x0 >= 0 else y0)
    b = y0 if x1 >= 0 else y1
    return q, q - ((q * b - (x1 << w)) // b)


def sqrt(x: IntPair, w: int) -> IntPair:
    """Square root of an interval certified nonnegative.

    A slightly negative lower endpoint (rounding slack on an exact zero)
    is clamped; the true value is known to be >= 0.

    The low end is ``r = isqrt(lo << w)``.  With ``gap = (hi << w) -
    r*r``, the tangent ``r + ceil(gap / (2*r))`` is at least the high
    end ``ceil(sqrt(hi << w))``, and when ``gap`` has at most 3/2 the
    bits of ``r`` it is above it by at most 1; it is stepped down while
    ``(r + s - 1)**2 >= hi << w``, a test whose product is narrow by
    full-width.  ``r == 0`` or a wider ``gap`` takes a second ``isqrt``."""
    lo, hi = x
    if lo < 0:
        lo = 0
    if hi < 0:
        hi = 0
    lo <<= w
    hi <<= w
    r = isqrt(lo)
    gap = hi - r * r
    if r and 2 * gap.bit_length() <= 3 * r.bit_length():
        s = -(-gap // (2 * r))
        while (s - 1) * (2 * r + s - 1) >= gap:
            s -= 1
        return r, r + s
    top = isqrt(hi)
    return r, top + (top * top != hi)
