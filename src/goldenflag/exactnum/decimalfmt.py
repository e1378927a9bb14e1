"""Certified decimal rendering of exact values.

:func:`decimal_str` rounds half-even to a number of significant digits.
The printed string is certified: both ends of an interval enclosure
round to the same digits (:func:`settled`, which rounds the end nearer
zero and compares the other with the edge of that rounding's cell), so
the exact value is within half an ulp of the output.  A literal, which
every all-rational expression folds to, is rounded exactly.  Any other
value has one rounding path, the refinement of :func:`expr.enclosures`
from :func:`start_bits`, which doubles its working precision until it
reaches the value's magnitude, so tiny values print like large ones.
A caller that already holds an enclosure at :func:`start_bits`, as the
renderer does for coordinates, prints it when :func:`settled` and
calls :func:`decimal_str` only when not.  The integer ends of each
enclosure are rounded directly (:func:`round_scaled`), never through a
``Fraction``; inside one command's :func:`expr.enclosure_memo` scope,
each subterm shared between values is enclosed once per working
precision.  An exact zero prints as ``0`` and an exact tie rounds
half-even; :func:`certified_sign` decides both.  Every refinement
spends from :data:`expr.WORK_BUDGET`, so whether a value prints does
not depend on the digits asked for.  Quoting the leading digits of an
expansion is a different operation, a pair of certified comparisons (a
spec's ``check ... 0.820 <= ratio < 0.821``).

This is a pure integer/rational computation: output bytes are identical
across platforms and runs.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .expr import Expr, Literal, certified_sign, enclosures, lit, sub
from .expr import eval_interval, exact_rational  # noqa: F401  (bound here by the layer tracer in bench/)
from .golden import Sign

_Rounded = tuple[bool, int, int]  # (negative, digits-as-int, decimal exponent)

# Python's default limit on the digits of an int converted to a string
# (sys.int_info.default_max_str_digits), fixed here so that every
# interpreter accepts and rejects the same requests.
MAX_DIGITS = 4300


def _decimal_magnitude(value: Fraction) -> int:
    """The unique d with 10**(d-1) <= |value| < 10**d."""
    num, den = abs(value).numerator, abs(value).denominator

    def below_pow10(exp: int) -> bool:
        if exp >= 0:
            return num < den * 10**exp
        return num * 10**-exp < den

    # log10(2) ~ 0.30103; the loops below correct the estimate
    d = (num.bit_length() - den.bit_length()) * 30103 // 100000 + 1
    while not below_pow10(d):
        d += 1
    while below_pow10(d - 1):
        d -= 1
    return d


def round_significant(value: Fraction, digits: int) -> _Rounded:
    """Round half-even to ``digits`` significant decimal digits."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if value == 0:
        return False, 0, 0
    negative = value < 0
    mag = abs(value)
    d = _decimal_magnitude(mag)
    # scale into [10**(digits-1), 10**digits) and round to an integer
    shift = digits - d
    if shift >= 0:
        num = mag.numerator * 10**shift
        den = mag.denominator
    else:
        num = mag.numerator
        den = mag.denominator * 10**-shift
    q, rem = divmod(num, den)
    doubled = 2 * rem
    if doubled > den or (doubled == den and q % 2 == 1):
        q += 1
    if q == 10**digits:  # carried into the next decade
        q //= 10
        d += 1
    return negative, q, d


@lru_cache(maxsize=64)
def _pow10(n: int) -> int:
    """``10**n``, which :func:`round_scaled` needs for a few ``n`` per
    digit count: its decade ends and the shifts of nearby magnitudes."""
    return 10**n


def round_scaled(m: int, w: int, digits: int) -> _Rounded:
    """:func:`round_significant` of ``m * 2**-w`` (``w >= 0``, ``digits >=
    1``) in integer arithmetic, so an enclosure's ends are rounded without
    building a ``Fraction``."""
    if m == 0:
        return False, 0, 0
    negative, m = m < 0, abs(m)
    low, high = _pow10(digits - 1), _pow10(digits)
    # first guess at the d with 10**(d-1) <= m * 2**-w < 10**d, from
    # log10(2) ~ 0.30103; the loop steps d until m * 10**(digits-d) * 2**-w
    # rounds down to a q in [low, high), which holds for that d alone
    d = (m.bit_length() - w) * 30103 // 100000 + 1
    while True:
        shift = digits - d
        if shift >= 0:
            num, den = m * _pow10(shift), 1 << w
            q, rem = num >> w, num & (den - 1)
        else:
            den = _pow10(-shift) << w
            q, rem = divmod(m, den)
        if q >= high:
            d += 1
        elif q < low:
            d -= 1
        else:
            break
    doubled = rem << 1
    if doubled > den or (doubled == den and q & 1):
        q += 1
    if q == high:  # carried into the next decade
        q = low
        d += 1
    return negative, q, d


def format_rounded(rounded: _Rounded, digits: int) -> str:
    """Plain decimal string; trailing fractional zeros are trimmed."""
    negative, q, d = rounded
    if q == 0:
        return "0"
    body = str(q).rjust(digits, "0")
    if d >= digits:
        int_part = body + "0" * (d - digits)
        frac_part = ""
    elif d > 0:
        int_part = body[:d]
        frac_part = body[d:]
    else:
        int_part = "0"
        frac_part = "0" * -d + body
    frac_part = frac_part.rstrip("0")
    text = int_part if not frac_part else f"{int_part}.{frac_part}"
    return "-" + text if negative else text


def _tie(ends: tuple[_Rounded, _Rounded], digits: int) -> Fraction | None:
    """The one rounding tie in an enclosure that excludes zero, when the
    roundings ``ends`` of its ends are adjacent outputs; else None.
    Rounding is to the nearest output, so the tie is the midpoint of
    the two."""
    negative = ends[0][0]
    near, far = ends[::-1] if negative else ends  # nearer to zero first
    _, q, d = near
    ulp = Fraction(10) ** (d - digits)
    if round_significant((q + 1) * ulp, digits)[1:] != far[1:]:
        return None
    tie = (q + Fraction(1, 2)) * ulp
    return -tie if negative else tie


def start_bits(digits: int) -> int:
    """The working precision of the first enclosure a value is printed
    from at ``digits`` significant digits."""
    return max(64, 4 * digits + 32)


def settled(lo: int, hi: int, w: int, digits: int) -> str | None:
    """The printed rounding of every value in ``[lo * 2**-w, hi *
    2**-w]`` when both ends round alike, else None.  Rounding is
    monotone, so that rounding is certified for any value the interval
    encloses.

    Only the end nearer zero is rounded, to ``q`` digits at decade
    ``d``; the far end rounds alike exactly when its magnitude is below
    the upper edge of that rounding's cell, the tie ``(2q+1) *
    10**(d-digits) / 2``, or on it with ``q`` even: one product and one
    comparison.  An interval that touches or straddles zero settles only
    when it is ``[0, 0]``, since every other value rounds to nonzero
    digits."""
    if lo <= 0 <= hi:
        return "0" if lo == hi == 0 else None
    near, far = (lo, hi) if lo > 0 else (hi, -lo)  # the far end's magnitude
    rounded = round_scaled(near, w, digits)
    _, q, d = rounded
    # far * 2**-w against the edge, both times 2**(w+1) * 10**max(digits-d, 0)
    edge, far = 2 * q + 1, far << 1
    if d >= digits:
        edge *= _pow10(d - digits)
    else:
        far *= _pow10(digits - d)
    edge <<= w
    return format_rounded(rounded, digits) if far < edge or (far == edge and not q & 1) else None


def decimal_str(x: Expr, digits: int) -> str:
    """Certified round-half-even rendering of ``x`` with ``digits``
    significant digits, at most :data:`MAX_DIGITS`.

    A literal is rounded exactly.  Otherwise the enclosures of ``x``
    start at :func:`start_bits` and double until one is
    :func:`settled`.  Two points are asked about once each, by
    :func:`certified_sign`: zero, at the first enclosure that
    contains it, and the tie between two adjacent outputs, at the first
    enclosure whose ends round to them.  A proved equality is rounded
    exactly, so values whose enclosures settle the rounding pay nothing
    for it.  Raises :class:`PrecisionExhausted` when a refinement runs
    out of :data:`expr.WORK_BUDGET` first.
    """
    if digits > MAX_DIGITS:
        raise ValueError(f"digits must be at most {MAX_DIGITS}, got {digits}")
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if isinstance(x, Literal):
        return format_rounded(round_significant(x.value, digits), digits)
    asked_zero = asked_tie = False
    for w, lo, hi in enclosures(x, start_bits(digits)):
        text = settled(lo, hi, w, digits)
        if text is not None:
            return text
        ends = round_scaled(lo, w, digits), round_scaled(hi, w, digits)
        point = None
        if lo <= 0 <= hi:
            if not asked_zero:
                asked_zero, point = True, Fraction(0)
        elif not asked_tie:
            point = _tie(ends, digits)
            asked_tie = point is not None
        if point is not None and certified_sign(sub(x, lit(point))) is Sign.ZERO:
            return format_rounded(round_significant(point, digits), digits)
