"""Certified decimal rendering of exact values.

:func:`decimal_str` rounds half-even to a number of significant digits.
The printed string is certified: the whole enclosing ball rounds to the
same digits, so the exact value is within half an ulp of the output.
Exact rationals short-circuit through integer arithmetic (which also
resolves ties exactly); provably irrational values can never tie, so
interval refinement terminates.  For a value outside the exact tower,
:func:`certified_sign` decides once whether it is zero, when an
enclosure contains zero, and once whether it is the tie between two
adjacent outputs, when an enclosure's ends round to them; an exact zero
prints as ``0`` and an exact tie rounds half-even.  Quoting the leading
digits of an expansion is a different operation, a pair of certified
comparisons (a spec's ``check ... 0.820 <= ratio < 0.821``).

This is a pure integer/rational computation: output bytes are identical
across platforms and runs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

from ..errors import PrecisionExhausted
from . import interval as iv
from .expr import Expr, certified_sign, eval_interval, exact_rational, lit, sub
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


def round_fraction_str(value: Fraction, digits: int) -> str:
    return format_rounded(round_significant(value, digits), digits)


def _refinement_schedule(digits: int, min_bits: int):
    w = max(64, min_bits, 4 * digits + 32)
    cap = max(4096, 64 * (4 * digits + 32), 4 * min_bits if min_bits else 0)
    while w <= cap:
        yield w
        w *= 2


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


def _equals(x: Expr, point: Fraction) -> bool:
    """Whether ``x == point`` is proved."""
    try:
        return certified_sign(sub(x, lit(point))) is Sign.ZERO
    except PrecisionExhausted:  # the schedule may still separate them
        return False


def _roundings(x: Expr, digits: int, min_bits: int) -> Iterator[tuple[_Rounded, _Rounded]]:
    """The roundings of both ends of each enclosure of ``x`` on the
    refinement schedule.

    Two points are asked about once each, by :func:`certified_sign`: zero,
    at the first enclosure that contains it, and the tie between two
    adjacent outputs, at the first enclosure whose ends round to them.
    A proved equality yields the exact rounding of that point and ends
    the schedule, so values whose enclosures settle the rounding pay
    nothing for it.
    """
    asked_zero = asked_tie = False
    for w in _refinement_schedule(digits, min_bits):
        try:
            lo_hi = eval_interval(x, w)
        except iv.StraddlesZero:
            continue
        lo, hi = iv.to_fractions(lo_hi, w)
        ends = round_significant(lo, digits), round_significant(hi, digits)
        point = None
        if lo <= 0 <= hi:
            if not asked_zero:
                asked_zero = True
                point = Fraction(0)
        elif ends[0] != ends[1] and not asked_tie:
            point = _tie(ends, digits)
            asked_tie = point is not None
        if point is not None and _equals(x, point):
            exact = round_significant(point, digits)
            yield exact, exact
            return
        yield ends


def decimal_str(x: Expr, digits: int, min_bits: int = 0) -> str:
    """Certified round-half-even rendering with significant digits.

    ``digits`` is at most :data:`MAX_DIGITS`.  ``min_bits`` forces the
    starting working precision upward (used by re-evaluation tests); it
    never changes the output of a certified rounding, only how soon
    certification happens.
    """
    if digits > MAX_DIGITS:
        raise ValueError(f"digits must be at most {MAX_DIGITS}, got {digits}")
    exact = exact_rational(x)
    if exact is not None:
        return round_fraction_str(exact, digits)
    for r_lo, r_hi in _roundings(x, digits, min_bits):
        if r_lo == r_hi:
            return format_rounded(r_lo, digits)
    raise PrecisionExhausted("interval never certified a rounding")
