"""Certified decimal rendering of exact values.

:func:`decimal_str` rounds half-even to a number of significant digits.
Every printed digit comes from one integer rounding,
:func:`round_scaled`, never through a ``Fraction``.  A literal, which
every all-rational expression folds to, is rounded exactly by it, as
its numerator over its denominator.  Any other value is printed from
an interval enclosure whose ends round to the same digits
(:func:`settled`, which rounds the end nearer zero and compares the
other with the edge of that rounding's cell), so the exact value is
within half an ulp of the output.  It has one rounding path, the
refinement of :func:`expr.enclosures` from :func:`start_bits`
(``ceil(digits * log2(10)) + 32`` bits, at least 64: the bits the
digits carry and a few guard bits, as in Ziv's strategy for correct
rounding), which moves on only when an enclosure does not settle.  The
precision is absolute, so a value below one that the first enclosure
shows too small to settle is enclosed again once at the precision its
magnitude asks for; after that, and for a value whose first enclosure
holds zero, the precision doubles until it reaches the value's
magnitude, so tiny values print like large ones.  A caller that already
holds an enclosure at :func:`start_bits`, as the renderer does for
every scaled value, prints it when :func:`settled` and calls
:func:`decimal_str` only when not; inside one command's
:func:`expr.enclosure_memo` scope, each subterm shared between values
is enclosed once per working precision.  An enclosure that does not settle holds one rounding
boundary, zero or a tie read off the roundings of its two ends, and
:func:`certified_sign` is asked once per boundary point whether the
value is on it: an exact zero prints as ``0`` and an exact tie rounds
half-even.  Every enclosure past the first and the restart's first
spends from :data:`expr.WORK_BUDGET`, on a schedule that starts at the
digits' precision, so a value at the edge of the budget may print at
some digit counts and not at others.  Quoting the leading digits of an
expansion is a different operation, a pair of certified comparisons (a spec's ``check
... 0.820 <= ratio < 0.821``).

This is a pure integer/rational computation: output bytes are identical
across platforms and runs.
"""

from __future__ import annotations

from collections.abc import Iterator
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


@lru_cache(maxsize=64)
def _pow10(n: int) -> int:
    """``10**n``, which :func:`round_scaled` needs for a few ``n`` per
    digit count: its decade ends and the shifts of nearby magnitudes."""
    return 10**n


def round_scaled(m: int, w: int, digits: int, den: int = 1) -> _Rounded:
    """Round ``m * 2**-w / den`` (``w >= 0``, ``den >= 1``, ``digits >=
    1``) half-even to ``digits`` significant decimal digits, in integer
    arithmetic: the one rounding of this module.  An enclosure's ends
    pass ``den == 1`` and are divided by shifting and masking; a
    literal ``p/q`` passes ``(p, 0, digits, q)`` and is rounded exactly."""
    if m == 0:
        return False, 0, 0
    negative, m = m < 0, abs(m)
    low, high = _pow10(digits - 1), _pow10(digits)
    # first guess at the d with 10**(d-1) <= m * 2**-w / den < 10**d, from
    # log10(2) ~ 0.30103; the loop steps d until m * 10**(digits-d) * 2**-w
    # / den rounds down to a q in [low, high), which holds for that d alone
    d = (m.bit_length() - den.bit_length() - w) * 30103 // 100000 + 1
    while True:
        shift = digits - d
        if shift >= 0:
            num, div = m * _pow10(shift), den << w
        else:
            num, div = m, _pow10(-shift) * den << w
        if den == 1 and shift >= 0:
            q, rem = num >> w, num & (div - 1)
        else:
            q, rem = divmod(num, div)
        if q >= high:
            d += 1
        elif q < low:
            d -= 1
        else:
            break
    doubled = rem << 1
    if doubled > div or (doubled == div and q & 1):
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


def _tie(lo: int, hi: int, w: int, digits: int) -> tuple[Fraction, str] | None:
    """The one rounding tie in ``[lo * 2**-w, hi * 2**-w]``, which
    excludes zero, and the tie's half-even text, when its ends round to
    adjacent outputs; else None.  The end nearer zero rounds to ``q``
    at decade ``d``; the tie is the midpoint ``(2q+1) * 10**(d-digits) /
    2`` of that output and the next, which the far end must round to."""
    negative = hi < 0
    near, far = (-hi, -lo) if negative else (lo, hi)
    _, q, d = round_scaled(near, w, digits)
    after = (q + 1, d) if q + 1 < _pow10(digits) else (_pow10(digits - 1), d + 1)
    if round_scaled(far, w, digits)[1:] != after:
        return None
    tie = Fraction(2 * q + 1, 2) * Fraction(10) ** (d - digits)
    text = format_rounded((negative, *after) if q & 1 else (negative, q, d), digits)
    return -tie if negative else tie, text


def start_bits(digits: int) -> int:
    """The working precision of the first enclosure a value is printed
    from at ``digits`` significant digits: the bits the digits carry,
    ``ceil(digits * log2(10))`` (from 3.322 >= log2(10), in integers),
    and 32 guard bits, at least 64.  The precision is absolute, so the
    guard bits are spent on the value's magnitude: a value of at least
    about ``2**-32`` settles there unless it is near a rounding
    boundary, and a smaller one is enclosed again (:func:`_refinement`)."""
    return max(64, (digits * 3322 + 999) // 1000 + 32)


def _refinement(x: Expr, digits: int) -> Iterator[tuple[int, int, int]]:
    """The enclosures of ``x`` from :func:`start_bits`, doubling, except
    that a first enclosure that does not settle, excludes zero, and
    shows ``|x| < 1`` restarts them once.  Its end nearer zero has
    ``short`` bits fewer than ``start_bits``, so the refinement starts
    again at ``start_bits + short``, where that end has as many bits as
    a value of magnitude one has at the start, and doubles from there.
    Like the first, the restart's first enclosure is not charged to
    :data:`expr.WORK_BUDGET`; its precision is below twice the start's.
    A value whose first enclosure holds zero doubles from the start."""
    start = start_bits(digits)
    for w, lo, hi in enclosures(x, start):
        yield w, lo, hi
        short = start - min(abs(lo), abs(hi)).bit_length()
        if w == start and (lo > 0 or hi < 0) and short > 0:
            yield from enclosures(x, start + short)
            return


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

    A literal ``p/q`` is rounded exactly, by :func:`round_scaled` with
    denominator ``q``.  Otherwise the enclosures of ``x`` start at
    :func:`start_bits`, restart once at a small value's magnitude and
    double until one is :func:`settled` (:func:`_refinement`).  An
    enclosure that does not settle holds one rounding boundary: zero,
    when it contains zero, and else the tie between two adjacent
    outputs when its ends round to them (:func:`_tie`, the only place
    the far end is rounded).  Each boundary point is asked about once,
    by :func:`certified_sign` of ``x`` minus it: a proved zero prints
    ``0`` and a proved tie its half-even text, both from integers, so
    values whose enclosures settle the rounding pay nothing for either.
    Raises :class:`PrecisionExhausted` when a refinement runs out of
    :data:`expr.WORK_BUDGET` first.
    """
    if digits > MAX_DIGITS:
        raise ValueError(f"digits must be at most {MAX_DIGITS}, got {digits}")
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if isinstance(x, Literal):
        p, q = x.value.as_integer_ratio()
        return format_rounded(round_scaled(p, 0, digits, q), digits)
    asked = set()  # the boundary points certified_sign was asked about
    for w, lo, hi in _refinement(x, digits):
        text = settled(lo, hi, w, digits)
        if text is not None:
            return text
        boundary = (0, "0") if lo <= 0 <= hi else _tie(lo, hi, w, digits)
        if boundary is not None and boundary[0] not in asked:
            point, text = boundary
            asked.add(point)
            if certified_sign(sub(x, lit(point))) is Sign.ZERO:
                return text
