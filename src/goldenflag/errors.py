"""Exception hierarchy shared by every goldenflag module."""

from __future__ import annotations


class GoldenFlagError(Exception):
    """Base class for all errors raised by this package."""


# --- exact arithmetic ---------------------------------------------------


class ExactNumberError(GoldenFlagError):
    """Base class for errors from the exact-arithmetic kernel."""


class DivisionByZero(ExactNumberError):
    """Division by a value that is certified to be exactly zero."""


class NotInField(ExactNumberError):
    """An expression's value has no exact normal form in the algebra
    asked for: it keeps a radical part outside the a+b*sqrt(5) field, or
    needs a square root that neither exists in the one-radicand tower
    nor can be its radicand."""


class PrecisionExhausted(ExactNumberError):
    """Interval refinement spent its work budget without certifying a
    side condition, a sign, or a rounding."""


class SignMismatch(ExactNumberError):
    """A stated identity relates two sides of one sign, but one side is
    certified positive and the other negative."""


class CertificationError(ExactNumberError):
    """A construction-time side condition failed: negative radicand,
    zero divisor, or a nonpositive dimension in a user expression."""


# --- geometry and constructions -----------------------------------------


class GeometryError(GoldenFlagError):
    """Base class for planar-geometry errors."""


class InvalidDimension(GeometryError):
    """A width, height, radius or size parameter is not certified positive."""


class DegenerateSegment(GeometryError):
    """Segment endpoints could not be certified distinct."""


class VerticalSegment(GeometryError):
    """Tangent with the horizontal is undefined for a vertical segment."""


class ParallelOrUndecided(GeometryError):
    """Segment supporting lines are parallel, or their crossing could not
    be certified non-parallel."""


class OutsideSegment(GeometryError):
    """Line intersection exists but lies outside a segment's bounding box
    (or containment could not be certified)."""


class WrongLayout(GoldenFlagError):
    """A verification was asked about a layout it does not apply to."""


class UnknownFlag(GoldenFlagError):
    """Name does not identify a builtin flag."""


class LayoutError(GoldenFlagError):
    """A flag layout violates a structural invariant (tiling, star
    containment)."""


class UnencodableText(GoldenFlagError):
    """Text of a layout, such as its name, holds a code point that UTF-8
    cannot encode: a lone surrogate."""


# --- flag-spec language ---------------------------------------------------


class FlagSpecError(GoldenFlagError):
    """Base class for errors in flag-spec sources; carries a position."""

    def __init__(self, line: int, col: int, message: str) -> None:
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.message = message


class LexError(FlagSpecError):
    """Illegal character or malformed token."""


class ParseError(FlagSpecError):
    """Token stream does not match the grammar."""

    def __init__(self, line: int, col: int, expected: str, found: str) -> None:
        super().__init__(line, col, f"expected {expected}, found {found}")
        self.expected = expected
        self.found = found


class SemanticError(FlagSpecError):
    """Name resolution failure: unbound identifier, duplicate binding, or
    a reference to something that is not a rectangular region."""
