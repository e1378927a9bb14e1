"""Exception hierarchy shared by every goldenflag module."""

from __future__ import annotations


class GoldenFlagError(Exception):
    """Base class for all errors raised by this package."""


# --- exact arithmetic ---------------------------------------------------


class CertificationError(GoldenFlagError):
    """A construction-time side condition failed: negative radicand,
    zero divisor, or a canvas, region or star size not certified positive."""


class DivisionByZero(CertificationError):
    """Division by a value that is certified to be exactly zero."""


class NotInField(GoldenFlagError):
    """An expression's value has no exact normal form in the algebra
    asked for: it keeps a radical part outside the a+b*sqrt(5) field, or
    needs a square root that neither exists in the one-radicand tower
    nor can be its radicand."""


class PrecisionExhausted(GoldenFlagError):
    """Interval refinement spent its work budget without certifying a
    side condition, a sign, or a rounding."""


# --- geometry and constructions -----------------------------------------


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


class LexError(FlagSpecError):
    """Illegal character or malformed token."""


class ParseError(FlagSpecError):
    """Token stream does not match the grammar."""

    def __init__(self, line: int, col: int, expected: str, found: str) -> None:
        super().__init__(line, col, f"expected {expected}, found {found}")


class SemanticError(FlagSpecError):
    """Name resolution failure: unbound identifier, duplicate binding, or
    a reference to something that is not a rectangular region."""
