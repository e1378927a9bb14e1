from __future__ import annotations

import importlib.resources
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from goldenflag.constructions import BUILTIN_NAMES, FlagLayout, build_flag
from goldenflag.exactnum import SQRT5_EXPR, Expr, Sign, add, certified_sign, lit, mul, sub
from goldenflag.exactnum.expr import eval_interval
from goldenflag.flagspec import lower_source

# the shipped chile-1818 spec with its band height 1 written as {h}
CHILE_1818_AT_BAND_HEIGHT = """
flag "chile-1818" {{
  canvas ({h})*(1 + phi)/(sqrt(10 - 2*sqrt(5))/(1 + sqrt(5))) x 2*({h});
  let h = {h};
  let tan36 = sqrt(10 - 2*sqrt(5))/(1 + sqrt(5));
  let wb = h/tan36;
  let star_diameter = h/phi;
  let ratio = canvas.width/canvas.height;
  region blue_field  blue  rect 0 0 wb h;
  region white_field white rect wb 0 phi*wb h;
  region red_band    red   rect 0 h (1 + phi)*wb h;
  star white at diagonal_intersection of blue_field diameter star_diameter;
  check "white/blue width ratio equals the golden mean"
    white_field.width/blue_field.width == phi;
  check "blue height/width proportion equals tan(36)"
    blue_field.height/blue_field.width == tan36;
  check "canvas width/height ratio equals (2+sqrt5)/sqrt(10-2*sqrt5)"
    ratio == (2 + sqrt(5))/sqrt(10 - 2*sqrt(5)) show ratio;
  check "band height over star circumcircle diameter equals the golden mean"
    blue_field.height/star_diameter == phi;
  check "top width over white width equals the golden mean"
    (blue_field.width + white_field.width)/white_field.width == phi;
  check diagonals of blue_field;
}}
"""


@pytest.fixture(scope="session")
def layouts():
    """One layout per builtin, built once."""
    return {name: build_flag(name) for name in BUILTIN_NAMES}


@pytest.fixture(scope="session")
def chile_1818_at():
    """The chile-1818 layout at a given band height (the shipped spec's is 1)."""

    def lower_at(band_height: Fraction) -> FlagLayout:
        return lower_source(CHILE_1818_AT_BAND_HEIGHT.format(h=band_height))

    return lower_at


@pytest.fixture(scope="session")
def spec_sources():
    """Shipped .flag sources keyed by builtin name."""
    package = importlib.resources.files("goldenflag") / "specs"
    return {
        name: (package / f"{name}.flag").read_text(encoding="utf-8")
        for name in BUILTIN_NAMES
    }


def decimal_oracle_tan36(digits: int = 50) -> Fraction:
    """Independent high-precision value of sqrt(10-2*sqrt5)/(1+sqrt5),
    computed with the decimal module (different algorithm and code path
    from the interval engine)."""
    with localcontext() as ctx:
        ctx.prec = digits + 10
        root5 = Decimal(5).sqrt()
        value = (10 - 2 * root5).sqrt() / (1 + root5)
        return Fraction(value)


def decimal_oracle_ratio(digits: int = 50) -> Fraction:
    """Independent value of (2+sqrt5)/sqrt(10-2*sqrt5)."""
    with localcontext() as ctx:
        ctx.prec = digits + 10
        root5 = Decimal(5).sqrt()
        value = (2 + root5) / (10 - 2 * root5).sqrt()
        return Fraction(value)


def expansion_begins(value: Expr, prefix: str) -> bool:
    """Whether the decimal expansion of a nonnegative value begins with
    ``prefix``: two certified comparisons, prefix <= value < prefix + ulp."""
    low = Fraction(prefix)
    ulp = Fraction(1, 10 ** len(prefix.partition(".")[2]))
    return (
        certified_sign(sub(value, lit(low))).is_nonnegative
        and certified_sign(sub(lit(low + ulp), value)) is Sign.POSITIVE
    )


def golden_expr(g: tuple[Fraction, Fraction]) -> Expr:
    """Expression form of ``g[0] + g[1]*sqrt(5)``, the value of the
    GOLDEN element ``GOLDEN.of(*g)``."""
    return add(lit(g[0]), mul(lit(g[1]), SQRT5_EXPR))


def enclosure(x: Expr, w: int) -> tuple[Fraction, Fraction]:
    """The ends of the interval enclosure of ``x`` at scale ``2**-w``."""
    lo, hi = eval_interval(x, w)
    return Fraction(lo, 1 << w), Fraction(hi, 1 << w)


def within_half_ulp(x: Expr, text: str, digits: int) -> bool:
    """Whether the enclosure of ``x`` at four times the precision that a
    rounding to ``digits`` digits starts at (``4 * digits + 32`` bits)
    lies within half an ulp of the printed ``text``; a printed ``0``
    needs an enclosure that contains zero."""
    lo, hi = enclosure(x, 4 * (4 * digits + 32))
    printed = Fraction(text)
    if printed == 0:
        return lo <= 0 <= hi
    half_ulp = Fraction(10) ** (Decimal(text).adjusted() + 1 - digits) / 2
    return printed - half_ulp <= lo and hi <= printed + half_ulp


def relative_radius(lo: Fraction, hi: Fraction) -> Fraction:
    """Half the width of ``[lo, hi]`` over ``max(1, |midpoint|)``."""
    return (hi - lo) / 2 / max(1, abs(lo + hi) / 2)


def enclosure_sign(lo: Fraction, hi: Fraction) -> Sign | None:
    """The sign of every point of ``[lo, hi]`` when they share one."""
    if lo > 0:
        return Sign.POSITIVE
    if hi < 0:
        return Sign.NEGATIVE
    return Sign.ZERO if lo == hi == 0 else None
