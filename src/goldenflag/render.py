"""Deterministic serialization of flag layouts to SVG and JSON.

Every emitted decimal string is the certified round-half-even
rendering of an exact value: the rounding of an interval enclosure whose
ends round to the same digits, or of the value itself when
:func:`exactnum.decimal_str` proves it an exact zero or tie, so the
exact value lies within half an ulp of the printed decimal.  One
method, :meth:`_Frame.scaled`, prints every scaled value (the canvas
size, region corners, star centers and circumradii): settled from the
enclosures of the value and the scale at ``decimal_str``'s start
precision (the canvas is at the origin), else by ``decimal_str`` from
``value * scale``, and once per distinct node per emit, from a memo that
dies with the emit, so the corners that polygons repeat and the cut
lines that regions share are rounded once.  Star vertices are settled
from geometry's one star formula, :func:`geometry.pentagram_coordinates`,
run over the enclosures of the star's scaled center and circumradius
and of the spoke units and ``phi**2``: twelve products per star.  A
coordinate that does not settle there, or every one when a part's
divisor straddles zero, goes to ``_Frame.scaled`` as its expression from
:func:`geometry.pentagram_vertices`, built once per star.  A certified
rounding is unique, so every path prints the same bytes.  Only the JSON
``ratio``, which is not scaled, goes to ``decimal_str`` directly.
One command is one :func:`exactnum.enclosure_memo` scope (each
emitter opens one for library callers, which joins the command's), so
the scale, ``phi``, star trigonometry and spec subterms that coordinates
share are enclosed once per working precision.  Output bytes are
identical across runs and platforms for identical inputs.

Layouts are already in screen orientation.  Both emitters take one
scale, an exact rational or an ``Expr`` (``div(lit(width), layout.width)``
draws a layout ``width`` wide), and a digit count, which :class:`_Frame`
validates.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Mapping
import json

from .constructions import ColorRole, FlagLayout
from .errors import UnencodableText
from .exactnum import (
    Add,
    Div,
    Expr,
    Mul,
    Sign,
    Sub,
    certified_sign,
    decimal_str,
    enclosure_memo,
    lit,
    mul,
)
from .exactnum.decimalfmt import MAX_DIGITS, settled, start_bits
from .exactnum.expr import eval_interval, interval_algebra
from .exactnum.interval import IntPair, StraddlesZero
from .geometry import PHI_SQUARED, SPOKE_UNITS, Pentagram, Point, pentagram_coordinates, pentagram_vertices

DEFAULT_PALETTE: Mapping[ColorRole, str] = {
    ColorRole.BLUE: "#0039A6",
    ColorRole.RED: "#D52B1E",
    ColorRole.WHITE: "#FFFFFF",
    ColorRole.GREEN: "#006A4E",
    ColorRole.YELLOW: "#FFCE00",
}


# the name bench/scaling.py imports, until a change to the benchmark ports it
def RenderOptions(scale: int | str | Fraction = 1) -> Expr:  # noqa: N802
    return lit(scale)


def _escape(text: str) -> str:
    """``&``, ``<`` and ``>`` as XML entities, ``&`` first: the default
    entities of ``xml.sax.saxutils.escape``, whose import would pull in
    ``urllib.request`` and the network stack behind it."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class _Frame:
    """Scaled coordinate emission at one scale and digit count.  Raises
    :class:`ValueError` unless ``3 <= digits <= MAX_DIGITS`` and the
    scale's :func:`certified_sign`, free for a literal, is positive."""

    def __init__(self, scale: Expr | int | str | Fraction, digits: int) -> None:
        if not 3 <= digits <= MAX_DIGITS:
            raise ValueError(f"digits must be from 3 to {MAX_DIGITS}, got {digits}")
        self.scale = scale if isinstance(scale, Expr) else lit(scale)
        if certified_sign(self.scale) is not Sign.POSITIVE:
            raise ValueError("scale must be positive")
        self.digits = digits
        self.bits = start_bits(digits)
        ops = interval_algebra(self.bits)[1]
        self._add, self._sub, self._mul, self._div = ops[Add], ops[Sub], ops[Mul], ops[Div]
        # the enclosure every scaled value shares
        self._scale = self._enclose(self.scale)
        # the printed scaled values by node, for this emit only: nodes are
        # interned, so a value on either axis or at a shared corner is one key
        self._texts: dict[Expr, str] = {}

    @cached_property
    def _units(self) -> tuple[list[IntPair], IntPair]:
        """The enclosures of :data:`geometry.SPOKE_UNITS` and of
        ``phi**2``, which every star shares.  These constants divide only
        by literals, so each has an enclosure at every precision."""
        return [eval_interval(unit, self.bits) for unit in SPOKE_UNITS], eval_interval(PHI_SQUARED, self.bits)

    def _enclose(self, value: Expr) -> IntPair | None:
        """The enclosure of ``value`` at the start precision; None when a
        divisor in it straddles zero there."""
        try:
            return eval_interval(value, self.bits)
        except StraddlesZero:
            return None

    def _enclose_scaled(self, value: Expr) -> IntPair | None:
        """The enclosure of ``value * scale``; None when ``value`` or the
        scale has none."""
        enclosure = self._enclose(value)
        return None if enclosure is None or self._scale is None else self._mul(enclosure, self._scale)

    def scaled(self, value: Expr) -> str:
        """``value * scale`` as printed, once per node in this emit: settled
        from :meth:`_enclose_scaled`, else by :func:`decimal_str`."""
        texts = self._texts
        text = texts.get(value)
        if text is None:
            scaled = self._enclose_scaled(value)
            text = None if scaled is None else settled(*scaled, self.bits, self.digits)
            text = texts[value] = text or decimal_str(mul(value, self.scale), self.digits)
        return text

    def point(self, p: Point) -> tuple[str, str]:
        return self.scaled(p.x), self.scaled(p.y)

    def vertices(self, star: Pentagram) -> list[tuple[str, str]]:
        """The star's ten vertices, as :func:`geometry.pentagram_vertices`
        gives them.

        Each coordinate is first settled from
        :func:`geometry.pentagram_coordinates` run over the enclosures of
        the scaled center and circumradius; one that does not settle, and
        every one when a part has no enclosure, is printed by
        :meth:`scaled` from its expression."""
        cx, cy, radius = (self._enclose_scaled(part) for part in (*star.center, star.circumradius))
        texts: list[str | None] = [None] * 20
        if None not in (cx, cy, radius):
            ops = self._add, self._sub, self._mul, self._div
            coordinates = pentagram_coordinates((cx, cy), radius, ops, *self._units)
            texts = [settled(*c, self.bits, self.digits) for c in coordinates]
        exact = None  # the vertex expressions, built at the first fallback
        for i, text in enumerate(texts):
            if text is None:
                exact = exact or pentagram_vertices(star)
                texts[i] = self.scaled(exact[i >> 1][i & 1])
        return list(zip(texts[::2], texts[1::2]))


@enclosure_memo()
def svg_emit(layout: FlagLayout, scale: Expr | int | str | Fraction = 1, digits: int = 12) -> bytes:
    """Standalone SVG 1.1 document as UTF-8 bytes.

    Regions are emitted as polygons in layout order, stars after
    regions, each star as a single concave-decagon polygon (no
    fill-rule dependence).  Raises :class:`UnencodableText` when the
    layout's name holds a lone surrogate.
    """
    frame = _Frame(scale, digits)
    width, height = frame.scaled(layout.width), frame.scaled(layout.height)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        (
            '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">'
        ),
        f"<title>{_escape(layout.provenance)}</title>",
    ]
    for region in layout.regions:
        points = " ".join(",".join(frame.point(p)) for p in region.polygon)
        lines.append(f'<polygon points="{points}" fill="{DEFAULT_PALETTE[region.color]}"/>')
    for star in layout.stars:
        points = " ".join(",".join(xy) for xy in frame.vertices(star.pentagram))
        lines.append(f'<polygon points="{points}" fill="{DEFAULT_PALETTE[star.color]}"/>')
    lines.append("</svg>")
    try:
        return ("\n".join(lines) + "\n").encode("utf-8")
    except UnicodeEncodeError as exc:  # only the title can hold one
        point = ord(exc.object[exc.start])
        raise UnencodableText(f"the flag name holds U+{point:04X}, which UTF-8 cannot encode") from None


@enclosure_memo()
def json_emit(layout: FlagLayout, scale: Expr | int | str | Fraction = 1, digits: int = 12) -> bytes:
    """Machine-readable layout dump as UTF-8 JSON bytes.

    Fixed key order: flag, canvas (width, height), ratio, regions
    (name, color, vertices), stars (color, center, circumradius,
    vertices).  All decimals are strings under the same certified
    rounding policy as the SVG emitter; vertices are in scaled units.
    """
    frame = _Frame(scale, digits)
    document = {
        "flag": layout.provenance,
        "canvas": {
            "width": frame.scaled(layout.width),
            "height": frame.scaled(layout.height),
        },
        "ratio": decimal_str(layout.width_height_ratio(), digits),
        "regions": [
            {
                "name": region.name,
                "color": region.color.value,
                "vertices": [list(frame.point(p)) for p in region.polygon],
            }
            for region in layout.regions
        ],
        "stars": [
            {
                "color": star.color.value,
                "center": list(frame.point(star.pentagram.center)),
                "circumradius": frame.scaled(star.pentagram.circumradius),
                "vertices": [list(xy) for xy in frame.vertices(star.pentagram)],
            }
            for star in layout.stars
        ],
    }
    return (json.dumps(document, indent=2) + "\n").encode("utf-8")
