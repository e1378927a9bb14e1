"""Deterministic serialization of flag layouts to SVG and JSON.

Every emitted coordinate string is the certified round-half-even
rendering of an exact value: the rounding of an interval enclosure
whose ends round to the same digits, or of the value itself when
:func:`exactnum.decimal_str` proves it an exact zero or tie, so the
exact value lies within half an ulp of the printed decimal.  A
coordinate is first printed from the enclosures of its parts at
``decimal_str``'s start precision, combined as its expression would
combine them: ``(value - origin) * scale``, and for a star vertex
``(center + radius * unit - origin) * scale`` over
:data:`geometry.PENTAGRAM_SPOKES`.  Only a coordinate whose ends do
not round alike there, or whose divisor straddles zero, gets its
expression built and printed by ``decimal_str``; a certified rounding
is unique, so both print the same bytes.  One command is one
:func:`exactnum.enclosure_memo` scope (each emitter opens one for
library callers, which joins the command's), so the scale, ``phi``,
star trigonometry and spec subterms that coordinates share are enclosed
once per working precision.  Output bytes are identical across runs and
platforms for identical inputs.

Layouts are already in screen orientation; both emitters share the
scaling and the decimal policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping
import json

from .constructions import ColorRole, FlagLayout
from .errors import UnencodableText
from .exactnum import Add, Expr, Mul, Sub, add, as_rational, decimal_str, div, enclosure_memo, lit, mul, sub
from .exactnum.decimalfmt import settled, start_bits
from .exactnum.expr import eval_interval, interval_algebra
from .exactnum.interval import IntPair, StraddlesZero
from .geometry import PENTAGRAM_SPOKES, Pentagram, Point, pentagram_radii
from .geometry import pentagram_vertices  # noqa: F401  (bound here by the layer tracer in bench/)

DEFAULT_PALETTE: Mapping[ColorRole, str] = {
    ColorRole.BLUE: "#0039A6",
    ColorRole.RED: "#D52B1E",
    ColorRole.WHITE: "#FFFFFF",
    ColorRole.GREEN: "#006A4E",
    ColorRole.YELLOW: "#FFCE00",
}


@dataclass(frozen=True)
class RenderOptions:
    """Output-time choices: geometry itself is never affected.

    ``scale`` multiplies canvas units into output units.  When
    ``target_width`` is set it wins over ``scale``: the drawing is
    scaled so the emitted width equals it exactly (the scale factor is
    then generally irrational, e.g. physical sizing of an irrational
    canvas).  ``digits`` is the significant-digit count for every
    emitted coordinate.
    """

    scale: Fraction = Fraction(1)
    digits: int = 12
    target_width: Fraction | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "scale", as_rational(self.scale))
        if self.scale <= 0:
            raise ValueError("scale must be positive")
        if self.digits < 3:
            raise ValueError("digits must be at least 3")
        if self.target_width is not None:
            object.__setattr__(self, "target_width", as_rational(self.target_width))
            if self.target_width <= 0:
                raise ValueError("target width must be positive")


def _escape(text: str) -> str:
    """``&``, ``<`` and ``>`` as XML entities, ``&`` first: the default
    entities of ``xml.sax.saxutils.escape``, whose import would pull in
    ``urllib.request`` and the network stack behind it."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class _Frame:
    """Scaled coordinate emission for one layout."""

    def __init__(self, layout: FlagLayout, opts: RenderOptions) -> None:
        self.digits = opts.digits
        canvas = layout.canvas
        if opts.target_width is not None:
            self.scale: Expr = div(lit(opts.target_width), canvas.width)
        else:
            self.scale = lit(opts.scale)
        self.origin = canvas.origin
        self.width = mul(canvas.width, self.scale)
        self.height = mul(canvas.height, self.scale)
        self.bits = start_bits(opts.digits)
        ops = interval_algebra(self.bits)[1]
        self._add, self._sub, self._mul = ops[Add], ops[Sub], ops[Mul]
        # the enclosures every coordinate shares
        self._origin = self._enclose(*self.origin)
        self._scale = self._enclose(self.scale)[0]

    @cached_property
    def _units(self) -> list[list[IntPair | None]]:
        """The enclosures of the spokes' unit vectors, which every star shares."""
        return [self._enclose(*unit) for _, unit in PENTAGRAM_SPOKES]

    def dec(self, value: Expr) -> str:
        return decimal_str(value, self.digits)

    def _enclose(self, *values: Expr) -> list[IntPair | None]:
        """The enclosures of ``values`` at the start precision; None for
        one whose divisor straddles zero there."""
        enclosures = []
        for value in values:
            try:
                enclosures.append(eval_interval(value, self.bits))
            except StraddlesZero:
                enclosures.append(None)
        return enclosures

    def _settled(self, axis: int, enclosure: IntPair | None) -> str | None:
        """``(v - origin) * scale`` along ``axis`` as printed for every
        ``v`` in ``enclosure``, when the ends of that round alike."""
        origin, scale = self._origin[axis], self._scale
        if enclosure is None or origin is None or scale is None:
            return None
        return settled(*self._mul(self._sub(enclosure, origin), scale), self.bits, self.digits)

    def _printed(self, axis: int, value: Expr) -> str:
        """``(value - origin) * scale`` along ``axis``, by :func:`decimal_str`."""
        return self.dec(mul(sub(value, self.origin[axis]), self.scale))

    def point(self, p: Point) -> tuple[str, str]:
        x, y = self._enclose(*p)
        return self._settled(0, x) or self._printed(0, p.x), self._settled(1, y) or self._printed(1, p.y)

    def vertices(self, star: Pentagram) -> list[tuple[str, str]]:
        """The star's ten vertices, as :func:`geometry.pentagram_vertices`
        gives them."""
        radii = pentagram_radii(star)
        center, enclosed_radii = self._enclose(*star.center), self._enclose(*radii)
        vertices = []
        for (r, unit), enclosed_unit in zip(PENTAGRAM_SPOKES, self._units):
            vertex = []
            for axis in (0, 1):
                c, radius, u = center[axis], enclosed_radii[r], enclosed_unit[axis]
                enclosure = None if None in (c, radius, u) else self._add(c, self._mul(radius, u))
                text = self._settled(axis, enclosure)
                vertex.append(text or self._printed(axis, add(star.center[axis], mul(radii[r], unit[axis]))))
            vertices.append(tuple(vertex))
        return vertices

    def length(self, value: Expr) -> str:
        return self.dec(mul(value, self.scale))


@enclosure_memo()
def svg_emit(layout: FlagLayout, opts: RenderOptions | None = None) -> bytes:
    """Standalone SVG 1.1 document as UTF-8 bytes.

    Regions are emitted as polygons in layout order, stars after
    regions, each star as a single concave-decagon polygon (no
    fill-rule dependence).  Raises :class:`UnencodableText` when the
    layout's name holds a lone surrogate.
    """
    opts = opts or RenderOptions()
    frame = _Frame(layout, opts)
    width, height = frame.dec(frame.width), frame.dec(frame.height)
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
def json_emit(layout: FlagLayout, opts: RenderOptions | None = None) -> bytes:
    """Machine-readable layout dump as UTF-8 JSON bytes.

    Fixed key order: flag, canvas (width, height), ratio, regions
    (name, color, vertices), stars (color, center, circumradius,
    vertices).  All decimals are strings under the same certified
    rounding policy as the SVG emitter; vertices are in scaled units.
    """
    opts = opts or RenderOptions()
    frame = _Frame(layout, opts)
    document = {
        "flag": layout.provenance,
        "canvas": {
            "width": frame.dec(frame.width),
            "height": frame.dec(frame.height),
        },
        "ratio": frame.dec(layout.width_height_ratio()),
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
                "circumradius": frame.length(star.pentagram.circumradius),
                "vertices": [list(xy) for xy in frame.vertices(star.pentagram)],
            }
            for star in layout.stars
        ],
    }
    return (json.dumps(document, indent=2) + "\n").encode("utf-8")
