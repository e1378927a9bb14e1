"""Deterministic serialization of flag layouts to SVG and JSON.

Every emitted coordinate string is the certified round-half-even
rendering of an exact value (:func:`exactnum.decimal_str`): its interval
enclosure is refined, doubling its precision, until both ends round to
the same digits, unless it is proved an exact zero or tie, so the exact
value lies within half an ulp of the printed decimal.  One render is one
:func:`exactnum.enclosure_memo` scope, so the scale, ``phi`` and
trigonometric subterms that every coordinate shares are enclosed once
per working precision, and dropped when the render returns; the
enclosures' integer ends are rounded in integer arithmetic.  Output
bytes are identical across runs and platforms for identical inputs.

Layouts are already in screen orientation; both emitters share the
scaling and the decimal policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping
import json

from .constructions import ColorRole, FlagLayout
from .exactnum import Expr, as_rational, decimal_str, div, enclosure_memo, lit, mul, sub
from .geometry import Point, pentagram_vertices

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

    def dec(self, value: Expr) -> str:
        return decimal_str(value, self.digits)

    def point(self, p: Point) -> tuple[str, str]:
        x = mul(sub(p.x, self.origin.x), self.scale)
        y = mul(sub(p.y, self.origin.y), self.scale)
        return self.dec(x), self.dec(y)

    def length(self, value: Expr) -> str:
        return self.dec(mul(value, self.scale))


@enclosure_memo()
def svg_emit(layout: FlagLayout, opts: RenderOptions | None = None) -> bytes:
    """Standalone SVG 1.1 document as UTF-8 bytes.

    Regions are emitted as polygons in layout order, stars after
    regions, each star as a single concave-decagon polygon (no
    fill-rule dependence).
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
        points = " ".join(",".join(frame.point(p)) for p in pentagram_vertices(star.pentagram))
        lines.append(f'<polygon points="{points}" fill="{DEFAULT_PALETTE[star.color]}"/>')
    lines.append("</svg>")
    return ("\n".join(lines) + "\n").encode("utf-8")


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
                "vertices": [list(frame.point(p)) for p in pentagram_vertices(star.pentagram)],
            }
            for star in layout.stars
        ],
    }
    return (json.dumps(document, indent=2) + "\n").encode("utf-8")
