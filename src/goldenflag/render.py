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
from .exactnum import (
    Add,
    Div,
    Expr,
    Mul,
    Sub,
    as_rational,
    decimal_str,
    div,
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


@dataclass(frozen=True)
class RenderOptions:
    """Output-time choices: geometry itself is never affected.

    ``scale`` multiplies canvas units into output units.  When
    ``target_width`` is set it wins over ``scale``: the drawing is
    scaled so the emitted width equals it exactly (the scale factor is
    then generally irrational, e.g. physical sizing of an irrational
    canvas).  ``digits`` is the significant-digit count for every
    emitted coordinate, from 3 to :data:`MAX_DIGITS`.
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
        if self.digits > MAX_DIGITS:
            raise ValueError(f"digits must be at most {MAX_DIGITS}, got {self.digits}")
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
        if opts.target_width is not None:
            self.scale: Expr = div(lit(opts.target_width), layout.width)
        else:
            self.scale = lit(opts.scale)
        self.bits = start_bits(opts.digits)
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
def svg_emit(layout: FlagLayout, opts: RenderOptions | None = None) -> bytes:
    """Standalone SVG 1.1 document as UTF-8 bytes.

    Regions are emitted as polygons in layout order, stars after
    regions, each star as a single concave-decagon polygon (no
    fill-rule dependence).  Raises :class:`UnencodableText` when the
    layout's name holds a lone surrogate.
    """
    opts = opts or RenderOptions()
    frame = _Frame(layout, opts)
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
            "width": frame.scaled(layout.width),
            "height": frame.scaled(layout.height),
        },
        "ratio": decimal_str(layout.width_height_ratio(), opts.digits),
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
