"""Exact planar primitives: points, rectangles, segments, pentagrams.

Coordinates are constructible-number expressions in the frame a flag is
drawn in: y grows downward from the top-left corner.  Angular facts are
never stored in degrees: they are encoded as exact tangents and chord
lengths, which keeps everything inside constructible arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import (
    DegenerateSegment,
    InvalidDimension,
    OutsideSegment,
    ParallelOrUndecided,
    PrecisionExhausted,
    VerticalSegment,
)
from .exactnum import (
    PHI_EXPR,
    SQRT5_EXPR,
    Expr,
    Sign,
    Verdict,
    add,
    certified_sign,
    compare_values,
    div,
    lit,
    mul,
    neg,
    sqrt_,
    sub,
)

# Exact pentagon trigonometry, shared as common subterms:
#   cos 36 = phi/2          sin 36 = sqrt(10 - 2 sqrt5)/4
#   cos 72 = (phi - 1)/2    sin 72 = sqrt(10 + 2 sqrt5)/4
COS36 = div(PHI_EXPR, lit(2))
SIN36 = div(sqrt_(sub(lit(10), mul(lit(2), SQRT5_EXPR))), lit(4))
COS72 = div(sub(PHI_EXPR, lit(1)), lit(2))
SIN72 = div(sqrt_(add(lit(10), mul(lit(2), SQRT5_EXPR))), lit(4))

# The two closed forms used throughout the flag constructions.
TAN36 = div(sqrt_(sub(lit(10), mul(lit(2), SQRT5_EXPR))), add(lit(1), SQRT5_EXPR))
TAN72 = div(sqrt_(add(lit(10), mul(lit(2), SQRT5_EXPR))), sub(SQRT5_EXPR, lit(1)))


class Point(NamedTuple):
    x: Expr
    y: Expr


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle spanning ``[x, x+width] x [y, y+height]``.

    ``origin`` is the top-left corner.  Width and height must be
    certified positive.
    """

    origin: Point
    width: Expr
    height: Expr

    def __post_init__(self) -> None:
        for name, dim in (("width", self.width), ("height", self.height)):
            if certified_sign(dim) is not Sign.POSITIVE:
                raise InvalidDimension(f"{name} is not certified positive")


@dataclass(frozen=True)
class Segment:
    p: Point
    q: Point

    def __post_init__(self) -> None:
        # p != q must be certified: some coordinate pair provably differs.
        for a, b in ((self.p.x, self.q.x), (self.p.y, self.q.y)):
            if compare_values(a, b) is Verdict.PROVED_UNEQUAL:
                return
        raise DegenerateSegment("endpoints not certified distinct")


@dataclass(frozen=True)
class Pentagram:
    center: Point
    circumradius: Expr

    def __post_init__(self) -> None:
        if certified_sign(self.circumradius) is not Sign.POSITIVE:
            raise InvalidDimension("circumradius is not certified positive")


def rect_diagonal_intersection(r: Rect) -> Point:
    """The crossing point of the two diagonals: origin + half the size."""
    return Point(
        add(r.origin.x, div(r.width, lit(2))),
        add(r.origin.y, div(r.height, lit(2))),
    )


def _cross(ax: Expr, ay: Expr, bx: Expr, by: Expr) -> Expr:
    return sub(mul(ax, by), mul(ay, bx))


def segment_intersection(s1: Segment, s2: Segment) -> Point:
    """Exact intersection point of two non-parallel segments.

    The crossing of the supporting lines is computed exactly and then
    certified to lie within both segments' bounding boxes.  Raises
    :class:`ParallelOrUndecided` when the direction cross product's sign
    cannot be certified nonzero, and :class:`OutsideSegment` when box
    containment fails (or cannot be certified).
    """
    d1x, d1y = sub(s1.q.x, s1.p.x), sub(s1.q.y, s1.p.y)
    d2x, d2y = sub(s2.q.x, s2.p.x), sub(s2.q.y, s2.p.y)
    denom = _cross(d1x, d1y, d2x, d2y)
    try:
        if certified_sign(denom) is Sign.ZERO:
            raise ParallelOrUndecided("segments are parallel")
    except PrecisionExhausted as exc:
        raise ParallelOrUndecided("parallelism not certified") from exc
    t = div(_cross(sub(s2.p.x, s1.p.x), sub(s2.p.y, s1.p.y), d2x, d2y), denom)
    point = Point(add(s1.p.x, mul(t, d1x)), add(s1.p.y, mul(t, d1y)))
    for seg in (s1, s2):
        _certify_in_box(point, seg)
    return point


def _certify_in_box(point: Point, seg: Segment) -> None:
    # v lies between a and b  iff  (v-a)(v-b) <= 0; exact and order-free.
    for v, a, b in (
        (point.x, seg.p.x, seg.q.x),
        (point.y, seg.p.y, seg.q.y),
    ):
        witness = mul(sub(v, a), sub(v, b))
        try:
            sign = certified_sign(witness)
        except PrecisionExhausted as exc:
            raise OutsideSegment("containment not certified") from exc
        if sign is Sign.POSITIVE:
            raise OutsideSegment("intersection outside segment bounding box")


def angle_tangent_with_horizontal(s: Segment) -> Expr:
    """|dy|/|dx| as an exact expression; the angle itself is never
    materialized in degrees."""
    dx = sub(s.q.x, s.p.x)
    dy = sub(s.q.y, s.p.y)
    sign_dx = certified_sign(dx)
    if sign_dx is Sign.ZERO:
        raise VerticalSegment("tangent undefined for a vertical segment")
    abs_dx = dx if sign_dx is Sign.POSITIVE else neg(dx)
    sign_dy = certified_sign(dy)
    if sign_dy is Sign.ZERO:
        return lit(0)
    abs_dy = dy if sign_dy is Sign.POSITIVE else neg(dy)
    return div(abs_dy, abs_dx)


# The ten spokes of a point-up {5/2} star: its boundary vertices as a
# simple concave decagon, counterclockwise as drawn, alternating
# outer/inner and starting at the topmost outer vertex.  Vertex k is
# center + radius * unit for the spoke (r, unit), radius being
# pentagram_radii(star)[r]: the circumradius for an outer vertex, and
# circumradius/phi^2 for an inner one.  Negative y is up.
PENTAGRAM_SPOKES = (
    (0, (lit(0), lit(-1))),
    (1, (neg(SIN36), neg(COS36))),
    (0, (neg(SIN72), neg(COS72))),
    (1, (neg(SIN72), COS72)),
    (0, (neg(SIN36), COS36)),
    (1, (lit(0), lit(1))),
    (0, (SIN36, COS36)),
    (1, (SIN72, COS72)),
    (0, (SIN72, neg(COS72))),
    (1, (SIN36, neg(COS36))),
)


def pentagram_radii(star: Pentagram) -> tuple[Expr, Expr]:
    """The outer and inner radius of the star's spokes."""
    return star.circumradius, div(star.circumradius, mul(PHI_EXPR, PHI_EXPR))


def pentagram_vertices(star: Pentagram) -> list[Point]:
    """The ten boundary vertices of the star, as :data:`PENTAGRAM_SPOKES`
    lists them."""
    radii = pentagram_radii(star)
    cx, cy = star.center
    return [
        Point(add(cx, mul(radii[r], ux)), add(cy, mul(radii[r], uy)))
        for r, (ux, uy) in PENTAGRAM_SPOKES
    ]
