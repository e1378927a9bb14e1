"""Exact planar primitives: points, pentagrams, and the center of a rectangle.

Coordinates are constructible-number expressions in the frame a flag is
drawn in: y grows downward from the top-left corner.  Angular facts are
never stored in degrees: they are encoded as exact tangents and chord
lengths, which keeps everything inside constructible arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import CertificationError
from .exactnum import (
    PHI_EXPR,
    SQRT5_EXPR,
    Expr,
    Sign,
    add,
    certified_sign,
    compare_values,  # noqa: F401  (bound here by the layer tracer in bench/)
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

# The ratio of a star's outer radius to its inner one.
PHI_SQUARED = mul(PHI_EXPR, PHI_EXPR)

# The two closed forms used throughout the flag constructions.
TAN36 = div(sqrt_(sub(lit(10), mul(lit(2), SQRT5_EXPR))), add(lit(1), SQRT5_EXPR))
TAN72 = div(sqrt_(add(lit(10), mul(lit(2), SQRT5_EXPR))), sub(SQRT5_EXPR, lit(1)))


class Point(NamedTuple):
    x: Expr
    y: Expr


@dataclass(frozen=True)
class Pentagram:
    center: Point
    circumradius: Expr

    def __post_init__(self) -> None:
        if certified_sign(self.circumradius) is not Sign.POSITIVE:
            raise CertificationError("circumradius is not certified positive")


def rect_diagonal_intersection(x: Expr, y: Expr, width: Expr, height: Expr) -> Point:
    """The crossing point of the diagonals of the rectangle with top-left
    corner ``(x, y)``: that corner plus half the size."""
    return Point(add(x, div(width, lit(2))), add(y, div(height, lit(2))))


# The ten spokes of a point-up {5/2} star: its boundary vertices as a
# simple concave decagon, counterclockwise as drawn, alternating
# outer/inner and starting at the topmost outer vertex.  Vertex k is
# center + radius * unit for the spoke (r, unit), radius r being the
# circumradius (r = 0) for an outer vertex, and circumradius/phi^2
# (r = 1) for an inner one.  Negative y is up.
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


def pentagram_vertices(star: Pentagram) -> list[Point]:
    """The ten boundary vertices of the star, as :data:`PENTAGRAM_SPOKES`
    lists them."""
    radii = star.circumradius, div(star.circumradius, PHI_SQUARED)
    cx, cy = star.center
    return [
        Point(add(cx, mul(radii[r], ux)), add(cy, mul(radii[r], uy)))
        for r, (ux, uy) in PENTAGRAM_SPOKES
    ]
