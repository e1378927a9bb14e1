"""Exact planar primitives: points, pentagrams, and the center of a rectangle.

Coordinates are constructible-number expressions in the frame a flag is
drawn in: y grows downward from the top-left corner.  Angular facts are
never stored in degrees: they are encoded as exact tangents and chord
lengths, which keeps everything inside constructible arithmetic.  A
star's vertices are stated once, by :func:`pentagram_coordinates`, a
formula that runs in any arithmetic: :func:`pentagram_vertices` runs it
over expressions, and the renderer over interval enclosures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Sequence, TypeVar

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


# The six magnitudes of a spoke's unit vector.
SPOKE_UNITS = (lit(0), lit(1), SIN36, COS36, SIN72, COS72)

# The ten spokes of a point-up {5/2} star: its boundary vertices as a
# simple concave decagon, counterclockwise as drawn, alternating
# outer/inner and starting at the topmost outer vertex.  Vertex k is
# center + radius * unit for the spoke (r, x, y), radius r being the
# circumradius (r = 0) for an outer vertex, and circumradius/phi^2
# (r = 1) for an inner one, and each axis of the unit a (sign, index)
# into SPOKE_UNITS.  Negative y is up.
PENTAGRAM_SPOKES = (
    (0, (1, 0), (-1, 1)),
    (1, (-1, 2), (-1, 3)),
    (0, (-1, 4), (-1, 5)),
    (1, (-1, 4), (1, 5)),
    (0, (-1, 2), (1, 3)),
    (1, (1, 0), (1, 1)),
    (0, (1, 2), (1, 3)),
    (1, (1, 4), (1, 5)),
    (0, (1, 4), (-1, 5)),
    (1, (1, 2), (-1, 3)),
)


T = TypeVar("T")


def pentagram_coordinates(
    center: Sequence[T], circumradius: T, ops: Sequence[Callable[[T, T], T]], units: Sequence[T], phi_squared: T
) -> Iterator[T]:
    """The star's twenty vertex coordinates, x then y of each spoke of
    :data:`PENTAGRAM_SPOKES`, as ``c +- radius * unit`` in any
    arithmetic: ``ops`` is its ``(add, sub, mul, div)``, and ``units``
    and ``phi_squared`` are :data:`SPOKE_UNITS` and :data:`PHI_SQUARED`
    in it.  Each radius times each unit is taken once, when a coordinate
    first needs it (12 products, not 20), so an operation that raises
    does so at that coordinate."""
    add_, sub_, mul_, div_ = ops
    radii = circumradius, div_(circumradius, phi_squared)
    products: dict[tuple[int, int], T] = {}
    cx, cy = center
    for r, (sx, ux), (sy, uy) in PENTAGRAM_SPOKES:
        for c, sign, u in ((cx, sx, ux), (cy, sy, uy)):
            product = products.get((r, u))
            if product is None:
                product = products[r, u] = mul_(radii[r], units[u])
            yield (add_ if sign > 0 else sub_)(c, product)


def pentagram_vertices(star: Pentagram) -> list[Point]:
    """The ten boundary vertices of the star, as :data:`PENTAGRAM_SPOKES`
    lists them."""
    xy = pentagram_coordinates(star.center, star.circumradius, (add, sub, mul, div), SPOKE_UNITS, PHI_SQUARED)
    return [Point(x, y) for x, y in zip(xy, xy)]
