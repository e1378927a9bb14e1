"""Flag layouts, their invariants, and the proofs of their claims.

The four builtin designs are the ``.flag`` specs shipped in ``specs/``;
``build_flag`` lowers them:

* ``chile-1818``: the golden-ratio Independence design: three equal-height
  bands, blue rectangle in height/width proportion tan(36), white band
  phi times wider than the blue one, star centered on the blue
  diagonals' crossing with circumcircle diameter height/phi.
* ``chile-current``: the 3:2 six-square design, star diameter half the
  square side.
* ``togo``: five alternating stripes, golden-mean aspect ratio, red
  canton with an inscribed white star.
* ``nepal-ratio``: the nested-radical width-height ratio, realized as a
  single-region pseudo-flag so it can be rendered and round-tripped
  like the others.

All layouts are validated on construction, from the ranks of the
certified cut lines: the canvas (at the origin) and every axis-aligned
region must have positive sizes, regions must lie inside the canvas and
tile it exactly (grid coverage), and every star center must lie inside
a region, which the exact tiling reduces to a test against the canvas:
64-bit boxes first, and four signs only when the boxes overlap an edge.
A layout carries the claims its spec states in ``check`` statements,
lowered but unproved; :func:`verify_layout_identities` proves them in
source order.  The provenance, the spec's ``flag "<name>"``, only names
the layout in output.
"""

from __future__ import annotations

import enum
import math
from functools import cache, cmp_to_key
from typing import Callable, NamedTuple

from .errors import CertificationError, LayoutError, PrecisionExhausted, UnknownFlag
from .exactnum import (
    Expr,
    Verdict,
    add,
    certified_sign,
    compare_values,
    decimal_str,
    div,
    holds,
    lit,
    mul,
    neg,
    square_of,
    sub,
    verify_identity,
)
from .exactnum.expr import SIGN_REFINE_START, eval_interval
from .exactnum.interval import StraddlesZero
from .geometry import TAN36, TAN72, Pentagram, Point, rect_diagonal_intersection

BUILTIN_NAMES = ("chile-1818", "chile-current", "togo", "nepal-ratio")


class ColorRole(enum.Enum):
    RED = "red"
    WHITE = "white"
    BLUE = "blue"
    GREEN = "green"
    YELLOW = "yellow"


class Region(NamedTuple):
    """A named, colored axis-aligned rectangular region."""

    name: str
    color: ColorRole
    bounds: tuple[Expr, Expr, Expr, Expr]  # x0, x1, y0, y1

    @property
    def polygon(self) -> tuple[Point, Point, Point, Point]:
        """Corners, counterclockwise as drawn from the bottom-left one."""
        x0, x1, y0, y1 = self.bounds
        return Point(x0, y1), Point(x1, y1), Point(x1, y0), Point(x0, y0)


class Star(NamedTuple):
    color: ColorRole
    pentagram: Pentagram


class FlagLayout(NamedTuple):
    """The canvas spans ``[0, width] x [0, height]``."""

    width: Expr
    height: Expr
    regions: tuple[Region, ...]
    stars: tuple[Star, ...]
    provenance: str
    claims: tuple[Claim | Diagonals, ...] = ()  # proved only by verify

    @staticmethod
    def create(
        width: Expr,
        height: Expr,
        regions: tuple[Region, ...],
        stars: tuple[Star, ...],
        provenance: str,
        claims: tuple[Claim | Diagonals, ...] = (),
    ) -> "FlagLayout":
        """Raises :class:`CertificationError` for a size not certified
        positive, and :class:`LayoutError` for a bad tiling or stray star."""
        layout = FlagLayout(width, height, regions, stars, provenance, claims)
        _check_tiling(layout)
        for star in stars:
            _check_star_inside(layout, star)
        return layout

    def width_height_ratio(self) -> Expr:
        return div(self.width, self.height)


# ---------------------------------------------------------------------------
# layout invariants


def _certified_distinct_sorted(values: list[Expr], where: Callable[[int, int], str]) -> list[int]:
    """Rank of each value among the distinct values, in increasing order.

    One stable sort with one comparator: values whose 64-bit enclosures
    are disjoint are ordered by them, identical nodes are equal, and any
    other pair by the certified sign of its difference, asked once per
    pair.  A pair ``p, q`` whose sign runs out of refinement raises
    :class:`PrecisionExhausted` in ``where(p, q)``, and a value ``p``
    whose first enclosure is past the work budget in ``where(p, p)``."""
    boxes = []
    for p, value in enumerate(values):
        try:
            boxes.append(eval_interval(value, SIGN_REFINE_START))
        except StraddlesZero:
            boxes.append((-math.inf, math.inf))
        except PrecisionExhausted as exc:
            raise PrecisionExhausted(f"in {where(p, p)}: {exc}") from exc

    @cache  # local to this call: each pair's sign is asked once
    def difference_sign(p: int, q: int) -> int:
        try:
            return certified_sign(sub(values[p], values[q])).value
        except PrecisionExhausted as exc:
            raise PrecisionExhausted(f"in {where(p, q)}: {exc}") from exc

    def compare(p: int, q: int) -> int:
        if boxes[p][1] < boxes[q][0]:
            return -1
        if boxes[q][1] < boxes[p][0]:
            return 1
        if values[p] is values[q]:
            return 0
        return difference_sign(p, q) if p < q else -difference_sign(q, p)

    order = sorted(sorted(range(len(values)), key=boxes.__getitem__), key=cmp_to_key(compare))
    ranks = [0] * len(values)
    for previous, index in zip(order, order[1:]):
        ranks[index] = ranks[previous] + (compare(previous, index) != 0)
    return ranks


def _check_tiling(layout: FlagLayout) -> None:
    """Axis-aligned tiling check over the grid of all region/canvas cut
    lines.  With each line replaced by its rank among the distinct lines,
    a region covers the cells ``rank(x0) <= i < rank(x1)``, and a size is
    certified positive exactly when ``rank(x0) < rank(x1)``: this is
    where the canvas's and every region's are.  Every region must lie
    inside the canvas and every cell must be covered by exactly one
    region; region edges all lie on cut lines, so cell coverage decides
    both interior-disjointness and the exact area identity.  Cut lines
    whose order or first enclosure runs out of the work budget are named
    by axis and owner."""

    def owner(k: int) -> str:  # of the k-th pair of cut lines on an axis
        return f"region {layout.regions[k - 1].name!r}" if k else "canvas"

    def owners(p: int, q: int) -> str:
        first, second = owner(p // 2), owner(q // 2)
        return first if first == second else f"{first} and {second}"

    xs: list[Expr] = [lit(0), layout.width]
    ys: list[Expr] = [lit(0), layout.height]
    for region in layout.regions:
        x0, x1, y0, y1 = region.bounds
        xs.extend((x0, x1))
        ys.extend((y0, y1))
    x_ranks = _certified_distinct_sorted(xs, lambda p, q: f"x cut lines of {owners(p, q)}")
    y_ranks = _certified_distinct_sorted(ys, lambda p, q: f"y cut lines of {owners(p, q)}")
    spans = [
        (x_ranks[k], x_ranks[k + 1], y_ranks[k], y_ranks[k + 1])
        for k in range(0, len(xs), 2)
    ]
    for k, (i0, i1, j0, j1) in enumerate(spans):
        if i0 >= i1 or j0 >= j1:
            size = "width" if i0 >= i1 else "height"
            raise CertificationError(f"{owner(k)}: {size} is not certified positive")
    (ci0, ci1, cj0, cj1), *spans = spans
    for k, (i0, i1, j0, j1) in enumerate(spans, 1):
        if i0 < ci0 or i1 > ci1 or j0 < cj0 or j1 > cj1:
            raise LayoutError(f"{owner(k)} extends outside the canvas")
    # every cut line now lies on the canvas (ci0 == cj0 == 0), so the
    # canvas cells are the whole grid
    coverage = [[0] * cj1 for _ in range(ci1)]
    for i0, i1, j0, j1 in spans:
        for column in coverage[i0:i1]:
            for j in range(j0, j1):
                column[j] += 1
    for column in coverage:
        for count in column:
            if count == 0:
                raise LayoutError("regions leave a gap in the canvas")
            if count > 1:
                raise LayoutError("regions overlap")


def _check_star_inside(layout: FlagLayout, star: Star) -> None:
    # _check_tiling has proved that the closed regions cover the closed
    # canvas exactly, so the center lies in some region exactly when it
    # lies in the canvas.  The 64-bit boxes of the center and the canvas
    # settle that for a center clear of the edges; only a box that
    # overlaps an edge, straddles or is past the work budget asks the
    # four signs, whatever the number of regions, and a center on a cut
    # line that no refinement can place lies in either region beside it
    x, y = star.pentagram.center
    try:
        (x0, x1), (y0, y1), (w0, _), (h0, _) = (
            eval_interval(value, SIGN_REFINE_START) for value in (x, y, layout.width, layout.height)
        )
        if x0 >= 0 and y0 >= 0 and x1 <= w0 and y1 <= h0:
            return
    except (StraddlesZero, PrecisionExhausted):
        pass
    try:
        inside = (
            certified_sign(x).is_nonnegative
            and certified_sign(sub(layout.width, x)).is_nonnegative
            and certified_sign(y).is_nonnegative
            and certified_sign(sub(layout.height, y)).is_nonnegative
        )
    except PrecisionExhausted as exc:
        raise PrecisionExhausted(f"in star {star.color.value}: {exc}") from exc
    if not inside:
        raise LayoutError(f"star {star.color.value}: center lies in no region")


# ---------------------------------------------------------------------------
# builtins


@cache
def build_flag(name: str) -> FlagLayout:
    """The builtin flag lowered from its shipped spec ``specs/<name>.flag``.

    Layouts are immutable and their expressions interned, so each name is
    lowered once and the layout shared."""
    if name not in BUILTIN_NAMES:
        raise UnknownFlag(f"unknown builtin flag {name!r}")
    import importlib.resources  # here, so that importing the CLI does not pay for it

    from .flagspec import lower_source  # flagspec lowers into this module's types

    spec = importlib.resources.files(__package__) / "specs" / f"{name}.flag"
    return lower_source(spec.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# verification


class Check(NamedTuple):
    name: str
    status: Verdict
    detail: str = ""


class Claim(NamedTuple):
    """A ``check`` statement: ``terms[i] relations[i] terms[i + 1]`` for
    every i, each link decided by :func:`holds`.  A single ``==``
    reports its verdict; any other chain, the empty one too, reports
    Pass, Fail, or Undecided when a link cannot be decided.  The detail
    is printed verbatim, or as ``name = <6 digits>`` of the ``shown``
    binding; when those digits run out of work budget, the detail says
    so and the claim is Undecided unless a link is disproved."""

    name: str
    terms: tuple[Expr, ...]
    relations: tuple[str, ...]
    detail: str = ""
    shown: tuple[str, Expr] | None = None

    def checks(self, layout: FlagLayout) -> tuple[Check, ...]:
        outcome: bool | None = True
        for lhs, relation, rhs in zip(self.terms, self.relations, self.terms[1:]):
            link = holds(lhs, relation, rhs)
            if link is not True:
                outcome = link
                if link is False:  # a failed link decides the claim
                    break
        detail = self.detail
        if self.shown is not None:
            name, value = self.shown
            try:
                detail = f"{name} = {decimal_str(value, 6)}"
            except PrecisionExhausted as exc:
                detail = f"{name}: precision exhausted: {exc}"
                if outcome is not False:  # only a disproved link still decides
                    outcome = None
        return (Check(self.name, Verdict.of(outcome, self.relations == ("==",)), detail),)


class Diagonals(NamedTuple):
    """A ``check diagonals of <region>`` statement: the region's angle
    configuration, :func:`verify_angle_configuration`."""

    region: str

    def checks(self, layout: FlagLayout) -> tuple[Check, ...]:
        return verify_angle_configuration(layout, self.region)


def _same_point(a: Point, b: Point) -> Verdict:
    """Whether two points coincide: ProvedUnequal when a coordinate
    comparison disproves it, else Undecided when one is undecided."""
    x = compare_values(a.x, b.x)
    if x is Verdict.PROVED_UNEQUAL:
        return x
    y = compare_values(a.y, b.y)
    return x if y is Verdict.PROVED_EQUAL else y


def _squared_distance(a: Point, b: Point) -> Expr:
    return add(square_of(sub(a.x, b.x)), square_of(sub(a.y, b.y)))


def _diagonal_crossing(x0: Expr, x1: Expr, y0: Expr, y1: Expr) -> Point:
    """Where the diagonals of ``[x0, x1] x [y0, y1]`` cross, from the
    corners and not by the midpoint formula it is checked against: the
    rising one from p = (x0, y1) along d = (x1 - x0, y0 - y1) meets the
    falling one from q = (x0, y0) along e = (x1 - x0, y1 - y0) at p + t*d,
    t = cross(q - p, e)/cross(d, e)."""
    dx, dy = sub(x1, x0), sub(y0, y1)
    ex, ey = dx, sub(y1, y0)
    # q - p = (0, dy), so cross(q - p, e) = -dy*ex
    t = div(neg(mul(dy, ex)), sub(mul(dx, ey), mul(dy, ex)))
    return Point(add(x0, mul(t, dx)), add(y1, mul(t, dy)))


def verify_angle_configuration(layout: FlagLayout, region: str) -> tuple[Check, ...]:
    """Certify the angle configuration of the Independence blue
    rectangle, here the named region, from its bounds alone: diagonal
    slopes of tan(36), a crossing angle of tan(72) (checked against both
    the closed form and the exact double-angle form), the vertical
    complement, the isosceles half-diagonal triangle, the crossing
    against the midpoint formula, and a star on the crossing when the
    layout has stars.  Every check is an equality: a point check is
    ProvedUnequal when a coordinate comparison disproves it, and else
    Undecided when one is undecided.  When the rising diagonal's tangent
    is not proved tan(36), that check is the whole report: the other
    facts are about a tan(36) rectangle, and a square region's crossing
    tangent would divide by zero.  Raises :class:`LayoutError` when the
    layout has no such region."""
    bounds = next((r.bounds for r in layout.regions if r.name == region), None)
    if bounds is None:
        raise LayoutError(f"layout has no region {region!r}")
    x0, x1, y0, y1 = bounds
    width, height = sub(x1, x0), sub(y1, y0)
    # slopes as drawn (rise up the flag over run to the right): the rising
    # diagonal's is its tangent with the horizontal, and the falling
    # one's is that tangent negated
    slope1, slope2 = div(height, width), div(sub(y0, y1), width)
    proportion = Check("rising diagonal tangent equals tan(36)", verify_identity(slope1, TAN36))
    if not proportion.status.ok:
        return (proportion,)
    # crossing angle between the two diagonals: |(m1 - m2)/(1 + m1 m2)|
    crossing = div(sub(slope1, slope2), add(lit(1), mul(slope1, slope2)))
    double_angle = div(mul(lit(2), TAN36), sub(lit(1), mul(TAN36, TAN36)))
    # complement: the diagonal meets the vertical at the complementary
    # angle, whose tangent is the reciprocal of tan(36)
    complement = div(width, height)
    center = _diagonal_crossing(x0, x1, y0, y1)
    top_left, top_right = Point(x0, y0), Point(x1, y0)
    identities = (
        ("falling diagonal tangent equals tan(36)", neg(slope2), TAN36),
        ("diagonal crossing tangent equals tan(72) closed form", crossing, TAN72),
        ("crossing tangent equals double-angle form 2t/(1-t^2)", crossing, double_angle),
        (
            "diagonal-vertical complement satisfies tan(36)*tan(54) = 1",
            mul(slope1, complement),
            lit(1),
        ),
        (
            "half-diagonals to the top side are equal (isosceles 36-72-72)",
            _squared_distance(center, top_left),
            _squared_distance(center, top_right),
        ),
    )
    checks = [proportion]
    checks.extend(Check(name, verify_identity(lhs, rhs)) for name, lhs, rhs in identities)
    reference = rect_diagonal_intersection(x0, y0, width, height)
    checks.append(Check("diagonal intersection matches midpoint formula", _same_point(center, reference)))
    if layout.stars:
        # some star on the crossing passes; failing that, an undecided one
        # leaves the check undecided
        on_crossing = Verdict.PROVED_UNEQUAL
        for star in layout.stars:
            same = _same_point(star.pentagram.center, center)
            if same is not Verdict.PROVED_UNEQUAL:
                on_crossing = same
                if same.ok:
                    break
        checks.append(Check("star centered on the diagonal crossing", on_crossing))
    return tuple(checks)


def verify_layout_identities(layout: FlagLayout) -> tuple[Check, ...]:
    """Prove every claim the layout's spec states, in source order.  A
    layout that states none gets the structural report, three claims:
    the tiling and the star containment, which construction has already
    validated, as chains with no links, and the canvas ratio as a shown
    binding, Undecided when its digits run out of work budget."""
    claims = layout.claims or (
        Claim("regions tile the canvas exactly", (), ()),
        Claim("star centers lie inside regions", (), ()),
        Claim("canvas ratio evaluates", (), (), shown=("ratio", layout.width_height_ratio())),
    )
    return tuple(check for claim in claims for check in claim.checks(layout))
