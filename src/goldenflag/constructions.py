"""Flag layouts, their invariants, and their identity verifications.

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

All layouts are validated on construction: axis-aligned regions must
lie inside the canvas and tile it exactly (grid coverage over the
certified cut lines) and every star center must lie inside a region.
The identity suites dispatch on a layout's provenance, the spec's
``flag "<name>"``.
"""

from __future__ import annotations

import enum
import importlib.resources
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cmp_to_key

from .errors import (
    LayoutError,
    PrecisionExhausted,
    UnknownFlag,
    WrongLayout,
)
from .exactnum import (
    PHI_EXPR,
    SQRT5_EXPR,
    Expr,
    Verdict,
    add,
    certified_sign,
    compare_values,
    decimal_str,
    div,
    lit,
    mul,
    sqrt_,
    square_of,
    sub,
    truncated_str,
    verify_identity,
)
from .exactnum.expr import SIGN_REFINE_START, eval_interval
from .exactnum.interval import StraddlesZero
from .geometry import (
    TAN36,
    TAN72,
    Pentagram,
    Point,
    Rect,
    Segment,
    angle_tangent_with_horizontal,
    rect_diagonal_intersection,
    segment_intersection,
)

BUILTIN_NAMES = ("chile-1818", "chile-current", "togo", "nepal-ratio")


class ColorRole(enum.Enum):
    RED = "red"
    WHITE = "white"
    BLUE = "blue"
    GREEN = "green"
    YELLOW = "yellow"


@dataclass(frozen=True)
class Region:
    """A named, colored axis-aligned rectangular region."""

    name: str
    color: ColorRole
    bounds: tuple[Expr, Expr, Expr, Expr]  # x0, x1, y0, y1

    @staticmethod
    def from_rect(name: str, color: ColorRole, rect: Rect) -> "Region":
        x0, y0 = rect.origin.x, rect.origin.y
        x1, y1 = add(x0, rect.width), add(y0, rect.height)
        return Region(name, color, (x0, x1, y0, y1))

    @property
    def polygon(self) -> tuple[Point, Point, Point, Point]:
        """Corners, counterclockwise in the y-up frame from (x0, y0)."""
        x0, x1, y0, y1 = self.bounds
        return Point(x0, y0), Point(x1, y0), Point(x1, y1), Point(x0, y1)


@dataclass(frozen=True)
class Star:
    color: ColorRole
    pentagram: Pentagram


@dataclass(frozen=True)
class FlagLayout:
    canvas: Rect
    regions: tuple[Region, ...]
    stars: tuple[Star, ...]
    provenance: str

    @staticmethod
    def create(
        canvas: Rect,
        regions: tuple[Region, ...],
        stars: tuple[Star, ...],
        provenance: str,
    ) -> "FlagLayout":
        layout = FlagLayout(canvas, regions, stars, provenance)
        if regions:
            _check_tiling(layout)
        for star in stars:
            _check_star_inside(layout, star)
        return layout

    def width_height_ratio(self) -> Expr:
        return div(self.canvas.width, self.canvas.height)


# ---------------------------------------------------------------------------
# layout invariants


def _enclosure(value: Expr) -> tuple[float | int, float | int]:
    """64-bit enclosure of a cut line, unbounded when a divisor's
    interval straddles zero at that precision."""
    try:
        return eval_interval(value, SIGN_REFINE_START)
    except StraddlesZero:
        return -math.inf, math.inf


def _compare_certified(a: Expr, b: Expr) -> int:
    try:
        sign = certified_sign(sub(a, b))
    except PrecisionExhausted as exc:
        raise LayoutError("region cut lines not orderable") from exc
    return sign.value


def _ordered_classes(values: list[Expr], members: list[int]) -> list[list[int]]:
    """Group one cluster's input indices by proven equality, ordered by
    certified signs of differences; each group's first index is its
    representative."""
    classes: list[list[int]] = []
    for index in members:
        for cls in classes:
            verdict = compare_values(values[index], values[cls[0]])
            if verdict is Verdict.PROVED_EQUAL:
                cls.append(index)
                break
            if verdict is Verdict.UNDECIDED:
                raise LayoutError("region cut lines not certified distinct/equal")
        else:
            classes.append([index])
    classes.sort(key=cmp_to_key(lambda p, q: _compare_certified(values[p[0]], values[q[0]])))
    return classes


def _certified_distinct_sorted(values: list[Expr]) -> list[int]:
    """Rank of each value among the distinct values, in increasing order.

    A sweep over the values sorted by 64-bit enclosure: values whose
    enclosures are disjoint are ordered outright, and only clusters of
    overlapping enclosures are compared exactly.  Any undecidable pair is
    a layout defect."""
    enclosures = [_enclosure(value) for value in values]
    clusters: list[list[int]] = []
    reach: float | int = -math.inf
    for index in sorted(range(len(values)), key=enclosures.__getitem__):
        lo, hi = enclosures[index]
        if clusters and lo <= reach:
            clusters[-1].append(index)
            reach = max(reach, hi)
        else:
            clusters.append([index])
            reach = hi
    ranks = [0] * len(values)
    rank = 0
    for cluster in clusters:
        for cls in _ordered_classes(values, cluster):
            for index in cls:
                ranks[index] = rank
            rank += 1
    return ranks


def _check_tiling(layout: FlagLayout) -> None:
    """Axis-aligned tiling check over the grid of all region/canvas cut
    lines.  With each line replaced by its rank among the distinct lines,
    a region covers the cells ``rank(x0) <= i < rank(x1)``.  Every region
    must lie inside the canvas and every cell must be covered by exactly
    one region; region edges all lie on cut lines, so cell coverage
    decides both interior-disjointness and the exact area identity."""
    canvas = layout.canvas
    cx0, cy0 = canvas.origin.x, canvas.origin.y
    xs: list[Expr] = [cx0, add(cx0, canvas.width)]
    ys: list[Expr] = [cy0, add(cy0, canvas.height)]
    for region in layout.regions:
        x0, x1, y0, y1 = region.bounds
        xs.extend((x0, x1))
        ys.extend((y0, y1))
    x_ranks = _certified_distinct_sorted(xs)
    y_ranks = _certified_distinct_sorted(ys)
    (ci0, ci1, cj0, cj1), *spans = (
        (x_ranks[k], x_ranks[k + 1], y_ranks[k], y_ranks[k + 1])
        for k in range(0, len(xs), 2)
    )
    for i0, i1, j0, j1 in spans:
        if i0 < ci0 or i1 > ci1 or j0 < cj0 or j1 > cj1:
            raise LayoutError("region extends outside the canvas")
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
    center = star.pentagram.center
    for region in layout.regions:
        x0, x1, y0, y1 = region.bounds
        try:
            inside = (
                certified_sign(sub(center.x, x0)).is_nonnegative
                and certified_sign(sub(x1, center.x)).is_nonnegative
                and certified_sign(sub(center.y, y0)).is_nonnegative
                and certified_sign(sub(y1, center.y)).is_nonnegative
            )
        except PrecisionExhausted:
            continue
        if inside:
            return
    raise LayoutError("star center lies in no region")


# ---------------------------------------------------------------------------
# builtins


@cache
def build_flag(name: str) -> FlagLayout:
    """The builtin flag lowered from its shipped spec ``specs/<name>.flag``.

    Layouts are immutable and their expressions interned, so each name is
    lowered once and the layout shared."""
    if name not in BUILTIN_NAMES:
        raise UnknownFlag(f"unknown builtin flag {name!r}")
    from .flagspec import lower_source  # flagspec lowers into this module's types

    spec = importlib.resources.files(__package__) / "specs" / f"{name}.flag"
    return lower_source(spec.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# verification


class CheckStatus(enum.Enum):
    PROVED_EQUAL = "ProvedEqual"
    PROVED_UNEQUAL = "ProvedUnequal"
    UNDECIDED = "Undecided"
    PASS = "Pass"
    FAIL = "Fail"

    @property
    def ok(self) -> bool:
        return self in (CheckStatus.PROVED_EQUAL, CheckStatus.PASS)

    @property
    def label(self) -> str:
        return self.value

    @staticmethod
    def from_verdict(verdict: Verdict) -> "CheckStatus":
        return CheckStatus(verdict.label)


@dataclass(frozen=True)
class Check:
    name: str
    status: CheckStatus
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    subject: str
    checks: tuple[Check, ...]

    @property
    def all_ok(self) -> bool:
        return all(check.status.ok for check in self.checks)

    @property
    def any_undecided(self) -> bool:
        return any(check.status is CheckStatus.UNDECIDED for check in self.checks)


def _identity_check(name: str, lhs: Expr, rhs: Expr, detail: str = "") -> Check:
    verdict = verify_identity(lhs, rhs)
    return Check(name, CheckStatus.from_verdict(verdict), detail)


def _region_by_color(layout: FlagLayout, color: ColorRole) -> Region:
    for region in layout.regions:
        if region.color is color:
            return region
    raise WrongLayout(f"layout has no {color.value} region")


def _region_size(region: Region) -> tuple[Expr, Expr]:
    x0, x1, y0, y1 = region.bounds
    return sub(x1, x0), sub(y1, y0)


def _squared_distance(a: Point, b: Point) -> Expr:
    return add(square_of(sub(a.x, b.x)), square_of(sub(a.y, b.y)))


def verify_angle_configuration(layout: FlagLayout) -> VerificationReport:
    """Certify the angle configuration of the Independence blue
    rectangle: diagonal slopes of tan(36), a crossing angle of tan(72)
    (checked against both the closed form and the exact double-angle
    form), the vertical complement, and the isosceles half-diagonal
    triangle.  Raises :class:`WrongLayout` for any layout whose blue
    region is not in that proportion."""
    try:
        blue = _region_by_color(layout, ColorRole.BLUE)
    except WrongLayout:
        raise WrongLayout("layout has no blue rectangle with diagonals") from None
    width, height = _region_size(blue)
    proportion = verify_identity(div(height, width), TAN36)
    if proportion is not Verdict.PROVED_EQUAL:
        raise WrongLayout(
            "blue rectangle is not in the tan(36) height/width proportion"
        )
    x0, x1, y0, y1 = blue.bounds
    corner00, corner10 = Point(x0, y0), Point(x1, y0)
    corner11, corner01 = Point(x1, y1), Point(x0, y1)
    diag1 = Segment(corner00, corner11)
    diag2 = Segment(corner01, corner10)
    tangent1 = angle_tangent_with_horizontal(diag1)
    tangent2 = angle_tangent_with_horizontal(diag2)
    checks = [
        _identity_check("rising diagonal tangent equals tan(36)", tangent1, TAN36),
        _identity_check("falling diagonal tangent equals tan(36)", tangent2, TAN36),
    ]
    # crossing angle between the two diagonals: |(m1 - m2)/(1 + m1 m2)|
    slope1 = div(sub(corner11.y, corner00.y), sub(corner11.x, corner00.x))
    slope2 = div(sub(corner10.y, corner01.y), sub(corner10.x, corner01.x))
    crossing = div(sub(slope1, slope2), add(lit(1), mul(slope1, slope2)))
    checks.append(
        _identity_check(
            "diagonal crossing tangent equals tan(72) closed form", crossing, TAN72
        )
    )
    double_angle = div(mul(lit(2), TAN36), sub(lit(1), mul(TAN36, TAN36)))
    checks.append(
        _identity_check(
            "crossing tangent equals double-angle form 2t/(1-t^2)",
            crossing,
            double_angle,
        )
    )
    # complement: the diagonal meets the vertical at the complementary
    # angle, whose tangent is the reciprocal of tan(36)
    complement = div(sub(corner11.x, corner00.x), sub(corner11.y, corner00.y))
    checks.append(
        _identity_check(
            "diagonal-vertical complement satisfies tan(36)*tan(54) = 1",
            mul(tangent1, complement),
            lit(1),
        )
    )
    center = segment_intersection(diag1, diag2)
    half1 = _squared_distance(center, corner01)
    half2 = _squared_distance(center, corner11)
    checks.append(
        _identity_check(
            "half-diagonals to the top side are equal (isosceles 36-72-72)",
            half1,
            half2,
        )
    )
    reference = rect_diagonal_intersection(
        Rect(Point(x0, y0), width, height)
    )
    agree_x = compare_values(center.x, reference.x)
    agree_y = compare_values(center.y, reference.y)
    both = (
        CheckStatus.PROVED_EQUAL
        if agree_x is Verdict.PROVED_EQUAL and agree_y is Verdict.PROVED_EQUAL
        else CheckStatus.FAIL
    )
    checks.append(Check("diagonal intersection matches midpoint formula", both))
    if layout.stars:
        star_center = layout.stars[0].pentagram.center
        star_x = compare_values(star_center.x, center.x)
        star_y = compare_values(star_center.y, center.y)
        status = (
            CheckStatus.PROVED_EQUAL
            if star_x is Verdict.PROVED_EQUAL and star_y is Verdict.PROVED_EQUAL
            else CheckStatus.FAIL
        )
        checks.append(Check("star centered on the diagonal crossing", status))
    return VerificationReport(layout.provenance, tuple(checks))


def _verify_independence(layout: FlagLayout) -> VerificationReport:
    blue = _region_by_color(layout, ColorRole.BLUE)
    white = _region_by_color(layout, ColorRole.WHITE)
    blue_width, blue_height = _region_size(blue)
    white_width, _ = _region_size(white)
    ratio = layout.width_height_ratio()
    ratio_closed_form = div(
        add(lit(2), SQRT5_EXPR), sqrt_(sub(lit(10), mul(lit(2), SQRT5_EXPR)))
    )
    diameter = mul(lit(2), layout.stars[0].pentagram.circumradius)
    checks = (
        _identity_check(
            "white/blue width ratio equals the golden mean",
            div(white_width, blue_width),
            PHI_EXPR,
        ),
        _identity_check(
            "blue height/width proportion equals tan(36)",
            div(blue_height, blue_width),
            TAN36,
        ),
        _identity_check(
            "canvas width/height ratio equals (2+sqrt5)/sqrt(10-2*sqrt5)",
            ratio,
            ratio_closed_form,
            detail=f"ratio = {decimal_str(ratio, 6)}",
        ),
        _identity_check(
            "band height over star circumcircle diameter equals the golden mean",
            div(blue_height, diameter),
            PHI_EXPR,
        ),
        _identity_check(
            "top width over white width equals the golden mean",
            div(add(blue_width, white_width), white_width),
            PHI_EXPR,
        ),
    )
    return VerificationReport(layout.provenance, checks)


def _verify_current(layout: FlagLayout) -> VerificationReport:
    blue = _region_by_color(layout, ColorRole.BLUE)
    side, _ = _region_size(blue)
    ratio = layout.width_height_ratio()
    diameter = mul(lit(2), layout.stars[0].pentagram.circumradius)
    area_checks = []
    for region, squares in zip(layout.regions, (1, 2, 3)):
        w, h = _region_size(region)
        area_checks.append(
            verify_identity(mul(w, h), mul(lit(squares), mul(side, side)))
        )
    canvas_area = mul(layout.canvas.width, layout.canvas.height)
    area_checks.append(verify_identity(canvas_area, mul(lit(6), mul(side, side))))
    decomposition_ok = all(v is Verdict.PROVED_EQUAL for v in area_checks)
    checks = (
        _identity_check(
            "canvas width/height proportion is exactly 3:2", ratio, lit(Fraction(3, 2))
        ),
        _identity_check(
            "star circumcircle diameter is half the square side",
            diameter,
            div(side, lit(2)),
        ),
        Check(
            "six-square decomposition: areas 1+2+3 squares tile the canvas",
            CheckStatus.PASS if decomposition_ok else CheckStatus.FAIL,
            "blue=1, white=2, red=3 square areas; sum equals canvas area",
        ),
    )
    return VerificationReport(layout.provenance, checks)


def _verify_togo(layout: FlagLayout) -> VerificationReport:
    ratio = layout.width_height_ratio()
    checks = (
        _identity_check(
            "canvas width/height ratio equals the golden mean",
            ratio,
            PHI_EXPR,
            detail=f"ratio = {decimal_str(ratio, 6)}",
        ),
    )
    return VerificationReport(layout.provenance, checks)


def _verify_nepal(layout: FlagLayout) -> VerificationReport:
    ratio = layout.width_height_ratio()
    leading = truncated_str(ratio, 3)
    status = CheckStatus.PASS if leading == "0.820" else CheckStatus.FAIL
    checks = (
        Check(
            "width-height ratio decimal expansion begins 0.820",
            status,
            f"ratio = {decimal_str(ratio, 6)}",
        ),
    )
    return VerificationReport(layout.provenance, checks)


def _verify_generic(layout: FlagLayout) -> VerificationReport:
    # construction already validated tiling and star containment
    checks = (
        Check("regions tile the canvas exactly", CheckStatus.PASS),
        Check("star centers lie inside regions", CheckStatus.PASS),
        Check(
            "canvas ratio evaluates",
            CheckStatus.PASS,
            f"ratio = {decimal_str(layout.width_height_ratio(), 6)}",
        ),
    )
    return VerificationReport(layout.provenance, checks)


_LAYOUT_SUITES = {
    "chile-1818": _verify_independence,
    "chile-current": _verify_current,
    "togo": _verify_togo,
    "nepal-ratio": _verify_nepal,
}


def verify_layout_identities(layout: FlagLayout) -> VerificationReport:
    """Run the identity suite matching the layout's provenance; layouts
    from unrecognized sources get the generic structural report."""
    suite = _LAYOUT_SUITES.get(layout.provenance, _verify_generic)
    return suite(layout)


def verify_flag_identities(name: str) -> VerificationReport:
    """Every identity stated for the named builtin flag."""
    return verify_layout_identities(build_flag(name))
