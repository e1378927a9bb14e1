"""Builtin layouts, layout invariants, and the claims their specs state."""

from __future__ import annotations

import time
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import goldenflag.constructions as constructions
from goldenflag.constructions import (
    BUILTIN_NAMES,
    ColorRole,
    FlagLayout,
    Region,
    _certified_distinct_sorted,
    build_flag,
    verify_angle_configuration,
    verify_layout_identities,
)
from goldenflag.errors import CertificationError, LayoutError, UnknownFlag
from goldenflag.exactnum import (
    GOLDEN,
    PHI_EXPR,
    SQRT5_EXPR,
    Expr,
    Sign,
    Verdict,
    add,
    certified_sign,
    compare_values,
    decimal_str,
    div,
    exact_rational,
    lit,
    mul,
    sqrt_,
    sub,
    verify_identity,
)
from goldenflag.exactnum.expr import eval_interval
from goldenflag.exactnum.interval import StraddlesZero
from goldenflag.flagspec import lower_source
import goldenflag.geometry as geometry
from goldenflag.geometry import Point, rect_diagonal_intersection

from conftest import FOUR_RADICALS, enclosure, expansion_begins, relative_radius

TINY = Fraction(1, 2**80)
coefficients = st.fractions(min_value=-2, max_value=2, max_denominator=3)

CHILE_CURRENT_AT_SIDE_TWO = """
flag "chile-current" {
  canvas 6 x 4;
  region blue_canton blue  rect 0 0 2 2;
  region white_field white rect 2 0 4 2;
  region red_band    red   rect 0 2 6 2;
  star white at diagonal_intersection of blue_canton diameter 1;
}
"""

TOGO_AT_HEIGHT_FIVE = """
flag "togo" {
  canvas 5*phi x 5;
  region canton  red    rect 0 0 3 3;
  region stripe1 green  rect 3 0 5*phi - 3 1;
  region stripe2 yellow rect 3 1 5*phi - 3 1;
  region stripe3 green  rect 3 2 5*phi - 3 1;
  region stripe4 yellow rect 0 3 5*phi 1;
  region stripe5 green  rect 0 4 5*phi 1;
  star white at 3/2 3/2 diameter 12/5;
}
"""


# the chile-1818 regions, with the stars given
TWO_STAR_INDEPENDENCE = """
flag "stars" {{
  canvas (1 + phi)/(sqrt(10 - 2*sqrt(5))/(1 + sqrt(5))) x 2;
  let wb = 1/(sqrt(10 - 2*sqrt(5))/(1 + sqrt(5)));
  region blue_field  blue  rect 0 0 wb 1;
  region white_field white rect wb 0 phi*wb 1;
  region red_band    red   rect 0 1 (1 + phi)*wb 1;
  {stars}
}}
"""


# a tan(36) blue field at the irrational corner (sqrt2, sqrt3), of band
# height phi, beside a red strip and below a white one
OFF_ORIGIN = """
flag "off-origin" {
  canvas sqrt(2) + phi/(sqrt(10 - 2*sqrt(5))/(1 + sqrt(5))) x sqrt(3) + phi;
  let wb = phi/(sqrt(10 - 2*sqrt(5))/(1 + sqrt(5)));
  region left       red   rect 0 0 sqrt(2) sqrt(3) + phi;
  region top        white rect sqrt(2) 0 wb sqrt(3);
  region blue_field blue  rect sqrt(2) sqrt(3) wb phi;
  star white at diagonal_intersection of blue_field diameter 1/phi;
}
"""


def region(name: str, color: ColorRole, x0, x1, y0, y1) -> Region:
    """A region over rational bounds."""
    return Region(name, color, (lit(x0), lit(x1), lit(y0), lit(y1)))


def region_size(region: Region):
    x0, x1, y0, y1 = region.bounds
    return sub(x1, x0), sub(y1, y0)


def by_color(layout: FlagLayout, color: ColorRole) -> Region:
    return next(r for r in layout.regions if r.color is color)


class TestIndependenceFlag:
    def test_canvas_ratio_closed_form_and_leading_digits(self, layouts):
        layout = layouts["chile-1818"]
        ratio = layout.width_height_ratio()
        closed = div(add(lit(2), SQRT5_EXPR), sqrt_(sub(lit(10), mul(lit(2), SQRT5_EXPR))))
        assert verify_identity(ratio, closed) is Verdict.PROVED_EQUAL
        assert expansion_begins(ratio, "1.801")

    def test_white_band_is_phi_times_the_blue_one(self, layouts):
        layout = layouts["chile-1818"]
        blue_w, _ = region_size(by_color(layout, ColorRole.BLUE))
        white_w, _ = region_size(by_color(layout, ColorRole.WHITE))
        assert verify_identity(div(white_w, blue_w), PHI_EXPR) is Verdict.PROVED_EQUAL

    def test_blue_width_value(self, layouts):
        # 1/tan36, independently: with 60-digit decimal arithmetic
        blue_w, _ = region_size(by_color(layouts["chile-1818"], ColorRole.BLUE))
        with localcontext() as ctx:
            ctx.prec = 60
            root5 = Decimal(5).sqrt()
            oracle = (1 + root5) / (10 - 2 * root5).sqrt()
        assert decimal_str(blue_w, 9) == str(oracle)[:10]  # 1.37638192

    def test_star_diameter_is_height_over_phi(self, layouts):
        layout = layouts["chile-1818"]
        _, blue_h = region_size(by_color(layout, ColorRole.BLUE))
        diameter = mul(lit(2), layout.stars[0].pentagram.circumradius)
        assert verify_identity(diameter, div(blue_h, PHI_EXPR)) is Verdict.PROVED_EQUAL
        assert verify_identity(div(blue_h, diameter), PHI_EXPR) is Verdict.PROVED_EQUAL
        assert decimal_str(diameter, 8) == "0.61803399"

    def test_star_circumcircle_fits_strictly_inside_the_blue_rectangle(self, layouts):
        layout = layouts["chile-1818"]
        blue_w, blue_h = region_size(by_color(layout, ColorRole.BLUE))
        diameter = mul(lit(2), layout.stars[0].pentagram.circumradius)
        assert certified_sign(sub(blue_h, diameter)) is Sign.POSITIVE
        assert certified_sign(sub(blue_w, diameter)) is Sign.POSITIVE

    def test_ratio_three_way_agreement(self, layouts):
        from goldenflag.geometry import TAN36

        ratio = layouts["chile-1818"].width_height_ratio()
        phi_squared = mul(PHI_EXPR, PHI_EXPR)
        assert verify_identity(ratio, div(phi_squared, mul(lit(2), TAN36))) is Verdict.PROVED_EQUAL


class TestCurrentFlag:
    def test_ratio_is_exactly_three_halves(self, layouts):
        assert exact_rational(layouts["chile-current"].width_height_ratio()) == Fraction(3, 2)

    def test_star_diameter_is_exactly_a_quarter_at_unit_side(self, layouts):
        radius = layouts["chile-current"].stars[0].pentagram.circumradius
        assert exact_rational(radius) == Fraction(1, 4)

    def test_area_decomposition_at_side_two(self):
        layout = lower_source(CHILE_CURRENT_AT_SIDE_TWO)
        areas = []
        for region in layout.regions:
            w, h = region_size(region)
            areas.append(exact_rational(mul(w, h)))
        assert areas == [Fraction(4), Fraction(8), Fraction(12)]
        canvas_area = exact_rational(
            mul(layout.width, layout.height)
        )
        assert sum(areas) == canvas_area == Fraction(24)


class TestTogo:
    def test_width_is_phi_at_unit_height(self, layouts):
        layout = layouts["togo"]
        assert verify_identity(layout.width, PHI_EXPR) is Verdict.PROVED_EQUAL
        assert decimal_str(layout.width, 5) == "1.618"

    def test_five_equal_stripes_at_height_five(self):
        layout = lower_source(TOGO_AT_HEIGHT_FIVE)
        stripes = [r for r in layout.regions if r.name.startswith("stripe")]
        assert len(stripes) == 5
        for stripe in stripes:
            _, h = region_size(stripe)
            assert exact_rational(h) == 1

    def test_canton_side_is_three_fifths(self, layouts):
        canton = next(r for r in layouts["togo"].regions if r.color is ColorRole.RED)
        w, h = region_size(canton)
        assert exact_rational(w) == Fraction(3, 5)
        assert exact_rational(h) == Fraction(3, 5)


def nepal_formula() -> Expr:
    """The printed nested-radical ratio, built with the kernel's
    constructors rather than lowered from the spec."""
    root2 = sqrt_(lit(2))
    common = div(sub(lit(297), mul(lit(180), root2)), sub(lit(92), mul(lit(36), root2)))
    eight_less = sub(lit(8), mul(lit(3), root2))
    first = div(eight_less, sub(sqrt_(sub(lit(118), mul(lit(48), root2))), lit(6)))
    inner = sub(sqrt_(add(lit(1), div(lit(18), sub(lit(41), mul(lit(24), root2))))), lit(1))
    second = div(lit(6), mul(eight_less, inner))
    numerator = add(lit(24), mul(common, add(lit(1), first)))
    denominator = add(lit(32), mul(common, add(lit(1), second)))
    return div(numerator, denominator)


class TestNepalRatio:
    def test_leading_digits(self, layouts):
        assert expansion_begins(layouts["nepal-ratio"].width_height_ratio(), "0.820")

    def test_ball_at_128_bits_rounds_to_the_quoted_digits(self, layouts):
        ratio = layouts["nepal-ratio"].width_height_ratio()
        lo, hi = enclosure(ratio, 128 + 32)
        assert relative_radius(lo, hi) <= Fraction(1, 2**128)
        assert decimal_str(lit((lo + hi) / 2), 3) == "0.82"
        assert decimal_str(ratio, 6) == "0.820338"

    def test_radicands_and_divisors_are_certified_positive(self):
        root2 = sqrt_(lit(2))
        assert certified_sign(sub(lit(118), mul(lit(48), root2))) is Sign.POSITIVE
        assert certified_sign(sub(sqrt_(sub(lit(118), mul(lit(48), root2))), lit(6))) is Sign.POSITIVE
        assert certified_sign(sub(lit(41), mul(lit(24), root2))) is Sign.POSITIVE
        inner = sub(sqrt_(add(lit(1), div(lit(18), sub(lit(41), mul(lit(24), root2))))), lit(1))
        assert certified_sign(mul(sub(lit(8), mul(lit(3), root2)), inner)) is Sign.POSITIVE

    def test_pseudo_layout_ratio_matches_the_expression(self, layouts):
        layout = layouts["nepal-ratio"]
        assert compare_values(
            layout.width_height_ratio(), nepal_formula()
        ) is Verdict.PROVED_EQUAL


class TestDispatchAndReports:
    def test_unknown_flag(self):
        with pytest.raises(UnknownFlag):
            build_flag("chile-1819")
        with pytest.raises(UnknownFlag):
            build_flag("nope")

    def test_builtin_names_all_build(self, layouts):
        assert set(layouts) == set(BUILTIN_NAMES)

    def test_independence_report_has_five_proved_identities(self, layouts):
        # the five proportion identities, then the angle configuration
        checks = verify_layout_identities(layouts["chile-1818"])
        angles = verify_angle_configuration(layouts["chile-1818"], "blue_field")
        assert len(checks) == 5 + len(angles)
        assert checks[5:] == angles
        assert all(c.status is Verdict.PROVED_EQUAL for c in checks)

    def test_current_report(self, layouts):
        checks = verify_layout_identities(layouts["chile-current"])
        assert len(checks) == 3
        assert all(check.status.ok for check in checks)

    def test_togo_report(self, layouts):
        checks = verify_layout_identities(layouts["togo"])
        assert len(checks) == 1
        assert checks[0].status is Verdict.PROVED_EQUAL

    def test_nepal_report(self, layouts):
        checks = verify_layout_identities(layouts["nepal-ratio"])
        assert len(checks) == 1
        assert checks[0].status is Verdict.PASS


class TestAngleConfiguration:
    def test_unit_band_height_is_the_builtin(self, layouts, chile_1818_at):
        assert chile_1818_at(1) == layouts["chile-1818"]

    @pytest.mark.parametrize("band_height", [1, Fraction(7, 3)], ids=["unit", "seven-thirds"])
    def test_all_checks_pass_at_either_scale(self, band_height, chile_1818_at):
        checks = verify_angle_configuration(chile_1818_at(band_height), "blue_field")
        assert len(checks) == 8
        assert all(check.status.ok for check in checks)

    @pytest.mark.parametrize(
        "on_crossing, status",
        [(True, Verdict.PROVED_EQUAL), (False, Verdict.PROVED_UNEQUAL), (None, Verdict.UNDECIDED)],
        ids=["one-on-crossing", "none-on-crossing", "undecided-on-crossing"],
    )
    def test_star_line_asks_for_some_star_on_the_crossing(self, on_crossing, status):
        stars = "star white at 1/2 3/2 diameter 1/5;"
        if on_crossing:
            stars += " star white at diagonal_intersection of blue_field diameter 1/phi;"
        elif on_crossing is None:
            # z is zero, so this star is on the crossing, but no comparison
            # within the work budget proves or disproves it
            stars += f" let a = {FOUR_RADICALS}; let z = a - a/3*3; star white at wb/2 + z 1/2 diameter 1/phi;"
        layout = lower_source(TWO_STAR_INDEPENDENCE.format(stars=stars))
        star_line = verify_angle_configuration(layout, "blue_field")[-1]
        assert star_line.name == "star centered on the diagonal crossing"
        assert star_line.status is status

    def test_all_checks_pass_off_the_origin(self):
        checks = verify_angle_configuration(lower_source(OFF_ORIGIN), "blue_field")
        assert len(checks) == 8
        assert all(check.status is Verdict.PROVED_EQUAL for check in checks)

    def test_the_midpoint_check_fails_against_a_wrong_midpoint_formula(self, monkeypatch):
        # the crossing is found from the corners, not from the midpoint
        # formula: a formula off by 2**-80 fails the midpoint check, and the
        # star, placed by the true formula, stays on the crossing
        layout = lower_source(OFF_ORIGIN)
        midpoint = constructions.rect_diagonal_intersection

        def off_by_tiny(*rect: Expr) -> Point:
            x, y = midpoint(*rect)
            return Point(add(x, lit(TINY)), y)

        monkeypatch.setattr(constructions, "rect_diagonal_intersection", off_by_tiny)
        *_, midpoint_line, star_line = verify_angle_configuration(layout, "blue_field")
        assert midpoint_line.status is Verdict.PROVED_UNEQUAL
        assert star_line.status is Verdict.PROVED_EQUAL

    def test_current_flag_is_the_wrong_layout(self, layouts):
        # a square canton: its diagonals cross at a right angle, where the
        # crossing tangent's divisor 1 + m1*m2 is zero, so the failed
        # proportion is the whole report
        assert verify_angle_configuration(layouts["chile-current"], "blue_canton") == (
            constructions.Check("rising diagonal tangent equals tan(36)", Verdict.PROVED_UNEQUAL),
        )

    def test_layout_without_blue_region_is_rejected(self, layouts):
        with pytest.raises(LayoutError, match="layout has no region 'blue_field'"):
            verify_angle_configuration(layouts["nepal-ratio"], "blue_field")


class TestDiagonalCrossing:
    @given(
        st.fractions(min_value=-10, max_value=10, max_denominator=12),
        st.fractions(min_value=-10, max_value=10, max_denominator=12),
        st.fractions(min_value=Fraction(1, 10), max_value=20, max_denominator=12),
        st.fractions(min_value=Fraction(1, 10), max_value=20, max_denominator=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_diagonal_crossing_matches_midpoint_for_random_rectangles(self, x, y, w, h):
        crossing = constructions._diagonal_crossing(lit(x), lit(x + w), lit(y), lit(y + h))
        assert crossing == Point(lit(x + w / 2), lit(y + h / 2))

    def test_radical_rectangle_diagonals_cross_at_the_midpoint(self):
        x0, x1, y0, y1 = next(r for r in lower_source(OFF_ORIGIN).regions if r.name == "blue_field").bounds
        crossing = constructions._diagonal_crossing(x0, x1, y0, y1)
        midpoint = rect_diagonal_intersection(x0, y0, sub(x1, x0), sub(y1, y0))
        for found, reference in zip(crossing, midpoint):
            # other nodes, so that the configuration's midpoint check is a proof
            assert found is not reference
            assert compare_values(found, reference) is Verdict.PROVED_EQUAL


class TestLayoutInvariants:
    def test_gap_is_rejected(self):
        only_half = (region("left", ColorRole.RED, 0, 1, 0, 1),)
        with pytest.raises(LayoutError):
            FlagLayout.create(lit(2), lit(1), only_half, (), "broken")

    def test_overlap_is_rejected(self):
        overlapping = (
            region("left", ColorRole.RED, 0, Fraction(3, 2), 0, 1),
            region("right", ColorRole.BLUE, 1, 2, 0, 1),
        )
        with pytest.raises(LayoutError):
            FlagLayout.create(lit(2), lit(1), overlapping, (), "broken")

    def test_stray_star_is_rejected(self):
        from goldenflag.geometry import Pentagram
        from goldenflag.constructions import Star

        regions = (region("all", ColorRole.RED, 0, 2, 0, 1),)
        stray = Star(ColorRole.WHITE, Pentagram(Point(lit(5), lit(5)), lit(Fraction(1, 4))))
        with pytest.raises(LayoutError):
            FlagLayout.create(lit(2), lit(1), regions, (stray,), "broken")

    def test_a_zero_height_region_is_a_certification_error(self):
        # its top and bottom edges rank equal; the region after it is
        # fine, and the canvas is tiled by the first and third
        regions = (
            region("left", ColorRole.RED, 0, 1, 0, 1),
            region("flat", ColorRole.BLUE, 1, 2, 1, 1),
            region("right", ColorRole.WHITE, 1, 2, 0, 1),
        )
        with pytest.raises(CertificationError, match="^region 'flat': height is not certified positive$"):
            FlagLayout.create(lit(2), lit(1), regions, (), "flat")

    @pytest.mark.parametrize("width, height, message", [
        (lit(0), lit(1), "canvas: width is not certified positive"),
        (lit(2), sub(mul(PHI_EXPR, PHI_EXPR), add(PHI_EXPR, lit(1))), "canvas: height is not certified positive"),
        (lit(-2), lit(-1), "canvas: width is not certified positive"),
    ], ids=["zero-width", "height-zero-in-the-field", "negative"])
    def test_a_nonpositive_canvas_is_a_certification_error(self, width, height, message):
        with pytest.raises(CertificationError, match=f"^{message}$"):
            FlagLayout.create(width, height, (region("all", ColorRole.RED, 0, 2, 0, 1),), (), "canvas")

    def test_chile_1818_asks_geometry_for_one_sign(self, spec_sources, monkeypatch):
        # sizes are certified by the tiling's cut-line ranks, so geometry
        # asks only for the star's circumradius
        calls = []

        def counting(x):
            calls.append(x)
            return certified_sign(x)

        monkeypatch.setattr(geometry, "certified_sign", counting)
        layout = lower_source(spec_sources["chile-1818"])
        assert all(check.status.ok for check in verify_layout_identities(layout))
        assert calls == [layout.stars[0].pentagram.circumradius]

    def test_a_star_grid_lowers_in_linear_time(self):
        # one star per cell of a 30 x 30 grid: a star is placed against
        # the canvas, not against each region
        n = 30
        lines = [f'flag "grid" {{ canvas {n} x {n};']
        lines += [f"region c{i}_{j} red rect {i} {j} 1 1;" for i in range(n) for j in range(n)]
        lines += [f"star white at {i} + 1/2 {j} + 1/2 diameter 1/2;" for i in range(n) for j in range(n)]
        start = time.perf_counter()
        layout = lower_source("\n".join(lines + ["}"]))
        assert time.perf_counter() - start < 2
        assert (len(layout.regions), len(layout.stars)) == (900, 900)

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_builtins_tile_exactly(self, name, layouts):
        # construction validates; reaching here means the grid coverage
        # check proved the exact tiling
        assert layouts[name].regions

    @pytest.mark.parametrize(
        "x, y, width, height",
        [(0, 0, 4, 2), (-1, 0, 3, 2), (0, 1, 3, 2), (0, -1, 3, 3)],
        ids=["right", "left", "top", "bottom"],
    )
    def test_region_outside_the_canvas_is_rejected(self, x, y, width, height):
        spilling = (region("a", ColorRole.BLUE, x, x + width, y, y + height),)
        with pytest.raises(LayoutError, match="region extends outside the canvas"):
            FlagLayout.create(lit(3), lit(2), spilling, (), "broken")


def star_at(width: str, height: str, x: str, y: str) -> str:
    """One region over the canvas and one star centered at ``(x, y)``."""
    return (
        f'flag "star" {{ canvas {width} x {height}; region all red rect 0 0 {width} {height};'
        f" star white at {x} {y} diameter 1/4; }}"
    )


OUTSIDE = f"1/{10**30}"  # how far outside a rejected center lies


class TestStarContainment:
    """The closed canvas holds a star center.  Its 64-bit box and the
    canvas's settle a center clear of the edges, and the four signs are
    asked only when the boxes overlap an edge."""

    @pytest.fixture
    def signs(self, monkeypatch):
        asked = []

        def counting(x):
            asked.append(x)
            return certified_sign(x)

        monkeypatch.setattr(constructions, "certified_sign", counting)
        return asked

    @pytest.mark.parametrize("width, height, x, y", [
        ("3", "2", "0", "0"),
        ("3", "2", "3", "2"),
        ("5/2", "9/4", "5/2", "0"),
        ("phi", "1", "phi", "1/2"),
        ("phi", "phi*phi", "phi", "phi + 1"),
    ], ids=["origin", "far-corner", "rational-edge", "phi-edge", "phi-corner"])
    def test_a_center_on_the_closed_boundary_is_inside(self, width, height, x, y):
        layout = lower_source(star_at(width, height, x, y))
        assert len(layout.stars) == 1

    @pytest.mark.parametrize("width, height, x, y", [
        ("3", "2", f"3 + {OUTSIDE}", "1"),
        ("3", "2", f"0 - {OUTSIDE}", "1"),
        ("3", "2", "1", f"2 + {OUTSIDE}"),
        ("3", "2", "1", f"0 - {OUTSIDE}"),
        ("phi", "1", f"phi + {OUTSIDE}", "1/2"),
    ], ids=["right", "left", "bottom", "top", "right-of-phi"])
    def test_a_center_just_outside_is_rejected(self, width, height, x, y):
        with pytest.raises(LayoutError, match="^star center lies in no region$"):
            lower_source(star_at(width, height, x, y))

    def test_a_center_clear_of_the_edges_asks_no_sign(self, signs):
        lower_source(star_at("3*phi", "2", "phi + 1/3", "sqrt(2)"))
        assert signs == []

    def test_a_center_whose_box_meets_an_edge_asks_the_signs(self, signs):
        layout = lower_source(star_at("phi", "1", "phi", "1/2"))
        x, y = layout.stars[0].pentagram.center
        assert signs == [x, sub(layout.width, x), y, sub(layout.height, y)]


def stripes_source(n: int) -> str:
    lines = [f'flag "stripes-{n}" {{', f"  canvas 3 x {n}*(2*phi);", "  let w = 2*phi;"]
    lines += [f"  region s{i} red rect 0 {i}*w 3 w;" for i in range(n)]
    return "\n".join(lines + ["}"])


class TestTilingWork:
    def test_tiling_compares_each_cut_line_at_most_once(self, monkeypatch):
        calls = {"compare_values": 0, "certified_sign": 0}

        def counting(name):
            original = getattr(constructions, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(constructions, name, counting(name))
        n = 64
        layout = lower_source(stripes_source(n))
        assert len(layout.regions) == n
        cut_lines = 2 * 2 * (n + 1)  # canvas and region edges, both axes
        assert calls["compare_values"] + calls["certified_sign"] <= cut_lines


class TestTilingExactFallback:
    """Cut lines closer than a 64-bit enclosure can separate, and equal
    lines written differently, are decided by the exact layers."""

    phi_squared = mul(PHI_EXPR, PHI_EXPR)

    def test_close_lines_share_one_64_bit_cluster(self):
        lo, hi = eval_interval(self.phi_squared, 64)
        near_lo, near_hi = eval_interval(add(self.phi_squared, lit(TINY)), 64)
        assert near_lo <= hi and lo <= near_hi

    def test_ranks_inside_one_cluster(self):
        values = [
            add(PHI_EXPR, lit(1)),
            add(self.phi_squared, lit(TINY)),
            lit(0),
            self.phi_squared,
            sub(self.phi_squared, lit(TINY)),
            lit(Fraction(1, 2) + TINY),
            lit(Fraction(1, 2)),
        ]
        assert _certified_distinct_sorted(values, "values {} and {}".format) == [4, 5, 0, 4, 3, 2, 1]

    @given(
        st.lists(st.tuples(coefficients, coefficients), min_size=1, max_size=3),
        st.lists(st.tuples(
            st.integers(0, 2),
            st.sampled_from(("plain", "times 3 over 3", "plus 1 minus 1", "times phi over phi")),
            st.sampled_from((0, TINY, -TINY)),
        ), max_size=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_ranks_agree_with_the_exact_field(self, bases, drawn):
        # values p + q*phi from a few bases, each written so that equal
        # values are different DAGs with different 64-bit enclosures, and
        # some moved by 2**-80 inside them
        values, exact = [], []
        for base, writing, offset in drawn:
            p, q = bases[base % len(bases)]
            x = add(lit(p), mul(lit(q), PHI_EXPR))
            if writing == "times 3 over 3":
                x = div(mul(x, lit(3)), lit(3))
            elif writing == "plus 1 minus 1":
                x = sub(add(x, lit(1)), lit(1))
            elif writing == "times phi over phi":  # a wider enclosure
                x = div(mul(x, PHI_EXPR), PHI_EXPR)
            values.append(add(x, lit(offset)))
            half_q = Fraction(q) / 2  # phi = (1 + sqrt5)/2
            exact.append(GOLDEN.of(p + offset + half_q, half_q))
        expected = [
            sum(GOLDEN.sign(GOLDEN.sub(g, h)) is Sign.POSITIVE for h in set(exact))
            for g in exact
        ]
        assert _certified_distinct_sorted(values, "values {} and {}".format) == expected

    def split_canvas(self, split: Expr) -> tuple[Region, ...]:
        # canvas width phi + 1; the right region ends at 1 + (phi*phi - 1)
        right_width = sub(sub(self.phi_squared, lit(1)), sub(split, lit(1)))
        return (
            region("left", ColorRole.RED, 0, 1, 0, 1),
            Region("right", ColorRole.BLUE, (split, add(split, right_width), lit(0), lit(1))),
        )

    def create(self, regions: tuple[Region, ...]) -> FlagLayout:
        return FlagLayout.create(add(PHI_EXPR, lit(1)), lit(1), regions, (), "close")

    def test_equal_lines_written_differently_tile(self):
        layout = self.create(self.split_canvas(lit(1)))
        assert len(layout.regions) == 2

    def test_line_without_a_64_bit_enclosure(self):
        # the divisor (phi + 2**-80) - phi straddles zero at 64 bits
        width = div(lit(1), sub(add(PHI_EXPR, lit(TINY)), PHI_EXPR))
        with pytest.raises(StraddlesZero):
            eval_interval(width, 64)
        regions = (
            region("left", ColorRole.RED, 0, 1, 0, 1),
            Region("right", ColorRole.BLUE, (lit(1), add(lit(1), sub(width, lit(1))), lit(0), lit(1))),
        )
        assert len(FlagLayout.create(width, lit(1), regions, (), "unbounded").regions) == 2
        with pytest.raises(LayoutError, match="regions overlap"):
            FlagLayout.create(width, lit(1), regions + regions[:1], (), "unbounded")

    def test_gap_of_two_to_the_minus_80_is_found(self):
        with pytest.raises(LayoutError, match="regions leave a gap in the canvas"):
            self.create(self.split_canvas(lit(1 + TINY)))

    def test_overlap_of_two_to_the_minus_80_is_found(self):
        with pytest.raises(LayoutError, match="regions overlap"):
            self.create(self.split_canvas(lit(1 - TINY)))


def _records():
    from goldenflag.flagspec.lexer import tokenize

    return {
        "token": (tokenize("flag")[0], "lexeme"),
        "point": (Point(lit(0), lit(1)), "x"),
        "region": (build_flag("togo").regions[0], "bounds"),
        "check": (constructions.Check("c", Verdict.PASS), "status"),
    }


class TestRecords:
    """Tokens, points and the layout records are immutable
    NamedTuples whose defaults hold."""

    @pytest.mark.parametrize("kind", ["token", "point", "region", "check"])
    def test_a_field_cannot_be_assigned(self, kind):
        record, field = _records()[kind]
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))

    def test_defaults_hold(self):
        assert constructions.Check("c", Verdict.PASS).detail == ""
        claim = constructions.Claim("c", (lit(1), lit(1)), ("==",))
        assert (claim.detail, claim.shown) == ("", None)
