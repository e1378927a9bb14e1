"""Deterministic SVG/JSON emission and the certified decimal policy."""

from __future__ import annotations

import json
from fractions import Fraction
from math import isqrt
from xml.sax.saxutils import escape

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from goldenflag import render
from goldenflag.constructions import BUILTIN_NAMES, ColorRole, FlagLayout, Region, Star
from goldenflag.errors import UnencodableText
from goldenflag.exactnum import (
    PHI_EXPR, add, certified_sign, decimal_str, decimalfmt, div, lit, mul, sqrt_, sub,
)
from goldenflag.flagspec import lower_source
from goldenflag.geometry import Pentagram, Point, pentagram_vertices
from goldenflag.render import DEFAULT_PALETTE, RenderOptions, _Frame, json_emit, svg_emit

from conftest import within_half_ulp

UNIT_SQUARE = lower_source('flag "unit" { canvas 1 x 1; region all red rect 0 0 1 1; }')


class TestDeterminism:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_svg_bytes_identical_across_runs(self, name, layouts, spec_sources):
        opts = RenderOptions(scale=Fraction(100))
        first = svg_emit(layouts[name], opts)
        second = svg_emit(lower_source(spec_sources[name]), RenderOptions(scale=Fraction(100)))
        assert first == second

    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_json_bytes_identical_across_runs(self, name, layouts, spec_sources):
        first = json_emit(layouts[name], RenderOptions())
        second = json_emit(lower_source(spec_sources[name]), RenderOptions())
        assert first == second


class TestSvg:
    def test_current_flag_viewbox_at_scale_300(self, layouts):
        svg = svg_emit(layouts["chile-current"], RenderOptions(scale=300)).decode()
        assert 'viewBox="0 0 900 600"' in svg
        assert 'width="900" height="600"' in svg

    def test_region_then_star_polygon_order(self, layouts):
        svg = svg_emit(layouts["chile-current"]).decode()
        polygons = [line for line in svg.splitlines() if line.startswith("<polygon")]
        assert len(polygons) == 4  # 3 regions then 1 star
        assert polygons[0].endswith(f'fill="{DEFAULT_PALETTE[ColorRole.BLUE]}"/>')
        assert polygons[-1].endswith(f'fill="{DEFAULT_PALETTE[ColorRole.WHITE]}"/>')

    def test_physical_width_two_point_four(self, layouts):
        opts = RenderOptions(digits=6, target_width=Fraction(12, 5))
        svg = svg_emit(layouts["chile-1818"], opts).decode()
        assert 'width="2.4"' in svg
        # emitted height must equal 2.4 divided by the 6-digit ratio to
        # within one ulp of the 6-digit output
        height = next(
            part.split('"')[1] for part in svg.split() if part.startswith('height="')
        )
        expected = Fraction(12, 5) / Fraction("1.80171")
        assert abs(Fraction(height) - expected) <= Fraction(1, 10**5)

    def test_title_is_escaped(self):
        region = Region("all", ColorRole.RED, (lit(0), lit(1), lit(0), lit(1)))
        layout = FlagLayout.create(lit(1), lit(1), (region,), (), "<odd & name>")
        svg = svg_emit(layout).decode()
        assert "<title>&lt;odd &amp; name&gt;</title>" in svg
        spec = 'flag "A & <B>" { canvas 1 x 1; region all red rect 0 0 1 1; }'
        assert "\n<title>A &amp; &lt;B&gt;</title>\n" in svg_emit(lower_source(spec)).decode()

    @settings(max_examples=200, deadline=None)
    @given(st.text(st.sampled_from("&<>;#amplt \n\"'") | st.characters()))
    @example("A & \ud800")
    def test_title_escape_is_the_xml_sax_escape(self, name):
        # xml.sax.saxutils.escape is the reference; the renderer does not
        # import it (see test_cli.py::TestStartup)
        layout = UNIT_SQUARE._replace(provenance=name)
        surrogates = [c for c in name if "\ud800" <= c <= "\udfff"]
        if surrogates:  # a lone surrogate, which UTF-8 cannot encode
            with pytest.raises(UnencodableText, match=f"U\\+{ord(surrogates[0]):04X}"):
                svg_emit(layout)
            return
        svg = svg_emit(layout).decode()
        assert svg.split("\n", 2)[2].startswith(f"<title>{escape(name)}</title>\n<polygon ")

    def test_an_edge_at_the_top_asks_no_sign(self, monkeypatch):
        # the band's top edge is written y = 0 under an irrational canvas
        # height; it is rendered from that literal, with no zero proof
        layout = lower_source("""
        flag "bands" {
          canvas 1 x phi;
          region top    blue rect 0 0 1 1;
          region bottom red  rect 0 1 1 phi - 1;
        }
        """)
        calls = []

        def counting(*args):
            calls.append(args)
            return certified_sign(*args)

        monkeypatch.setattr(decimalfmt, "certified_sign", counting)
        doc = json.loads(json_emit(layout))
        assert doc["regions"][0]["vertices"][2:] == [["1", "0"], ["0", "0"]]
        assert calls == []


class TestJson:
    def test_current_star_center_in_canvas_units(self, layouts):
        doc = json.loads(json_emit(layouts["chile-current"]))
        assert doc["stars"][0]["center"] == ["0.5", "0.5"]

    def test_independence_ratio_field_at_six_digits(self, layouts):
        doc = json.loads(json_emit(layouts["chile-1818"], RenderOptions(digits=6)))
        assert doc["ratio"] == "1.80171"

    def test_togo_width_at_six_digits(self, layouts):
        doc = json.loads(json_emit(layouts["togo"], RenderOptions(digits=6)))
        assert doc["canvas"]["width"] == "1.61803"

    def test_key_order_is_documented_and_stable(self, layouts):
        doc = json.loads(json_emit(layouts["chile-current"]))
        assert list(doc) == ["flag", "canvas", "ratio", "regions", "stars"]
        assert list(doc["regions"][0]) == ["name", "color", "vertices"]
        assert list(doc["stars"][0]) == ["color", "center", "circumradius", "vertices"]

    def test_star_has_ten_vertices(self, layouts):
        doc = json.loads(json_emit(layouts["chile-1818"]))
        assert len(doc["stars"][0]["vertices"]) == 10


class TestPrecisionSoundness:
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_reevaluation_at_quadruple_precision_reproduces_strings(self, name, layouts):
        opts = RenderOptions(digits=10)
        layout = layouts[name]
        doc = json.loads(json_emit(layout, opts))
        frame = _Frame(layout, opts)

        def recheck(text: str, expr) -> None:
            assert within_half_ulp(expr, text, opts.digits)

        recheck(doc["canvas"]["width"], mul(layout.width, frame.scale))
        recheck(doc["canvas"]["height"], mul(layout.height, frame.scale))
        for region, emitted in zip(layout.regions, doc["regions"]):
            for point, (x_text, y_text) in zip(region.polygon, emitted["vertices"]):
                recheck(x_text, mul(point.x, frame.scale))
                recheck(y_text, mul(point.y, frame.scale))

    def test_monotone_refinement_of_digits(self, layouts):
        ratio = layouts["chile-1818"].width_height_ratio()
        coarse = Fraction(decimal_str(ratio, 6))
        fine = Fraction(decimal_str(ratio, 14))
        # refining digits never moves the value by more than one ulp of
        # the coarser rendering
        assert abs(coarse - fine) <= Fraction(1, 10**5)


class TestOptions:
    def test_digits_floor(self):
        with pytest.raises(ValueError):
            RenderOptions(digits=2)

    def test_digits_ceiling(self):
        RenderOptions(digits=4300)
        with pytest.raises(ValueError, match="^digits must be at most 4300, got 5000$"):
            RenderOptions(digits=5000)

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            RenderOptions(scale=Fraction(-1))

    def test_target_width_must_be_positive(self):
        with pytest.raises(ValueError, match="^target width must be positive$"):
            RenderOptions(target_width=0)


# a + b*phi, rational when b is 0
rationals = st.fractions(min_value=-20, max_value=20, max_denominator=60)
values = st.one_of(
    rationals.map(lit),
    st.builds(lambda a, b: add(lit(a), mul(lit(b), PHI_EXPR)), rationals, rationals),
)
points = st.builds(Point, values, values)
positives = st.builds(
    lambda a, b: add(lit(abs(a) + Fraction(1, 50)), mul(lit(abs(b)), PHI_EXPR)), rationals, rationals
)
sizes = st.fractions(min_value=Fraction(1, 50), max_value=400, max_denominator=50)
# RenderOptions by scale or by target width, at 3 to 60 digits
options = st.builds(
    lambda size, by_width, digits: RenderOptions(
        digits=digits, **{"target_width" if by_width else "scale": size}
    ),
    sizes, st.booleans(), st.integers(3, 60),
)

# sqrt(2) - (its first 30 decimals) lies in (0, 10**-30): at 3 digits'
# 64 bits, its enclosure straddles zero
NEAR_ZERO = sub(sqrt_(lit(2)), lit(Fraction(isqrt(2 * 10**60), 10**30)))


def frame_of(width, height, opts: RenderOptions) -> _Frame:
    return _Frame(FlagLayout(width, height, (), (), "frame"), opts)


def by_decimal_str(frame: _Frame, point: Point) -> tuple[str, str]:
    """The reference: each coordinate's expression printed by decimal_str."""
    return tuple(decimal_str(mul(value, frame.scale), frame.digits) for value in point)


class TestSharedEnclosures:
    """A coordinate printed from its parts' enclosures is the one
    decimal_str prints from its expression."""

    @settings(max_examples=80, deadline=None)
    @given(positives, positives, options, st.lists(points, min_size=1, max_size=4))
    def test_points_print_as_decimal_str(self, width, height, opts, targets):
        frame = frame_of(width, height, opts)
        for point in targets:
            assert frame.point(point) == by_decimal_str(frame, point)

    @settings(max_examples=60, deadline=None)
    @given(positives, options, points, positives)
    def test_star_vertices_print_as_decimal_str(self, width, opts, center, radius):
        frame = frame_of(width, width, opts)
        star = Pentagram(center, radius)
        assert frame.vertices(star) == [by_decimal_str(frame, vertex) for vertex in pentagram_vertices(star)]

    @settings(max_examples=60, deadline=None)
    @given(positives, positives, options, points, positives)
    def test_the_canvas_size_and_circumradius_print_as_decimal_str(self, width, height, opts, center, radius):
        # options by target width too, where the canvas width prints exactly it
        star = Pentagram(center, radius)
        layout = FlagLayout(width, height, (), (Star(ColorRole.WHITE, star),), "frame")
        doc = json.loads(json_emit(layout, opts))
        frame = _Frame(layout, opts)
        assert (doc["canvas"]["width"], doc["canvas"]["height"]) == by_decimal_str(frame, Point(width, height))
        (printed,) = doc["stars"]
        assert printed["circumradius"] == decimal_str(mul(radius, frame.scale), opts.digits)
        assert printed["center"] == list(by_decimal_str(frame, center))

    @pytest.fixture
    def printed(self, monkeypatch):
        """The values render printed through decimal_str."""
        values = []

        def recording(value, digits):
            values.append(value)
            return decimal_str(value, digits)

        monkeypatch.setattr(render, "decimal_str", recording)
        return values

    UNIT = lit(1), lit(1)

    def test_an_exact_tie_falls_back(self, printed):
        # 2 * 247/4000 = 0.1235 through sqrt(2)*sqrt(2): half-even at 3 digits
        tie = mul(mul(sqrt_(lit(2)), sqrt_(lit(2))), lit(Fraction(247, 4000)))
        frame = frame_of(*self.UNIT, RenderOptions(digits=3))
        assert frame.point(Point(tie, lit(Fraction(1, 3)))) == ("0.124", "0.333")
        assert printed == [tie]

    def test_an_exact_zero_through_a_non_literal_falls_back(self, printed):
        zero = sub(PHI_EXPR, PHI_EXPR)
        frame = frame_of(*self.UNIT, RenderOptions(digits=12))
        assert frame.point(Point(zero, lit(1))) == ("0", "1")
        assert printed == [zero]

    def test_a_straddling_divisor_falls_back(self, printed):
        x = div(lit(Fraction(1, 10**31)), NEAR_ZERO)
        frame = frame_of(*self.UNIT, RenderOptions(digits=3))
        assert frame.point(Point(x, lit(1))) == by_decimal_str(frame, Point(x, lit(1)))
        assert printed == [x]
        # a scale whose divisor straddles: every coordinate falls back
        frame = frame_of(NEAR_ZERO, lit(1), RenderOptions(digits=3, target_width=2))
        star = Pentagram(Point(lit(Fraction(1, 3)), lit(0)), lit(Fraction(1, 4)))
        printed.clear()
        vertices = pentagram_vertices(star)
        assert frame.vertices(star) == [by_decimal_str(frame, vertex) for vertex in vertices]
        # once per distinct vertex node: the top and bottom share the center's x
        assert len(printed) == len({node for vertex in vertices for node in vertex}) < 20

    @pytest.fixture
    def built_vertices(self, monkeypatch):
        """The stars whose vertex expressions render built."""
        stars = []

        def recording(star):
            stars.append(star)
            return pentagram_vertices(star)

        monkeypatch.setattr(render, "pentagram_vertices", recording)
        return stars

    def test_a_vertex_falls_back_to_pentagram_vertices(self, printed, built_vertices):
        # the top and bottom vertices' x is the center's, NEAR_ZERO, whose
        # enclosure at 3 digits' 64 bits straddles zero, printed once; the
        # other vertices settle from the enclosures of their parts
        star = Pentagram(Point(NEAR_ZERO, lit(Fraction(1, 2))), lit(Fraction(1, 4)))
        frame = frame_of(*self.UNIT, RenderOptions(digits=3))
        assert frame.vertices(star) == [by_decimal_str(frame, vertex) for vertex in pentagram_vertices(star)]
        assert built_vertices == [star]
        assert printed == [NEAR_ZERO]

    def test_one_product_per_spoke_magnitude(self):
        # a spoke's unit is +-0, +-1, +-sin36, +-cos36, +-sin72 or +-cos72,
        # so each radius times a magnitude is one product for the star
        star = Pentagram(Point(add(lit(1), PHI_EXPR), lit(Fraction(1, 2))), mul(lit(Fraction(1, 4)), PHI_EXPR))
        frame = frame_of(*self.UNIT, RenderOptions(digits=12, scale=Fraction(7, 3)))
        products = []

        def counting(x, y):
            products.append(y)
            return multiply(x, y)

        multiply, frame._mul = frame._mul, counting
        vertices = frame.vertices(star)
        spokes = [y for y in products if y is not frame._scale]  # not the center's or circumradius's scaling
        assert len(products) - len(spokes) == 3
        assert len(spokes) <= 12
        assert vertices == [by_decimal_str(frame, vertex) for vertex in pentagram_vertices(star)]

    def test_a_star_that_settles_builds_no_vertex(self, built_vertices):
        star = Pentagram(Point(lit(Fraction(1, 2)), lit(Fraction(1, 2))), lit(Fraction(1, 4)))
        frame_of(*self.UNIT, RenderOptions(digits=3)).vertices(star)
        assert built_vertices == []


class TestCoordinateMemo:
    """One emit prints each distinct coordinate node once, on either axis."""

    # the stripes share their y nodes, and each polygon names every corner
    # node twice
    STRIPES = lower_source("""
    flag "stripes" {
      canvas 3 x 3*phi;
      region a red   rect 0 0 3 phi;
      region b white rect 0 phi 3 phi;
      region c blue  rect 0 phi + phi 3 phi;
    }
    """)

    @pytest.fixture
    def settled_calls(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return decimalfmt.settled(*args)

        monkeypatch.setattr(render, "settled", counting)
        return calls

    def test_each_distinct_coordinate_is_settled_once_per_emit(self, settled_calls):
        corners = [p for region in self.STRIPES.regions for p in region.polygon]
        distinct = {node for p in corners for node in p}  # nodes hash by identity
        # 0, 3, phi, 2*phi and 3*phi: 0 is on both axes
        assert len(distinct) == 5
        # the canvas width is the corners' 3; its height, the node 3*phi, is
        # not the corners' phi + phi + phi
        distinct |= {self.STRIPES.width, self.STRIPES.height}
        assert len(distinct) == 6
        first = svg_emit(self.STRIPES)
        assert len(settled_calls) == len(distinct)
        # a second emit does the work again: no printed coordinate outlives
        # the emit that printed it
        assert svg_emit(self.STRIPES) == first
        assert len(settled_calls) == 2 * len(distinct)


def settled_by_definition(lo: int, hi: int, w: int, digits: int) -> str | None:
    """The reference: both ends rounded, and printed when they agree."""
    low = decimalfmt.round_scaled(lo, w, digits)
    return decimalfmt.format_rounded(low, digits) if low == decimalfmt.round_scaled(hi, w, digits) else None


precisions = st.integers(0, 12_032)
digit_counts = st.integers(1, 80)


@st.composite
def intervals(draw) -> tuple[int, int, int, int]:
    """Any interval, its ends within a few hundred bits of 1, from a
    point to a wide one, on either side of zero or across it."""
    w, digits = draw(precisions), draw(digit_counts)
    lo = draw(st.integers(-(2 ** (w + 300)), 2 ** (w + 300)))
    return lo, lo + draw(st.integers(0, 2 ** draw(st.integers(0, w + 300)))), w, digits


@st.composite
def around_zero(draw) -> tuple[int, int, int, int]:
    """Intervals that touch or straddle zero, and ones just beside it."""
    lo = draw(st.integers(-4, 4))
    return lo, lo + draw(st.integers(0, 4)), draw(precisions), draw(digit_counts)


@st.composite
def at_ties(draw) -> tuple[int, int, int, int]:
    """Intervals with an end on or beside the tie ``(q + 1/2) *
    10**e`` between two adjacent outputs, for ``q`` even or odd, and the
    decade carry ``q = 99...9``, on either side of zero.  An exact tie
    needs ``2q + 1`` to be a multiple of ``5**-e`` and ``w >= 1 - e``, so
    half the ties are built that way."""
    if draw(st.booleans()):
        digits = draw(digit_counts)
        q = draw(st.one_of(st.integers(10 ** (digits - 1), 10**digits - 1), st.just(10**digits - 1)))
        e = draw(st.integers(-40, 40))
    else:  # 2q + 1 = u * 5**j, an exact tie at e = -j
        u, j = 2 * draw(st.integers(0, 2**150)) + 1, draw(st.integers(0, 60))
        q, e = (u * 5**j - 1) // 2, -j
        digits = len(str(q))
        assume(digits <= 80)
    w = draw(precisions)
    num, den = (2 * q + 1) * 10 ** max(e, 0) << w, 2 * 10 ** max(-e, 0)
    tie = num // den  # the tie's floor at scale 2**-w
    lo, hi = sorted((tie - draw(st.integers(-3, 3)), tie + draw(st.integers(-3, 3))))
    return (-hi, -lo, w, digits) if draw(st.booleans()) else (lo, hi, w, digits)


class TestSettled:
    """``settled`` rounds the end nearer zero only, and is still the
    rounding of both ends when they agree."""

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(intervals(), around_zero(), at_ties()))
    @example((0, 0, 64, 12))
    @example((-1, 0, 64, 12))
    @example((0, 1, 0, 1))
    @example((19, 19, 1, 1))  # 9.5, odd: carried to 10
    @example((17, 19, 1, 1))  # 8.5 to 9.5: 8 and 10
    @example((15, 17, 1, 1))  # 7.5 to 8.5: 8 at both ties
    @example((-17, -15, 1, 1))
    def test_it_is_the_rounding_of_both_ends(self, case):
        assert decimalfmt.settled(*case) == settled_by_definition(*case)

    @pytest.mark.parametrize("lo, hi, w, digits, text", [
        (0, 0, 80, 12, "0"),
        (-1, 1, 80, 12, None),
        (0, 1, 80, 12, None),
        (15, 17, 1, 1, "8"),
        (17, 19, 1, 1, None),
        ((19 << 40) - 1, 19 << 40, 41, 1, None),  # 9.5 is carried, just below it is not
        ((19 << 40) - 2, (19 << 40) - 1, 41, 1, "9"),
        (-17, -15, 1, 1, "-8"),
    ])
    def test_zeros_ties_and_carries(self, lo, hi, w, digits, text):
        assert decimalfmt.settled(lo, hi, w, digits) == text == settled_by_definition(lo, hi, w, digits)

    def test_an_enclosure_across_zero_is_not_rounded(self, monkeypatch):
        # NEAR_ZERO's 64-bit enclosure straddles zero and the next one
        # settles: only that one's near end is rounded
        calls, rounding = [], decimalfmt.round_scaled

        def counting(*args):
            calls.append(args)
            return rounding(*args)

        monkeypatch.setattr(decimalfmt, "round_scaled", counting)
        decimal_str(NEAR_ZERO, 3)
        assert len(calls) == 1
