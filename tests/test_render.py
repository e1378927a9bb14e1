"""Deterministic SVG/JSON emission and the certified decimal policy."""

from __future__ import annotations

import json
from fractions import Fraction
from math import isqrt
from xml.sax.saxutils import escape

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from goldenflag import render
from goldenflag.constructions import BUILTIN_NAMES, ColorRole, FlagLayout, Region
from goldenflag.errors import UnencodableText
from goldenflag.exactnum import (
    PHI_EXPR, add, certified_sign, decimal_str, decimalfmt, div, lit, mul, sqrt_, sub,
)
from goldenflag.flagspec import lower_source
from goldenflag.geometry import Pentagram, Point, Rect, pentagram_vertices
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
        canvas = Rect(Point(lit(0), lit(0)), lit(1), lit(1))
        region = Region.from_rect("all", ColorRole.RED, canvas)
        layout = FlagLayout.create(canvas, (region,), (), "<odd & name>")
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

        recheck(doc["canvas"]["width"], frame.width)
        recheck(doc["canvas"]["height"], frame.height)
        for region, emitted in zip(layout.regions, doc["regions"]):
            for point, (x_text, y_text) in zip(region.polygon, emitted["vertices"]):
                recheck(x_text, mul(sub(point.x, frame.origin.x), frame.scale))
                recheck(y_text, mul(sub(point.y, frame.origin.y), frame.scale))

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

    def test_scale_must_be_positive(self):
        with pytest.raises(ValueError):
            RenderOptions(scale=Fraction(-1))


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


def frame_of(origin: Point, width, height, opts: RenderOptions) -> _Frame:
    return _Frame(FlagLayout(Rect(origin, width, height), (), (), "frame"), opts)


def by_decimal_str(frame: _Frame, point: Point) -> tuple[str, str]:
    """The reference: each coordinate's expression printed by decimal_str."""
    return tuple(
        decimal_str(mul(sub(value, origin), frame.scale), frame.digits)
        for value, origin in zip(point, frame.origin)
    )


class TestSharedEnclosures:
    """A coordinate printed from its parts' enclosures is the one
    decimal_str prints from its expression."""

    @settings(max_examples=80, deadline=None)
    @given(points, positives, positives, options, st.lists(points, min_size=1, max_size=4))
    def test_points_print_as_decimal_str(self, origin, width, height, opts, targets):
        frame = frame_of(origin, width, height, opts)
        for point in targets:
            assert frame.point(point) == by_decimal_str(frame, point)

    @settings(max_examples=60, deadline=None)
    @given(points, positives, options, points, positives)
    def test_star_vertices_print_as_decimal_str(self, origin, width, opts, center, radius):
        frame = frame_of(origin, width, width, opts)
        star = Pentagram(center, radius)
        assert frame.vertices(star) == [by_decimal_str(frame, vertex) for vertex in pentagram_vertices(star)]

    @pytest.fixture
    def printed(self, monkeypatch):
        """The values render printed through decimal_str."""
        values = []

        def recording(value, digits):
            values.append(value)
            return decimal_str(value, digits)

        monkeypatch.setattr(render, "decimal_str", recording)
        return values

    UNIT = Point(lit(0), lit(0)), lit(1), lit(1)

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
        frame = frame_of(Point(lit(0), lit(0)), NEAR_ZERO, lit(1), RenderOptions(digits=3, target_width=2))
        star = Pentagram(Point(lit(Fraction(1, 3)), lit(0)), lit(Fraction(1, 4)))
        printed.clear()
        assert frame.vertices(star) == [by_decimal_str(frame, vertex) for vertex in pentagram_vertices(star)]
        assert len(printed) == 20
