"""Deterministic SVG/JSON emission and the certified decimal policy."""

from __future__ import annotations

import json
from fractions import Fraction
from xml.sax.saxutils import escape

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldenflag.constructions import BUILTIN_NAMES, ColorRole, FlagLayout, Region
from goldenflag.exactnum import certified_sign, decimal_str, decimalfmt, lit, mul, sub
from goldenflag.flagspec import lower_source
from goldenflag.geometry import Point, Rect
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
    def test_title_escape_is_the_xml_sax_escape(self, name):
        # xml.sax.saxutils.escape is the reference; the renderer does not
        # import it (see test_cli.py::TestStartup)
        svg = svg_emit(UNIT_SQUARE._replace(provenance=name)).decode()
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
