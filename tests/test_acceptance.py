"""Acceptance suite: every stated criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from goldenflag.cli import main as cli_main
from goldenflag.constructions import (
    BUILTIN_NAMES,
    ColorRole,
    build_flag,
    verify_angle_configuration,
)
from goldenflag.exactnum import (
    PHI_EXPR,
    SQRT5_EXPR,
    GOLDEN,
    Verdict,
    add,
    div,
    exact_rational,
    lit,
    mul,
    sqrt_,
    square_of,
    sub,
    verify_identity,
)
from goldenflag.flagspec import lower_source
from goldenflag.geometry import TAN36, Pentagram, Point, pentagram_vertices
from goldenflag.render import json_emit, svg_emit

from goldenflag.exactnum import Sign, certified_sign
from goldenflag.exactnum.expr import exact_sign

from conftest import enclosure, enclosure_sign, expansion_begins, golden_expr


@contextmanager
def criterion(number: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:02d}: FAIL - {summary}")
        raise
    print(f"[acceptance] criterion {number:02d}: PASS - {summary}")


def test_01_tan36_truncation_prefix(capsys):
    with criterion(1, "tan(36) evaluates with printed truncation prefix 0.726"):
        started = time.monotonic()
        code = cli_main(
            ["eval", "sqrt(10-2*sqrt(5))/(1+sqrt(5))", "--digits", "10"]
        )
        elapsed = time.monotonic() - started
        out = capsys.readouterr().out.strip()
        assert code == 0
        assert out.startswith("0.726")
        assert out == "0.726542528"  # leading digits of 0.7265425280...
        assert expansion_begins(TAN36, "0.726")
        assert elapsed < 1.0


def test_02_tan36_identity_proved_exactly():
    with criterion(2, "both tan(36) closed forms proved equal in the exact field"):
        second_form = div(sqrt_(sqrt_(lit(5))), sqrt_(add(lit(2), SQRT5_EXPR)))
        assert verify_identity(TAN36, second_form) is Verdict.PROVED_EQUAL
        expected_square = golden_expr((5, -2))  # 5 - 2*sqrt5
        assert exact_sign(sub(square_of(TAN36), expected_square)) is Sign.ZERO
        assert exact_sign(sub(square_of(second_form), expected_square)) is Sign.ZERO


def test_03_flag_ratio_value_and_identities(layouts):
    with criterion(3, "canvas ratio begins 1.801 and equals both closed forms"):
        ratio = layouts["chile-1818"].width_height_ratio()
        assert expansion_begins(ratio, "1.801")
        closed = div(
            add(lit(2), SQRT5_EXPR), sqrt_(sub(lit(10), mul(lit(2), SQRT5_EXPR)))
        )
        assert verify_identity(ratio, closed) is Verdict.PROVED_EQUAL
        phi_form = div(mul(PHI_EXPR, PHI_EXPR), mul(lit(2), TAN36))
        assert verify_identity(ratio, phi_form) is Verdict.PROVED_EQUAL


def test_04_golden_ratios_in_the_layout(layouts):
    with criterion(4, "white/blue width and height/star-diameter both equal phi"):
        layout = layouts["chile-1818"]
        blue = next(r for r in layout.regions if r.color is ColorRole.BLUE)
        white = next(r for r in layout.regions if r.color is ColorRole.WHITE)
        blue_w = sub(blue.bounds[1], blue.bounds[0])
        blue_h = sub(blue.bounds[3], blue.bounds[2])
        white_w = sub(white.bounds[1], white.bounds[0])
        assert verify_identity(div(white_w, blue_w), PHI_EXPR) is Verdict.PROVED_EQUAL
        diameter = mul(lit(2), layout.stars[0].pentagram.circumradius)
        assert verify_identity(div(blue_h, diameter), PHI_EXPR) is Verdict.PROVED_EQUAL


def test_05_nepal_ratio_with_independent_oracle():
    with criterion(5, "nepal ratio begins 0.820 and matches a 200-digit oracle to 50 digits"):
        ratio = build_flag("nepal-ratio").width_height_ratio()
        assert expansion_begins(ratio, "0.820")
        # separately coded oracle: 200-digit decimal floating point,
        # evaluated straight from the printed formula
        with localcontext() as ctx:
            ctx.prec = 200
            root2 = Decimal(2).sqrt()
            shared = (297 - 180 * root2) / (92 - 36 * root2)
            numerator = 24 + shared * (
                1 + (8 - 3 * root2) / ((118 - 48 * root2).sqrt() - 6)
            )
            denominator = 32 + shared * (
                1 + 6 / ((8 - 3 * root2) * ((1 + 18 / (41 - 24 * root2)).sqrt() - 1))
            )
            oracle = Fraction(numerator / denominator)
        lo, hi = enclosure(ratio, 700 + 32)
        assert (hi - lo) / 2 < Fraction(1, 10**60)
        assert abs((lo + hi) / 2 - oracle) < Fraction(1, 10**50)


def test_06_current_flag_exact_proportions():
    with criterion(6, "current flag: ratio 3/2, star diameter s/2, six-square areas"):
        from test_constructions import CHILE_CURRENT_AT_SIDE_TWO

        layout = lower_source(CHILE_CURRENT_AT_SIDE_TWO)
        assert exact_rational(layout.width_height_ratio()) == Fraction(3, 2)
        side = Fraction(2)
        radius = layout.stars[0].pentagram.circumradius
        assert exact_rational(radius) == side / 4  # diameter = side/2
        areas = []
        for region in layout.regions:
            x0, x1, y0, y1 = region.bounds
            areas.append(exact_rational(mul(sub(x1, x0), sub(y1, y0))))
        assert areas == [side**2, 2 * side**2, 3 * side**2]
        canvas_area = exact_rational(mul(layout.width, layout.height))
        assert sum(areas) == canvas_area == 6 * side**2


def test_07_angle_configuration_at_two_scales(layouts, chile_1818_at):
    with criterion(7, "angle configuration fully proved at two scales"):
        for layout in (layouts["chile-1818"], chile_1818_at(Fraction(7, 3))):
            checks = verify_angle_configuration(layout, "blue_field")
            assert checks
            assert all(check.status.ok for check in checks)
            assert all(check.status is not Verdict.UNDECIDED for check in checks)


def test_08_pentagram_property_suite():
    with criterion(8, "pentagram: radius ratio (3-sqrt5)/2, equidistance, simplicity"):
        star = Pentagram(Point(lit(0), lit(0)), lit(1))
        vertices = pentagram_vertices(star)
        ratio_expected = div(sub(lit(3), SQRT5_EXPR), lit(2))
        for outer, inner in zip(vertices[0::2], vertices[1::2]):
            outer_d2 = add(square_of(outer.x), square_of(outer.y))
            inner_d2 = add(square_of(inner.x), square_of(inner.y))
            assert verify_identity(outer_d2, lit(1)) is Verdict.PROVED_EQUAL
            assert (
                verify_identity(inner_d2, square_of(ratio_expected))
                is Verdict.PROVED_EQUAL
            )
        turns = []
        for i in range(10):
            a, b, c = vertices[i], vertices[(i + 1) % 10], vertices[(i + 2) % 10]
            cross = sub(
                mul(sub(b.x, a.x), sub(c.y, b.y)), mul(sub(b.y, a.y), sub(c.x, b.x))
            )
            turns.append(certified_sign(cross))
        assert all(s is not Sign.ZERO for s in turns)
        assert all(turns[i] is not turns[(i + 1) % 10] for i in range(10))


def test_09_field_axioms_and_sign_agreement_at_scale():
    with criterion(9, "10,000 field-axiom triples and 10,000 sign agreements under 10 s"):
        started = time.monotonic()
        rng = random.Random(1818)

        def random_coordinates() -> tuple[Fraction, Fraction]:
            return (
                Fraction(rng.randint(-999, 999), rng.randint(1, 60)),
                Fraction(rng.randint(-999, 999), rng.randint(1, 60)),
            )

        def random_golden() -> tuple:
            return GOLDEN.of(*random_coordinates())

        add, mul, is_zero = GOLDEN.add, GOLDEN.mul, GOLDEN.is_zero
        for _ in range(10_000):
            x, y, z = random_golden(), random_golden(), random_golden()
            assert add(add(x, y), z) == add(x, add(y, z))
            assert add(x, y) == add(y, x)
            assert mul(mul(x, y), z) == mul(x, mul(y, z))
            assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
            assert is_zero(add(x, GOLDEN.neg(x)))
            if not is_zero(x):
                assert mul(x, GOLDEN.inverse(x)) == GOLDEN.one
        for _ in range(10_000):
            ab = random_coordinates()
            g = GOLDEN.of(*ab)
            if is_zero(g):
                continue
            sign = enclosure_sign(*enclosure(golden_expr(ab), 96))
            if sign is not None:
                assert sign is GOLDEN.sign(g)
        elapsed = time.monotonic() - started
        assert elapsed < 10.0


def test_10_parser_roundtrip_and_fuzz(layouts, spec_sources, tmp_path):
    with criterion(10, "builtins are the shipped specs; rendered bytes match the seed pins; "
                   "1,000 fuzzed inputs are total"):
        from test_builtins import VARIANTS, payload_sha256, pinned_payload

        for name in BUILTIN_NAMES:
            assert lower_source(spec_sources[name]) == layouts[name]
            for variant in VARIANTS:
                assert payload_sha256(name, variant, tmp_path) == pinned_payload(name, variant)

        from test_roundtrip_fuzz import _assert_total, _mutate

        rng = random.Random(36)
        originals = list(spec_sources.values())
        slowest = 0.0
        for index in range(1000):
            source = _mutate(originals[index % len(originals)], rng)
            started = time.monotonic()
            _assert_total(source)
            slowest = max(slowest, time.monotonic() - started)
        assert slowest < 5.0


def test_11_render_determinism_and_physical_scale(layouts, spec_sources):
    with criterion(11, "byte-identical renders; viewBox 900x600; 2.4 m height within one ulp"):
        for name in BUILTIN_NAMES:
            fresh = lower_source(spec_sources[name])
            assert svg_emit(layouts[name]) == svg_emit(fresh)
            assert json_emit(layouts[name]) == json_emit(fresh)
        svg = svg_emit(layouts["chile-current"], 300).decode()
        assert 'viewBox="0 0 900 600"' in svg

        layout = layouts["chile-1818"]
        doc = json.loads(json_emit(layout, div(lit(Fraction("2.4")), layout.width), 6))
        assert doc["canvas"]["width"] == "2.4"
        emitted_height = Fraction(doc["canvas"]["height"])
        six_digit_ratio = Fraction(doc["ratio"])
        assert doc["ratio"] == "1.80171"
        one_ulp = Fraction(1, 10**5)
        assert abs(emitted_height - Fraction("2.4") / six_digit_ratio) <= one_ulp
