"""Planar primitives: rectangle centers, pentagram exactness."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldenflag.errors import CertificationError
from goldenflag.exactnum import (
    SQRT5_EXPR,
    Sign,
    Verdict,
    add,
    certified_sign,
    compare_values,
    div,
    lit,
    mul,
    square_of,
    sub,
    verify_identity,
)
from goldenflag.geometry import (
    SIN36,
    TAN36,
    Pentagram,
    Point,
    pentagram_vertices,
    rect_diagonal_intersection,
)

positive_rationals = st.fractions(min_value=Fraction(1, 10), max_value=20, max_denominator=12)
coords = st.fractions(min_value=-10, max_value=10, max_denominator=12)


def rational_point(x, y) -> Point:
    return Point(lit(x), lit(y))


class TestRect:
    def test_unit_square_center(self):
        center = rect_diagonal_intersection(lit(0), lit(0), lit(1), lit(1))
        assert center.x == lit(Fraction(1, 2))
        assert center.y == lit(Fraction(1, 2))

    def test_offset_rectangle_center(self):
        center = rect_diagonal_intersection(lit(2), lit(3), lit(4), lit(2))
        assert center.x == lit(4)
        assert center.y == lit(4)

    def test_independence_blue_rectangle_center(self):
        blue_width = div(lit(1), TAN36)
        center = rect_diagonal_intersection(lit(0), lit(0), blue_width, lit(1))
        assert compare_values(center.x, div(blue_width, lit(2))) is Verdict.PROVED_EQUAL
        assert center.y == lit(Fraction(1, 2))


@pytest.fixture(scope="module")
def unit_star_vertices():
    return pentagram_vertices(Pentagram(rational_point(0, 0), lit(1)))


class TestPentagram:
    def test_needs_positive_radius(self):
        with pytest.raises(CertificationError, match="^circumradius is not certified positive$"):
            Pentagram(rational_point(0, 0), lit(0))

    def test_ten_vertices_starting_at_the_top(self, unit_star_vertices):
        assert len(unit_star_vertices) == 10
        top = unit_star_vertices[0]
        # y grows downward, so the top vertex is at cy - r
        assert top.x == lit(0)
        assert top.y == lit(-1)

    def test_outer_vertices_on_the_circumcircle(self, unit_star_vertices):
        for vertex in unit_star_vertices[0::2]:
            dist2 = add(square_of(vertex.x), square_of(vertex.y))
            assert verify_identity(dist2, lit(1)) is Verdict.PROVED_EQUAL

    def test_inner_radius_ratio_is_inverse_phi_squared(self, unit_star_vertices):
        # 1/phi^2 = (3 - sqrt5)/2 ~ 0.381966
        expected = div(sub(lit(3), SQRT5_EXPR), lit(2))
        for vertex in unit_star_vertices[1::2]:
            dist2 = add(square_of(vertex.x), square_of(vertex.y))
            assert verify_identity(dist2, square_of(expected)) is Verdict.PROVED_EQUAL

    def test_adjacent_outer_vertices_subtend_72_degrees(self, unit_star_vertices):
        # chord length between adjacent outer vertices is 2 sin(36)
        a, b = unit_star_vertices[0], unit_star_vertices[2]
        chord2 = add(square_of(sub(a.x, b.x)), square_of(sub(a.y, b.y)))
        assert verify_identity(chord2, mul(lit(4), square_of(SIN36))) is Verdict.PROVED_EQUAL

    def test_boundary_is_simple_with_alternating_turns(self, unit_star_vertices):
        vertices = unit_star_vertices
        turn_signs = []
        for i in range(10):
            a = vertices[i]
            b = vertices[(i + 1) % 10]
            c = vertices[(i + 2) % 10]
            cross = sub(
                mul(sub(b.x, a.x), sub(c.y, b.y)),
                mul(sub(b.y, a.y), sub(c.x, b.x)),
            )
            turn_signs.append(certified_sign(cross))
        # the turn at an inner (reflex) vertex has the opposite sense of
        # the turn at an outer (convex) vertex, strictly alternating
        assert all(s is not Sign.ZERO for s in turn_signs)
        assert all(turn_signs[i] is not turn_signs[(i + 1) % 10] for i in range(10))

    def test_vertices_are_deterministic(self, unit_star_vertices):
        again = pentagram_vertices(Pentagram(rational_point(0, 0), lit(1)))
        assert again == unit_star_vertices

    @given(coords, coords, positive_rationals)
    @settings(max_examples=25, deadline=None)
    def test_distance_invariants_at_any_center_and_radius(self, cx, cy, radius):
        star = Pentagram(rational_point(cx, cy), lit(radius))
        vertices = pentagram_vertices(star)
        radius2 = lit(radius * radius)
        for vertex in vertices[0::2]:
            dist2 = add(
                square_of(sub(vertex.x, lit(cx))), square_of(sub(vertex.y, lit(cy)))
            )
            assert verify_identity(dist2, radius2) is Verdict.PROVED_EQUAL
