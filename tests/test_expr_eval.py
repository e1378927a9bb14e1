"""Expression construction, certified evaluation, and decimal policy."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldenflag.errors import CertificationError, DivisionByZero, NotInField
from goldenflag.exactnum import (
    PHI_EXPR,
    SQRT5_EXPR,
    GOLDEN,
    Literal,
    Sign,
    Sqrt,
    add,
    certified_sign,
    decimal_str,
    div,
    gn_normalize,
    gn_to_expr,
    lit,
    mul,
    neg,
    round_fraction_str,
    sqrt_,
    sub,
)
from goldenflag.exactnum.expr import enclosures, exact_sign
from goldenflag.geometry import TAN36

from conftest import (
    decimal_oracle_tan36,
    enclosure,
    enclosure_sign,
    expansion_begins,
    relative_radius,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=40)


class TestSmartConstructors:
    def test_rational_subtrees_fold_to_literals(self):
        assert add(lit(1), lit(Fraction(1, 2))) == lit(Fraction(3, 2))
        assert mul(lit(Fraction(3, 4)), lit(4)) == lit(3)
        assert div(lit(3), lit(10)) == lit(Fraction(3, 10))
        assert neg(lit(2)) == lit(-2)

    def test_identity_elements_vanish(self):
        assert add(lit(0), TAN36) is TAN36
        assert mul(TAN36, lit(1)) is TAN36
        assert mul(lit(0), TAN36) == lit(0)
        assert div(TAN36, lit(1)) is TAN36

    def test_perfect_square_roots_fold(self):
        assert sqrt_(lit(4)) == lit(2)
        assert sqrt_(lit(Fraction(9, 4))) == lit(Fraction(3, 2))
        assert sqrt_(lit(0)) == lit(0)
        assert isinstance(sqrt_(lit(5)), Sqrt)

    def test_operator_sugar(self):
        assert (lit(1) + lit(2)) == lit(3)
        assert (2 * SQRT5_EXPR) == mul(lit(2), SQRT5_EXPR)

    def test_division_by_certified_zero(self):
        with pytest.raises(DivisionByZero):
            div(lit(1), lit(0))
        # phi^2 - phi - 1 is exactly zero even though it is irrational-shaped
        zero = sub(sub(mul(PHI_EXPR, PHI_EXPR), PHI_EXPR), lit(1))
        with pytest.raises(DivisionByZero):
            div(lit(1), zero)

    def test_sqrt_of_certified_negative(self):
        with pytest.raises(CertificationError):
            sqrt_(lit(-1))
        with pytest.raises(CertificationError):
            sqrt_(sub(lit(0), lit(1)))


class TestExprEval:
    """Interval enclosures; one at ``bits + 32`` has a relative radius of
    at most ``2**-bits``."""

    def test_exact_literal_has_zero_radius(self):
        assert enclosure(lit(Fraction(3, 2)), 96) == (Fraction(3, 2), Fraction(3, 2))

    def test_tan36_ball_contains_independent_value(self):
        oracle = decimal_oracle_tan36()
        lo, hi = enclosure(TAN36, 96)
        assert lo <= oracle <= hi
        assert relative_radius(lo, hi) <= Fraction(1, 2**64)

    def test_relative_radius_contract(self):
        for bits in (16, 64, 128, 300):
            assert relative_radius(*enclosure(TAN36, bits + 32)) <= Fraction(1, 2**bits)

    def test_radius_shrinks_with_precision(self):
        expressions = [TAN36, PHI_EXPR, div(lit(1), TAN36)]
        for expr in expressions:
            radii = [Fraction(hi - lo, 2**w) for w, lo, hi in enclosures(expr, 64, 4096)]
            assert len(radii) == 7
            assert all(r2 <= r1 for r1, r2 in zip(radii, radii[1:]))

    @given(rationals, rationals)
    @settings(max_examples=150)
    def test_ball_contains_the_exact_field_value(self, a, b):
        g = (a, b)
        expr = gn_to_expr(g)
        assert gn_normalize(expr) == g
        lo, hi = enclosure(expr, 96)
        # exact containment: value - lo >= 0 and hi - value >= 0,
        # decided inside the field with no floating point
        assert GOLDEN.sign((a - lo, b)).is_nonnegative
        assert GOLDEN.sign((hi - a, -b)).is_nonnegative

    @given(rationals, rationals)
    @settings(max_examples=150)
    def test_interval_sign_agrees_with_exact_sign(self, a, b):
        g = (a, b)
        sign = enclosure_sign(*enclosure(gn_to_expr(g), 96))
        if sign is not None:
            assert sign is GOLDEN.sign(g)


class TestCertifiedSign:
    def test_exact_route(self):
        assert certified_sign(sub(mul(PHI_EXPR, PHI_EXPR), PHI_EXPR)) is Sign.POSITIVE
        assert certified_sign(sub(sub(mul(PHI_EXPR, PHI_EXPR), PHI_EXPR), lit(1))) is Sign.ZERO

    def test_interval_route_for_nested_radicals(self):
        nested = sub(sqrt_(sub(lit(118), mul(lit(48), sqrt_(lit(2))))), lit(6))
        assert certified_sign(nested) is Sign.POSITIVE


class TestDecimalPolicy:
    def test_round_half_even_at_ties(self):
        assert decimal_str(lit(Fraction(3, 20)), 1) == "0.2"   # 0.15 -> even 2
        assert decimal_str(lit(Fraction(1, 4)), 1) == "0.2"    # 0.25 -> even 2
        assert decimal_str(lit(Fraction(3, 4)), 1) == "0.8"    # 0.75 -> even 8
        assert decimal_str(lit(Fraction(1, 8)), 2) == "0.12"   # 0.125 -> even 12

    def test_trailing_zeros_trimmed(self):
        assert decimal_str(lit(Fraction(3, 2)), 6) == "1.5"
        assert decimal_str(lit(900), 12) == "900"
        assert decimal_str(lit(0), 6) == "0"
        assert decimal_str(lit(Fraction(-3, 2)), 4) == "-1.5"

    def test_small_magnitudes_keep_leading_zeros(self):
        assert decimal_str(lit(Fraction(123, 100000)), 3) == "0.00123"

    def test_carry_across_a_decade(self):
        assert decimal_str(lit(Fraction(99999, 100000)), 3) == "1"

    def test_rounding_versus_truncation_differ_for_tan36(self):
        # the expansion starts 0.72654...: rounded 3 significant digits
        # carry up, while the expansion begins with the prefix 0.726
        assert decimal_str(TAN36, 3) == "0.727"
        assert expansion_begins(TAN36, "0.726")
        assert not expansion_begins(TAN36, "0.727")

    def test_certified_output_stable_under_extra_precision(self):
        baseline = decimal_str(TAN36, 12)
        assert decimal_str(TAN36, 12, min_bits=2048) == baseline


class TestZeroBeyondTheTower:
    # sqrt(2) + sqrt(3) - sqrt(5 + 2*sqrt(6)): zero, with three
    # independent radicands, so no exact normal form decides it
    ZERO = sub(
        add(sqrt_(lit(2)), sqrt_(lit(3))),
        sqrt_(add(lit(5), mul(lit(2), sqrt_(lit(6))))),
    )
    TINY = Fraction(1, 10**30)

    def test_it_is_certified_zero(self):
        assert certified_sign(self.ZERO) is Sign.ZERO

    def test_it_renders_as_zero(self):
        assert decimal_str(self.ZERO, 12) == "0"
        assert expansion_begins(self.ZERO, "0.000")

    def test_tiny_values_beside_it_keep_their_sign(self):
        assert decimal_str(add(self.ZERO, lit(self.TINY)), 3) == decimal_str(lit(self.TINY), 3)
        assert decimal_str(sub(self.ZERO, lit(self.TINY)), 3) == decimal_str(lit(-self.TINY), 3)
        assert expansion_begins(add(self.ZERO, lit(self.TINY)), "0.000")
        assert not expansion_begins(sub(self.ZERO, lit(self.TINY)), "0.000")

    @pytest.mark.parametrize(
        "tie,digits,expected",
        [(Fraction(1, 8), 2, "0.12"), (Fraction(-5, 2), 1, "-2"), (Fraction(35, 2), 2, "18"), (Fraction(995, 1000), 2, "1")],
    )
    def test_exact_ties_beside_it_round_half_even(self, tie, digits, expected):
        assert decimal_str(add(self.ZERO, lit(tie)), digits) == expected
        # a value beside the tie is rounded by its enclosures
        beside = round_fraction_str(tie + self.TINY, digits)
        assert decimal_str(add(self.ZERO, lit(tie + self.TINY)), digits) == beside

    def test_it_is_not_a_divisor(self):
        with pytest.raises(DivisionByZero):
            div(lit(1), self.ZERO)


class TestNormalize:
    def test_phi_expression(self):
        assert gn_normalize(PHI_EXPR) == (Fraction(1, 2), Fraction(1, 2))

    def test_sqrt_twenty_is_two_root_five(self):
        assert gn_normalize(Sqrt(Literal(Fraction(20)))) == (0, 2)

    def test_nested_radical_is_out_of_field(self):
        with pytest.raises(NotInField):
            gn_normalize(sqrt_(sub(lit(10), mul(lit(2), SQRT5_EXPR))))

    def test_division_folds_through_conjugation(self):
        expr = div(lit(1), add(lit(2), SQRT5_EXPR))
        assert gn_normalize(expr) == (-2, 1)

    def test_square_roots_of_field_squares(self):
        # sqrt(6 + 2 sqrt5) = 1 + sqrt5, and sqrt(2)**2 = 2
        assert gn_normalize(sqrt_(add(lit(6), mul(lit(2), SQRT5_EXPR)))) == (1, 1)
        assert gn_normalize(mul(sqrt_(lit(2)), sqrt_(lit(2)))) == (2, 0)

    def test_a_nested_radical_denests_in_the_tower(self):
        # sqrt(11 - 2*sqrt5 + 2*sqrt(10 - 2*sqrt5)) = 1 + sqrt(10 - 2*sqrt5)
        root = sqrt_(sub(lit(10), mul(lit(2), SQRT5_EXPR)))
        nested = sqrt_(add(sub(lit(11), mul(lit(2), SQRT5_EXPR)), mul(lit(2), root)))
        assert exact_sign(sub(nested, add(lit(1), root))) is Sign.ZERO
        assert gn_normalize(sub(nested, root)) == (1, 0)
