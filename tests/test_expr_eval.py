"""Expression construction, certified evaluation, and decimal policy."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldenflag.errors import CertificationError, DivisionByZero
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
    enclosure_memo,
    lit,
    mul,
    neg,
    sqrt_,
    sub,
)
from goldenflag.exactnum import expr as expr_module
from goldenflag.exactnum import interval as iv
from goldenflag.exactnum.decimalfmt import MAX_DIGITS, round_scaled, round_significant
from goldenflag.exactnum.expr import interval_algebra, enclosures, eval_interval, exact_sign, fold
from goldenflag.geometry import TAN36

from conftest import (
    decimal_oracle_tan36,
    enclosure,
    enclosure_sign,
    expansion_begins,
    golden_expr,
    relative_radius,
    within_half_ulp,
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
            radii = [Fraction(hi - lo, 2**w) for w, lo, hi in islice(enclosures(expr, 64), 7)]
            assert len(radii) == 7
            assert all(r2 <= r1 for r1, r2 in zip(radii, radii[1:]))

    @given(rationals, rationals)
    @settings(max_examples=150)
    def test_ball_contains_the_exact_field_value(self, a, b):
        expr = golden_expr((a, b))
        assert exact_sign(sub(sub(expr, lit(a)), mul(lit(b), SQRT5_EXPR))) is Sign.ZERO
        lo, hi = enclosure(expr, 96)
        # exact containment: value - lo >= 0 and hi - value >= 0,
        # decided inside the field with no floating point
        assert GOLDEN.sign(GOLDEN.of(a - lo, b)).is_nonnegative
        assert GOLDEN.sign(GOLDEN.of(hi - a, -b)).is_nonnegative

    @given(rationals, rationals)
    @settings(max_examples=150)
    def test_interval_sign_agrees_with_exact_sign(self, a, b):
        sign = enclosure_sign(*enclosure(golden_expr((a, b)), 96))
        if sign is not None:
            assert sign is GOLDEN.sign(GOLDEN.of(a, b))


def four_corner_div(x, y, w):
    """The quotient interval as the floor of the least and the ceiling of
    the greatest of the four end-to-end quotients."""
    quotients = [Fraction(n << w, d) for n in x for d in y]
    return math.floor(min(quotients)), math.ceil(max(quotients))


ends = st.integers(-(2**80), 2**80)


class TestIntervalDiv:
    @given(ends, ends, ends, ends, st.integers(0, 96))
    @settings(max_examples=300)
    def test_two_divisions_match_the_four_corners(self, x0, x1, y0, y1, w):
        x, y = (min(x0, x1), max(x0, x1)), (min(y0, y1), max(y0, y1))
        if y[0] <= 0 <= y[1]:
            with pytest.raises(iv.StraddlesZero):
                iv.div(x, y, w)
        else:
            assert iv.div(x, y, w) == four_corner_div(x, y, w)


class TestEnclosureMemo:
    # sqrt(2) - 1414213562373095/10**15 is about 4.9e-16: its enclosure
    # straddles zero below 64 bits, so dividing by it fails there
    NEAR_ZERO = sub(sqrt_(lit(2)), lit(Fraction(1414213562373095, 10**15)))
    W = 40

    def test_a_fold_that_raises_keeps_only_enclosures_of_the_exact_values(self):
        shared = mul(PHI_EXPR, SQRT5_EXPR)
        failing = div(shared, self.NEAR_ZERO)
        x = add(add(shared, TAN36), failing)
        values: dict = {}
        fold(shared, *interval_algebra(self.W), values)  # seeded
        seeded = dict(values)
        with pytest.raises(iv.StraddlesZero):
            fold(x, *interval_algebra(self.W), values)
        assert values.items() >= seeded.items()
        assert failing not in values and x not in values
        assert TAN36 in values and self.NEAR_ZERO in values
        scale = 1 << self.W
        for node, (lo, hi) in values.items():
            # the enclosure at four times the precision contains the exact
            # value, and lies inside the one the fold kept
            fine_lo, fine_hi = enclosure(node, 4 * self.W)
            assert Fraction(lo, scale) <= fine_lo <= fine_hi <= Fraction(hi, scale)

    def test_enclosures_are_the_same_with_and_without_a_memo(self):
        values = [TAN36, div(lit(1), TAN36), add(PHI_EXPR, TAN36), div(PHI_EXPR, self.NEAR_ZERO)]
        for w in (64, 128, 256):
            with enclosure_memo():
                memoized = [eval_interval(x, w) for x in values]
            assert memoized == [eval_interval(x, w) for x in values]

    def test_an_inner_scope_joins_the_outer_one_and_the_memo_dies_with_the_outermost(self):
        assert expr_module._memo.get() is None
        with enclosure_memo():
            outer = expr_module._memo.get()
            eval_interval(PHI_EXPR, 64)
            with enclosure_memo():
                assert expr_module._memo.get() is outer
                eval_interval(div(lit(1), TAN36), 64)
            assert expr_module._memo.get() is outer
            assert SQRT5_EXPR in outer[64] and TAN36 in outer[64]
            with pytest.raises(iv.StraddlesZero), enclosure_memo():
                eval_interval(div(lit(1), self.NEAR_ZERO), 32)
            assert expr_module._memo.get() is outer and self.NEAR_ZERO in outer[32]
        assert expr_module._memo.get() is None
        with pytest.raises(iv.StraddlesZero), enclosure_memo():
            with enclosure_memo():
                eval_interval(div(lit(1), self.NEAR_ZERO), 32)
        assert expr_module._memo.get() is None

    def test_eval_interval_keeps_an_entry_it_found_and_drops_one_it_added(self):
        with enclosure_memo():
            values = expr_module._memo.get().setdefault(64, {})
            eval_interval(div(lit(1), TAN36), 64)
            found = values[TAN36]
            assert eval_interval(TAN36, 64) is found and values[TAN36] is found
            fresh = add(TAN36, lit(Fraction(1, 7)))
            eval_interval(fresh, 64)
            assert fresh not in values


# (m, w, digits) with m * 2**-w a rounding tie: (q + 1/2) * 10**-j with
# 2q + 1 = u * 5**j, for odd u, and digits the digit count of q
ties = st.builds(
    lambda u, j, sign: (sign * u, j + 1, len(str((u * 5**j - 1) // 2))),
    st.integers(0, 2**200).map(lambda k: 2 * k + 3),
    st.integers(0, 80),
    st.sampled_from([1, -1]),
)


class TestIntegerRounding:
    """``round_scaled`` against its reference, ``round_significant`` of a
    ``Fraction``."""

    @given(
        st.integers(-(2**4000), 2**4000),
        st.integers(0, 8192),
        st.one_of(st.integers(1, 40), st.integers(1, MAX_DIGITS)),
    )
    @settings(max_examples=300, deadline=None)
    def test_it_matches_the_fraction_rounding(self, m, w, digits):
        assert round_scaled(m, w, digits) == round_significant(Fraction(m, 1 << w), digits)

    @given(ties)
    @settings(max_examples=200, deadline=None)
    def test_exact_ties_round_half_even(self, tie):
        m, w, digits = tie
        rounded = round_scaled(m, w, digits)
        assert rounded == round_significant(Fraction(m, 1 << w), digits)
        assert rounded[1] % 2 == 0 or rounded[1] == 10 ** (digits - 1)  # even, or carried

    @pytest.mark.parametrize(
        "m,w,digits,expected",
        [
            (0, 0, 1, (False, 0, 0)),
            (0, 500, 12, (False, 0, 0)),
            (1, 3, 2, (False, 12, 0)),  # 0.125, a tie, to even
            (3, 3, 2, (False, 38, 0)),  # 0.375, a tie, to even
            (-5, 1, 1, (True, 2, 1)),  # -2.5, a tie, to even
            (19, 1, 1, (False, 1, 2)),  # 9.5, a tie, carried to 10
            ((1 << 20) - 1, 20, 3, (False, 100, 1)),  # 0.99999..., carried to 1
            (999 << 40, 40, 2, (False, 10, 4)),  # 999, carried to 1000
            (1, 8192, 1, round_significant(Fraction(1, 1 << 8192), 1)),
        ],
    )
    def test_zeros_ties_and_carries(self, m, w, digits, expected):
        assert round_scaled(m, w, digits) == expected
        assert round_significant(Fraction(m, 1 << w), digits) == expected


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

    @pytest.mark.parametrize("value", [lit(Fraction(3, 2)), TAN36])
    def test_fewer_than_one_digit_is_an_error(self, value):
        with pytest.raises(ValueError, match="digits must be >= 1"):
            decimal_str(value, 0)

    def test_certified_output_stable_under_extra_precision(self):
        for value in (TAN36, PHI_EXPR, SQRT5_EXPR):
            for digits in (1, 3, 12, 40):
                assert within_half_ulp(value, decimal_str(value, digits), digits)


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
        beside = decimal_str(lit(tie + self.TINY), digits)
        assert decimal_str(add(self.ZERO, lit(tie + self.TINY)), digits) == beside

    def test_it_is_not_a_divisor(self):
        with pytest.raises(DivisionByZero):
            div(lit(1), self.ZERO)


class TestNormalize:
    def test_phi_expression(self):
        assert exact_sign(sub(PHI_EXPR, golden_expr((Fraction(1, 2), Fraction(1, 2))))) is Sign.ZERO

    def test_sqrt_twenty_is_two_root_five(self):
        assert exact_sign(sub(Sqrt(Literal(Fraction(20))), golden_expr((0, 2)))) is Sign.ZERO

    def test_division_folds_through_conjugation(self):
        expr = div(lit(1), add(lit(2), SQRT5_EXPR))
        assert exact_sign(sub(expr, golden_expr((-2, 1)))) is Sign.ZERO

    def test_square_roots_of_field_squares(self):
        # sqrt(6 + 2 sqrt5) = 1 + sqrt5, and sqrt(2)**2 = 2
        assert exact_sign(sub(sqrt_(add(lit(6), mul(lit(2), SQRT5_EXPR))), golden_expr((1, 1)))) is Sign.ZERO
        assert exact_sign(sub(mul(sqrt_(lit(2)), sqrt_(lit(2))), golden_expr((2, 0)))) is Sign.ZERO

    def test_a_nested_radical_denests_in_the_tower(self):
        # sqrt(11 - 2*sqrt5 + 2*sqrt(10 - 2*sqrt5)) = 1 + sqrt(10 - 2*sqrt5)
        root = sqrt_(sub(lit(10), mul(lit(2), SQRT5_EXPR)))
        nested = sqrt_(add(sub(lit(11), mul(lit(2), SQRT5_EXPR)), mul(lit(2), root)))
        assert exact_sign(sub(nested, add(lit(1), root))) is Sign.ZERO
        assert exact_sign(sub(sub(nested, root), golden_expr((1, 0)))) is Sign.ZERO
