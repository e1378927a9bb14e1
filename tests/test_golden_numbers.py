"""The quadratic-field scalar type: arithmetic, signs, and field axioms."""

from __future__ import annotations

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldenflag.errors import DivisionByZero
from goldenflag.exactnum import (
    GN_ONE,
    GN_ZERO,
    PHI,
    GoldenNumber,
    Sign,
    gn_sqrt,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=40)
golden_numbers = st.builds(GoldenNumber, rationals, rationals)
nonzero_golden = golden_numbers.filter(lambda g: not g.is_zero)


class TestDefiningIdentities:
    def test_phi_squared_is_phi_plus_one(self):
        assert PHI * PHI == PHI + GN_ONE

    def test_phi_satisfies_its_polynomial_exactly(self):
        assert (PHI * PHI - PHI - GN_ONE).is_zero

    def test_reciprocal_of_phi(self):
        assert GN_ONE / PHI == PHI - GN_ONE

    def test_conjugate_product_collapses_to_one(self):
        # (2 + sqrt5)(-2 + sqrt5) = 5 - 4 = 1
        assert GoldenNumber(2, 1) * GoldenNumber(-2, 1) == GN_ONE


class TestArithDispatch:
    @pytest.mark.parametrize(
        "op,expected",
        [
            ("add", GoldenNumber(Fraction(5, 2), Fraction(3, 2))),
            ("sub", GoldenNumber(Fraction(-3, 2), Fraction(-1, 2))),
            ("mul", GoldenNumber(Fraction(7, 2), Fraction(3, 2))),
        ],
    )
    def test_named_operations(self, op, expected):
        assert getattr(operator, op)(PHI, GoldenNumber(2, 1)) == expected

    def test_division_uses_conjugate(self):
        quotient = GN_ONE / GoldenNumber(2, 1)
        assert quotient == GoldenNumber(-2, 1)  # 1/(2+sqrt5) = sqrt5 - 2
        assert quotient * GoldenNumber(2, 1) == GN_ONE

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            PHI / GN_ZERO

    def test_unknown_operation(self):
        # the field operations are + - * / only
        with pytest.raises(TypeError):
            PHI ** PHI


class TestSign:
    def test_phi_is_positive(self):
        assert PHI.sign() is Sign.POSITIVE

    def test_zero(self):
        assert GN_ZERO.sign() is Sign.ZERO

    def test_close_call_decided_by_integer_comparison(self):
        # 9/4 - sqrt5: (9/4)^2 = 81/16 against 5 = 80/16
        assert GoldenNumber(Fraction(9, 4), -1).sign() is Sign.POSITIVE
        assert GoldenNumber(Fraction(89, 40), -1).sign() is Sign.NEGATIVE

    @given(golden_numbers)
    def test_sign_is_consistent_with_negation(self, g):
        assert g.sign().value == -(-g).sign().value


class TestFieldAxioms:
    @given(golden_numbers, golden_numbers, golden_numbers)
    def test_addition_and_multiplication_laws(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z

    @given(nonzero_golden)
    @settings(max_examples=200)
    def test_multiplicative_inverse(self, x):
        assert x * x.inverse() == GN_ONE

    @given(golden_numbers)
    def test_additive_inverse(self, x):
        assert (x + (-x)).is_zero


class TestFieldSquareRoot:
    def test_recovers_phi_squared_root(self):
        assert gn_sqrt(PHI * PHI) == PHI

    def test_rational_and_five_fold_squares(self):
        assert gn_sqrt(GoldenNumber(Fraction(9, 4), 0)) == GoldenNumber(Fraction(3, 2), 0)
        assert gn_sqrt(GoldenNumber(20, 0)) == GoldenNumber(0, 2)

    def test_non_squares_return_none(self):
        assert gn_sqrt(GoldenNumber(2, 0)) is None
        assert gn_sqrt(GoldenNumber(10, -2)) is None

    def test_negative_has_no_root(self):
        assert gn_sqrt(-GN_ONE) is None

    @given(golden_numbers)
    @settings(max_examples=200)
    def test_square_then_root_roundtrips(self, g):
        root = gn_sqrt(g * g)
        assert root is not None
        assert root * root == g * g
