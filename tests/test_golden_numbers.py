"""The quadratic-extension algebra at both levels: GOLDEN = Q(sqrt5)
and a tower level over it.  Arithmetic, signs, square roots and the
field axioms."""

from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldenflag.errors import DivisionByZero
from goldenflag.exactnum import GOLDEN, PHI, Quadratic, Sign

ONE, ZERO = GOLDEN.one, GOLDEN.zero
rationals = st.fractions(min_value=-50, max_value=50, max_denominator=40)
golden_numbers = st.tuples(rationals, rationals)
nonzero_golden = golden_numbers.filter(lambda g: not GOLDEN.is_zero(g))

# positive radicands that are not squares in GOLDEN: 2, the pentagon's
# 10 - 2*sqrt5, and 3 + sqrt5
TOWERS = [Quadratic(GOLDEN, r) for r in ((2, 0), (10, -2), (3, 1))]
small = st.fractions(min_value=-6, max_value=6, max_denominator=6)
small_golden = st.tuples(small, small)


@st.composite
def tower_elements(draw, count: int = 1):
    """A tower level and ``count`` of its elements, pairs over GOLDEN."""
    field = draw(st.sampled_from(TOWERS))
    return (field, *[draw(st.tuples(small_golden, small_golden)) for _ in range(count)])


def decimal_value(x, radicands) -> Decimal:
    """The value of a nested pair with ``radicands`` innermost first,
    in 60-digit decimal arithmetic."""
    if not isinstance(x, tuple):
        return Decimal(x.numerator) / Decimal(x.denominator)
    a, b = x
    inner = radicands[:-1]
    root = decimal_value(radicands[-1], inner).sqrt()
    return decimal_value(a, inner) + decimal_value(b, inner) * root


def sign_of(value: Decimal) -> Sign:
    return Sign.of_rational(Fraction(value))


class TestDefiningIdentities:
    def test_phi_squared_is_phi_plus_one(self):
        assert GOLDEN.mul(PHI, PHI) == GOLDEN.add(PHI, ONE)

    def test_phi_satisfies_its_polynomial_exactly(self):
        assert GOLDEN.is_zero(GOLDEN.sub(GOLDEN.sub(GOLDEN.mul(PHI, PHI), PHI), ONE))

    def test_reciprocal_of_phi(self):
        assert GOLDEN.div(ONE, PHI) == GOLDEN.sub(PHI, ONE)

    def test_conjugate_product_collapses_to_one(self):
        # (2 + sqrt5)(-2 + sqrt5) = 5 - 4 = 1
        assert GOLDEN.mul((2, 1), (-2, 1)) == ONE


class TestArithDispatch:
    @pytest.mark.parametrize(
        "op,expected",
        [
            ("add", (Fraction(5, 2), Fraction(3, 2))),
            ("sub", (Fraction(-3, 2), Fraction(-1, 2))),
            ("mul", (Fraction(7, 2), Fraction(3, 2))),
        ],
    )
    def test_named_operations(self, op, expected):
        assert getattr(GOLDEN, op)(PHI, (2, 1)) == expected

    def test_division_uses_conjugate(self):
        quotient = GOLDEN.div(ONE, (2, 1))
        assert quotient == (-2, 1)  # 1/(2+sqrt5) = sqrt5 - 2
        assert GOLDEN.mul(quotient, (2, 1)) == ONE

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            GOLDEN.div(PHI, ZERO)


class TestSign:
    def test_phi_is_positive(self):
        assert GOLDEN.sign(PHI) is Sign.POSITIVE

    def test_zero(self):
        assert GOLDEN.sign(ZERO) is Sign.ZERO

    def test_close_call_decided_by_integer_comparison(self):
        # 9/4 - sqrt5: (9/4)^2 = 81/16 against 5 = 80/16
        assert GOLDEN.sign((Fraction(9, 4), -1)) is Sign.POSITIVE
        assert GOLDEN.sign((Fraction(89, 40), -1)) is Sign.NEGATIVE

    @given(golden_numbers)
    def test_sign_is_consistent_with_negation(self, g):
        assert GOLDEN.sign(g).value == -GOLDEN.sign(GOLDEN.neg(g)).value

    @given(golden_numbers)
    def test_sign_agrees_with_a_decimal_evaluation(self, g):
        with localcontext() as ctx:
            ctx.prec = 60
            assert GOLDEN.sign(g) is sign_of(decimal_value(g, [Fraction(5)]))

    @given(tower_elements())
    @settings(max_examples=200)
    def test_tower_sign_agrees_with_a_decimal_evaluation(self, drawn):
        field, x = drawn
        with localcontext() as ctx:
            ctx.prec = 60
            value = decimal_value(x, [Fraction(5), field.radicand])
            assert field.sign(x) is sign_of(value)


class TestFieldAxioms:
    @given(golden_numbers, golden_numbers, golden_numbers)
    def test_addition_and_multiplication_laws(self, x, y, z):
        add, mul = GOLDEN.add, GOLDEN.mul
        assert add(add(x, y), z) == add(x, add(y, z))
        assert add(x, y) == add(y, x)
        assert mul(mul(x, y), z) == mul(x, mul(y, z))
        assert mul(x, y) == mul(y, x)
        assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))

    @given(nonzero_golden)
    @settings(max_examples=200)
    def test_multiplicative_inverse(self, x):
        assert GOLDEN.mul(x, GOLDEN.inverse(x)) == ONE

    @given(golden_numbers)
    def test_additive_inverse(self, x):
        assert GOLDEN.is_zero(GOLDEN.add(x, GOLDEN.neg(x)))

    @given(tower_elements(count=3))
    @settings(max_examples=100)
    def test_tower_laws(self, drawn):
        field, x, y, z = drawn
        add, mul = field.add, field.mul
        assert add(add(x, y), z) == add(x, add(y, z))
        assert add(x, y) == add(y, x)
        assert mul(mul(x, y), z) == mul(x, mul(y, z))
        assert mul(x, y) == mul(y, x)
        assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))
        assert field.is_zero(field.sub(x, x))
        if not field.is_zero(x):
            assert field.mul(x, field.inverse(x)) == field.one
            assert field.mul(field.div(y, x), x) == y


class TestFieldSquareRoot:
    def test_recovers_phi_squared_root(self):
        assert GOLDEN.sqrt(GOLDEN.mul(PHI, PHI)) == PHI

    def test_rational_and_five_fold_squares(self):
        assert GOLDEN.sqrt((Fraction(9, 4), 0)) == (Fraction(3, 2), 0)
        assert GOLDEN.sqrt((20, 0)) == (0, 2)

    def test_non_squares_return_none(self):
        assert GOLDEN.sqrt((2, 0)) is None
        assert GOLDEN.sqrt((10, -2)) is None

    def test_negative_has_no_root(self):
        assert GOLDEN.sqrt(GOLDEN.neg(ONE)) is None

    @given(golden_numbers)
    @settings(max_examples=200)
    def test_square_then_root_roundtrips(self, g):
        root = GOLDEN.sqrt(GOLDEN.mul(g, g))
        assert root is not None
        assert GOLDEN.mul(root, root) == GOLDEN.mul(g, g)
        if GOLDEN.sign(g) is Sign.POSITIVE:
            assert root == g

    def test_a_nested_radical_denests_one_level_up(self):
        # sqrt(11 - 2*sqrt5 + 2*sqrt(10 - 2*sqrt5)) = 1 + sqrt(10 - 2*sqrt5)
        field = Quadratic(GOLDEN, (10, -2))
        assert field.sqrt(((11, -2), (2, 0))) == (ONE, ONE)
        # sqrt(sqrt(r)) is not: the norm of (0, 1) is -r
        assert field.sqrt((ZERO, ONE)) is None

    @given(tower_elements())
    @settings(max_examples=200)
    def test_tower_square_then_root_roundtrips(self, drawn):
        field, y = drawn
        square = field.mul(y, y)
        root = field.sqrt(square)
        assert root is not None
        assert field.mul(root, root) == square
        if field.sign(y) is Sign.POSITIVE:
            assert root == y
