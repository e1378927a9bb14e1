"""The quadratic-extension algebra at both levels: GOLDEN = Q(sqrt5),
whose elements are integer triples made by ``GOLDEN.of``, and a tower
level over it.  Arithmetic, signs, square roots and the field axioms,
and differentials against a reference that writes Q(sqrt5) as pairs of
Fractions."""

from __future__ import annotations

import operator
from decimal import Decimal, localcontext
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from goldenflag.constructions import build_flag, verify_layout_identities
from goldenflag.errors import DivisionByZero
from goldenflag.exactnum import GOLDEN, Quadratic, Sign
from goldenflag.exactnum import expr as expr_module
from goldenflag.flagspec import lower_source

ONE, ZERO = GOLDEN.one, GOLDEN.zero
PHI = GOLDEN.of(Fraction(1, 2), Fraction(1, 2))
rationals = st.fractions(min_value=-50, max_value=50, max_denominator=40)
# (a, b) for a + b*sqrt5
coordinates = st.tuples(rationals, rationals)
golden_numbers = coordinates.map(lambda ab: GOLDEN.of(*ab))
nonzero_golden = golden_numbers.filter(lambda g: not GOLDEN.is_zero(g))

# positive radicands that are not squares in GOLDEN: 2, the pentagon's
# 10 - 2*sqrt5, and 3 + sqrt5
RADICANDS = ((2, 0), (10, -2), (3, 1))
TOWERS = [Quadratic(GOLDEN, GOLDEN.of(*r)) for r in RADICANDS]
small = st.fractions(min_value=-6, max_value=6, max_denominator=6)
small_coordinates = st.tuples(small, small)
# ((a, b), (c, d)) for (a + b*sqrt5) + (c + d*sqrt5)*sqrt(r)
tower_coordinates = st.tuples(small_coordinates, small_coordinates)


def lift(x):
    """The GOLDEN element, or tower pair of them, with the coordinates
    of ``x``: a pair of rationals, or a pair of such pairs."""
    u, v = x
    if isinstance(u, tuple):
        return lift(u), lift(v)
    return GOLDEN.of(u, v)


@st.composite
def tower_elements(draw, count: int = 1):
    """A tower level, its radicand's coordinates and ``count`` of its
    elements' coordinates."""
    index = draw(st.sampled_from(range(len(TOWERS))))
    return (TOWERS[index], RADICANDS[index], *[draw(tower_coordinates) for _ in range(count)])


def decimal_value(x, radicands) -> Decimal:
    """The value of nested coordinates with ``radicands`` (coordinates
    too) innermost first, in 60-digit decimal arithmetic."""
    if not isinstance(x, tuple):
        return Decimal(x.numerator) / Decimal(x.denominator)
    a, b = x
    inner = radicands[:-1]
    root = decimal_value(radicands[-1], inner).sqrt()
    return decimal_value(a, inner) + decimal_value(b, inner) * root


def rational_sign(q: Fraction) -> Sign:
    return Sign.POSITIVE if q > 0 else Sign.NEGATIVE if q < 0 else Sign.ZERO


def sign_of(value: Decimal) -> Sign:
    return rational_sign(Fraction(value))


# ---------------------------------------------------------------------------
# the reference: Q as Fractions, and Q(sqrt5) as the generic Quadratic
# over it, so that (a, b) is a + b*sqrt5


class FractionField:
    zero = Fraction(0)
    one = Fraction(1)
    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    neg = staticmethod(operator.neg)
    mul = staticmethod(operator.mul)
    is_zero = staticmethod(operator.not_)
    sign = staticmethod(rational_sign)

    @staticmethod
    def sqrt(a: Fraction) -> Fraction | None:
        """The rational root of ``a``, from the one of ``p*q`` for ``a = p/q``."""
        if a < 0:
            return None
        p, q = a.as_integer_ratio()
        r = isqrt(p * q)
        return Fraction(r, q) if r * r == p * q else None

    @staticmethod
    def inverse(a: Fraction) -> Fraction:
        if not a:
            raise DivisionByZero("division by zero")
        return 1 / Fraction(a)

    def div(self, a: Fraction, b: Fraction) -> Fraction:
        return a * self.inverse(b)


class FractionPairs(Quadratic):
    """Q(sqrt5) as Fraction pairs, with GOLDEN's ``of`` and ``rational``,
    so that it can stand in for GOLDEN in the exact tower of ``expr``."""

    def __init__(self) -> None:
        super().__init__(FractionField(), Fraction(5))

    @staticmethod
    def of(a, b=0) -> tuple:
        return Fraction(a), Fraction(b)

    @staticmethod
    def rational(x: tuple) -> Fraction | None:
        return None if x[1] else x[0]


REFERENCE = FractionPairs()
REFERENCE_TOWERS = [Quadratic(REFERENCE, REFERENCE.of(*r)) for r in RADICANDS]


def reference(x):
    """``x``'s coordinates as Fractions: the reference's element."""
    u, v = x
    if isinstance(u, tuple):
        return reference(u), reference(v)
    return Fraction(u), Fraction(v)


def lifted(x):
    """A reference result as GOLDEN elements; None stays None."""
    return None if x is None else lift(x)


class TestDefiningIdentities:
    def test_phi_squared_is_phi_plus_one(self):
        assert GOLDEN.mul(PHI, PHI) == GOLDEN.add(PHI, ONE)

    def test_phi_satisfies_its_polynomial_exactly(self):
        assert GOLDEN.is_zero(GOLDEN.sub(GOLDEN.sub(GOLDEN.mul(PHI, PHI), PHI), ONE))

    def test_reciprocal_of_phi(self):
        assert GOLDEN.div(ONE, PHI) == GOLDEN.sub(PHI, ONE)

    def test_conjugate_product_collapses_to_one(self):
        # (2 + sqrt5)(-2 + sqrt5) = 5 - 4 = 1
        assert GOLDEN.mul(GOLDEN.of(2, 1), GOLDEN.of(-2, 1)) == ONE

    def test_phi_is_half_of_one_plus_sqrt5(self):
        sqrt5 = GOLDEN.sub(GOLDEN.add(PHI, PHI), ONE)
        assert GOLDEN.mul(sqrt5, sqrt5) == GOLDEN.of(5, 0)
        assert GOLDEN.sign(sqrt5) is Sign.POSITIVE


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
        assert getattr(GOLDEN, op)(PHI, GOLDEN.of(2, 1)) == GOLDEN.of(*expected)

    def test_division_uses_conjugate(self):
        quotient = GOLDEN.div(ONE, GOLDEN.of(2, 1))
        assert quotient == GOLDEN.of(-2, 1)  # 1/(2+sqrt5) = sqrt5 - 2
        assert GOLDEN.mul(quotient, GOLDEN.of(2, 1)) == ONE

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            GOLDEN.div(PHI, ZERO)

    def test_rational_reads_back_only_rationals(self):
        assert GOLDEN.rational(GOLDEN.of(Fraction(-6, 4))) == Fraction(-3, 2)
        assert GOLDEN.rational(ZERO) == 0
        assert GOLDEN.rational(GOLDEN.mul(GOLDEN.of(2, 1), GOLDEN.of(-2, 1))) == 1
        assert GOLDEN.rational(PHI) is None


class TestSign:
    def test_phi_is_positive(self):
        assert GOLDEN.sign(PHI) is Sign.POSITIVE

    def test_zero(self):
        assert GOLDEN.sign(ZERO) is Sign.ZERO

    def test_close_call_decided_by_integer_comparison(self):
        # 9/4 - sqrt5: (9/4)^2 = 81/16 against 5 = 80/16
        assert GOLDEN.sign(GOLDEN.of(Fraction(9, 4), -1)) is Sign.POSITIVE
        assert GOLDEN.sign(GOLDEN.of(Fraction(89, 40), -1)) is Sign.NEGATIVE

    @given(golden_numbers)
    def test_sign_is_consistent_with_negation(self, g):
        assert GOLDEN.sign(g).value == -GOLDEN.sign(GOLDEN.neg(g)).value

    @given(coordinates)
    def test_sign_agrees_with_a_decimal_evaluation(self, ab):
        with localcontext() as ctx:
            ctx.prec = 60
            assert GOLDEN.sign(GOLDEN.of(*ab)) is sign_of(decimal_value(ab, [Fraction(5)]))

    @given(tower_elements())
    @settings(max_examples=200)
    def test_tower_sign_agrees_with_a_decimal_evaluation(self, drawn):
        field, radicand, x = drawn
        with localcontext() as ctx:
            ctx.prec = 60
            value = decimal_value(x, [Fraction(5), radicand])
            assert field.sign(lift(x)) is sign_of(value)


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
        field, _, x, y, z = drawn
        x, y, z = lift(x), lift(y), lift(z)
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
        assert GOLDEN.sqrt(GOLDEN.of(Fraction(9, 4))) == GOLDEN.of(Fraction(3, 2))
        assert GOLDEN.sqrt(GOLDEN.of(20)) == GOLDEN.of(0, 2)
        assert GOLDEN.sqrt(GOLDEN.of(Fraction(5, 4))) == GOLDEN.of(0, Fraction(1, 2))

    def test_non_squares_return_none(self):
        assert GOLDEN.sqrt(GOLDEN.of(2)) is None
        assert GOLDEN.sqrt(GOLDEN.of(10, -2)) is None

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
        field = Quadratic(GOLDEN, GOLDEN.of(10, -2))
        assert field.sqrt((GOLDEN.of(11, -2), GOLDEN.of(2))) == (ONE, ONE)
        # sqrt(sqrt(r)) is not: the norm of (0, 1) is -r
        assert field.sqrt((ZERO, ONE)) is None

    @given(tower_elements())
    @settings(max_examples=200)
    def test_tower_square_then_root_roundtrips(self, drawn):
        field, _, y = drawn
        y = lift(y)
        square = field.mul(y, y)
        root = field.sqrt(square)
        assert root is not None
        assert field.mul(root, root) == square
        if field.sign(y) is Sign.POSITIVE:
            assert root == y


# ---------------------------------------------------------------------------
# differentials against the Fraction-pair reference

# integer and rational values, written as a rational, a multiple of
# sqrt5, or both, with zero among them
differential_coordinates = st.tuples(
    st.one_of(st.just(Fraction(0)), small, rationals),
    st.one_of(st.just(Fraction(0)), small, rationals),
)


def coords(*coordinates):
    """Rational coordinates, each written as an int or a string ``"p/q"``."""
    return tuple(Fraction(c) for c in coordinates)


class TestGoldenAgainstReference:
    @given(differential_coordinates, differential_coordinates)
    @settings(max_examples=300)
    # equal denominators, irrational and rational, and a difference that is zero
    @example(x=coords("1/3", "2/3"), y=coords("-2/3", "1/3"))
    @example(x=coords("5/6", 0), y=coords("-1/6", 0))
    @example(x=coords("1/3", "2/3"), y=coords("1/3", "2/3"))
    # a rational on one side, and a zero divisor
    @example(x=coords("7/2", 0), y=coords("1/4", "-3/4"))
    @example(x=coords("1/4", "-3/4"), y=coords("-7/2", 0))
    @example(x=coords(2, 1), y=coords(0, 0))
    def test_every_operation(self, x, y):
        gx, gy = lift(x), lift(y)
        rx, ry = reference(x), reference(y)
        assert gx == lift(REFERENCE.of(*x))
        for op in ("add", "sub", "mul"):
            assert getattr(GOLDEN, op)(gx, gy) == lift(getattr(REFERENCE, op)(rx, ry))
        assert GOLDEN.neg(gx) == lift(REFERENCE.neg(rx))
        assert GOLDEN.is_zero(gx) == REFERENCE.is_zero(rx)
        assert GOLDEN.sign(gx) is REFERENCE.sign(rx)
        assert GOLDEN.rational(gx) == REFERENCE.rational(rx)
        if REFERENCE.is_zero(ry):
            with pytest.raises(DivisionByZero):
                GOLDEN.inverse(gy)
            with pytest.raises(DivisionByZero):
                GOLDEN.div(gx, gy)
        else:
            assert GOLDEN.inverse(gy) == lift(REFERENCE.inverse(ry))
            assert GOLDEN.div(gx, gy) == lift(REFERENCE.div(rx, ry))

    @given(differential_coordinates)
    @settings(max_examples=300)
    def test_square_root(self, x):
        rx = reference(x)
        five = REFERENCE.of(5)
        # non-squares, squares, five times squares, and their negatives
        for r in (rx, REFERENCE.mul(rx, rx), REFERENCE.mul(five, REFERENCE.mul(rx, rx))):
            for value in (r, REFERENCE.neg(r)):
                assert GOLDEN.sqrt(lift(value)) == lifted(REFERENCE.sqrt(value))


# an exact zero on each side, and elements with a zero coordinate in
# the base or in the radical, on each of the three towers
ZERO_TOWER_ELEMENT = (coords(0, 0), coords(0, 0))
TOWER_EXAMPLES = [
    (TOWERS[0], RADICANDS[0], ZERO_TOWER_ELEMENT, ZERO_TOWER_ELEMENT),
    (TOWERS[1], RADICANDS[1], (coords(0, 0), coords(1, "1/2")), (coords(3, -1), coords(0, 0))),
    (TOWERS[2], RADICANDS[2], (coords(-2, "1/3"), coords(0, 0)), (coords(0, 0), coords("-1/2", 1))),
    (TOWERS[1], RADICANDS[1], (coords("5/2", 0), coords(0, 0)), ZERO_TOWER_ELEMENT),
    (TOWERS[2], RADICANDS[2], ZERO_TOWER_ELEMENT, (coords(1, 0), coords(0, -2))),
]


def tower_examples(test):
    """``test`` with each of :data:`TOWER_EXAMPLES` among its draws."""
    for drawn in TOWER_EXAMPLES:
        test = example(drawn=drawn)(test)
    return test


class TestTowerAgainstReference:
    @given(tower_elements(count=2))
    @settings(max_examples=200)
    @tower_examples
    def test_mul_inverse_and_sign(self, drawn):
        field, radicand, x, y = drawn
        ref = REFERENCE_TOWERS[RADICANDS.index(radicand)]
        rx, ry = reference(x), reference(y)
        assert field.mul(lift(x), lift(y)) == lift(ref.mul(rx, ry))
        assert field.sign(lift(x)) is ref.sign(rx)
        if ref.is_zero(ry):
            with pytest.raises(DivisionByZero):
                field.inverse(lift(y))
        else:
            assert field.inverse(lift(y)) == lift(ref.inverse(ry))

    @given(tower_elements(count=2))
    @settings(max_examples=200)
    @tower_examples
    def test_sqrt_of_non_squares_squares_and_zero(self, drawn):
        field, radicand, x, y = drawn
        ref = REFERENCE_TOWERS[RADICANDS.index(radicand)]
        rx, ry = reference(x), reference(y)
        square = ref.mul(ry, ry)  # denests
        for value in (rx, square, ref.mul(square, (REFERENCE.zero, REFERENCE.one)), ref.zero):
            assert field.sqrt(lift(value)) == lifted(ref.sqrt(value))


def _stripes(vertical: bool, widths: list[str]) -> str:
    """A spec of stripes of the given widths, left to right or top to
    bottom, at offsets that a let chain sums, under a canvas whose
    length sums the widths in another order: the ends of the stripes
    are equal cut lines written differently."""
    lets = ["let o0 = 0;"]
    regions = []
    for i, width in enumerate(widths):
        lets.append(f"let o{i + 1} = o{i} + ({width});")
        rect = f"o{i} 0 {width} 3/2" if vertical else f"0 o{i} 3/2 {width}"
        regions.append(f"region s{i} red rect {rect};")
    length = " + ".join(f"({w})" for w in reversed(widths))
    canvas = f"{length} x 3/2" if vertical else f"3/2 x {length}"
    return f'flag "stripes" {{ canvas {canvas}; {" ".join(lets)} {" ".join(regions)} }}'


STRIPES = [
    _stripes(True, ["phi", "1/phi", "sqrt(5)/2", "3/4"] * 3),
    _stripes(False, ["phi - 1", "2*phi", "sqrt(5)", "2/3"] * 3),
    _stripes(True, ["(1 + sqrt(5))/2", "2/phi", "3 - phi"] * 4),
    # one width over and over, each offset written as a multiple of it
    'flag "product" { canvas 14/phi x 3/2; let w = 1/phi; '
    + " ".join(f"region s{i} red rect {i}*w 0 w 3/2;" for i in range(14))
    + " }",
]


def test_exact_sign_agrees_with_the_reference_on_chile_1818_and_stripes(monkeypatch):
    # the signs that exact_sign decides in verify chile-1818 and in the
    # tiling of stripes with equal cut lines, normalized a second time
    # with the Fraction-pair reference in GOLDEN's place
    exact_sign = expr_module.exact_sign
    asked: dict[str, list] = {"chile-1818": [], "stripes": []}

    def recording(x):
        calls.append(x)
        return exact_sign(x)

    monkeypatch.setattr(expr_module, "exact_sign", recording)
    calls = asked["chile-1818"]
    checks = verify_layout_identities(build_flag("chile-1818"))
    calls = asked["stripes"]
    for source in STRIPES:
        lower_source(source)
    monkeypatch.undo()

    assert all(check.status.ok for check in checks)
    assert len(asked["chile-1818"]) >= 10 and len(asked["stripes"]) >= 10
    for name, xs in asked.items():
        signs = [exact_sign(x) for x in xs]
        assert None not in signs, name
        with monkeypatch.context() as patched:
            patched.setattr(expr_module, "GOLDEN", REFERENCE)
            assert [exact_sign(x) for x in xs] == signs, name
