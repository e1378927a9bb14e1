"""Expression construction, certified evaluation, and decimal policy."""

from __future__ import annotations

import math
import time
from decimal import MAX_EMAX, MIN_EMIN, ROUND_05UP, ROUND_HALF_EVEN, Decimal, Inexact, localcontext
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
    Mul,
    Sign,
    Sqrt,
    add,
    as_rational,
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
from goldenflag.exactnum import decimalfmt
from goldenflag.exactnum import expr as expr_module
from goldenflag.exactnum import interval as iv
from goldenflag.exactnum.decimalfmt import MAX_DIGITS, round_scaled, start_bits
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

    def test_negation_is_the_product_by_minus_one(self):
        assert neg(TAN36) is Mul(lit(-1), TAN36)
        assert neg(neg(TAN36)) is TAN36
        assert neg(mul(lit(-1), TAN36)) is TAN36

    def test_identity_elements_vanish(self):
        assert add(lit(0), TAN36) is TAN36
        assert mul(TAN36, lit(1)) is TAN36
        assert mul(lit(0), TAN36) == lit(0)
        assert div(TAN36, lit(1)) is TAN36

    def test_perfect_square_roots_fold(self):
        assert sqrt_(lit(4)) == lit(2)
        assert sqrt_(lit(Fraction(9, 4))) == lit(Fraction(3, 2))
        assert sqrt_(lit(Fraction(49, 16))) == lit(Fraction(7, 4))
        assert sqrt_(lit(0)) == lit(0)
        # no rational root: 20, 1/5 and 5/4 are rational multiples of
        # sqrt5 in Q(sqrt5), and 4/3 is a square over a non-square
        for value in (5, 20, Fraction(1, 5), Fraction(5, 4), Fraction(4, 3)):
            assert sqrt_(lit(value)) is Sqrt(lit(value))

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

    def test_equal_literals_are_one_node(self):
        from goldenflag.flagspec import lower_expr, parse_expression

        half = lit(Fraction(1, 2))
        assert lit("0.5") is half
        assert div(lit(1), lit(2)) is half
        assert lower_expr(parse_expression("1/2"), {}) is half

    def test_a_float_is_not_a_rational(self):
        # binary floating point never enters an expression
        with pytest.raises(TypeError, match="^cannot convert float to Rational$"):
            as_rational(1.5)

    def test_literals_of_equal_hash_are_two_nodes(self):
        # literals are interned by the integer pair of their value, and
        # CPython hashes -1 and -2 alike
        assert hash(-1) == hash(-2)
        minus_one, minus_two = lit(-1), lit(-2)
        assert minus_one is not minus_two
        assert (minus_one.value, minus_two.value) == (-1, -2)


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


def four_corner_mul(x, y, w):
    """The product interval as the floor of the least and the ceiling of
    the greatest of the four end-to-end products."""
    products = [a * b for a in x for b in y]
    return min(products) >> w, -(-max(products) >> w)


def two_isqrt_sqrt(x, w):
    """The root interval as the floor root of the clamped low end and the
    ceiling root of the clamped high end."""
    lo, hi = (max(end, 0) << w for end in x)
    top = math.isqrt(hi)
    return math.isqrt(lo), top + (top * top != hi)


# up to the working precision of a 3000-digit eval
precisions = st.one_of(st.integers(1, 128), st.integers(1, 12_032))


@st.composite
def fixed_point(draw, w: int, kinds=("positive", "negative", "straddling")):
    """An interval at scale 2**-w with ends up to ``w + 64`` bits, as wide
    as 0 to 2**8 units or up to full width."""
    magnitude = draw(st.integers(0, 2 ** (w + 64)))
    width = draw(st.one_of(st.just(0), st.integers(0, 2**8), st.integers(0, 2 ** (w + 64))))
    kind = draw(st.sampled_from(kinds))
    if kind == "straddling":
        return -magnitude, width
    return (magnitude, magnitude + width) if kind == "positive" else (-magnitude - width, -magnitude)


@st.composite
def operands(draw):
    w = draw(precisions)
    return draw(fixed_point(w)), draw(fixed_point(w)), w


@st.composite
def radicands(draw):
    """A nonnegative interval; or one whose gap ``(hi << w) - r*r``, ``r =
    isqrt(lo << w)``, is up to the widest at which ``sqrt`` steps the
    tangent bound down rather than take a second ``isqrt``; or one whose
    ends are up to 2**8 units below zero, as rounding slack on an exact
    zero leaves them."""
    w = draw(precisions)
    lo, hi = draw(fixed_point(w, kinds=("positive",)))
    shape = draw(st.sampled_from(["drawn", "tangent", "slack"]))
    if shape == "tangent":
        hi = lo + draw(st.integers(0, 2 ** (3 * math.isqrt(lo << w).bit_length() // 2) >> w))
    elif shape == "slack":
        slack = draw(st.integers(1, 2**8))
        lo, hi = -slack, hi - slack
    return (lo, hi), w


@st.composite
def point_divisors(draw):
    """An interval at scale 2**-w, ``0 <= w <= 400``, that may straddle
    zero, and a point divisor of either sign: the exact integer ``k <<
    w`` or, when ``w > 0``, ``k + r / 2**w`` for some ``0 < r < 2**w``."""
    w = draw(st.integers(0, 400))
    ends = st.integers(-(2 ** (w + 64)), 2 ** (w + 64))
    x0, x1 = sorted((draw(ends), draw(ends)))
    k = draw(st.one_of(st.integers(1, 2**8), st.integers(1, 2**80)))
    fraction = draw(st.integers(1, (1 << w) - 1)) if w and draw(st.booleans()) else 0
    d = (k << w) + fraction
    return (x0, x1), d if draw(st.booleans()) else -d, w


class TestIntervalDiv:
    @given(operands())
    @settings(max_examples=300)
    def test_two_divisions_match_the_four_corners(self, case):
        x, y, w = case
        if y[0] <= 0 <= y[1]:
            with pytest.raises(iv.StraddlesZero):
                iv.div(x, y, w)
        else:
            assert iv.div(x, y, w) == four_corner_div(x, y, w)

    @given(point_divisors())
    @settings(max_examples=300)
    def test_a_point_divisor_gives_the_tightest_pair(self, case):
        # an exact integer k is divided through narrowly; any other point
        # divisor takes the long division, and both give the floor of the
        # least and the ceiling of the greatest quotient
        (x0, x1), d, w = case
        quotients = [Fraction(end << w, d) for end in (x0, x1)]
        assert iv.div((x0, x1), (d, d), w) == (math.floor(min(quotients)), math.ceil(max(quotients)))


class TestIntervalKernel:
    """``mul`` and ``sqrt`` compute one end at full width and the other
    by narrow corrections; the pair is the tightest outward rounding,
    which the references compute from both ends at full width."""

    @given(operands())
    @settings(max_examples=300)
    def test_mul_matches_the_four_corners(self, case):
        x, y, w = case
        assert iv.mul(x, y, w) == four_corner_mul(x, y, w)

    @given(radicands())
    @settings(max_examples=300)
    def test_sqrt_matches_two_isqrts(self, case):
        x, w = case
        assert iv.sqrt(x, w) == two_isqrt_sqrt(x, w)

    def test_sqrt_of_every_small_interval(self):
        # small roots: here the tangent bound is often above the high
        # root and must be stepped down
        for w in range(1, 9):
            for lo in range(-3, 64):
                for hi in range(lo, lo + 64):
                    assert iv.sqrt((lo, hi), w) == two_isqrt_sqrt((lo, hi), w)

    @pytest.mark.parametrize("w", [1, 64, 12_032])
    def test_point_intervals(self, w):
        for v in (0, 1, 2, 3, 4, 5, 5 << w, (1 << w) - 1, 1 << w):
            x = (v, v)
            assert iv.mul(x, x, w) == four_corner_mul(x, x, w)
            assert iv.sqrt(x, w) == two_isqrt_sqrt(x, w)
            if v:
                assert iv.div((1, 1), x, w) == four_corner_div((1, 1), x, w)


class TestEnclosuresAreOrdered:
    """No end of an enclosure may cross the other: digits are printed
    from both ends, so ``lo > hi`` would print digits that no value
    has."""

    # sqrt(3 + sqrt(sqrt(26 + 4*sqrt(sqrt(16 + 5*sqrt(15))))))
    QUARTIC = sqrt_(sqrt_(add(lit(16), mul(lit(5), sqrt_(lit(15))))))
    NESTED_ROOT = sqrt_(add(lit(3), sqrt_(sqrt_(add(lit(26), mul(lit(4), QUARTIC))))))

    @pytest.mark.parametrize("x", [
        mul(sub(lit(1), sqrt_(lit(7))), sqrt_(lit(2))),
        div(sqrt_(lit(2)), sub(lit(1), sqrt_(lit(7)))),
        NESTED_ROOT,
    ], ids=["product", "quotient", "nested-root"])
    def test_every_step_up_to_12032_bits(self, x):
        # 47 * 2**8 = 12,032 bits, past 9,998, the first enclosure of a
        # 3000-digit eval
        steps = list(islice(enclosures(x, 47), 9))
        assert steps[-1][0] == 12_032
        for w, lo, hi in steps:
            assert lo <= hi, w


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


def decimal_rounding(num: int | Decimal, den: int | Decimal, digits: int) -> Decimal:
    """``num / den`` rounded half-even to ``digits`` significant digits by
    the stdlib ``decimal`` module: the quotient is taken to ``digits + 2``
    digits with ROUND_05UP, which keeps the rounding of it to ``digits``
    digits exact, then rounded ROUND_HALF_EVEN."""
    with localcontext() as context:
        context.Emax, context.Emin = MAX_EMAX, MIN_EMIN
        context.prec, context.rounding = digits + 2, ROUND_05UP
        quotient = Decimal(num) / Decimal(den)
        context.prec, context.rounding = digits, ROUND_HALF_EVEN
        return +quotient


def reference(num: int | Decimal, den: int | Decimal, digits: int) -> tuple[bool, int, int]:
    """:func:`decimal_rounding` as ``round_scaled`` returns it: the sign,
    the ``digits`` leading digits as an int and the decimal exponent."""
    rounded = decimal_rounding(num, den, digits)
    if not rounded:
        return False, 0, 0
    sign, figures, exponent = rounded.as_tuple()
    pad = digits - len(figures)
    return bool(sign), int("".join(map(str, figures))) * 10**pad, exponent - pad + digits


# (m, w, den, digits) with m * 2**-w / den a rounding tie of either sign:
# (q + 1/2) * 10**-j with 2q + 1 = u * 5**j, for odd u, over a power of
# two, or (2q+1)/2 * 10**-j over a power of ten; digits the digit count of q
ties = st.one_of(
    st.builds(
        lambda u, j, sign: (sign * u, j + 1, 1, len(str((u * 5**j - 1) // 2))),
        st.integers(0, 2**200).map(lambda k: 2 * k + 3),
        st.integers(0, 80),
        st.sampled_from([1, -1]),
    ),
    st.builds(
        lambda q, j, sign: (sign * (2 * q + 1) * 10 ** max(-j, 0), 0, 2 * 10 ** max(j, 0), len(str(q))),
        st.integers(1, 10**60),
        st.integers(-20, 80),
        st.sampled_from([1, -1]),
    ),
)

# (m, w, den): a binary fraction, or an exact rational whose denominator
# is not a power of two
scaled = st.one_of(
    st.tuples(st.integers(-(2**4000), 2**4000), st.integers(0, 8192), st.just(1)),
    st.tuples(
        st.integers(-(2**400), 2**400),
        st.just(0),
        st.one_of(
            st.sampled_from([3, 7]),
            st.integers(1, 300).map(lambda k: 10**k),
            st.integers(1, 300).map(lambda k: 5**k),
            st.integers(3, 2**200),
        ).filter(lambda q: q & (q - 1)),
    ),
)


class TestIntegerRounding:
    """``round_scaled`` against its reference, the stdlib ``decimal``
    rounding of the exact quotient."""

    @given(scaled, st.one_of(st.integers(1, 40), st.integers(1, MAX_DIGITS)))
    @settings(max_examples=500, deadline=None)
    def test_it_matches_the_decimal_reference(self, value, digits):
        m, w, den = value
        assert round_scaled(m, w, digits, den) == reference(m, den << w, digits)

    def test_evicted_powers_of_ten_round_alike(self):
        # each digit count needs its own decade ends, so these cases ask
        # for more distinct powers of ten than the cache holds; the second
        # pass meets entries the first one evicted
        held = decimalfmt._pow10.cache_info().maxsize
        cases = [
            (sign * 7**k * 12345, w, digits)
            for digits in range(1, held + 20)
            for k, w in ((digits, 4 * digits + 7), (3 * digits, 0))
            for sign in (1, -1)
        ]
        for _ in range(2):
            for m, w, digits in cases:
                assert round_scaled(m, w, digits) == reference(m, 1 << w, digits)
        assert decimalfmt._pow10.cache_info().currsize == held

    @given(ties)
    @settings(max_examples=300, deadline=None)
    def test_exact_ties_round_half_even(self, tie):
        m, w, den, digits = tie
        rounded = round_scaled(m, w, digits, den)
        assert rounded == reference(m, den << w, digits)
        assert rounded[0] == (m < 0)
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
            (1, 8192, 1, reference(1, 1 << 8192, 1)),
        ],
    )
    def test_zeros_ties_and_carries(self, m, w, digits, expected):
        assert round_scaled(m, w, digits) == expected
        assert reference(m, 1 << w, digits) == expected

    def test_a_literal_of_a_million_binary_places_prints_quickly(self):
        with localcontext() as context:  # 2**1_000_000 exactly, or Inexact is raised
            context.prec, context.Emax, context.traps[Inexact] = 310_000, MAX_EMAX, True
            den = Decimal(2) ** 1_000_000
        start = time.perf_counter()
        text = decimal_str(lit(Fraction(1, 2**1_000_000)), 3)
        assert time.perf_counter() - start < 2
        assert text == format(decimal_rounding(1, den, 3), "f")


class TestCertifiedSign:
    def test_exact_route(self):
        assert certified_sign(sub(mul(PHI_EXPR, PHI_EXPR), PHI_EXPR)) is Sign.POSITIVE
        assert certified_sign(sub(sub(mul(PHI_EXPR, PHI_EXPR), PHI_EXPR), lit(1))) is Sign.ZERO

    def test_interval_route_for_nested_radicals(self):
        nested = sub(sqrt_(sub(lit(118), mul(lit(48), sqrt_(lit(2))))), lit(6))
        assert certified_sign(nested) is Sign.POSITIVE

    @given(st.one_of(
        st.just(Fraction(0)),
        st.fractions(),
        st.builds(Fraction, st.integers(-(2**6000), 2**6000), st.integers(1, 2**3000)),
    ))
    @settings(max_examples=200, deadline=None)
    def test_a_literal_is_signed_by_its_value(self, q):
        def no_enclosure(*_):
            raise AssertionError("a literal's sign needs no enclosure")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(expr_module, "enclosures", no_enclosure)
            assert certified_sign(lit(q)).value == (q > 0) - (q < 0)

    def test_literal_side_conditions_keep_their_errors(self):
        with pytest.raises(DivisionByZero, match="^divisor is certified zero$"):
            div(PHI_EXPR, lit(0))
        with pytest.raises(CertificationError, match="^square root of a certified-negative value$"):
            sqrt_(lit(Fraction(-1, 3)))


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

    def test_more_than_max_digits_is_an_error(self):
        with pytest.raises(ValueError, match=f"^digits must be at most {MAX_DIGITS}, got {MAX_DIGITS + 1}$"):
            decimal_str(TAN36, MAX_DIGITS + 1)

    def test_certified_output_stable_under_extra_precision(self):
        for value in (TAN36, PHI_EXPR, SQRT5_EXPR):
            for digits in (1, 3, 12, 40):
                assert within_half_ulp(value, decimal_str(value, digits), digits)


class TestStartPrecision:
    """A value is printed from an enclosure at :func:`start_bits`: the
    bits its digits carry and 32 guard bits, which most values settle
    at."""

    def test_the_digits_bits_and_32_guard_bits(self):
        # ceil(d * log2(10)) is the bit length of 10**d, which is not a
        # power of two; the integer 3.322 overshoots log2(10) by at most a bit
        for d in range(1, MAX_DIGITS + 1):
            carried = (10**d).bit_length()
            assert carried + 32 <= start_bits(d) <= max(64, carried + 33), d

    @staticmethod
    def precisions(monkeypatch, x, digits):
        """The working precisions of the enclosures ``decimal_str(x,
        digits)`` takes, once its text is checked."""
        refined, taken = enclosures, []

        def recording(x, start):
            for enclosure in refined(x, start):
                taken.append(enclosure[0])
                yield enclosure

        monkeypatch.setattr(decimalfmt, "enclosures", recording)
        text = decimal_str(x, digits)
        monkeypatch.undo()
        assert within_half_ulp(x, text, digits)
        return taken

    # sqrt(2) * 10**k and phi / 10**k for k >= -9 are at least 2**-29.9
    @pytest.mark.parametrize("digits", [12, 60, 600, 3000])
    def test_one_enclosure_prints_a_value_down_to_2_to_the_minus_32(self, monkeypatch, digits):
        for k in range(-9, 10):
            scale = lit(Fraction(10) ** k)
            for value in (mul(sqrt_(lit(2)), scale), div(PHI_EXPR, scale)):
                assert self.precisions(monkeypatch, value, digits) == [start_bits(digits)], (k, digits)

    # below about 2**-32 the guard bits are spent on the magnitude (at
    # 10**-10, about 2**-32.6, one enclosure settles some values and not
    # others): from 10**-11 down to where the first enclosure's near end
    # has 8 bits, a second enclosure, at start_bits plus the bits that
    # end lacks, prints the value; a value whose first enclosure holds
    # zero doubles instead
    @pytest.mark.parametrize("digits", [12, 60, 600, 3000])
    def test_a_value_below_2_to_the_minus_32_is_enclosed_again_at_its_magnitude(self, monkeypatch, digits):
        start = start_bits(digits)
        deepest = (start - 8) * 30103 // 100000  # 10**-deepest is above 2**(8 - start)
        for k in sorted({11, 12, (11 + deepest) // 2, deepest}):
            for value in (div(sqrt_(lit(2)), lit(10**k)), div(PHI_EXPR, lit(10**k))):
                near = min(abs(end) for end in eval_interval(value, start))
                taken = self.precisions(monkeypatch, value, digits)
                assert taken == [start, 2 * start - near.bit_length()], (k, digits)
                assert start < taken[1] < 2 * start
        hidden = div(sqrt_(lit(2)), lit(10 ** (deepest + 25)))
        assert eval_interval(hidden, start)[0] <= 0
        assert self.precisions(monkeypatch, hidden, digits)[:2] == [start, 2 * start]


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

    @pytest.mark.parametrize("value, digits, expected, asked", [
        (ZERO, 12, "0", 1),
        # exactly 3/8, the tie between 0.37 and 0.38
        (add(sub(mul(sqrt_(lit(2)), sqrt_(lit(3))), sqrt_(lit(6))), lit(Fraction(3, 8))), 2, "0.38", 1),
        (PHI_EXPR, 12, "1.61803398875", 0),  # its first enclosure settles
    ], ids=["zero", "tie", "settled"])
    def test_each_rounding_boundary_is_asked_once(self, monkeypatch, value, digits, expected, asked):
        calls = []

        def counting(x):
            calls.append(x)
            return certified_sign(x)

        monkeypatch.setattr(decimalfmt, "certified_sign", counting)
        assert decimal_str(value, digits) == expected
        assert len(calls) == asked


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

    def test_a_raw_root_of_a_negative_value_is_outside_the_tower(self):
        # sqrt_ refuses a certified-negative radicand, but a raw Sqrt node
        # can hold one; adjoined as the tower's radicand, it would get a sign
        for radicand in (lit(-2), sub(lit(1), SQRT5_EXPR)):
            assert exact_sign(Sqrt(radicand)) is None
