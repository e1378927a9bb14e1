"""The identity verifier: the sign of a difference, decided by the filter,
the exact tower and the separation bound."""

from __future__ import annotations

import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from goldenflag.constructions import build_flag
from goldenflag.errors import PrecisionExhausted
from goldenflag.exactnum import (
    PHI_EXPR,
    SQRT5_EXPR,
    Sign,
    Add,
    Div,
    Mul,
    Neg,
    Sqrt,
    Sub,
    Verdict,
    add,
    certified_sign,
    compare_values,
    div,
    holds,
    lit,
    mul,
    neg,
    sqrt_,
    square_of,
    sub,
    verify_identity,
)
from goldenflag.exactnum import identity as identity_module
from goldenflag.exactnum.identity import RELATIONS
from goldenflag.exactnum.expr import (
    _log2_up,
    _plus,
    _root,
    _times,
    _up,
    eval_interval,
    exact_sign,
    fold,
    separation_bits,
)
from goldenflag.flagspec import lower_expr, parse_expression
from goldenflag.geometry import TAN36

from conftest import FOUR_RADICALS, golden_expr

TAN36_SECOND_FORM = div(sqrt_(sqrt_(lit(5))), sqrt_(add(lit(2), SQRT5_EXPR)))

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=25)

# Small coefficients make equal pairs and exact zeros common, so the
# exact layers behind the 64-bit filter are reached often.
small = st.fractions(min_value=-3, max_value=3, max_denominator=2)
golden_exprs = st.builds(lambda a, b: golden_expr((a, b)), small, small)
RADICANDS = (
    lit(2),
    sub(lit(10), mul(lit(2), SQRT5_EXPR)),
    add(lit(3), SQRT5_EXPR),
)


def doubling(levels: int):
    """phi doubled ``levels`` times as x + x: ``levels`` nodes over the
    6 of phi, and 2**levels paths from the root down to phi."""
    x = PHI_EXPR
    for _ in range(levels):
        x = add(x, x)
    return x


# recipes: a leaf name or rational, or (constructor name, recipe, recipe)
LEAVES = {"phi": PHI_EXPR, "sqrt5": SQRT5_EXPR, "sqrt2": sqrt_(lit(2))}
recipes = st.recursive(
    st.sampled_from(sorted(LEAVES)) | small,
    lambda inner: st.tuples(st.sampled_from(("add", "sub", "mul", "neg", "sqrt")), inner, inner),
    max_leaves=8,
)


def build(recipe):
    if isinstance(recipe, str):
        return LEAVES[recipe]
    if isinstance(recipe, Fraction):
        return lit(recipe)
    name, x, y = recipe
    if name == "neg":
        return neg(build(x))
    if name == "sqrt":  # of a square, so the radicand is never negative
        return sqrt_(mul(build(x), build(x)))
    return {"add": add, "sub": sub, "mul": mul}[name](build(x), build(y))


@st.composite
def tower_exprs(draw):
    """Golden-field expressions, or expressions with square roots of one
    radicand, combined by + - *: all inside one quadratic tower."""
    radical = sqrt_(draw(st.sampled_from(RADICANDS)))
    leaves = golden_exprs | st.just(radical) | st.just(PHI_EXPR)
    combine = st.sampled_from((add, sub, mul))
    return draw(
        st.recursive(
            leaves,
            lambda children: st.builds(lambda f, x, y: f(x, y), combine, children, children),
            max_leaves=6,
        )
    )


class TestProvedEqual:
    def test_the_two_tangent_closed_forms(self):
        assert verify_identity(TAN36, TAN36_SECOND_FORM) is Verdict.PROVED_EQUAL

    def test_both_squares_normalize_to_the_same_field_element(self):
        expected = golden_expr((5, -2))
        assert exact_sign(sub(square_of(TAN36), expected)) is Sign.ZERO
        assert exact_sign(sub(square_of(TAN36_SECOND_FORM), expected)) is Sign.ZERO

    def test_phi_against_its_closed_form(self):
        assert verify_identity(golden_expr((Fraction(1, 2), Fraction(1, 2))), PHI_EXPR) is Verdict.PROVED_EQUAL

    def test_single_radical_against_field_expansion(self):
        # sqrt(6 + 2 sqrt5) = 1 + sqrt5: needs one squaring round
        lhs = sqrt_(add(lit(6), mul(lit(2), SQRT5_EXPR)))
        rhs = add(lit(1), SQRT5_EXPR)
        assert verify_identity(lhs, rhs) is Verdict.PROVED_EQUAL


class TestProvedUnequal:
    def test_phi_against_a_fibonacci_convergent(self):
        assert verify_identity(PHI_EXPR, lit(Fraction(13, 8))) is Verdict.PROVED_UNEQUAL

    def test_nearby_radicals_separate(self):
        lhs = sqrt_(sub(lit(10), mul(lit(2), SQRT5_EXPR)))
        rhs = sqrt_(add(lit(10), mul(lit(2), SQRT5_EXPR)))
        assert verify_identity(lhs, rhs) is Verdict.PROVED_UNEQUAL


class TestReflexivity:
    @pytest.mark.parametrize(
        "expr",
        [TAN36, TAN36_SECOND_FORM, PHI_EXPR, lit(Fraction(7, 3))],
        ids=["tan36", "tan36-alt", "phi", "rational"],
    )
    def test_nonnegative_expressions_prove_equal_to_themselves(self, expr):
        assert verify_identity(expr, expr) is Verdict.PROVED_EQUAL

    def test_reflexivity_beyond_the_exact_tower(self):
        nepal = build_flag("nepal-ratio").width_height_ratio()
        assert verify_identity(nepal, nepal) is Verdict.PROVED_EQUAL


class TestNoSignPrecondition:
    """verify_identity is compare_values: it asks the sign of the
    difference alone, never the sides' own signs."""

    def test_opposite_signs_are_proved_unequal(self):
        assert verify_identity(PHI_EXPR, neg(PHI_EXPR)) is Verdict.PROVED_UNEQUAL

    def test_an_undecidable_side_asks_one_sign(self, monkeypatch):
        # z is zero, whose sign the work budget cannot prove, and z + 1
        # differs from it by 1, which the one sign of the difference proves
        a = lower_expr(parse_expression(FOUR_RADICALS), {})
        z = sub(a, mul(div(a, lit(3)), lit(3)))
        rhs = add(z, lit(1))
        with pytest.raises(PrecisionExhausted):
            certified_sign(z)
        asked = []

        def counting(x):
            asked.append(x)
            return certified_sign(x)

        monkeypatch.setattr(identity_module, "certified_sign", counting)
        assert verify_identity(z, rhs) is Verdict.PROVED_UNEQUAL
        assert asked == [Sub(rhs, z)]

    def test_zero_is_compatible_with_either_sign(self):
        zero = sub(sub(mul(PHI_EXPR, PHI_EXPR), PHI_EXPR), lit(1))
        assert verify_identity(zero, lit(0)) is Verdict.PROVED_EQUAL
        assert verify_identity(zero, neg(PHI_EXPR)) is Verdict.PROVED_UNEQUAL


class TestMonomialCanonicalization:
    def test_scalar_multiples_of_an_opaque_radical(self):
        # the nested sqrt(2) radicals are beyond the exact tower, so this
        # equality is proved by the separation bound
        nepal = build_flag("nepal-ratio").width_height_ratio()
        lhs = mul(nepal, lit(Fraction(3, 2)))
        rhs = mul(lit(Fraction(3, 4)), mul(lit(2), nepal))
        assert compare_values(lhs, rhs) is Verdict.PROVED_EQUAL

    def test_division_cancels_structurally_equal_factors(self):
        nepal = build_flag("nepal-ratio").width_height_ratio()
        lhs = div(mul(lit(6), nepal), mul(lit(3), nepal))
        assert compare_values(lhs, lit(2)) is Verdict.PROVED_EQUAL


class TestCompareValuesLenient:
    @given(rationals, rationals)
    @settings(max_examples=100)
    def test_field_elements_always_decide(self, a, b):
        x, y = (a, b), (a + 1, b)
        assert compare_values(golden_expr(x), golden_expr(x)) is Verdict.PROVED_EQUAL
        assert compare_values(golden_expr(x), golden_expr(y)) is Verdict.PROVED_UNEQUAL

    def test_opposite_signs_still_compare(self):
        assert compare_values(PHI_EXPR, neg(PHI_EXPR)) is Verdict.PROVED_UNEQUAL


class TestIntervalFilterAgreesWithExactLayers:
    @given(tower_exprs())
    @settings(max_examples=100, deadline=None)
    def test_certified_sign_matches_the_exact_sign(self, x):
        exact = exact_sign(x)
        if exact is not None:
            assert certified_sign(x) is exact

    @given(tower_exprs(), tower_exprs())
    @settings(max_examples=100, deadline=None)
    def test_compare_values_matches_the_exact_layers(self, lhs, rhs):
        exact = exact_sign(sub(lhs, rhs))
        if exact is not None:
            expected = Verdict.PROVED_EQUAL if exact is Sign.ZERO else Verdict.PROVED_UNEQUAL
            assert compare_values(lhs, rhs) is expected

    @given(golden_exprs, small)
    @settings(max_examples=100, deadline=None)
    def test_equal_values_written_differently(self, x, shift):
        rewritten = sub(add(x, lit(shift)), lit(shift))
        assert compare_values(x, rewritten) is Verdict.PROVED_EQUAL
        assert compare_values(add(x, lit(Fraction(1, 2**80))), x) is Verdict.PROVED_UNEQUAL


class TestHashConsing:
    def test_the_doubling_dag_is_built_once_and_proved_fast(self):
        dag = doubling(20)
        assert doubling(20) is dag
        assert verify_identity(dag, mul(lit(2**20), PHI_EXPR)) is Verdict.PROVED_EQUAL

    @given(recipes)
    @settings(max_examples=100, deadline=None)
    def test_an_expression_built_twice_is_the_same_node(self, recipe):
        assert build(recipe) is build(recipe)


class TestOneWalk:
    def test_fold_steps_once_per_distinct_node(self):
        calls = []

        def step(*values):
            calls.append(values)
            return len(calls)

        fold(doubling(30), step, {kind: step for kind in (Add, Sub, Mul, Div, Neg, Sqrt)})
        assert len(calls) == 30 + 6

    def test_square_of_does_work_linear_in_the_node_count(self, monkeypatch):
        steps = {}

        def counting_fold(root, leaf, ops):
            def counted(op):
                def step(*values):
                    steps[root] = steps.get(root, 0) + 1
                    return op(*values)

                return step

            return fold(root, counted(leaf), {kind: counted(op) for kind, op in ops.items()})

        monkeypatch.setattr(identity_module, "fold", counting_fold)
        for levels in (10, 20, 40):
            dag = doubling(levels)
            squared = square_of(dag)
            # every node once, and nothing below sqrt(5), which squares to 5
            assert steps[dag] == levels + 5
            expected = mul(lit(4**levels), square_of(PHI_EXPR))
            assert compare_values(squared, expected) is Verdict.PROVED_EQUAL


SQUAREFREE = (2, 3, 5, 6, 7, 10, 11, 13, 14, 15, 17, 19, 21, 22, 23)


@st.composite
def radical_identities(draw):
    """Two sides equal by construction and outside one quadratic tower:
    a sum of roots against its nested form, or a denested radical.
    Draws that the exact tower decides after all (e.g. sqrt(2) + sqrt(10),
    whose radicands have the product 20 = 4*5) are rejected, so only the
    separation bound can prove these pairs equal."""
    if draw(st.booleans()):
        a, b = draw(st.lists(st.sampled_from(SQUAREFREE), min_size=2, max_size=2, unique=True))
        lhs = add(sqrt_(lit(a)), sqrt_(lit(b)))
        rhs = sqrt_(add(lit(a + b), mul(lit(2), sqrt_(lit(a * b)))))
    else:
        r = draw(st.sampled_from(SQUAREFREE))
        s, t = draw(st.integers(1, 6)), draw(st.integers(1, 4))
        # times sqrt(2), so that the denested side also leaves the tower
        outside = sqrt_(lit(2 if r != 2 else 3))
        lhs = mul(outside, sqrt_(add(lit(s * s + t * t * r), mul(lit(2 * s * t), sqrt_(lit(r))))))
        rhs = mul(outside, add(lit(s), mul(lit(t), sqrt_(lit(r)))))
    assume(exact_sign(sub(lhs, rhs)) is None)
    return lhs, rhs


class TestSeparationBound:
    def test_a_sum_of_roots_against_its_nested_form(self):
        lhs = add(sqrt_(lit(2)), sqrt_(lit(3)))
        rhs = sqrt_(add(lit(5), mul(lit(2), sqrt_(lit(6)))))
        assert exact_sign(sub(lhs, rhs)) is None  # beyond the exact tower
        assert verify_identity(lhs, rhs) is Verdict.PROVED_EQUAL

    @given(radical_identities())
    @settings(max_examples=60, deadline=None)
    def test_identities_beyond_the_tower_are_proved(self, pair):
        lhs, rhs = pair
        assert verify_identity(lhs, rhs) is Verdict.PROVED_EQUAL
        assert compare_values(rhs, lhs) is Verdict.PROVED_EQUAL

    @given(radical_identities(), st.integers(70, 300))
    @settings(max_examples=60, deadline=None)
    def test_a_tiny_shift_is_never_proved_equal(self, pair, k):
        lhs, rhs = pair
        shifted = add(rhs, lit(Fraction(1, 2**k)))
        # |shifted - lhs| = 2**-k, so the bound must reach that far
        assert separation_bits(sub(shifted, lhs)) >= k
        assert compare_values(lhs, shifted) is not Verdict.PROVED_EQUAL
        assert certified_sign(sub(shifted, lhs)) is not Sign.ZERO

    @given(st.integers(1, 2**80), st.integers(-60, 200), st.integers(1, 2**80), st.integers(-60, 200))
    @settings(max_examples=200)
    def test_the_bound_arithmetic_rounds_up(self, m, e, n, f):
        def value(bound):
            return Fraction(bound[0]) * Fraction(2) ** bound[1]

        x, y = _up(m, e), _up(n, f)
        assert value(x) >= m * Fraction(2) ** e
        assert value(_times(x, y)) >= value(x) * value(y)
        assert value(_plus(x, y)) >= value(x) + value(y)
        assert value(_root(x)) ** 2 >= value(x)
        assert Fraction(2) ** _log2_up(x) > value(x)

    @pytest.mark.parametrize("a, b", [(2, 1), (3, 2)])
    def test_the_bound_holds_for_powers_of_a_unit(self, a, b):
        # sqrt(a) - sqrt(b) has norm 1, so its powers are as small as the
        # bound allows: (sqrt(2) - 1)**128 is within a bit of it
        x = sub(sqrt_(lit(a)), sqrt_(lit(b)))
        for _ in range(7):
            x = mul(x, x)
            bits = separation_bits(x)
            lo, _ = eval_interval(x, bits + 64)
            assert lo >= 1 << 64  # |x| >= 2**-bits

    def test_repeated_squaring_of_a_shared_product_is_fast(self):
        # x*x twenty times over sqrt(2)*sqrt(2)/2: a million paths
        # through the products, twenty-odd distinct nodes
        root2 = sqrt_(lit(2))
        x = div(mul(root2, root2), lit(2))
        for _ in range(20):
            x = mul(x, x)
        start = time.perf_counter()
        assert compare_values(x, lit(1)) is Verdict.PROVED_EQUAL
        assert time.perf_counter() - start < 1.0


def folding_holds(lhs, relation, rhs):
    """The rule spec claims decided by before :func:`holds`, kept as the
    reference: the same sign table, over the difference that ``sub``
    folds."""
    if lhs is rhs:
        return relation != "<"
    signs = {"==": {Sign.ZERO}, "<": {Sign.POSITIVE}, "<=": {Sign.ZERO, Sign.POSITIVE}}[relation]
    try:
        return certified_sign(sub(rhs, lhs)) in signs
    except PrecisionExhausted:
        return None


relation_operands = tower_exprs() | recipes.map(build) | rationals.map(lit)
relation_pairs = (
    st.tuples(relation_operands, relation_operands)
    | st.tuples(rationals, rationals).map(lambda pair: (lit(pair[0]), lit(pair[1])))
    | relation_operands.map(lambda x: (x, x))
)
VERDICT_OF = {True: Verdict.PROVED_EQUAL, False: Verdict.PROVED_UNEQUAL, None: Verdict.UNDECIDED}


class TestHolds:
    """Spec claims and :func:`compare_values` decide every relation
    through :func:`holds`."""

    @given(relation_pairs)
    @settings(max_examples=150, deadline=None)
    def test_holds_agrees_with_compare_values_and_the_folding_rule(self, pair):
        a, b = pair
        for relation in RELATIONS:
            assert holds(a, relation, b) is folding_holds(a, relation, b)
        assert compare_values(a, b) is VERDICT_OF[holds(a, "==", b)]

    @given(relation_pairs)
    @settings(max_examples=150, deadline=None)
    def test_the_relations_are_one_order(self, pair):
        a, b = pair
        below, equal, above = holds(a, "<", b), holds(a, "==", b), holds(b, "<", a)
        if None not in (below, equal, above):
            assert [below, equal, above].count(True) == 1
        at_most = holds(a, "<=", b)
        if None in (below, equal):
            assert at_most is None
        else:
            assert at_most is (below or equal)
        assert holds(a, "<", a) is False

    def test_two_literals_past_the_folding_width_compare(self):
        # folding big + 1 - big would make a literal wider than the work
        # budget allows; holds asks the sign of the unfolded difference
        big = lit(2 ** 2**20)
        above = lit(2 ** 2**20 + 1)
        with pytest.raises(PrecisionExhausted):
            sub(above, big)
        assert (holds(big, "<", above), holds(above, "<=", big), holds(big, "==", above)) == (True, False, False)
        assert compare_values(big, above) is Verdict.PROVED_UNEQUAL
