"""The identity verifier: exact proofs, squaring reduction, separation."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goldenflag.constructions import nepal_ratio_expr
from goldenflag.errors import SignMismatch
from goldenflag.exactnum import (
    PHI_EXPR,
    SQRT5_EXPR,
    Add,
    Div,
    GoldenNumber,
    Mul,
    Neg,
    Sqrt,
    Sub,
    Verdict,
    add,
    certified_sign,
    compare_values,
    div,
    gn_normalize,
    gn_to_expr,
    lit,
    mul,
    neg,
    sqrt_,
    square_of,
    sub,
    verify_identity,
)
from goldenflag.exactnum import identity as identity_module
from goldenflag.exactnum.expr import exact_sign, fold
from goldenflag.exactnum.identity import _exact_compare
from goldenflag.geometry import TAN36

TAN36_SECOND_FORM = div(sqrt_(sqrt_(lit(5))), sqrt_(add(lit(2), SQRT5_EXPR)))

rationals = st.fractions(min_value=-30, max_value=30, max_denominator=25)

# Small coefficients make equal pairs and exact zeros common, so the
# exact layers behind the 64-bit filter are reached often.
small = st.fractions(min_value=-3, max_value=3, max_denominator=2)
golden_exprs = st.builds(lambda a, b: gn_to_expr(GoldenNumber(a, b)), small, small)
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
        expected = GoldenNumber(5, -2)
        assert gn_normalize(square_of(TAN36)) == expected
        assert gn_normalize(square_of(TAN36_SECOND_FORM)) == expected

    def test_phi_against_its_closed_form(self):
        assert verify_identity(gn_to_expr(GoldenNumber(Fraction(1, 2), Fraction(1, 2))), PHI_EXPR) is Verdict.PROVED_EQUAL

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
        nepal = nepal_ratio_expr()
        assert verify_identity(nepal, nepal) is Verdict.PROVED_EQUAL


class TestSignPrecondition:
    def test_strictly_opposed_signs_raise(self):
        with pytest.raises(SignMismatch):
            verify_identity(PHI_EXPR, neg(PHI_EXPR))

    def test_zero_is_compatible_with_either_sign(self):
        zero = sub(sub(mul(PHI_EXPR, PHI_EXPR), PHI_EXPR), lit(1))
        assert verify_identity(zero, lit(0)) is Verdict.PROVED_EQUAL
        assert verify_identity(zero, neg(PHI_EXPR)) is Verdict.PROVED_UNEQUAL


class TestMonomialCanonicalization:
    def test_scalar_multiples_of_an_opaque_radical(self):
        # the nested sqrt(2) radicals are beyond the exact tower, so this
        # equality is only reachable through the monomial layer
        nepal = nepal_ratio_expr()
        lhs = mul(nepal, lit(Fraction(3, 2)))
        rhs = mul(lit(Fraction(3, 4)), mul(lit(2), nepal))
        assert compare_values(lhs, rhs) is Verdict.PROVED_EQUAL

    def test_division_cancels_structurally_equal_factors(self):
        nepal = nepal_ratio_expr()
        lhs = div(mul(lit(6), nepal), mul(lit(3), nepal))
        assert compare_values(lhs, lit(2)) is Verdict.PROVED_EQUAL


class TestCompareValuesLenient:
    @given(rationals, rationals)
    @settings(max_examples=100)
    def test_field_elements_always_decide(self, a, b):
        x = GoldenNumber(a, b)
        y = GoldenNumber(a, b) + GoldenNumber(1, 0)
        assert compare_values(gn_to_expr(x), gn_to_expr(x)) is Verdict.PROVED_EQUAL
        assert compare_values(gn_to_expr(x), gn_to_expr(y)) is Verdict.PROVED_UNEQUAL

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
        exact = _exact_compare(lhs, rhs)
        if exact is not None:
            assert compare_values(lhs, rhs) is exact

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
