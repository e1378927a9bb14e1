"""Identity verification for constructible expressions.

The pipeline decides cheaply first and exactly second:

0. a filter: identical nodes are ProvedEqual, and disjoint 64-bit
   interval enclosures of the two sides are ProvedUnequal,
1. structural equality of the DAGs,
2. monomial canonicalization (exact rational coefficient times a
   multiset of structural factors),
3. exact normalization of the difference in a quadratic tower,
4. repeated squaring (sound once both sides share a sign), retrying the
   exact layers on the squared pair,
5. interval separation with the deterministic refinement schedule,
   from 128 bits on.

Exact layers can only answer ProvedEqual/ProvedUnequal; intervals can
only answer ProvedUnequal.  Whatever remains is Undecided.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from ..errors import DivisionByZero, PrecisionExhausted, SignMismatch
from . import interval as iv
from .expr import (
    SIGN_REFINE_CAP,
    SIGN_REFINE_START,
    Add,
    Div,
    Expr,
    Literal,
    Mul,
    Neg,
    Sign,
    Sqrt,
    Sub,
    _tower_normalize,
    _TowerFail,
    add,
    certified_sign,
    div,
    eval_interval,
    lit,
    mul,
    sub,
)

_MAX_SQUARINGS = 3


class Verdict(enum.Enum):
    PROVED_EQUAL = "ProvedEqual"
    PROVED_UNEQUAL = "ProvedUnequal"
    UNDECIDED = "Undecided"

    @property
    def label(self) -> str:
        return self.value


def square_of(x: Expr) -> Expr:
    """Expression for x**2 with one radical level peeled.

    ``sqrt(u)`` squares to ``u``, products and quotients square
    componentwise, and sums expand through the binomial identity; this
    is what lets a nested-radical identity drop into the exact field
    after squaring.
    """
    if isinstance(x, Literal):
        return Literal(x.value * x.value)
    if isinstance(x, Neg):
        return square_of(x.operand)
    if isinstance(x, Sqrt):
        return x.operand
    if isinstance(x, Mul):
        return mul(square_of(x.lhs), square_of(x.rhs))
    if isinstance(x, Div):
        return div(square_of(x.num), square_of(x.den))
    if isinstance(x, Add):
        return add(
            add(square_of(x.lhs), square_of(x.rhs)),
            mul(lit(2), mul(x.lhs, x.rhs)),
        )
    if isinstance(x, Sub):
        return sub(
            add(square_of(x.lhs), square_of(x.rhs)),
            mul(lit(2), mul(x.lhs, x.rhs)),
        )
    raise TypeError(f"unknown node {x!r}")  # pragma: no cover


def _monomial(x: Expr) -> tuple[Fraction, tuple[tuple[str, int], ...]]:
    """Split a product tree into an exact rational coefficient and a
    canonically ordered multiset of non-rational factors.

    Sound for equality: equal coefficient and equal factor multisets
    imply equal values.  (Factors are keyed structurally, so shared and
    merely-equal subterms cancel alike.)
    """
    coeff = Fraction(1)
    factors: dict[str, int] = {}

    def walk(node: Expr, exponent: int) -> None:
        nonlocal coeff
        if isinstance(node, Literal):
            coeff *= node.value if exponent == 1 else Fraction(1) / node.value
        elif isinstance(node, Neg):
            coeff = -coeff
            walk(node.operand, exponent)
        elif isinstance(node, Mul):
            walk(node.lhs, exponent)
            walk(node.rhs, exponent)
        elif isinstance(node, Div):
            walk(node.num, exponent)
            walk(node.den, -exponent)
        else:
            key = repr(node)
            factors[key] = factors.get(key, 0) + exponent

    walk(x, 1)
    canonical = tuple(
        sorted((k, e) for k, e in factors.items() if e != 0)
    )
    return coeff, canonical


def _exact_compare(lhs: Expr, rhs: Expr) -> Verdict | None:
    """Exact layers only; None when they cannot decide."""
    if lhs == rhs:
        return Verdict.PROVED_EQUAL
    if _monomial(lhs) == _monomial(rhs):
        return Verdict.PROVED_EQUAL
    try:
        tower, diff = _tower_normalize(Sub(lhs, rhs))
    except (_TowerFail, DivisionByZero):
        return None
    if tower.sign(diff) is Sign.ZERO:
        return Verdict.PROVED_EQUAL
    return Verdict.PROVED_UNEQUAL


def _enclosures_disjoint(lhs: Expr, rhs: Expr, working_bits: int) -> bool:
    try:
        a_lo, a_hi = eval_interval(lhs, working_bits)
        b_lo, b_hi = eval_interval(rhs, working_bits)
    except iv.StraddlesZero:
        return False
    return a_hi < b_lo or b_hi < a_lo


def _interval_separate(lhs: Expr, rhs: Expr) -> Verdict:
    # 64 bits was already tried by the filter in compare_values
    w = 2 * SIGN_REFINE_START
    while w <= SIGN_REFINE_CAP:
        if _enclosures_disjoint(lhs, rhs, w):
            return Verdict.PROVED_UNEQUAL
        w *= 2
    return Verdict.UNDECIDED


def compare_values(
    lhs: Expr,
    rhs: Expr,
    signs: tuple[Sign, Sign] | None = None,
) -> Verdict:
    """Lenient equality decision (no sign precondition enforced).

    ``signs``, when provided, are trusted certified signs of the two
    sides and unlock the squaring layer.
    """
    if lhs is rhs:
        return Verdict.PROVED_EQUAL
    if _enclosures_disjoint(lhs, rhs, SIGN_REFINE_START):
        return Verdict.PROVED_UNEQUAL
    current_l, current_r = lhs, rhs
    may_square = None if signs is None else (
        (signs[0].is_nonnegative and signs[1].is_nonnegative)
        or (signs[0].is_nonpositive and signs[1].is_nonpositive)
    )
    for round_no in range(_MAX_SQUARINGS + 1):
        verdict = _exact_compare(current_l, current_r)
        if verdict is not None:
            return verdict
        if round_no == _MAX_SQUARINGS:
            break
        if round_no == 0:
            if may_square is None:
                try:
                    s1 = certified_sign(lhs)
                    s2 = certified_sign(rhs)
                except PrecisionExhausted:
                    break
                may_square = (
                    (s1.is_nonnegative and s2.is_nonnegative)
                    or (s1.is_nonpositive and s2.is_nonpositive)
                )
            if not may_square:
                break
        try:
            current_l = square_of(current_l)
            current_r = square_of(current_r)
        except (PrecisionExhausted, DivisionByZero):
            break
    return _interval_separate(lhs, rhs)


def verify_identity(lhs: Expr, rhs: Expr) -> Verdict:
    """Decide whether two certified expressions denote the same real.

    Precondition: both sides certified nonnegative, or both certified
    nonpositive (squaring is only an equivalence for matching signs);
    :class:`SignMismatch` is raised when certified signs strictly
    disagree.  When a sign cannot be certified at the refinement cap
    the exact layers still run, but squaring is skipped.
    """
    signs: tuple[Sign, Sign] | None
    try:
        signs = (certified_sign(lhs), certified_sign(rhs))
    except PrecisionExhausted:
        signs = None
    if signs is not None:
        nonneg = signs[0].is_nonnegative and signs[1].is_nonnegative
        nonpos = signs[0].is_nonpositive and signs[1].is_nonpositive
        if not (nonneg or nonpos):
            raise SignMismatch(
                f"certified signs disagree: {signs[0].name} vs {signs[1].name}"
            )
    return compare_values(lhs, rhs, signs)
