"""Identity verification for constructible expressions.

The pipeline decides cheaply first and exactly second:

0. a filter: identical nodes are ProvedEqual (nodes are hash-consed, so
   this is structural equality), and disjoint 64-bit interval enclosures
   of the two sides are ProvedUnequal,
1. monomial canonicalization (exact rational coefficient times a
   multiset of factor nodes),
2. exact normalization of the difference in a quadratic tower,
3. repeated squaring (sound once both sides share a sign), retrying the
   exact layers on the squared pair,
4. interval separation with the deterministic refinement schedule,
   from 128 bits on.

Exact layers can only answer ProvedEqual/ProvedUnequal; intervals can
only answer ProvedUnequal.  Whatever remains is Undecided.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from ..errors import DivisionByZero, NotInField, PrecisionExhausted, SignMismatch
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
    add,
    certified_sign,
    div,
    eval_interval,
    fold,
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

    ``sqrt(u)`` squares to ``u`` without descending into ``u``, products
    and quotients square componentwise, and sums expand through the
    binomial identity; this is what lets a nested-radical identity drop
    into the exact field after squaring.
    """
    return fold(x, _square_leaf, _SQUARE_OPS)[1]


# square_of's algebra.  Each node's value is the pair (node, node**2) so
# that a sum can form its cross term from its operands; rebuilding a
# node from its operands returns the interned original.


def _square_leaf(x: Expr) -> tuple[Expr, Expr]:
    if isinstance(x, Sqrt):
        return x, x.operand
    return x, Literal(x.value * x.value)


_SQUARE_OPS = {
    Neg: lambda a: (Neg(a[0]), a[1]),
    Mul: lambda a, b: (Mul(a[0], b[0]), mul(a[1], b[1])),
    Div: lambda a, b: (Div(a[0], b[0]), div(a[1], b[1])),
    Add: lambda a, b: (Add(a[0], b[0]), add(add(a[1], b[1]), mul(lit(2), mul(a[0], b[0])))),
    Sub: lambda a, b: (Sub(a[0], b[0]), sub(add(a[1], b[1]), mul(lit(2), mul(a[0], b[0])))),
}


def _monomial(x: Expr) -> tuple[Fraction, dict[Expr, int]]:
    """Split a product tree into an exact rational coefficient and the
    multiset of its non-rational factors, as factor node -> exponent.

    Sound for equality: equal coefficient and equal factor multisets
    imply equal values.  (Nodes are interned, so equal factors are one
    key and cancel.)
    """
    coeff = Fraction(1)
    factors: dict[Expr, int] = {}
    stack = [(x, 1)]
    while stack:
        node, exponent = stack.pop()
        if isinstance(node, Literal):
            coeff *= node.value if exponent == 1 else Fraction(1) / node.value
        elif isinstance(node, Neg):
            coeff = -coeff
            stack.append((node.operand, exponent))
        elif isinstance(node, Mul):
            stack += ((node.lhs, exponent), (node.rhs, exponent))
        elif isinstance(node, Div):
            stack += ((node.num, exponent), (node.den, -exponent))
        else:
            factors[node] = factors.get(node, 0) + exponent
    return coeff, {node: e for node, e in factors.items() if e != 0}


def _exact_compare(lhs: Expr, rhs: Expr) -> Verdict | None:
    """Exact layers only; None when they cannot decide."""
    if _monomial(lhs) == _monomial(rhs):
        return Verdict.PROVED_EQUAL
    try:
        tower, diff = _tower_normalize(Sub(lhs, rhs))
    except (NotInField, DivisionByZero):
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
