"""Identity verification for constructible expressions.

Two expressions are equal exactly when their difference is zero, so a
verdict is the :func:`certified_sign` of ``lhs - rhs`` (filter, exact
tower, then refinement stopped by a separation bound), after a
short-circuit for identical nodes (nodes are hash-consed, so that is
structural equality).  Undecided means only that the refinement ran out
of its work budget before an enclosure was narrower than the bound.
"""

from __future__ import annotations

import enum

from ..errors import PrecisionExhausted, SignMismatch
from .expr import (
    Add,
    Div,
    Expr,
    Literal,
    Mul,
    Neg,
    Sign,
    Sqrt,
    Sub,
    add,
    certified_sign,
    div,
    enclosure_memo,
    eval_interval,  # noqa: F401  (bound here by the layer tracer in bench/)
    fold,
    lit,
    mul,
    sub,
)


class Verdict(enum.Enum):
    PROVED_EQUAL = "ProvedEqual"
    PROVED_UNEQUAL = "ProvedUnequal"
    UNDECIDED = "Undecided"


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


def compare_values(lhs: Expr, rhs: Expr) -> Verdict:
    """Decide whether two expressions denote the same real, whatever
    their signs: the certified sign of their difference."""
    if lhs is rhs:
        return Verdict.PROVED_EQUAL
    try:
        sign = certified_sign(Sub(lhs, rhs))
    except PrecisionExhausted:
        return Verdict.UNDECIDED
    return Verdict.PROVED_EQUAL if sign is Sign.ZERO else Verdict.PROVED_UNEQUAL


def verify_identity(lhs: Expr, rhs: Expr) -> Verdict:
    """Decide whether two certified expressions denote the same real.

    Contract: a stated identity relates two sides of one sign, so
    :class:`SignMismatch` is raised when the certified signs strictly
    disagree (one side positive, the other negative).  When a sign
    cannot be certified the check is skipped; the verdict itself never
    depends on it.  One call is one :func:`enclosure_memo` scope, so the
    three signs share the enclosures of the two sides' subterms.
    """
    with enclosure_memo():
        try:
            signs = certified_sign(lhs), certified_sign(rhs)
        except PrecisionExhausted:
            pass
        else:
            if set(signs) == {Sign.POSITIVE, Sign.NEGATIVE}:
                raise SignMismatch(f"certified signs disagree: {signs[0].name} vs {signs[1].name}")
        return compare_values(lhs, rhs)
