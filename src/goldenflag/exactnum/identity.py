"""Identity verification for constructible expressions.

Every relation between two expressions is decided in one place,
:func:`holds`: ``lhs <relation> rhs`` holds exactly when the
:func:`certified_sign` of ``rhs - lhs`` (filter, exact tower, then
refinement stopped by a separation bound) is one that :data:`RELATIONS`
lists for it, after a short-circuit for identical nodes (nodes are
hash-consed, so that is structural equality).  Spec claims and
:func:`compare_values` both ask it, and :data:`RELATIONS` is also the
set of relations the spec grammar accepts.  :class:`Verdict` is the one
outcome type: :meth:`Verdict.of` names each answer of :func:`holds`, for
an identity, a spec claim and a point check alike.  Undecided means only
that the refinement ran out of its work budget before an enclosure was
narrower than the bound.
"""

from __future__ import annotations

import enum

from ..errors import PrecisionExhausted
from .expr import (
    Add,
    Div,
    Expr,
    Literal,
    Mul,
    Sign,
    Sqrt,
    Sub,
    add,
    certified_sign,
    div,
    eval_interval,  # noqa: F401  (bound here by the layer tracer in bench/)
    fold,
    lit,
    mul,
    sub,
)


class Verdict(enum.Enum):
    """The outcome of a question: ProvedEqual or ProvedUnequal for a
    single ``==``, Pass or Fail for any other chain of relations, and
    Undecided when the work budget ran out first."""

    PROVED_EQUAL = "ProvedEqual"
    PROVED_UNEQUAL = "ProvedUnequal"
    UNDECIDED = "Undecided"
    PASS = "Pass"
    FAIL = "Fail"

    @property
    def ok(self) -> bool:
        return self in (Verdict.PROVED_EQUAL, Verdict.PASS)

    @classmethod
    def of(cls, answer: bool | None, equality: bool = True) -> Verdict:
        """The verdict on an answer of :func:`holds`: of an ``==``
        question, or with ``equality`` false of any other chain."""
        if answer is None:
            return cls.UNDECIDED
        if equality:
            return cls.PROVED_EQUAL if answer else cls.PROVED_UNEQUAL
        return cls.PASS if answer else cls.FAIL


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
    Mul: lambda a, b: (Mul(a[0], b[0]), mul(a[1], b[1])),
    Div: lambda a, b: (Div(a[0], b[0]), div(a[1], b[1])),
    Add: lambda a, b: (Add(a[0], b[0]), add(add(a[1], b[1]), mul(lit(2), mul(a[0], b[0])))),
    Sub: lambda a, b: (Sub(a[0], b[0]), sub(add(a[1], b[1]), mul(lit(2), mul(a[0], b[0])))),
}


# the signs of ``rhs - lhs`` under which ``lhs <relation> rhs`` holds
RELATIONS = {"==": {Sign.ZERO}, "<": {Sign.POSITIVE}, "<=": {Sign.ZERO, Sign.POSITIVE}}


def holds(lhs: Expr, relation: str, rhs: Expr) -> bool | None:
    """Whether ``lhs <relation> rhs`` holds, for a relation of
    :data:`RELATIONS`, or None when the sign of the difference runs out
    of its work budget.  The difference is the raw :class:`Sub` node, so
    asking never folds two literals into one, whose width could be past
    the budget."""
    if lhs is rhs:
        return relation != "<"
    try:
        return certified_sign(Sub(rhs, lhs)) in RELATIONS[relation]
    except PrecisionExhausted:
        return None


def compare_values(lhs: Expr, rhs: Expr) -> Verdict:
    """Decide whether two expressions denote the same real, whatever
    their signs: the verdict of ``holds(lhs, "==", rhs)``."""
    return Verdict.of(holds(lhs, "==", rhs))


def verify_identity(lhs: Expr, rhs: Expr) -> Verdict:
    """Decide a stated identity ``lhs == rhs``: :func:`compare_values`
    under the name the layout verifier asks, so sides of opposite signs
    are ProvedUnequal, from the one sign of their difference."""
    return compare_values(lhs, rhs)
