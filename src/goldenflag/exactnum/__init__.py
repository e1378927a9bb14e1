"""Exact scalar arithmetic: rationals, which are
:class:`fractions.Fraction`, the field Q(sqrt5) (:data:`GOLDEN`, whose
elements are canonical integer triples ``(a, b, d)`` meaning
``(a + b*sqrt(5))/d``), the generic quadratic-extension algebra
(:class:`Quadratic`) that is the one-radicand tower over it, certified
constructible-number expressions with fixed-point interval enclosures,
and an identity verifier whose :func:`holds` decides every relation."""

from .decimalfmt import decimal_str
from .expr import (
    Add,
    Div,
    Expr,
    Literal,
    Mul,
    PHI_EXPR,
    SQRT5_EXPR,
    Sqrt,
    Sub,
    add,
    as_rational,
    certified_sign,
    div,
    enclosure_memo,
    exact_rational,
    lit,
    mul,
    neg,
    sqrt_,
    sub,
)
from .golden import GOLDEN, Quadratic, Sign
from .identity import Verdict, compare_values, holds, square_of, verify_identity

__all__ = [
    "Add",
    "Div",
    "Expr",
    "GOLDEN",
    "Literal",
    "Mul",
    "PHI_EXPR",
    "Quadratic",
    "SQRT5_EXPR",
    "Sign",
    "Sqrt",
    "Sub",
    "Verdict",
    "add",
    "as_rational",
    "certified_sign",
    "compare_values",
    "decimal_str",
    "div",
    "enclosure_memo",
    "exact_rational",
    "holds",
    "lit",
    "mul",
    "neg",
    "sqrt_",
    "square_of",
    "sub",
    "verify_identity",
]
