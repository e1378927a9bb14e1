"""Exact scalar arithmetic: rationals, one quadratic-extension algebra
(:class:`Quadratic`) that is both the a+b*sqrt(5) field :data:`GOLDEN`
and the one-radicand tower over it, certified constructible-number
expressions with fixed-point interval enclosures, and an identity
verifier."""

from .decimalfmt import decimal_str, round_fraction_str
from .expr import (
    Add,
    Div,
    Expr,
    Literal,
    Mul,
    Neg,
    PHI_EXPR,
    SQRT5_EXPR,
    Sqrt,
    Sub,
    add,
    certified_sign,
    div,
    exact_rational,
    gn_normalize,
    gn_to_expr,
    lit,
    mul,
    neg,
    sqrt_,
    sub,
)
from .golden import GOLDEN, PHI, Quadratic, Sign
from .identity import Verdict, compare_values, square_of, verify_identity
from .rational import Rational, as_rational, is_perfect_square

__all__ = [
    "Add",
    "Div",
    "Expr",
    "GOLDEN",
    "Literal",
    "Mul",
    "Neg",
    "PHI",
    "PHI_EXPR",
    "Quadratic",
    "Rational",
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
    "exact_rational",
    "gn_normalize",
    "gn_to_expr",
    "is_perfect_square",
    "lit",
    "mul",
    "neg",
    "round_fraction_str",
    "sqrt_",
    "square_of",
    "sub",
    "verify_identity",
]
