"""Declarative flag-spec language: tokenizer, expression parser, and the
one pass that lowers a spec into an exact flag layout."""

from .lexer import KEYWORDS, Token, TokenKind, tokenize
from .lower import lower, lower_expr, lower_source
from .parser import parse, parse_expression

__all__ = [
    "KEYWORDS",
    "Token",
    "TokenKind",
    "lower",
    "lower_expr",
    "lower_source",
    "parse",
    "parse_expression",
    "tokenize",
]
