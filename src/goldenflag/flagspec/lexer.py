"""Tokenizer for the flag-spec language.

One pattern, :data:`_TOKEN`, is the lexical grammar (stated in the
parser's docstring).  Whitespace and ``#`` comments, which run to end of
line, are skipped.  A number that ends in ``.`` or runs into a word
character or a second dot is malformed.  Strings are double-quoted with
no escapes and may not span lines.  ``==`` and ``<=`` are single symbols.
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

from ..errors import LexError


class TokenKind(enum.Enum):
    IDENT = "ident"
    NUMBER = "number"
    KEYWORD = "keyword"
    SYMBOL = "symbol"
    STRING = "string"
    EOF = "eof"


KEYWORDS = frozenset(
    {
        "flag",
        "canvas",
        "let",
        "region",
        "star",
        "check",
        "show",
        "diagonals",
        "at",
        "of",
        "diameter",
        "diagonal_intersection",
        "sqrt",
        "phi",
        "red",
        "white",
        "blue",
        "green",
        "yellow",
    }
)

COLOR_KEYWORDS = frozenset({"red", "white", "blue", "green", "yellow"})

_TOKEN = re.compile(
    r"(?P<skip>[ \t\r\n]+|#[^\n]*)"
    r"|(?P<NUMBER>[0-9]+(?:\.[0-9]*)?)"
    r"|(?P<word>[^\W\d]\w*)"
    r'|(?P<STRING>"[^"\n]*")'
    r"|(?P<SYMBOL>==|<=|[{}();=+\-*/.<])"
)


class Token(NamedTuple):
    kind: TokenKind
    lexeme: str
    line: int
    col: int

    def describe(self) -> str:
        if self.kind is TokenKind.EOF:
            return "end of input"
        return f"{self.kind.value} {self.lexeme!r}"


def tokenize(source: str) -> list[Token]:
    """Full token stream ending in EOF, or a positioned LexError."""
    tokens: list[Token] = []
    line, line_start, pos = 1, 0, 0
    while match := _TOKEN.match(source, pos):
        group, text, col = match.lastgroup, match.group(), pos - line_start + 1
        pos = match.end()
        if group == "skip":
            if "\n" in text:
                line += text.count("\n")
                line_start = source.rfind("\n", 0, pos) + 1
            continue
        if group == "NUMBER":
            if text.endswith("."):
                raise LexError(line, col + len(text) - 1, "malformed number: expected digits after '.'")
            after = source[pos : pos + 1]
            if after and (after.isalnum() or after in "_."):
                raise LexError(line, col + len(text), f"malformed number near {text + after!r}")
        if group == "word":
            kind = TokenKind.KEYWORD if text in KEYWORDS else TokenKind.IDENT
        else:
            kind = TokenKind[group]
        lexeme = text[1:-1] if kind is TokenKind.STRING else text
        tokens.append(Token(kind, lexeme, line, col))
    col = pos - line_start + 1
    if pos < len(source):
        message = "unterminated string" if source[pos] == '"' else f"illegal character {source[pos]!r}"
        raise LexError(line, col, message)
    tokens.append(Token(TokenKind.EOF, "", line, col))
    return tokens
