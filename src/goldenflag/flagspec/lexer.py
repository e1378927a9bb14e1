"""Tokenizer for the flag-spec language.

``#`` starts a comment running to end of line.  Numbers are integers or
finite decimals (converted exactly to rationals later); a number
immediately followed by a letter, underscore, or second dot is
malformed.  Strings are double-quoted with no escapes and may not span
lines.  ``==`` and ``<=`` are single symbols.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

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

_SYMBOLS = frozenset("{}();=+-*/.<")
_TWO_CHAR_SYMBOLS = frozenset({"==", "<="})


@dataclass(frozen=True)
class Token:
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
    line = 1
    col = 1
    i = 0
    n = len(source)

    def advance(count: int = 1) -> None:
        nonlocal i, line, col
        for _ in range(count):
            if i < n and source[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = source[i]
        if ch in " \t\r\n":
            advance()
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                advance()
            continue
        start_line, start_col = line, col
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            if j < n and source[j] == ".":
                j += 1
                if j >= n or not source[j].isdigit():
                    raise LexError(start_line, col + (j - i) - 1, "malformed number: expected digits after '.'")
                while j < n and source[j].isdigit():
                    j += 1
            if j < n and (source[j].isalnum() or source[j] in "_."):
                bad_col = col + (j - i)
                raise LexError(start_line, bad_col, f"malformed number near {source[i:j + 1]!r}")
            lexeme = source[i:j]
            advance(j - i)
            tokens.append(Token(TokenKind.NUMBER, lexeme, start_line, start_col))
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            lexeme = source[i:j]
            advance(j - i)
            kind = TokenKind.KEYWORD if lexeme in KEYWORDS else TokenKind.IDENT
            tokens.append(Token(kind, lexeme, start_line, start_col))
            continue
        if ch == '"':
            j = i + 1
            while j < n and source[j] not in '"\n':
                j += 1
            if j >= n or source[j] == "\n":
                raise LexError(start_line, start_col, "unterminated string")
            lexeme = source[i + 1 : j]
            advance(j - i + 1)
            tokens.append(Token(TokenKind.STRING, lexeme, start_line, start_col))
            continue
        if source[i : i + 2] in _TWO_CHAR_SYMBOLS:
            tokens.append(Token(TokenKind.SYMBOL, source[i : i + 2], start_line, start_col))
            advance(2)
            continue
        if ch in _SYMBOLS:
            advance()
            tokens.append(Token(TokenKind.SYMBOL, ch, start_line, start_col))
            continue
        raise LexError(start_line, start_col, f"illegal character {ch!r}")
    tokens.append(Token(TokenKind.EOF, "", line, col))
    return tokens
