"""Tokenizer for the flag-spec language.

One pattern, :data:`_TOKEN`, is the lexical grammar (stated in the
parser's docstring).  Whitespace and ``#`` comments, which run to end of
line, are skipped.  A number that ends in ``.`` or runs into a word
character or a second dot is malformed.  Strings are double-quoted with
no escapes and may not span lines.  ``==`` and ``<=`` are single symbols.

:func:`tokenize` scans the source once: each match of the pattern is one
token together with the blanks after it, or a skipped run of whitespace
or a comment, and the scan stops at the first character where no token
starts.  A token's kind comes from its pattern group by one dict lookup.
"""

from __future__ import annotations

import enum
import re
from functools import partial
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
    r"(?:(?P<skip>[ \t\r\n]+|#[^\n]*)"
    r"|(?P<NUMBER>[0-9]+(?:\.[0-9]*)?)"
    r"|(?P<word>[^\W\d]\w*)"
    r'|(?P<STRING>"[^"\n]*")'
    r"|(?P<SYMBOL>==|<=|[{}();=+\-*/.<]))"
    r"[ \t]*"  # the blanks after a token, skipped in the same match
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


# a Token from one tuple of its fields, without the Python-level __new__
_token = partial(tuple.__new__, Token)
# the kind of a token by its pattern group; a word is a KEYWORD or an IDENT
_GROUP_KINDS = {"NUMBER": TokenKind.NUMBER, "SYMBOL": TokenKind.SYMBOL}
_WORD_KINDS = dict.fromkeys(KEYWORDS, TokenKind.KEYWORD)


def tokenize(source: str) -> list[Token]:
    """Full token stream ending in EOF, or a positioned LexError."""
    tokens: list[Token] = []
    append = tokens.append
    line, line_start, pos = 1, 0, 0
    for match in _TOKEN.finditer(source):
        start, end = match.span()
        if start != pos:  # the scan skipped a character where no token starts
            break
        group, pos = match.lastgroup, end
        if group == "skip":
            text = match.group()
            if "\n" in text:
                line += text.count("\n")
                line_start = source.rfind("\n", 0, pos) + 1
            continue
        text, col = match.group(group), start - line_start + 1
        if group == "word":
            append(_token((_WORD_KINDS.get(text, TokenKind.IDENT), text, line, col)))
        elif group == "STRING":
            append(_token((TokenKind.STRING, text[1:-1], line, col)))
        else:
            if group == "NUMBER":
                if text[-1] == ".":
                    raise LexError(line, col + len(text) - 1, "malformed number: expected digits after '.'")
                after = source[start + len(text) : start + len(text) + 1]
                if after and (after.isalnum() or after in "_."):
                    raise LexError(line, col + len(text), f"malformed number near {text + after!r}")
            append(_token((_GROUP_KINDS[group], text, line, col)))
    col = pos - line_start + 1
    if pos < len(source):
        message = "unterminated string" if source[pos] == '"' else f"illegal character {source[pos]!r}"
        raise LexError(line, col, message)
    append(Token(TokenKind.EOF, "", line, col))
    return tokens
