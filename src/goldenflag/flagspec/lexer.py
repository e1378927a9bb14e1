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
The stream ends in EOF, or in an ERROR token whose lexeme is the
message of the first lexical error.  The parser reaches that token only
after the tokens before it, so an earlier error in source order comes
first.
"""

from __future__ import annotations

import enum
import re
from functools import partial
from typing import NamedTuple

from ..constructions import ColorRole


class TokenKind(enum.Enum):
    IDENT = "ident"
    NUMBER = "number"
    KEYWORD = "keyword"
    SYMBOL = "symbol"
    STRING = "string"
    EOF = "eof"
    ERROR = "error"


# the color words, in ColorRole's order
COLOR_KEYWORDS = tuple(role.value for role in ColorRole)

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
        *COLOR_KEYWORDS,
    }
)

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
    """The token stream, ending in EOF or in the first lexical error's ERROR token."""
    tokens: list[Token] = []
    append = tokens.append
    line, line_start, pos = 1, 0, 0
    kind, message = TokenKind.EOF, ""  # of the last token, which stands at pos
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
                stop = start + len(text)  # the number's end, before its blanks
                if text[-1] == ".":
                    kind, message, pos = TokenKind.ERROR, "malformed number: expected digits after '.'", stop - 1
                    break
                after = source[stop : stop + 1]
                if after and (after.isalnum() or after in "_."):
                    kind, message, pos = TokenKind.ERROR, f"malformed number near {text + after!r}", stop
                    break
            append(_token((_GROUP_KINDS[group], text, line, col)))
    if kind is TokenKind.EOF and pos < len(source):
        kind = TokenKind.ERROR
        message = "unterminated string" if source[pos] == '"' else f"illegal character {source[pos]!r}"
    append(Token(kind, message, line, pos - line_start + 1))
    return tokens
