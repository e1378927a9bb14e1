"""The flag-spec grammar, and the token cursor and expression productions
of its recursive-descent parser.

::

    spec      := "flag" STRING "{" canvas { let | region | star | check } "}"
    canvas    := "canvas" expr "x" expr ";"
    let       := "let" IDENT "=" expr ";"
    region    := "region" IDENT COLOR "rect" expr expr expr expr ";"
    star      := "star" COLOR ( "at" expr expr
                              | "at" "diagonal_intersection" "of" IDENT )
                 "diameter" expr ";"
    check     := "check" ( STRING expr REL expr { REL expr } [ detail ]
                         | "diagonals" "of" IDENT ) ";"
    REL       := "==" | "<" | "<="
    detail    := STRING | "show" IDENT
    COLOR     := "red" | "white" | "blue" | "green" | "yellow"
    expr      := term  { ("+" | "-") term }
    term      := unary { ("*" | "/") unary }
    unary     := "-" unary | primary
    primary   := NUMBER | "phi" | "sqrt" "(" expr ")" | IDENT
               | ( IDENT | "canvas" ) "." IDENT | "(" expr ")"

Numbers are ASCII digits with an optional fraction (``2``, ``2.4``),
and their values are exact rationals built from their digits.  The
relations are the keys of ``exactnum.identity.RELATIONS``, which
``holds`` decides.
An identifier is a word character that is not a decimal digit, followed
by word characters.  The reserved words are ``lexer.KEYWORDS``; ``x``
and ``rect`` are not reserved.  Region and star coordinates are written
in screen orientation (y grows downward from the flag's top-left corner),
the one frame of every layout.

The statement productions live in :mod:`.lower`, which lowers each one
as it parses.  An expression parses to a flat postfix program, a
:data:`Code` list of items in evaluation order:

- the certified ``Expr`` of a number or of ``phi``;
- the IDENT ``Token`` of a name;
- an :class:`Attribute` ``owner.name``;
- ``(build, arity)``: apply ``build`` to the last ``arity`` values;
- last, if there is one, the expression's first lexical or parse error:
  the program ends there, as the token list ends in an ERROR token.

Names and attributes resolve, and the error item is raised, when the
program runs in :func:`.lower.lower_expr`, so the first error in source
order is the one reported.  The parser keeps the current token in an
attribute that ``advance`` moves on, and the expression productions,
which see most tokens, test its kind and lexeme inline.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, NamedTuple, Union

from ..constructions import ColorRole
from ..errors import FlagSpecError, LexError, ParseError
from ..exactnum import PHI_EXPR, Expr, add, div, lit, mul, neg, sqrt_, sub
from .lexer import COLOR_KEYWORDS, KEYWORDS, Token, TokenKind, tokenize

_MAX_EXPR_DEPTH = 200

# an operator's (build, arity) item by its lexeme
_ADDITIVE = {"+": (add, 2), "-": (sub, 2)}
_MULTIPLICATIVE = {"*": (mul, 2), "/": (div, 2)}
_NEGATE = (neg, 1)
_SQRT = (sqrt_, 1)


class Attribute(NamedTuple):
    """``owner.name``: a size of a region or of the canvas."""

    owner: Token  # an IDENT, or the keyword ``canvas``
    name: Token


Code = list[Union[Expr, Token, Attribute, tuple[Callable[..., Expr], int], FlagSpecError]]


def _number(token: Token) -> Expr:
    """The exact literal of a NUMBER token, from its digits.  The whole
    and fractional digits convert to ints one part at a time, as
    ``Fraction(lexeme)`` converts them, so a number parses exactly when
    ``Fraction(lexeme)`` is within the interpreter's int-from-string
    digit limit."""
    whole, _, frac = token.lexeme.partition(".")
    try:
        if not frac:
            return lit(int(whole))
        scale = 10 ** len(frac)
        return lit(Fraction(int(whole) * scale + int(frac), scale))
    except ValueError:  # past the digit limit
        digits = len(whole) + len(frac)
        raise ParseError(token.line, token.col, "a shorter number", f"a {digits}-digit number") from None


class Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.last = len(tokens) - 1  # the EOF or ERROR token, never moved past
        self.token = tokens[0]  # the current token, tokens[pos]
        self.code: Code = []

    # -- token helpers ------------------------------------------------------

    def advance(self) -> Token:
        token = self.token
        if self.pos < self.last:
            self.pos += 1
            self.token = self.tokens[self.pos]
        return token

    def error(self, expected: str) -> LexError | ParseError:
        """The error at the current token: its LexError if it is an ERROR token, else a ParseError."""
        found = self.token
        if found.kind is TokenKind.ERROR:
            return LexError(found.line, found.col, found.lexeme)
        return ParseError(found.line, found.col, expected, found.describe())

    def at(self, *lexemes: str) -> bool:
        """Whether the current token is one of ``lexemes``: keywords,
        symbols and the grammar's own words differ by lexeme alone, so
        only a string with the same text must be told apart."""
        token = self.token
        return token.lexeme in lexemes and token.kind is not TokenKind.STRING

    def expect(self, lexeme: str, what: str | None = None) -> Token:
        if self.at(lexeme):
            return self.advance()
        raise self.error(what or (f"keyword {lexeme!r}" if lexeme in KEYWORDS else repr(lexeme)))

    def expect_kind(self, kind: TokenKind, what: str) -> Token:
        if self.token.kind is kind:
            return self.advance()
        raise self.error(what)

    def expect_color(self) -> ColorRole:
        if self.at(*COLOR_KEYWORDS):
            return ColorRole(self.advance().lexeme)
        raise self.error(f"color ({', '.join(COLOR_KEYWORDS)})")

    # -- expressions --------------------------------------------------------

    def parse_expr(self) -> Code:
        """The program of the expression at the current token, ending in
        the first lexical or parse error, if any."""
        self.code = []
        try:
            self.expr(0)
        except FlagSpecError as exc:
            self.code.append(exc)
        return self.code

    def nested(self, depth: int) -> int:
        """The depth inside one more ``(``, ``sqrt(`` or unary ``-``, at
        the current token."""
        if depth >= _MAX_EXPR_DEPTH:
            raise ParseError(self.token.line, self.token.col, "a shallower expression", "nesting too deep")
        return depth + 1

    # The productions test the current token's kind and lexeme inline: an
    # operator is a SYMBOL, never a STRING of the same text.

    def expr(self, depth: int) -> None:
        self.term(depth)
        token = self.token
        while token.kind is TokenKind.SYMBOL and token.lexeme in _ADDITIVE:
            self.advance()
            self.term(depth)
            self.code.append(_ADDITIVE[token.lexeme])
            token = self.token

    def term(self, depth: int) -> None:
        self.unary(depth)
        token = self.token
        while token.kind is TokenKind.SYMBOL and token.lexeme in _MULTIPLICATIVE:
            self.advance()
            self.unary(depth)
            self.code.append(_MULTIPLICATIVE[token.lexeme])
            token = self.token

    def unary(self, depth: int) -> None:
        token = self.token
        if token.kind is TokenKind.SYMBOL and token.lexeme == "-":
            depth = self.nested(depth)
            self.advance()
            self.unary(depth)
            self.code.append(_NEGATE)
        else:
            self.primary(depth)

    def primary(self, depth: int) -> None:
        token = self.token
        kind = token.kind
        if kind is TokenKind.NUMBER:
            self.code.append(_number(token))
            self.advance()
        elif kind is TokenKind.IDENT or self.at("canvas"):
            self.advance()
            if self.at("."):
                self.advance()
                self.code.append(Attribute(token, self.expect_kind(TokenKind.IDENT, "attribute name")))
            elif kind is TokenKind.KEYWORD:
                raise self.error("'.' after 'canvas'")
            else:
                self.code.append(token)
        elif self.at("phi"):
            self.advance()
            self.code.append(PHI_EXPR)
        elif self.at("sqrt"):
            depth = self.nested(depth)
            self.advance()
            self.expect("(")
            self.expr(depth)
            self.expect(")")
            self.code.append(_SQRT)
        elif self.at("("):
            depth = self.nested(depth)
            self.advance()
            self.expr(depth)
            self.expect(")")
        else:
            raise self.error("expression")


def parse(tokens: list[Token]) -> Code:
    """The program of a standalone expression: the whole token stream."""
    parser = Parser(tokens)
    code = parser.parse_expr()
    if parser.token.kind is not TokenKind.EOF and not isinstance(code[-1], FlagSpecError):
        code.append(parser.error("end of expression"))
    return code


def parse_expression(source: str) -> Code:
    """Parse a standalone arithmetic expression (the CLI eval input)."""
    return parse(tokenize(source))
