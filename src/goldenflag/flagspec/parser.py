"""Recursive-descent parser for the flag-spec grammar.

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
and their values are exact rationals built from their digits.
An identifier is a word character that is not a decimal digit, followed
by word characters.  The reserved words are ``lexer.KEYWORDS``; ``x``
and ``rect`` are not reserved.

Region and star coordinates are written in screen orientation (y grows
downward from the flag's top-left corner), the one frame of every layout.
A ``check`` states a claim that ``verify`` proves: every link of its
chain of relations must hold.

AST nodes are immutable ``NamedTuple`` records: they compare as tuples,
so code that walks them tells node kinds apart with ``isinstance``,
never by comparing nodes of different kinds.

The parser keeps the current token in an attribute that ``advance``
moves on, and the expression productions, which see most tokens, test
its kind and lexeme inline.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Union

from ..errors import ParseError
from .lexer import COLOR_KEYWORDS, KEYWORDS, Token, TokenKind, tokenize

_MAX_EXPR_DEPTH = 200

_RELATIONS = ("==", "<", "<=")
_ADDITIVE = frozenset(("+", "-"))
_MULTIPLICATIVE = frozenset(("*", "/"))


# --- expression AST -------------------------------------------------------


class NumberLit(NamedTuple):
    value: Fraction


class PhiConst(NamedTuple):
    pass


class NameRef(NamedTuple):
    name: str
    line: int
    col: int


class BinOp(NamedTuple):
    op: str  # one of + - * /
    lhs: "ExprAst"
    rhs: "ExprAst"


class Negate(NamedTuple):
    operand: "ExprAst"


class SqrtCall(NamedTuple):
    operand: "ExprAst"


class Attribute(NamedTuple):
    """``owner.name``: a size of a region or of the canvas."""

    owner: str  # a region name, or "canvas"
    name: str
    line: int
    col: int
    name_line: int
    name_col: int


ExprAst = Union[NumberLit, PhiConst, NameRef, Attribute, BinOp, Negate, SqrtCall]


# --- declaration AST -------------------------------------------------------


class LetDecl(NamedTuple):
    name: str
    expr: ExprAst
    line: int
    col: int


class RegionDecl(NamedTuple):
    name: str
    color: str
    x: ExprAst
    y: ExprAst
    width: ExprAst
    height: ExprAst
    line: int
    col: int


class CoordCenter(NamedTuple):
    x: ExprAst
    y: ExprAst


class DiagonalCenter(NamedTuple):
    region: str
    line: int
    col: int


class StarDecl(NamedTuple):
    color: str
    center: CoordCenter | DiagonalCenter
    diameter: ExprAst
    line: int
    col: int


class CheckDecl(NamedTuple):
    """A claim that ``terms[i] relations[i] terms[i + 1]`` holds for
    every i, printed with a verbatim ``detail`` or the value of the
    ``shown`` binding."""

    name: str
    terms: tuple[ExprAst, ...]
    relations: tuple[str, ...]
    detail: str
    shown: NameRef | None
    line: int
    col: int


class DiagonalsCheck(NamedTuple):
    """The angle configuration of a region's diagonals."""

    region: str
    line: int
    col: int


Decl = Union[LetDecl, RegionDecl, StarDecl, CheckDecl, DiagonalsCheck]


class SpecAst(NamedTuple):
    name: str
    canvas_width: ExprAst
    canvas_height: ExprAst
    items: tuple[Decl, ...]
    line: int
    col: int

    @property
    def regions(self) -> tuple[RegionDecl, ...]:
        return tuple(d for d in self.items if isinstance(d, RegionDecl))


def _number(token: Token) -> Fraction:
    """The exact value of a NUMBER token, from its digits.  The whole and
    fractional digits convert to ints one part at a time, as
    ``Fraction(lexeme)`` converts them, so a number parses exactly when
    ``Fraction(lexeme)`` is within the interpreter's int-from-string
    digit limit."""
    whole, _, frac = token.lexeme.partition(".")
    try:
        if not frac:
            return Fraction(int(whole))
        scale = 10 ** len(frac)
        return Fraction(int(whole) * scale + int(frac), scale)
    except ValueError:  # past the digit limit
        digits = len(whole) + len(frac)
        raise ParseError(token.line, token.col, "a shorter number", f"a {digits}-digit number") from None


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.token = tokens[0]  # the current token, tokens[pos]

    # -- token helpers ------------------------------------------------------

    def advance(self) -> Token:
        token = self.token
        if token.kind is not TokenKind.EOF:
            self.pos += 1
            self.token = self.tokens[self.pos]
        return token

    def error(self, expected: str) -> ParseError:
        found = self.token
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

    def expect_color(self) -> Token:
        if self.at(*COLOR_KEYWORDS):
            return self.advance()
        raise self.error("color (red, white, blue, green, yellow)")

    # -- grammar ------------------------------------------------------------

    def parse_spec(self) -> SpecAst:
        start = self.expect("flag")
        name_token = self.expect_kind(TokenKind.STRING, "flag name string")
        self.expect("{")
        self.expect("canvas")
        canvas_width = self.parse_expr()
        self.expect("x", "'x' between canvas width and height")
        canvas_height = self.parse_expr()
        self.expect(";")
        statements = {
            "let": self.parse_let,
            "region": self.parse_region,
            "star": self.parse_star,
            "check": self.parse_check,
        }
        items: list[Decl] = []
        while not self.at("}"):
            if not self.at(*statements):
                raise self.error("'let', 'region', 'star', 'check', or '}'")
            items.append(statements[self.token.lexeme]())
        self.expect("}")
        if self.token.kind is not TokenKind.EOF:
            raise self.error("end of input after '}'")
        return SpecAst(name_token.lexeme, canvas_width, canvas_height, tuple(items), start.line, start.col)

    def parse_let(self) -> LetDecl:
        start = self.expect("let")
        name = self.expect_kind(TokenKind.IDENT, "binding name")
        self.expect("=")
        value = self.parse_expr()
        self.expect(";")
        return LetDecl(name.lexeme, value, start.line, start.col)

    def parse_region(self) -> RegionDecl:
        start = self.expect("region")
        name = self.expect_kind(TokenKind.IDENT, "region name")
        color = self.expect_color()
        self.expect("rect")
        x = self.parse_expr()
        y = self.parse_expr()
        width = self.parse_expr()
        height = self.parse_expr()
        self.expect(";")
        return RegionDecl(
            name.lexeme, color.lexeme, x, y, width, height, start.line, start.col
        )

    def parse_star(self) -> StarDecl:
        start = self.expect("star")
        color = self.expect_color()
        self.expect("at")
        center: CoordCenter | DiagonalCenter
        if self.at("diagonal_intersection"):
            self.advance()
            self.expect("of")
            region = self.expect_kind(TokenKind.IDENT, "region name")
            center = DiagonalCenter(region.lexeme, region.line, region.col)
        else:
            cx = self.parse_expr()
            cy = self.parse_expr()
            center = CoordCenter(cx, cy)
        self.expect("diameter")
        diameter = self.parse_expr()
        self.expect(";")
        return StarDecl(color.lexeme, center, diameter, start.line, start.col)

    def parse_check(self) -> CheckDecl | DiagonalsCheck:
        start = self.expect("check")
        if self.at("diagonals"):
            self.advance()
            self.expect("of")
            region = self.expect_kind(TokenKind.IDENT, "region name")
            self.expect(";")
            return DiagonalsCheck(region.lexeme, region.line, region.col)
        name = self.expect_kind(TokenKind.STRING, "check name string or 'diagonals'")
        terms = [self.parse_expr()]
        if not self.at(*_RELATIONS):
            raise self.error("'==', '<', or '<='")
        relations = []
        while self.at(*_RELATIONS):
            relations.append(self.advance().lexeme)
            terms.append(self.parse_expr())
        detail, shown = "", None
        if self.token.kind is TokenKind.STRING:
            detail = self.advance().lexeme
        elif self.at("show"):
            self.advance()
            token = self.expect_kind(TokenKind.IDENT, "name to show")
            shown = NameRef(token.lexeme, token.line, token.col)
        self.expect(";")
        return CheckDecl(
            name.lexeme, tuple(terms), tuple(relations), detail, shown, start.line, start.col
        )

    def nested(self, depth: int) -> int:
        """The depth inside one more ``(``, ``sqrt(`` or unary ``-``, at
        the current token."""
        if depth >= _MAX_EXPR_DEPTH:
            raise ParseError(self.token.line, self.token.col, "a shallower expression", "nesting too deep")
        return depth + 1

    # The expression productions test the current token's kind and lexeme
    # inline: an operator is a SYMBOL, never a STRING of the same text.

    def parse_expr(self, depth: int = 0) -> ExprAst:
        node = self.parse_term(depth)
        token = self.token
        while token.kind is TokenKind.SYMBOL and token.lexeme in _ADDITIVE:
            self.advance()
            node = BinOp(token.lexeme, node, self.parse_term(depth))
            token = self.token
        return node

    def parse_term(self, depth: int) -> ExprAst:
        node = self.parse_unary(depth)
        token = self.token
        while token.kind is TokenKind.SYMBOL and token.lexeme in _MULTIPLICATIVE:
            self.advance()
            node = BinOp(token.lexeme, node, self.parse_unary(depth))
            token = self.token
        return node

    def parse_unary(self, depth: int) -> ExprAst:
        token = self.token
        if token.kind is TokenKind.SYMBOL and token.lexeme == "-":
            depth = self.nested(depth)
            self.advance()
            return Negate(self.parse_unary(depth))
        return self.parse_primary(depth)

    def parse_primary(self, depth: int) -> ExprAst:
        token = self.token
        kind = token.kind
        if kind is TokenKind.NUMBER:
            value = _number(token)
            self.advance()
            return NumberLit(value)
        if kind is TokenKind.IDENT or self.at("canvas"):
            self.advance()
            if self.at("."):
                self.advance()
                name = self.expect_kind(TokenKind.IDENT, "attribute name")
                return Attribute(
                    token.lexeme, name.lexeme, token.line, token.col, name.line, name.col
                )
            if kind is TokenKind.KEYWORD:
                raise self.error("'.' after 'canvas'")
            return NameRef(token.lexeme, token.line, token.col)
        if self.at("phi"):
            self.advance()
            return PhiConst()
        if self.at("sqrt"):
            depth = self.nested(depth)
            self.advance()
            self.expect("(")
            operand = self.parse_expr(depth)
            self.expect(")")
            return SqrtCall(operand)
        if self.at("("):
            depth = self.nested(depth)
            self.advance()
            node = self.parse_expr(depth)
            self.expect(")")
            return node
        raise self.error("expression")


def parse(tokens: list[Token]) -> SpecAst:
    """Parse a full flag spec from a token stream."""
    return _Parser(tokens).parse_spec()


def parse_source(source: str) -> SpecAst:
    return parse(tokenize(source))


def parse_expression(source: str) -> ExprAst:
    """Parse a standalone arithmetic expression (the CLI eval input)."""
    parser = _Parser(tokenize(source))
    node = parser.parse_expr()
    if parser.token.kind is not TokenKind.EOF:
        raise parser.error("end of expression")
    return node
