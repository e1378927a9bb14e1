"""Recursive-descent parser for the flag-spec grammar.

::

    spec      := "flag" STRING "{" canvas { let | region | star } "}"
    canvas    := "canvas" expr "x" expr ";"
    let       := "let" IDENT "=" expr ";"
    region    := "region" IDENT COLOR "rect" expr expr expr expr ";"
    star      := "star" COLOR ( "at" expr expr
                              | "at" "diagonal_intersection" "of" IDENT )
                 "diameter" expr ";"
    COLOR     := "red" | "white" | "blue" | "green" | "yellow"
    expr      := term  { ("+" | "-") term }
    term      := unary { ("*" | "/") unary }
    unary     := "-" unary | primary
    primary   := NUMBER | "phi" | "sqrt" "(" expr ")" | IDENT | "(" expr ")"

Region and star coordinates are written in screen orientation (y grows
downward from the flag's top-left corner); lowering flips them into the
internal mathematical frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from ..errors import ParseError
from .lexer import COLOR_KEYWORDS, Token, TokenKind, tokenize

_MAX_EXPR_DEPTH = 200


# --- expression AST -------------------------------------------------------


@dataclass(frozen=True)
class NumberLit:
    value: Fraction


@dataclass(frozen=True)
class PhiConst:
    pass


@dataclass(frozen=True)
class NameRef:
    name: str
    line: int
    col: int


@dataclass(frozen=True)
class BinOp:
    op: str  # one of + - * /
    lhs: "ExprAst"
    rhs: "ExprAst"


@dataclass(frozen=True)
class Negate:
    operand: "ExprAst"


@dataclass(frozen=True)
class SqrtCall:
    operand: "ExprAst"


ExprAst = Union[NumberLit, PhiConst, NameRef, BinOp, Negate, SqrtCall]


# --- declaration AST -------------------------------------------------------


@dataclass(frozen=True)
class LetDecl:
    name: str
    expr: ExprAst
    line: int
    col: int


@dataclass(frozen=True)
class RegionDecl:
    name: str
    color: str
    x: ExprAst
    y: ExprAst
    width: ExprAst
    height: ExprAst
    line: int
    col: int


@dataclass(frozen=True)
class CoordCenter:
    x: ExprAst
    y: ExprAst


@dataclass(frozen=True)
class DiagonalCenter:
    region: str
    line: int
    col: int


@dataclass(frozen=True)
class StarDecl:
    color: str
    center: CoordCenter | DiagonalCenter
    diameter: ExprAst
    line: int
    col: int


@dataclass(frozen=True)
class SpecAst:
    name: str
    canvas_width: ExprAst
    canvas_height: ExprAst
    items: tuple[LetDecl | RegionDecl | StarDecl, ...]

    @property
    def lets(self) -> tuple[LetDecl, ...]:
        return tuple(d for d in self.items if isinstance(d, LetDecl))

    @property
    def regions(self) -> tuple[RegionDecl, ...]:
        return tuple(d for d in self.items if isinstance(d, RegionDecl))

    @property
    def stars(self) -> tuple[StarDecl, ...]:
        return tuple(d for d in self.items if isinstance(d, StarDecl))


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0

    # -- token helpers ------------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.current
        if token.kind is not TokenKind.EOF:
            self.pos += 1
        return token

    def error(self, expected: str) -> ParseError:
        found = self.current
        return ParseError(found.line, found.col, expected, found.describe())

    def expect_keyword(self, word: str) -> Token:
        token = self.current
        if token.kind is TokenKind.KEYWORD and token.lexeme == word:
            return self.advance()
        raise self.error(f"keyword {word!r}")

    def expect_symbol(self, symbol: str) -> Token:
        token = self.current
        if token.kind is TokenKind.SYMBOL and token.lexeme == symbol:
            return self.advance()
        raise self.error(f"{symbol!r}")

    def expect_ident(self, what: str = "identifier") -> Token:
        token = self.current
        if token.kind is TokenKind.IDENT:
            return self.advance()
        raise self.error(what)

    def expect_color(self) -> Token:
        token = self.current
        if token.kind is TokenKind.KEYWORD and token.lexeme in COLOR_KEYWORDS:
            return self.advance()
        raise self.error("color (red, white, blue, green, yellow)")

    def at_keyword(self, word: str) -> bool:
        token = self.current
        return token.kind is TokenKind.KEYWORD and token.lexeme == word

    # -- grammar ------------------------------------------------------------

    def parse_spec(self) -> SpecAst:
        self.expect_keyword("flag")
        name_token = self.current
        if name_token.kind is not TokenKind.STRING:
            raise self.error("flag name string")
        self.advance()
        self.expect_symbol("{")
        self.expect_keyword("canvas")
        canvas_width = self.parse_expr()
        separator = self.current
        if not (separator.kind is TokenKind.IDENT and separator.lexeme == "x"):
            raise self.error("'x' between canvas width and height")
        self.advance()
        canvas_height = self.parse_expr()
        self.expect_symbol(";")
        items: list[LetDecl | RegionDecl | StarDecl] = []
        while not (self.current.kind is TokenKind.SYMBOL and self.current.lexeme == "}"):
            if self.at_keyword("let"):
                items.append(self.parse_let())
            elif self.at_keyword("region"):
                items.append(self.parse_region())
            elif self.at_keyword("star"):
                items.append(self.parse_star())
            else:
                raise self.error("'let', 'region', 'star', or '}'")
        self.expect_symbol("}")
        if self.current.kind is not TokenKind.EOF:
            raise self.error("end of input after '}'")
        return SpecAst(name_token.lexeme, canvas_width, canvas_height, tuple(items))

    def parse_let(self) -> LetDecl:
        start = self.expect_keyword("let")
        name = self.expect_ident("binding name")
        self.expect_symbol("=")
        value = self.parse_expr()
        self.expect_symbol(";")
        return LetDecl(name.lexeme, value, start.line, start.col)

    def parse_region(self) -> RegionDecl:
        start = self.expect_keyword("region")
        name = self.expect_ident("region name")
        color = self.expect_color()
        rect_token = self.current
        if not (rect_token.kind is TokenKind.IDENT and rect_token.lexeme == "rect"):
            raise self.error("'rect'")
        self.advance()
        x = self.parse_expr()
        y = self.parse_expr()
        width = self.parse_expr()
        height = self.parse_expr()
        self.expect_symbol(";")
        return RegionDecl(
            name.lexeme, color.lexeme, x, y, width, height, start.line, start.col
        )

    def parse_star(self) -> StarDecl:
        start = self.expect_keyword("star")
        color = self.expect_color()
        self.expect_keyword("at")
        center: CoordCenter | DiagonalCenter
        if self.at_keyword("diagonal_intersection"):
            self.advance()
            self.expect_keyword("of")
            region = self.expect_ident("region name")
            center = DiagonalCenter(region.lexeme, region.line, region.col)
        else:
            cx = self.parse_expr()
            cy = self.parse_expr()
            center = CoordCenter(cx, cy)
        self.expect_keyword("diameter")
        diameter = self.parse_expr()
        self.expect_symbol(";")
        return StarDecl(color.lexeme, center, diameter, start.line, start.col)

    def parse_expr(self, depth: int = 0) -> ExprAst:
        if depth > _MAX_EXPR_DEPTH:
            raise ParseError(
                self.current.line, self.current.col, "a shallower expression", "nesting too deep"
            )
        node = self.parse_term(depth + 1)
        while self.current.kind is TokenKind.SYMBOL and self.current.lexeme in "+-":
            op = self.advance().lexeme
            node = BinOp(op, node, self.parse_term(depth + 1))
        return node

    def parse_term(self, depth: int) -> ExprAst:
        if depth > _MAX_EXPR_DEPTH:
            raise ParseError(
                self.current.line, self.current.col, "a shallower expression", "nesting too deep"
            )
        node = self.parse_unary(depth + 1)
        while self.current.kind is TokenKind.SYMBOL and self.current.lexeme in "*/":
            op = self.advance().lexeme
            node = BinOp(op, node, self.parse_unary(depth + 1))
        return node

    def parse_unary(self, depth: int) -> ExprAst:
        if depth > _MAX_EXPR_DEPTH:
            raise ParseError(
                self.current.line, self.current.col, "a shallower expression", "nesting too deep"
            )
        token = self.current
        if token.kind is TokenKind.SYMBOL and token.lexeme == "-":
            self.advance()
            return Negate(self.parse_unary(depth + 1))
        return self.parse_primary(depth + 1)

    def parse_primary(self, depth: int) -> ExprAst:
        token = self.current
        if token.kind is TokenKind.NUMBER:
            try:
                value = Fraction(token.lexeme)
            except ValueError:  # past the interpreter's int-from-string digit limit
                digits = sum(ch.isdigit() for ch in token.lexeme)
                raise ParseError(
                    token.line, token.col, "a shorter number", f"a {digits}-digit number"
                ) from None
            self.advance()
            return NumberLit(value)
        if token.kind is TokenKind.KEYWORD and token.lexeme == "phi":
            self.advance()
            return PhiConst()
        if token.kind is TokenKind.KEYWORD and token.lexeme == "sqrt":
            self.advance()
            self.expect_symbol("(")
            operand = self.parse_expr(depth + 1)
            self.expect_symbol(")")
            return SqrtCall(operand)
        if token.kind is TokenKind.IDENT:
            self.advance()
            return NameRef(token.lexeme, token.line, token.col)
        if token.kind is TokenKind.SYMBOL and token.lexeme == "(":
            self.advance()
            node = self.parse_expr(depth + 1)
            self.expect_symbol(")")
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
    if parser.current.kind is not TokenKind.EOF:
        raise parser.error("end of expression")
    return node
