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

Region and star coordinates are written in screen orientation (y grows
downward from the flag's top-left corner); lowering flips them into the
internal mathematical frame.  A ``check`` states a claim that ``verify``
proves: every link of its chain of relations must hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from ..errors import ParseError
from .lexer import COLOR_KEYWORDS, Token, TokenKind, tokenize

_MAX_EXPR_DEPTH = 200

_RELATIONS = ("==", "<", "<=")


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


@dataclass(frozen=True)
class Attribute:
    """``owner.name``: a size of a region or of the canvas."""

    owner: str  # a region name, or "canvas"
    name: str
    line: int
    col: int
    name_line: int
    name_col: int


ExprAst = Union[NumberLit, PhiConst, NameRef, Attribute, BinOp, Negate, SqrtCall]


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
class CheckDecl:
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


@dataclass(frozen=True)
class DiagonalsCheck:
    """The angle configuration of a region's diagonals."""

    region: str
    line: int
    col: int


Decl = Union[LetDecl, RegionDecl, StarDecl, CheckDecl, DiagonalsCheck]


@dataclass(frozen=True)
class SpecAst:
    name: str
    canvas_width: ExprAst
    canvas_height: ExprAst
    items: tuple[Decl, ...]
    line: int
    col: int

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
        if self.at_symbol(symbol):
            return self.advance()
        raise self.error(f"{symbol!r}")

    def expect_ident(self, what: str = "identifier") -> Token:
        return self.expect_kind(TokenKind.IDENT, what)

    def expect_kind(self, kind: TokenKind, what: str) -> Token:
        if self.current.kind is kind:
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

    def at_symbol(self, *symbols: str) -> bool:
        token = self.current
        return token.kind is TokenKind.SYMBOL and token.lexeme in symbols

    # -- grammar ------------------------------------------------------------

    def parse_spec(self) -> SpecAst:
        start = self.expect_keyword("flag")
        name_token = self.expect_kind(TokenKind.STRING, "flag name string")
        self.expect_symbol("{")
        self.expect_keyword("canvas")
        canvas_width = self.parse_expr()
        separator = self.current
        if not (separator.kind is TokenKind.IDENT and separator.lexeme == "x"):
            raise self.error("'x' between canvas width and height")
        self.advance()
        canvas_height = self.parse_expr()
        self.expect_symbol(";")
        statements = {
            "let": self.parse_let,
            "region": self.parse_region,
            "star": self.parse_star,
            "check": self.parse_check,
        }
        items: list[Decl] = []
        while not self.at_symbol("}"):
            token = self.current
            if token.kind is not TokenKind.KEYWORD or token.lexeme not in statements:
                raise self.error("'let', 'region', 'star', 'check', or '}'")
            items.append(statements[token.lexeme]())
        self.expect_symbol("}")
        if self.current.kind is not TokenKind.EOF:
            raise self.error("end of input after '}'")
        return SpecAst(name_token.lexeme, canvas_width, canvas_height, tuple(items), start.line, start.col)

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

    def parse_check(self) -> CheckDecl | DiagonalsCheck:
        start = self.expect_keyword("check")
        if self.at_keyword("diagonals"):
            self.advance()
            self.expect_keyword("of")
            region = self.expect_ident("region name")
            self.expect_symbol(";")
            return DiagonalsCheck(region.lexeme, region.line, region.col)
        name = self.expect_kind(TokenKind.STRING, "check name string or 'diagonals'")
        terms = [self.parse_expr()]
        if not self.at_symbol(*_RELATIONS):
            raise self.error("'==', '<', or '<='")
        relations = []
        while self.at_symbol(*_RELATIONS):
            relations.append(self.advance().lexeme)
            terms.append(self.parse_expr())
        detail, shown = "", None
        if self.current.kind is TokenKind.STRING:
            detail = self.advance().lexeme
        elif self.at_keyword("show"):
            self.advance()
            token = self.expect_ident("name to show")
            shown = NameRef(token.lexeme, token.line, token.col)
        self.expect_symbol(";")
        return CheckDecl(
            name.lexeme, tuple(terms), tuple(relations), detail, shown, start.line, start.col
        )

    def check_depth(self, depth: int) -> None:
        if depth > _MAX_EXPR_DEPTH:
            raise ParseError(
                self.current.line, self.current.col, "a shallower expression", "nesting too deep"
            )

    def parse_expr(self, depth: int = 0) -> ExprAst:
        self.check_depth(depth)
        node = self.parse_term(depth + 1)
        while self.at_symbol("+", "-"):
            op = self.advance().lexeme
            node = BinOp(op, node, self.parse_term(depth + 1))
        return node

    def parse_term(self, depth: int) -> ExprAst:
        self.check_depth(depth)
        node = self.parse_unary(depth + 1)
        while self.at_symbol("*", "/"):
            op = self.advance().lexeme
            node = BinOp(op, node, self.parse_unary(depth + 1))
        return node

    def parse_unary(self, depth: int) -> ExprAst:
        self.check_depth(depth)
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
        if token.kind is TokenKind.IDENT or (
            token.kind is TokenKind.KEYWORD and token.lexeme == "canvas"
        ):
            self.advance()
            if self.at_symbol("."):
                self.advance()
                name = self.expect_ident("attribute name")
                return Attribute(
                    token.lexeme, name.lexeme, token.line, token.col, name.line, name.col
                )
            if token.kind is TokenKind.KEYWORD:
                raise self.error("'.' after 'canvas'")
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
