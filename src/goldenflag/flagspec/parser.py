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

The statement productions live in :mod:`.lower`.  The expression
productions return certified values: each resolves a name or an
attribute at its token and builds a node as soon as its operands are
parsed, so no syntax tree or intermediate program is built, and the
first lexical, parse, semantic or certification error in source order
is the one raised.  The parser keeps the current token in an attribute
that ``advance`` moves on, and the expression productions, which see
most tokens, test its kind and lexeme inline.
"""

from __future__ import annotations

from fractions import Fraction

from ..constructions import ColorRole
from ..errors import CertificationError, LexError, ParseError, PrecisionExhausted, SemanticError
from ..exactnum import PHI_EXPR, Expr, add, div, lit, mul, neg, sqrt_, sub
from .lexer import COLOR_KEYWORDS, KEYWORDS, Token, TokenKind, tokenize

_MAX_EXPR_DEPTH = 200

# an operator's build by its lexeme
_ADDITIVE = {"+": add, "-": sub}
_MULTIPLICATIVE = {"*": mul, "/": div}

_Rect = tuple[Expr, Expr, Expr, Expr]  # a declared x, y, width and height
_SIZES = {"width": 2, "height": 3}  # attribute name -> index in a _Rect


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
    """The token cursor and the expression productions, which resolve
    names in ``env`` and attributes in ``rects`` (None outside a spec)."""

    def __init__(self, tokens: list[Token], env: dict[str, Expr], rects: dict[str, _Rect] | None = None) -> None:
        self.tokens = tokens
        self.pos = 0
        self.last = len(tokens) - 1  # the EOF or ERROR token, never moved past
        self.token = tokens[0]  # the current token, tokens[pos]
        self.env = env
        self.rects = rects

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

    # -- names --------------------------------------------------------------

    def bound(self, token: Token) -> Expr:
        """The value of the name ``token`` in ``env``."""
        value = self.env.get(token.lexeme)
        if value is None:
            raise SemanticError(token.line, token.col, f"unbound name {token.lexeme!r}")
        return value

    def attribute(self, owner: Token, name: Token) -> Expr:
        """``owner.name``: a size of a region or of the canvas in ``rects``."""
        rects = self.rects
        rect = None if rects is None else rects.get(owner.lexeme)
        if rect is None:
            if owner.lexeme != "canvas":
                message = f"{owner.lexeme!r} is not a previously declared region"
            elif rects is None:
                message = "there is no canvas outside a flag spec"
            else:
                message = "the canvas has no size inside its own declaration"
            raise SemanticError(owner.line, owner.col, message)
        size = _SIZES.get(name.lexeme)
        if size is None:
            message = f"unknown attribute {name.lexeme!r} (expected 'width' or 'height')"
            raise SemanticError(name.line, name.col, message)
        return rect[size]

    # -- expressions --------------------------------------------------------

    def value(self, where: str) -> Expr:
        """The value of the expression at the current token.  A failed
        side condition surfaces as CertificationError, and one whose sign
        runs out of refinement as PrecisionExhausted, each naming ``where``."""
        try:
            return self.expr(0)
        except CertificationError as exc:
            raise CertificationError(f"in {where}: {exc}") from exc
        except PrecisionExhausted as exc:
            raise PrecisionExhausted(f"in {where}: {exc}") from exc

    def nested(self, depth: int) -> int:
        """The depth inside one more ``(``, ``sqrt(`` or unary ``-``, at
        the current token."""
        if depth >= _MAX_EXPR_DEPTH:
            raise ParseError(self.token.line, self.token.col, "a shallower expression", "nesting too deep")
        return depth + 1

    # The productions test the current token's kind and lexeme inline: an
    # operator is a SYMBOL, never a STRING of the same text.  Operator
    # chains are loops, so a chain of any length lowers; only nesting is
    # bounded.

    def expr(self, depth: int) -> Expr:
        value = self.term(depth)
        token = self.token
        while token.kind is TokenKind.SYMBOL and token.lexeme in _ADDITIVE:
            self.advance()
            value = _ADDITIVE[token.lexeme](value, self.term(depth))
            token = self.token
        return value

    def term(self, depth: int) -> Expr:
        value = self.unary(depth)
        token = self.token
        while token.kind is TokenKind.SYMBOL and token.lexeme in _MULTIPLICATIVE:
            self.advance()
            value = _MULTIPLICATIVE[token.lexeme](value, self.unary(depth))
            token = self.token
        return value

    def unary(self, depth: int) -> Expr:
        token = self.token
        if token.kind is TokenKind.SYMBOL and token.lexeme == "-":
            depth = self.nested(depth)
            self.advance()
            return neg(self.unary(depth))
        return self.primary(depth)

    def primary(self, depth: int) -> Expr:
        token = self.token
        kind = token.kind
        if kind is TokenKind.NUMBER:
            self.advance()
            return _number(token)
        if kind is TokenKind.IDENT or self.at("canvas"):
            self.advance()
            if self.at("."):
                self.advance()
                return self.attribute(token, self.expect_kind(TokenKind.IDENT, "attribute name"))
            if kind is TokenKind.KEYWORD:
                raise self.error("'.' after 'canvas'")
            return self.bound(token)
        if self.at("phi"):
            self.advance()
            return PHI_EXPR
        if self.at("sqrt"):
            depth = self.nested(depth)
            self.advance()
            self.expect("(")
            value = self.expr(depth)
            self.expect(")")
            return sqrt_(value)
        if self.at("("):
            depth = self.nested(depth)
            self.advance()
            value = self.expr(depth)
            self.expect(")")
            return value
        raise self.error("expression")


def parse(tokens: list[Token], env: dict[str, Expr], where: str = "expression") -> Expr:
    """The value of a standalone expression: the whole token stream,
    with names resolved in ``env``."""
    parser = Parser(tokens, env)
    value = parser.value(where)
    if parser.token.kind is not TokenKind.EOF:
        raise parser.error("end of expression")
    return value


def parse_expression(source: str) -> list[Token]:
    """The tokens of a standalone arithmetic expression (the CLI eval
    input), which :func:`parse` lowers."""
    return tokenize(source)
