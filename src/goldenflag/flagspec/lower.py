"""Lowering: a flag spec, in one pass from tokens to an exact FlagLayout.

The statement productions of the grammar (stated in :mod:`.parser`)
lower each statement as it parses, and the expression productions they
inherit build each value against the lets and regions declared so far.
Each error is raised at the token in hand, so the first lexical, parse,
semantic or certification error in source order is the one reported,
within one expression too.  Every reference points
backward, so every identifier, and every region whose ``width`` or
``height`` an expression reads, must be declared earlier in the file.

Expressions become certified constructible-number expressions (``phi``
lowers to (1+sqrt5)/2 exactly).  ``canvas.width`` and ``canvas.height``
are the canvas dimensions, and a region's are the sizes it declares;
:meth:`FlagLayout.create` certifies them.  ``check`` statements lower to
the layout's claims, which only ``verify`` proves.  Coordinates keep the
spec's frame: y grows downward from the canvas's top-left corner, at the
origin.
"""

from __future__ import annotations

from ..constructions import Claim, Diagonals, FlagLayout, Region, Star
from ..errors import CertificationError, PrecisionExhausted, SemanticError
from ..exactnum import add, div, lit
from ..exactnum.identity import RELATIONS
from ..geometry import Pentagram, Point, rect_diagonal_intersection
from .lexer import Token, TokenKind, tokenize
from .parser import Parser, parse

# the standalone expression entry point, under the name the CLI calls
lower_expr = parse


class _SpecPass(Parser):
    """The statement productions, with the lets, rectangles and layout
    parts declared so far."""

    def __init__(self, tokens: list[Token]) -> None:
        super().__init__(tokens, {}, {})  # the lets, and the canvas and each region
        self.regions: list[Region] = []
        self.stars: list[Star] = []
        self.claims: list[Claim | Diagonals] = []

    def binding(self, start: Token, what: str) -> str:
        """A new name for the statement at ``start``."""
        name = self.expect_kind(TokenKind.IDENT, what).lexeme
        if name in self.env or name in self.rects:
            raise SemanticError(start.line, start.col, f"duplicate binding {name!r}")
        return name

    def declared_region(self) -> str:
        token = self.expect_kind(TokenKind.IDENT, "region name")
        if token.lexeme not in self.rects:
            raise SemanticError(token.line, token.col, f"{token.lexeme!r} is not a previously declared region")
        return token.lexeme

    def spec(self) -> FlagLayout:
        start = self.expect("flag")
        name = self.expect_kind(TokenKind.STRING, "flag name string").lexeme
        self.expect("{")
        self.expect("canvas")
        width = self.value("canvas width")
        self.expect("x", "'x' between canvas width and height")
        height = self.value("canvas height")
        self.expect(";")
        self.rects["canvas"] = (lit(0), lit(0), width, height)
        statements = {"let": self.let, "region": self.region, "star": self.star, "check": self.check}
        while not self.at("}"):
            if not self.at(*statements):
                raise self.error("'let', 'region', 'star', 'check', or '}'")
            statements[self.token.lexeme]()
        self.expect("}")
        if self.token.kind is not TokenKind.EOF:
            raise self.error("end of input after '}'")
        if not self.regions:
            raise SemanticError(start.line, start.col, f"flag {name!r} declares no region")
        return FlagLayout.create(width, height, tuple(self.regions), tuple(self.stars), name, tuple(self.claims))

    def let(self) -> None:
        start = self.advance()
        name = self.binding(start, "binding name")
        self.expect("=")
        self.env[name] = self.value(f"let {name!r}")
        self.expect(";")

    def region(self) -> None:
        start = self.advance()
        name = self.binding(start, "region name")
        color = self.expect_color()
        self.expect("rect")
        where = f"region {name!r}"
        x, y, w, h = [self.value(where) for _ in range(4)]
        self.expect(";")
        self.rects[name] = (x, y, w, h)
        self.regions.append(Region(name, color, (x, add(x, w), y, add(y, h))))

    def star(self) -> None:
        self.advance()
        color = self.expect_color()
        where = f"star {color.value}"
        self.expect("at")
        if self.at("diagonal_intersection"):
            self.advance()
            self.expect("of")
            center = rect_diagonal_intersection(*self.rects[self.declared_region()])
        else:
            center = Point(self.value(where), self.value(where))
        self.expect("diameter")
        diameter = self.value(where)
        self.expect(";")
        try:
            pentagram = Pentagram(center, div(diameter, lit(2)))
        except CertificationError as exc:
            raise CertificationError(f"{where}: diameter is not certified positive") from exc
        except PrecisionExhausted as exc:
            raise PrecisionExhausted(f"in {where}: {exc}") from exc
        self.stars.append(Star(color, pentagram))

    def check(self) -> None:
        self.advance()
        if self.at("diagonals"):
            self.advance()
            self.expect("of")
            region = self.declared_region()
            self.expect(";")
            self.claims.append(Diagonals(region))
            return
        name = self.expect_kind(TokenKind.STRING, "check name string or 'diagonals'").lexeme
        where = f"check {name!r}"
        terms = [self.value(where)]
        if not self.at(*RELATIONS):
            raise self.error("'==', '<', or '<='")
        relations = []
        while self.at(*RELATIONS):
            relations.append(self.advance().lexeme)
            terms.append(self.value(where))
        detail, shown = "", None
        if self.token.kind is TokenKind.STRING:
            detail = self.advance().lexeme
        elif self.at("show"):
            self.advance()
            token = self.expect_kind(TokenKind.IDENT, "name to show")
            shown = (token.lexeme, self.bound(token))
        self.expect(";")
        self.claims.append(Claim(name, tuple(terms), tuple(relations), detail, shown))


def lower(tokens: list[Token]) -> FlagLayout:
    """Parse and lower a full flag spec in one pass, ending in the exact
    layout, whose construction certifies every size, the tiling and star
    containment."""
    return _SpecPass(tokens).spec()


def lower_source(source: str) -> FlagLayout:
    return lower(tokenize(source))
