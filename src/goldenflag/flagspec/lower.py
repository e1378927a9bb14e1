"""Lowering: flag-spec AST -> exact FlagLayout.

Expressions become certified constructible-number expressions (``phi``
lowers to (1+sqrt5)/2 exactly); declarations resolve in source order,
so every identifier, and every region whose ``width`` or ``height`` an
expression reads, must be declared earlier in the file.  ``canvas.width``
and ``canvas.height`` are the canvas dimensions, and a region's are the
sizes it declares; :meth:`FlagLayout.create` certifies them.  ``check``
statements lower to the layout's claims, which only ``verify`` proves.
Coordinates keep the spec's frame: y grows downward from the canvas's
top-left corner, at the origin.
"""

from __future__ import annotations

from ..constructions import Claim, ColorRole, Diagonals, FlagLayout, Region, Star
from ..errors import (
    CertificationError,
    DivisionByZero,
    InvalidDimension,
    PrecisionExhausted,
    SemanticError,
)
from ..exactnum import PHI_EXPR, Expr, add, div, lit, mul, neg, sqrt_, sub
from ..geometry import Pentagram, Point, rect_diagonal_intersection
from .parser import (
    Attribute,
    BinOp,
    CheckDecl,
    CoordCenter,
    DiagonalCenter,
    DiagonalsCheck,
    ExprAst,
    LetDecl,
    NameRef,
    Negate,
    NumberLit,
    PhiConst,
    RegionDecl,
    SpecAst,
    SqrtCall,
    StarDecl,
)

_BINOPS = {"+": add, "-": sub, "*": mul, "/": div}

_Rect = tuple[Expr, Expr, Expr, Expr]  # a declared x, y, width and height
_SIZES = {"width": 2, "height": 3}  # attribute name -> index in a _Rect


def lower_expr(
    ast: ExprAst,
    env: dict[str, Expr],
    where: str = "expression",
    rects: dict[str, _Rect] | None = None,
) -> Expr:
    """Certified expression for an AST node; user-level side-condition
    failures surface as CertificationError, and a side condition whose
    sign runs out of refinement as PrecisionExhausted, each naming
    ``where``."""
    try:
        return _lower_expr(ast, env, rects or {})
    except (DivisionByZero, CertificationError) as exc:
        raise CertificationError(f"in {where}: {exc}") from exc
    except PrecisionExhausted as exc:
        raise PrecisionExhausted(f"in {where}: {exc}") from exc


def _attribute(ast: Attribute, rects: dict[str, _Rect]) -> Expr:
    rect = rects.get(ast.owner)
    if rect is None:
        if ast.owner == "canvas":
            message = "the canvas has no size inside its own declaration"
        else:
            message = f"{ast.owner!r} is not a previously declared region"
        raise SemanticError(ast.line, ast.col, message)
    size = _SIZES.get(ast.name)
    if size is None:
        message = f"unknown attribute {ast.name!r} (expected 'width' or 'height')"
        raise SemanticError(ast.name_line, ast.name_col, message)
    return rect[size]


def _lower_expr(ast: ExprAst, env: dict[str, Expr], rects: dict[str, _Rect]) -> Expr:
    """Post-order lowering with an explicit stack, so operator chains of
    any length lower (the parser bounds only parenthesised nesting)."""
    values: list[Expr] = []
    # AST nodes still to lower, and (constructor, arity) to apply once
    # the operands' values are on top of ``values``; AST nodes are
    # NamedTuples, so only a plain tuple is a work item
    todo: list = [ast]
    while todo:
        item = todo.pop()
        if type(item) is tuple:
            build, arity = item
            operands = values[-arity:]
            del values[-arity:]
            values.append(build(*operands))
        elif isinstance(item, NumberLit):
            values.append(lit(item.value))
        elif isinstance(item, PhiConst):
            values.append(PHI_EXPR)
        elif isinstance(item, NameRef):
            try:
                values.append(env[item.name])
            except KeyError:
                raise SemanticError(item.line, item.col, f"unbound name {item.name!r}") from None
        elif isinstance(item, Attribute):
            values.append(_attribute(item, rects))
        elif isinstance(item, BinOp):
            todo += ((_BINOPS[item.op], 2), item.rhs, item.lhs)
        elif isinstance(item, Negate):
            todo += ((neg, 1), item.operand)
        elif isinstance(item, SqrtCall):
            todo += ((sqrt_, 1), item.operand)
        else:  # pragma: no cover
            raise TypeError(f"unknown AST node {item!r}")
    return values[0]


def _declared_rect(rects: dict[str, _Rect], name: str, line: int, col: int) -> _Rect:
    rect = rects.get(name)
    if rect is None:
        raise SemanticError(line, col, f"{name!r} is not a previously declared region")
    return rect


def lower(ast: SpecAst) -> FlagLayout:
    """Resolve bindings and assemble the exact layout, whose construction
    certifies every size, the tiling and star containment."""
    if not ast.regions:
        raise SemanticError(ast.line, ast.col, f"flag {ast.name!r} declares no region")
    env: dict[str, Expr] = {}
    rects: dict[str, _Rect] = {}  # the canvas and each region declared so far
    regions: list[Region] = []
    stars: list[Star] = []
    claims: list[Claim | Diagonals] = []

    width = lower_expr(ast.canvas_width, env, "canvas width")
    height = lower_expr(ast.canvas_height, env, "canvas height")
    rects["canvas"] = (lit(0), lit(0), width, height)

    for decl in ast.items:
        if isinstance(decl, (LetDecl, RegionDecl)) and (decl.name in env or decl.name in rects):
            raise SemanticError(decl.line, decl.col, f"duplicate binding {decl.name!r}")
        if isinstance(decl, LetDecl):
            env[decl.name] = lower_expr(decl.expr, env, f"let {decl.name!r}", rects)
        elif isinstance(decl, RegionDecl):
            where = f"region {decl.name!r}"
            x, y, w, h = (
                lower_expr(e, env, where, rects) for e in (decl.x, decl.y, decl.width, decl.height)
            )
            rects[decl.name] = (x, y, w, h)
            regions.append(Region(decl.name, ColorRole(decl.color), (x, add(x, w), y, add(y, h))))
        elif isinstance(decl, StarDecl):
            where = f"star {decl.color}"
            if isinstance(decl.center, DiagonalCenter):
                c = decl.center
                center = rect_diagonal_intersection(*_declared_rect(rects, c.region, c.line, c.col))
            else:
                center = Point(
                    lower_expr(decl.center.x, env, where, rects),
                    lower_expr(decl.center.y, env, where, rects),
                )
            diameter = lower_expr(decl.diameter, env, where, rects)
            try:
                pentagram = Pentagram(center, div(diameter, lit(2)))
            except InvalidDimension as exc:
                raise CertificationError(f"{where}: {exc}") from exc
            stars.append(Star(ColorRole(decl.color), pentagram))
        elif isinstance(decl, CheckDecl):
            where = f"check {decl.name!r}"
            terms = tuple(lower_expr(term, env, where, rects) for term in decl.terms)
            shown = None
            if decl.shown is not None:
                shown = (decl.shown.name, lower_expr(decl.shown, env, where))
            claims.append(Claim(decl.name, terms, decl.relations, decl.detail, shown))
        elif isinstance(decl, DiagonalsCheck):
            _declared_rect(rects, decl.region, decl.line, decl.col)
            claims.append(Diagonals(decl.region))
        else:  # pragma: no cover
            raise TypeError(f"unknown declaration {decl!r}")

    return FlagLayout.create(width, height, tuple(regions), tuple(stars), ast.name, tuple(claims))


def lower_source(source: str) -> FlagLayout:
    from .parser import parse_source

    return lower(parse_source(source))
