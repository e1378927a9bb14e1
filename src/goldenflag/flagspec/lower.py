"""Lowering: flag-spec AST -> exact FlagLayout.

Expressions become certified constructible-number expressions (``phi``
lowers to (1+sqrt5)/2 exactly); declarations resolve in source order,
so every identifier must be bound earlier in the file.  Spec files use
screen orientation (y downward from the top-left corner); lowering
converts to the internal y-up frame.
"""

from __future__ import annotations

from ..constructions import ColorRole, FlagLayout, Region, Star
from ..errors import (
    CertificationError,
    DivisionByZero,
    InvalidDimension,
    PrecisionExhausted,
    SemanticError,
)
from ..exactnum import PHI_EXPR, Expr, add, div, lit, mul, neg, sqrt_, sub
from ..geometry import Pentagram, Point, Rect, rect_diagonal_intersection
from .parser import (
    BinOp,
    CoordCenter,
    DiagonalCenter,
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


def lower_expr(ast: ExprAst, env: dict[str, Expr], where: str = "expression") -> Expr:
    """Certified expression for an AST node; user-level side-condition
    failures surface as CertificationError."""
    try:
        return _lower_expr(ast, env)
    except (DivisionByZero, PrecisionExhausted) as exc:
        raise CertificationError(f"in {where}: {exc}") from exc
    except CertificationError as exc:
        raise CertificationError(f"in {where}: {exc}") from exc


def _lower_expr(ast: ExprAst, env: dict[str, Expr]) -> Expr:
    """Post-order lowering with an explicit stack, so operator chains of
    any length lower (the parser bounds only parenthesised nesting)."""
    values: list[Expr] = []
    # AST nodes still to lower, and (constructor, arity) to apply once
    # the operands' values are on top of ``values``
    todo: list = [ast]
    while todo:
        item = todo.pop()
        if isinstance(item, tuple):
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
        elif isinstance(item, BinOp):
            todo += ((_BINOPS[item.op], 2), item.rhs, item.lhs)
        elif isinstance(item, Negate):
            todo += ((neg, 1), item.operand)
        elif isinstance(item, SqrtCall):
            todo += ((sqrt_, 1), item.operand)
        else:  # pragma: no cover
            raise TypeError(f"unknown AST node {item!r}")
    return values[0]


def lower(ast: SpecAst) -> FlagLayout:
    """Resolve bindings, certify every dimension, and assemble the
    exact layout (which re-validates tiling and star containment)."""
    env: dict[str, Expr] = {}
    rects: dict[str, Rect] = {}
    regions: list[Region] = []
    stars: list[Star] = []

    canvas_width = lower_expr(ast.canvas_width, env, "canvas width")
    canvas_height = lower_expr(ast.canvas_height, env, "canvas height")
    try:
        canvas = Rect(Point(lit(0), lit(0)), canvas_width, canvas_height)
    except InvalidDimension as exc:
        raise CertificationError(f"canvas: {exc}") from exc

    for decl in ast.items:
        if isinstance(decl, LetDecl):
            if decl.name in env or decl.name in rects:
                raise SemanticError(
                    decl.line, decl.col, f"duplicate binding {decl.name!r}"
                )
            env[decl.name] = lower_expr(decl.expr, env, f"let {decl.name!r}")
        elif isinstance(decl, RegionDecl):
            if decl.name in env or decl.name in rects:
                raise SemanticError(
                    decl.line, decl.col, f"duplicate binding {decl.name!r}"
                )
            where = f"region {decl.name!r}"
            x = lower_expr(decl.x, env, where)
            y = lower_expr(decl.y, env, where)
            width = lower_expr(decl.width, env, where)
            height = lower_expr(decl.height, env, where)
            # screen y measures down from the top: flip to the y-up frame
            origin_y = sub(canvas_height, add(y, height))
            try:
                rect = Rect(Point(x, origin_y), width, height)
            except InvalidDimension as exc:
                raise CertificationError(f"{where}: {exc}") from exc
            rects[decl.name] = rect
            regions.append(Region.from_rect(decl.name, ColorRole(decl.color), rect))
        elif isinstance(decl, StarDecl):
            where = f"star {decl.color}"
            if isinstance(decl.center, DiagonalCenter):
                rect = rects.get(decl.center.region)
                if rect is None:
                    raise SemanticError(
                        decl.center.line,
                        decl.center.col,
                        f"{decl.center.region!r} is not a previously declared region",
                    )
                center = rect_diagonal_intersection(rect)
            else:
                cx = lower_expr(decl.center.x, env, where)
                cy_screen = lower_expr(decl.center.y, env, where)
                center = Point(cx, sub(canvas_height, cy_screen))
            diameter = lower_expr(decl.diameter, env, where)
            try:
                pentagram = Pentagram(center, div(diameter, lit(2)))
            except InvalidDimension as exc:
                raise CertificationError(f"{where}: {exc}") from exc
            stars.append(Star(ColorRole(decl.color), pentagram))
        else:  # pragma: no cover
            raise TypeError(f"unknown declaration {decl!r}")

    return FlagLayout.create(canvas, tuple(regions), tuple(stars), ast.name)


def lower_source(source: str) -> FlagLayout:
    from .parser import parse_source

    return lower(parse_source(source))
