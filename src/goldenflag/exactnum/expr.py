"""Constructible-number expressions with certified side conditions.

An expression is a finite DAG over rationals built from +, -, *, /, and
square roots.  Nodes are hash-consed: building a node with the same
class and fields as a live one returns that live node, so equal
expressions are the same object, ``==`` and ``hash`` are identity, and
shared subterms are shared.  Every walk over a DAG is one :func:`fold`,
an explicit-stack post-order traversal that visits each distinct node
once, so neither sharing nor depth makes a walk blow up.

The two side conditions are certified when a node is constructed:

* every ``Sqrt`` operand has certified sign >= 0,
* every ``Div`` divisor has certified sign != 0.

Both are decided by :func:`certified_sign`, the one sign procedure of
the package.  It first tries one 64-bit interval enclosure, which
settles every sign it separates from zero, then an exact route
(normalization into a single quadratic extension of the a+b*sqrt(5)
field), and then interval refinement with a deterministic doubling
schedule from 128 bits up to a cap of 4096 bits, stopped by a
separation bound: an enclosure narrower than the bound proves zero.

Evaluation is deterministic integer fixed-point interval arithmetic:
:func:`eval_interval` encloses the exact value at one working precision,
and :func:`enclosures` is the one refinement loop, which both the sign
procedure and decimal rendering iterate.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from math import isqrt
from typing import Callable, Iterator, Mapping, TypeVar, Union

from ..errors import (
    CertificationError,
    DivisionByZero,
    NotInField,
    PrecisionExhausted,
)
from . import interval as iv
from .golden import GOLDEN, Quadratic, Sign
from .rational import Rational, as_rational, is_perfect_square

SIGN_REFINE_START = 64
SIGN_REFINE_CAP = 4096

ExprLike = Union["Expr", int, Fraction]
T = TypeVar("T")


# ---------------------------------------------------------------------------
# nodes

# (node class, fields) -> weak reference to the live node with those fields;
# children are keyed by identity, a Literal by its Fraction.  Two threads
# that build the same new node at once may both keep one: that loses
# sharing, never soundness, since identity is only used to prove equality.
_interned: dict[tuple, weakref.ref] = {}


class Expr:
    """Base class for expression nodes.  Instances are immutable and
    interned, so structurally equal nodes are identical."""

    __slots__ = ()
    _children: tuple["Expr", ...]

    def __new__(cls, *fields):
        key = (cls, fields)
        ref = _interned.get(key)
        node = None if ref is None else ref()
        if node is None:
            node = object.__new__(cls)
            state = node.__dict__
            state.update(zip(cls.__match_args__, fields))  # the dataclass fields
            # every field is a child, except a Literal's value
            state["_children"] = () if cls is Literal else fields

            def forget(dead: weakref.ref, key: tuple = key) -> None:
                if _interned.get(key) is dead:
                    del _interned[key]

            _interned[key] = weakref.ref(node, forget)
        return node

    def __add__(self, other: ExprLike) -> "Expr":
        return add(self, _coerce(other))

    def __radd__(self, other: ExprLike) -> "Expr":
        return add(_coerce(other), self)

    def __sub__(self, other: ExprLike) -> "Expr":
        return sub(self, _coerce(other))

    def __rsub__(self, other: ExprLike) -> "Expr":
        return sub(_coerce(other), self)

    def __mul__(self, other: ExprLike) -> "Expr":
        return mul(self, _coerce(other))

    def __rmul__(self, other: ExprLike) -> "Expr":
        return mul(_coerce(other), self)

    def __truediv__(self, other: ExprLike) -> "Expr":
        return div(self, _coerce(other))

    def __rtruediv__(self, other: ExprLike) -> "Expr":
        return div(_coerce(other), self)

    def __neg__(self) -> "Expr":
        return neg(self)


# Fields are set once, by Expr.__new__; a second construction returns the
# live node and never rewrites it.
_node = dataclass(frozen=True, eq=False, init=False)


@_node
class Literal(Expr):
    value: Rational


@_node
class Add(Expr):
    lhs: Expr
    rhs: Expr


@_node
class Sub(Expr):
    lhs: Expr
    rhs: Expr


@_node
class Mul(Expr):
    lhs: Expr
    rhs: Expr


@_node
class Div(Expr):
    num: Expr
    den: Expr


@_node
class Neg(Expr):
    operand: Expr


@_node
class Sqrt(Expr):
    operand: Expr


def fold(root: Expr, leaf: Callable[[Expr], T], ops: Mapping[type, Callable[..., T]]) -> T:
    """Bottom-up value of ``root``, computing each distinct node once.

    A node whose class is in ``ops`` gets ``ops[class]`` applied to its
    children's values; any other node is a leaf and gets ``leaf(node)``
    without its children being visited.  The walk keeps an explicit
    stack, so depth is bounded by memory, not by the Python stack.
    """
    values: dict[Expr, T] = {}
    stack = [root]
    while stack:
        node = stack[-1]
        if node in values:
            stack.pop()
            continue
        op = ops.get(node.__class__)
        if op is None:
            values[node] = leaf(node)
            stack.pop()
            continue
        children = node._children
        ready = True
        for child in reversed(children):  # so the leftmost is done first
            if child not in values:
                stack.append(child)
                ready = False
        if ready:
            stack.pop()
            values[node] = op(*[values[child] for child in children])
    return values[root]


def _coerce(value: ExprLike) -> Expr:
    if isinstance(value, Expr):
        return value
    return Literal(as_rational(value))


_ZERO = Fraction(0)
_ONE = Fraction(1)
# interned, so any literal 0 or 1 is one of these objects
_ZERO_LIT = Literal(_ZERO)
_ONE_LIT = Literal(_ONE)


# ---------------------------------------------------------------------------
# smart constructors
#
# Rational-only subterms fold to exact literals and identity elements
# vanish; this keeps DAGs small and proofs fast without changing any
# value.


def lit(value: int | str | Fraction) -> Literal:
    return Literal(as_rational(value))


def neg(x: ExprLike) -> Expr:
    x = _coerce(x)
    if isinstance(x, Literal):
        return Literal(-x.value)
    if isinstance(x, Neg):
        return x.operand
    return Neg(x)


def add(a: ExprLike, b: ExprLike) -> Expr:
    a, b = _coerce(a), _coerce(b)
    if isinstance(a, Literal) and isinstance(b, Literal):
        return Literal(a.value + b.value)
    if a is _ZERO_LIT:
        return b
    if b is _ZERO_LIT:
        return a
    return Add(a, b)


def sub(a: ExprLike, b: ExprLike) -> Expr:
    a, b = _coerce(a), _coerce(b)
    if isinstance(a, Literal) and isinstance(b, Literal):
        return Literal(a.value - b.value)
    if b is _ZERO_LIT:
        return a
    if a is _ZERO_LIT:
        return neg(b)
    return Sub(a, b)


def mul(a: ExprLike, b: ExprLike) -> Expr:
    a, b = _coerce(a), _coerce(b)
    if isinstance(a, Literal) and isinstance(b, Literal):
        return Literal(a.value * b.value)
    if a is _ZERO_LIT or b is _ZERO_LIT:
        return _ZERO_LIT
    if a is _ONE_LIT:
        return b
    if b is _ONE_LIT:
        return a
    return Mul(a, b)


def div(a: ExprLike, b: ExprLike) -> Expr:
    a, b = _coerce(a), _coerce(b)
    if certified_sign(b) is Sign.ZERO:
        raise DivisionByZero("divisor is certified zero")
    if isinstance(a, Literal) and isinstance(b, Literal):
        return Literal(a.value / b.value)
    if b is _ONE_LIT:
        return a
    if a is _ZERO_LIT:
        return _ZERO_LIT
    return Div(a, b)


def sqrt_(x: ExprLike) -> Expr:
    x = _coerce(x)
    sign = certified_sign(x)
    if sign is Sign.NEGATIVE:
        raise CertificationError("square root of a certified-negative value")
    if sign is Sign.ZERO:
        return _ZERO_LIT
    if isinstance(x, Literal):
        root = is_perfect_square(x.value)
        if root is not None:
            return Literal(root)
    return Sqrt(x)


# ---------------------------------------------------------------------------
# exact normalization into one quadratic tower
#
# Values u + v*sqrt(r) with u, v in GOLDEN and one shared radicand r
# (positive, not a square in GOLDEN).  This is the exact engine behind
# field normalization, sign certification and identity proofs for
# single-nesting radicals, and for nested ones that denest into them:
# all the pentagon quantities live in one such extension, because
# sqrt(10-2*sqrt(5)) * sqrt(10+2*sqrt(5)) = 4*sqrt(5).


class _Tower(Quadratic):
    """The algebra of one normalization: a :class:`Quadratic` over
    GOLDEN whose radicand is fixed at the first square root that needs
    one.  A value outside it raises :class:`NotInField`."""

    def __init__(self) -> None:
        super().__init__(GOLDEN, None)
        self.ops = {
            Add: self.add,
            Sub: self.sub,
            Mul: self.mul,
            Div: self.div,
            Neg: self.neg,
            Sqrt: self.root,
        }

    @staticmethod
    def leaf(node: Literal) -> tuple:
        return (node.value, _ZERO), GOLDEN.zero

    def root(self, x: tuple) -> tuple:
        """The square root of ``x`` in the tower (see
        :meth:`Quadratic.sqrt`: a root of the base, ``sqrt(g/r)*sqrt(r)``
        when ``g*r`` is a square, or a denested root), or, while there
        is no radicand yet, ``sqrt(g)`` with ``g`` adjoined as it."""
        if self.radicand is not None:
            root = self.sqrt(x)
            if root is not None:
                return root
            raise NotInField("square root outside the tower")
        g = x[0]  # every value lies in GOLDEN until a radicand is adjoined
        root = GOLDEN.sqrt(g)
        if root is not None:
            return root, GOLDEN.zero
        if GOLDEN.sign(g) is not Sign.POSITIVE:
            raise NotInField("square root of a negative value")
        self.radicand = g
        return GOLDEN.zero, GOLDEN.one


def _tower_normalize(x: Expr) -> tuple[_Tower, tuple]:
    """Exact normal form in one quadratic extension, or NotInField."""
    tower = _Tower()
    return tower, fold(x, tower.leaf, tower.ops)


def gn_normalize(x: Expr) -> tuple[Fraction, Fraction]:
    """Exact value ``(a, b)``, meaning ``a + b*sqrt(5)``, of ``x`` in GOLDEN.

    Raises :class:`NotInField` when the exact normal form of ``x`` keeps
    a radical part (e.g. ``sqrt(10 - 2*sqrt(5))``) or cannot be formed.
    """
    _, (u, v) = _tower_normalize(x)
    if not GOLDEN.is_zero(v):
        raise NotInField("the value has a radical part outside the field")
    return u


def exact_sign(x: Expr) -> Sign | None:
    """Sign via exact normalization when the value lies in the
    supported tower; None when it does not."""
    try:
        tower, value = _tower_normalize(x)
    except NotInField:
        return None
    return tower.sign(value)


def exact_rational(x: Expr) -> Fraction | None:
    """Exact rational value when normalization proves one, else None."""
    try:
        _, ((a, b), v) = _tower_normalize(x)
    except (NotInField, DivisionByZero):
        return None
    if not b and GOLDEN.is_zero(v):
        return a
    return None


# ---------------------------------------------------------------------------
# interval evaluation and refinement


def eval_interval(x: Expr, working_bits: int) -> iv.IntPair:
    """Enclosure of x at scale 2**-working_bits.

    Raises :class:`interval.StraddlesZero` when a divisor interval
    contains zero at this precision; callers refine and retry.
    """
    return fold(x, *_interval_algebra(working_bits))


@lru_cache(maxsize=64)
def _interval_algebra(w: int) -> tuple[Callable, dict[type, Callable]]:
    """fold's leaf and ops for enclosures at scale 2**-w."""

    def leaf(node: Literal) -> iv.IntPair:
        return iv.from_fraction(node.value, w)

    return leaf, {
        Add: iv.add,
        Sub: iv.sub,
        Neg: iv.neg,
        Mul: partial(iv.mul, w=w),
        Div: partial(iv.div, w=w),
        Sqrt: partial(iv.sqrt, w=w),
    }


def enclosures(x: Expr, start: int, cap: int) -> Iterator[tuple[int, int, int]]:
    """The refinement of ``x``: ``(w, lo, hi)`` with ``lo * 2**-w <= x <=
    hi * 2**-w`` for ``w = start, 2*start, ...`` up to ``cap`` (``start > 0``).

    A precision at which a divisor interval straddles zero is skipped.
    The schedule is deterministic, and so are the enclosures.
    """
    w = start
    while w <= cap:
        try:
            lo, hi = eval_interval(x, w)
        except iv.StraddlesZero:
            pass
        else:
            yield w, lo, hi
        w *= 2


def certified_sign(x: Expr) -> Sign:
    """Rigorous sign of an expression: the one sign procedure.

    Layer 0 is one interval enclosure at 64 bits, which settles most
    nonzero values.  Layer 1 is the exact normal form, which decides
    every value in the tower.  Layer 2 refines the enclosure from 128
    bits, doubling up to the cap: an enclosure that excludes zero gives
    the sign, and one inside ``(-2**-b, 2**-b)`` for the separation bound
    ``b`` of :func:`separation_bits` proves zero.  Raises
    :class:`PrecisionExhausted` when the cap comes first.
    """
    for _, lo, hi in enclosures(x, SIGN_REFINE_START, SIGN_REFINE_START):
        if lo > 0 or hi < 0:
            return Sign.POSITIVE if lo > 0 else Sign.NEGATIVE
    sign = exact_sign(x)
    if sign is not None:
        return sign
    bits = separation_bits(x)
    for w, lo, hi in enclosures(x, 2 * SIGN_REFINE_START, SIGN_REFINE_CAP):
        if lo > 0 or hi < 0:
            return Sign.POSITIVE if lo > 0 else Sign.NEGATIVE
        reach = max(-lo, hi)  # |x| <= reach * 2**-w
        if reach == 0 or reach.bit_length() + bits <= w:
            return Sign.ZERO
    raise PrecisionExhausted(f"sign not certified within {SIGN_REFINE_CAP} bits")


# separation_bits' arithmetic: a pair (m, e) stands for m * 2**e, with m
# at most _BOUND_BITS bits wide, and every operation rounds up.
_BOUND_BITS = 32


def _up(m: int, e: int) -> tuple[int, int]:
    excess = max(m.bit_length() - _BOUND_BITS, 0)
    return -(-m >> excess), e + excess


def _times(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    return _up(x[0] * y[0], x[1] + y[1])


def _plus(x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
    e = max(x[1], y[1]) - _BOUND_BITS  # each term rounded up to a multiple of 2**e
    return _up(sum(-(-(m << max(f - e, 0)) >> max(e - f, 0)) for m, f in (x, y)), e)


def _root(x: tuple[int, int]) -> tuple[int, int]:
    m = x[0] << (2 * _BOUND_BITS + x[1] % 2)
    return _up(isqrt(m - 1) + 1, x[1] // 2 - _BOUND_BITS)


def _log2_up(x: tuple[int, int]) -> int:
    return x[1] + x[0].bit_length()


def separation_bits(x: Expr) -> int:
    """Bits ``b`` such that ``x == 0`` or ``|x| >= 2**-b``.

    The improved BFMSS bound (Burnikel, Funke, Mehlhorn, Schirra and
    Schmitt, "A separation bound for real algebraic expressions",
    Algorithmica 55, 2009).  Every node's value is ``U / L`` for
    algebraic integers ``U`` and ``L`` whose conjugates are at most ``u``
    and ``l`` in absolute value (``u, l >= 1``): a literal ``p/q`` has
    ``(max(|p|, 1), q)``, ``x +- y`` has ``(u_x l_y + u_y l_x, l_x l_y)``,
    ``x * y`` has ``(u_x u_y, l_x l_y)``, ``x / y`` has ``(u_x l_y, l_x u_y)``
    and ``-x`` has ``x``'s.  ``sqrt(x)`` has ``((u_x l_x)**(1/2), l_x)``,
    from ``sqrt(U/L) = sqrt(U L) / L``, when ``u_x >= l_x`` by bit length,
    else ``(u_x, (u_x l_x)**(1/2))``, from ``sqrt(U/L) = U / sqrt(U L)``;
    both are sound, and either way the root adds one algebraic integer
    ``sqrt(U L)``.  So ``U`` lies in a field of degree at most ``D = 2**k``,
    ``k`` the number of distinct ``Sqrt`` nodes (interned, so distinct
    objects; the fold meets each once).  Theorem: ``x != 0`` implies
    ``|x| >= 1 / (u**(D-1) l)``, since the norm of ``U`` is a nonzero
    integer, so ``|U| >= u**-(D-1)``, and ``|L| <= l``.  Every quantity
    is rounded up.
    """
    radicals = 0

    def root(a: tuple) -> tuple:
        nonlocal radicals
        radicals += 1
        mean = _root(_times(*a))
        return (mean, a[1]) if _log2_up(a[0]) >= _log2_up(a[1]) else (a[0], mean)

    def total(a: tuple, b: tuple) -> tuple:
        return _plus(_times(a[0], b[1]), _times(b[0], a[1])), _times(a[1], b[1])

    def leaf(node: Literal) -> tuple:
        return _up(max(abs(node.value.numerator), 1), 0), _up(node.value.denominator, 0)

    u, power = fold(x, leaf, {
        Add: total,
        Sub: total,
        Neg: lambda a: a,
        Mul: lambda a, b: (_times(a[0], b[0]), _times(a[1], b[1])),
        Div: lambda a, b: (_times(a[0], b[1]), _times(a[1], b[0])),
        Sqrt: root,
    })
    for _ in range(radicals):  # u**(D-1) l = u**(1 + 2 + ... + 2**(k-1)) l
        power, u = _times(power, u), _times(u, u)
    return _log2_up(power)


# ---------------------------------------------------------------------------
# shared constant subterms

SQRT5_EXPR = Sqrt(Literal(Fraction(5)))
PHI_EXPR = Div(Add(Literal(Fraction(1)), SQRT5_EXPR), Literal(Fraction(2)))


def gn_to_expr(g: tuple[Rational, Rational]) -> Expr:
    """Expression form of an exact GOLDEN element ``(a, b)``."""
    a, b = g
    return add(lit(a), mul(lit(b), SQRT5_EXPR))
