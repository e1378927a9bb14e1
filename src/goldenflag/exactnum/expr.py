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
the package.  A literal's sign is read from its value.  Any other
node's is first tried on one 64-bit interval enclosure, which settles
every sign it separates from zero, then by an exact route
(normalization into a single quadratic extension of the a+b*sqrt(5)
field), and then by interval refinement with a deterministic doubling
schedule, stopped by a separation bound: an enclosure narrower than the
bound proves zero.

Evaluation is deterministic integer fixed-point interval arithmetic:
:func:`eval_interval` encloses the exact value at one working precision,
and :func:`enclosures` is the one refinement loop, which both the sign
procedure and decimal rendering iterate.  Every refinement spends from
one :data:`WORK_BUDGET`, so every question ends, and whether it is
decided depends only on the value.  An interval product or quotient
wider than one operation's charge can cover raises
:class:`PrecisionExhausted` too, so the first enclosure is bounded as
well.  One :func:`enclosure_memo` scope, such as one CLI command or one
emitted document, is the request scope: inside it, each shared subterm
is enclosed once per working precision, an inner scope joins the outer
one, and the memo dies with the outermost scope.
"""

from __future__ import annotations

import operator
import weakref
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from math import isqrt
from typing import Callable, Iterator, Mapping, TypeVar

from ..errors import (
    CertificationError,
    DivisionByZero,
    NotInField,
    PrecisionExhausted,
)
from . import interval as iv
from .golden import GOLDEN, Quadratic, Sign, perfect_sqrt

SIGN_REFINE_START = 64

# The word operations one refinement may spend past its first enclosure:
# an enclosure at w bits of a DAG of n distinct nodes is charged
# n * (w // 64)**2, the cost of its multiplications and roots.
WORK_BUDGET = 1 << 28

T = TypeVar("T")


# ---------------------------------------------------------------------------
# nodes

# (node class, fields) -> weak reference to the live node with those fields;
# children are keyed by identity, and a Literal by the integer pair of its
# value (hashing a pair of ints costs no modular inverse, unlike hashing
# the Fraction).  Two threads
# that build the same new node at once may both keep one: that loses
# sharing, never soundness, since identity is only used to prove equality.
_interned: dict[tuple, weakref.KeyedRef] = {}


def _forget(dead: weakref.KeyedRef) -> None:
    if _interned.get(dead.key) is dead:
        del _interned[dead.key]


class Expr:
    """Base class for expression nodes.  Instances are immutable and
    interned, so structurally equal nodes are identical."""

    __slots__ = ()
    _children: tuple["Expr", ...]

    def __new__(cls, *fields):
        key = (cls, fields[0].as_integer_ratio() if cls is Literal else fields)
        ref = _interned.get(key)
        node = None if ref is None else ref()
        if node is None:
            node = object.__new__(cls)
            state = node.__dict__
            state.update(zip(cls.__match_args__, fields))  # the dataclass fields
            # every field is a child, except a Literal's value
            state["_children"] = () if cls is Literal else fields
            _interned[key] = weakref.KeyedRef(node, _forget, key)
        return node


# Fields are set once, by Expr.__new__; a second construction returns the
# live node and never rewrites it.  The nodes are dataclasses, not
# NamedTuples like most of the package's records: a node is compared by
# identity, not as a tuple of its fields, and dataclasses.fields lists the
# fields of any node, which the benchmark's tracer walks.
_node = dataclass(frozen=True, eq=False, init=False)


@_node
class Literal(Expr):
    value: Fraction


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


def fold(
    root: Expr,
    leaf: Callable[[Expr], T],
    ops: Mapping[type, Callable[..., T]],
    values: dict[Expr, T] | None = None,
) -> T:
    """Bottom-up value of ``root``, computing each distinct node once.

    A node whose class is in ``ops`` gets ``ops[class]`` applied to its
    children's values; any other node is a leaf and gets ``leaf(node)``
    without its children being visited.  The walk keeps an explicit
    stack, so depth is bounded by memory, not by the Python stack.

    ``values``, when given, maps nodes to values already known: the walk
    takes them from it and adds every value it computes, so folds that
    share a ``values`` dict compute each shared subterm once (this is how
    one render encloses each shared subterm once, see
    :func:`enclosure_memo`).  A value is added only once it is computed,
    so a fold that raises part-way leaves only finished values behind.
    """
    if values is None:
        values = {}
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


def _within_budget(bits: int, what: str) -> None:
    """Raise :class:`PrecisionExhausted` for ``what``, an integer up to
    ``bits`` wide, when ``(bits // 64)**2``, the charge of one operation
    at that width, is past :data:`WORK_BUDGET`."""
    if (bits // 64) ** 2 > WORK_BUDGET:
        raise PrecisionExhausted(f"{what} of up to {bits} bits is past the work budget")


def _folded(op: Callable[[Fraction, Fraction], Fraction], a: Literal, b: Literal) -> Literal:
    """``op(a, b)`` as one exact literal, unless its numerator or
    denominator could be too wide for :func:`_within_budget`."""
    (p, q), (r, s) = a.value.as_integer_ratio(), b.value.as_integer_ratio()
    _within_budget(max(abs(p), q).bit_length() + max(abs(r), s).bit_length() + 1, "an exact literal")
    return Literal(op(a.value, b.value))


def as_rational(value: int | str | Fraction) -> Fraction:
    """Convert exactly to a Fraction.

    Accepts ints, Fractions, and strings in integer (``"3"``),
    fraction (``"3/2"``) or finite decimal (``"2.4"``) form.  Decimal
    strings convert exactly (``2.4`` becomes ``12/5``), never through
    binary floating point.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"not an exact rational literal: {value!r}") from exc
    raise TypeError(f"cannot convert {type(value).__name__} to Rational")


def lit(value: int | str | Fraction) -> Literal:
    """The one way a number enters an expression."""
    return Literal(as_rational(value))


def neg(x: Expr) -> Expr:
    if isinstance(x, Literal):
        return Literal(-x.value)
    if isinstance(x, Neg):
        return x.operand
    return Neg(x)


def add(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Literal) and isinstance(b, Literal):
        return _folded(operator.add, a, b)
    if a is _ZERO_LIT:
        return b
    if b is _ZERO_LIT:
        return a
    return Add(a, b)


def sub(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Literal) and isinstance(b, Literal):
        return _folded(operator.sub, a, b)
    if b is _ZERO_LIT:
        return a
    if a is _ZERO_LIT:
        return neg(b)
    return Sub(a, b)


def mul(a: Expr, b: Expr) -> Expr:
    if isinstance(a, Literal) and isinstance(b, Literal):
        return _folded(operator.mul, a, b)
    if a is _ZERO_LIT or b is _ZERO_LIT:
        return _ZERO_LIT
    if a is _ONE_LIT:
        return b
    if b is _ONE_LIT:
        return a
    return Mul(a, b)


def div(a: Expr, b: Expr) -> Expr:
    if certified_sign(b) is Sign.ZERO:
        raise DivisionByZero("divisor is certified zero")
    if isinstance(a, Literal) and isinstance(b, Literal):
        return _folded(operator.truediv, a, b)
    if b is _ONE_LIT:
        return a
    if a is _ZERO_LIT:
        return _ZERO_LIT
    return Div(a, b)


def sqrt_(x: Expr) -> Expr:
    sign = certified_sign(x)
    if sign is Sign.NEGATIVE:
        raise CertificationError("square root of a certified-negative value")
    if sign is Sign.ZERO:
        return _ZERO_LIT
    if isinstance(x, Literal):  # a positive literal: fold a rational root
        p, q = x.value.as_integer_ratio()
        r, s = perfect_sqrt(p), perfect_sqrt(q)
        if r is not None and s is not None:
            return Literal(Fraction(r, s))
    return Sqrt(x)


# ---------------------------------------------------------------------------
# exact normalization into one quadratic tower
#
# Values u + v*sqrt(r) with u, v in GOLDEN and one shared radicand r
# (positive, not a square in GOLDEN): the generic Quadratic over GOLDEN,
# whose elements are integer triples, so that all of the tower's
# arithmetic is on ints.  Literals enter through GOLDEN.of and a
# rational value leaves through GOLDEN.rational; nothing here reads a
# GOLDEN element itself.  This is the exact engine behind
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
        return GOLDEN.of(node.value), GOLDEN.zero

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
        _, (g, v) = _tower_normalize(x)
    except (NotInField, DivisionByZero):
        return None
    return GOLDEN.rational(g) if GOLDEN.is_zero(v) else None


# ---------------------------------------------------------------------------
# interval evaluation and refinement


# The enclosures of the open enclosure_memo scope, one dict per working
# precision; None outside every scope, so none outlives it.
_memo: ContextVar[dict[int, dict[Expr, iv.IntPair]] | None] = ContextVar("enclosure_memo", default=None)


@contextmanager
def enclosure_memo() -> Iterator[None]:
    """The request scope: inside it, :func:`eval_interval` keeps the
    enclosures of the subterms it computes, so each shared subterm is
    enclosed once per working precision.  A scope opened inside another
    joins it; the memo is dropped when the outermost scope ends, by an
    exception too.  Enclosures are deterministic and the work budget is
    charged per question whatever the memo holds, so no verdict depends
    on what was asked before it in the scope."""
    if _memo.get() is not None:
        yield
        return
    token = _memo.set({})
    try:
        yield
    finally:
        _memo.reset(token)


def eval_interval(x: Expr, working_bits: int) -> iv.IntPair:
    """Enclosure of x at scale 2**-working_bits.

    Inside an :func:`enclosure_memo` scope, subterms enclosed before at
    this precision are not enclosed again.  Raises
    :class:`interval.StraddlesZero` when a divisor interval contains
    zero at this precision; callers refine and retry.  Raises
    :class:`PrecisionExhausted` when a product or quotient is too wide
    for :func:`_within_budget`.
    """
    memo = _memo.get()
    if memo is None:
        return fold(x, *interval_algebra(working_bits))
    values = memo.setdefault(working_bits, {})
    enclosure = values.get(x)
    if enclosure is None:
        enclosure = fold(x, *interval_algebra(working_bits), values)
        # the memo keeps the subterms, not the value asked for: that is
        # most often a fresh coordinate or difference that nothing
        # shares, and keeping it until the scope ends would only raise
        # the request's peak memory; an entry found is kept
        del values[x]
    return enclosure


def _bounded(op: Callable[[iv.IntPair, iv.IntPair, int], iv.IntPair], w: int) -> Callable:
    """``op`` at scale 2**-w, refusing a result too wide for
    :func:`_within_budget`."""

    def bounded(x: iv.IntPair, y: iv.IntPair) -> iv.IntPair:
        lo, hi = op(x, y, w)
        _within_budget(max(lo.bit_length(), hi.bit_length()), "an enclosure")
        return lo, hi

    return bounded


@lru_cache(maxsize=64)
def interval_algebra(w: int) -> tuple[Callable, dict[type, Callable]]:
    """fold's leaf and ops for enclosures at scale 2**-w: the enclosure
    of a node is its class's op applied to its children's enclosures."""

    def leaf(node: Literal) -> iv.IntPair:
        return iv.from_fraction(node.value, w)

    return leaf, {
        Add: iv.add,
        Sub: iv.sub,
        Neg: iv.neg,
        Mul: _bounded(iv.mul, w),
        Div: _bounded(iv.div, w),
        Sqrt: partial(iv.sqrt, w=w),
    }


def _size(x: Expr) -> int:
    """The number of distinct nodes of ``x``."""
    nodes = 0

    def count(*_) -> None:
        nonlocal nodes
        nodes += 1

    fold(x, count, dict.fromkeys((Add, Sub, Mul, Div, Neg, Sqrt), count))
    return nodes


def enclosures(x: Expr, start: int) -> Iterator[tuple[int, int, int]]:
    """The refinement of ``x``: ``(w, lo, hi)`` with ``lo * 2**-w <= x <=
    hi * 2**-w`` for ``w = start, 2*start, ...`` (``start > 0``).

    The first enclosure is not charged, but is bounded: like every
    enclosure, it raises :class:`PrecisionExhausted` at a product or
    quotient too wide for one operation's charge (:func:`eval_interval`).
    Each later one is charged against :data:`WORK_BUDGET`, and
    :class:`PrecisionExhausted` is raised in place of the first that
    would overspend it.  A precision at which a
    divisor interval straddles zero is skipped.  The schedule is
    deterministic, and so are the enclosures.
    """
    w, spent, nodes = start, 0, 0
    while True:
        if w > start:
            nodes = nodes or _size(x)
            cost = nodes * (w // 64) ** 2
            if spent + cost > WORK_BUDGET:
                raise PrecisionExhausted(f"refinement spent {spent} of {WORK_BUDGET} word operations")
            spent += cost
        try:
            lo, hi = eval_interval(x, w)
        except iv.StraddlesZero:
            pass
        else:
            yield w, lo, hi
        w *= 2


def certified_sign(x: Expr) -> Sign:
    """Rigorous sign of an expression: the one sign procedure.

    A literal's sign is its numerator's, read with no enclosure.  For
    any other node, every enclosure that excludes zero gives the sign;
    the first one at 64 bits settles most nonzero values.  When it does
    not, the exact normal form decides every value in the tower, and
    otherwise the refinement goes on: an enclosure inside ``(-2**-b,
    2**-b)`` for the separation bound ``b`` of :func:`separation_bits`
    proves zero.
    Raises :class:`PrecisionExhausted` when the refinement runs out of
    :data:`WORK_BUDGET` first.
    """
    if isinstance(x, Literal):
        n = x.value.numerator
        return Sign.POSITIVE if n > 0 else Sign.NEGATIVE if n < 0 else Sign.ZERO
    bits = None
    for w, lo, hi in enclosures(x, SIGN_REFINE_START):
        if lo > 0 or hi < 0:
            return Sign.POSITIVE if lo > 0 else Sign.NEGATIVE
        if bits is None:
            sign = exact_sign(x)
            if sign is not None:
                return sign
            bits = separation_bits(x)
        reach = max(-lo, hi)  # |x| <= reach * 2**-w
        if reach == 0 or reach.bit_length() + bits <= w:
            return Sign.ZERO


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

