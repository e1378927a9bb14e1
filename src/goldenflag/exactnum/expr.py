"""Constructible-number expressions with certified side conditions.

An expression is a finite DAG over rationals built from +, -, *, /, and
square roots (shared subterms are permitted and encouraged).  The two
side conditions are certified when a node is constructed:

* every ``Sqrt`` operand has certified sign >= 0,
* every ``Div`` divisor has certified sign != 0.

Certification first tries one 64-bit interval enclosure, which settles
every sign it separates from zero.  It then takes an exact route
(normalization into the a+b*sqrt(5) field, or into a single quadratic
extension of it) and falls back to interval refinement with a
deterministic doubling schedule, from 128 bits up to a cap of 4096 bits.

Evaluation returns a :class:`Ball` (center +/- radius, both dyadic
rationals) that rigorously contains the exact value.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from ..errors import (
    CertificationError,
    DivisionByZero,
    NotInField,
    PrecisionExhausted,
)
from . import interval as iv
from .golden import GN_ZERO, GoldenNumber, Sign, gn_sqrt
from .rational import Rational, as_rational, is_perfect_square

SIGN_REFINE_START = 64
SIGN_REFINE_CAP = 4096

ExprLike = Union["Expr", int, Fraction]


# ---------------------------------------------------------------------------
# nodes


class Expr:
    """Base class for expression nodes.  Instances are immutable and
    compare structurally."""

    __slots__ = ()

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


@dataclass(frozen=True, repr=True)
class Literal(Expr):
    value: Rational


@dataclass(frozen=True)
class Add(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Sub(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Mul(Expr):
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Div(Expr):
    num: Expr
    den: Expr


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True)
class Sqrt(Expr):
    operand: Expr


def _coerce(value: ExprLike) -> Expr:
    if isinstance(value, Expr):
        return value
    return Literal(as_rational(value))


_ZERO = Fraction(0)
_ONE = Fraction(1)


def _is_literal(e: Expr, q: Fraction | None = None) -> bool:
    if not isinstance(e, Literal):
        return False
    return q is None or e.value == q


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
    if _is_literal(a, _ZERO):
        return b
    if _is_literal(b, _ZERO):
        return a
    return Add(a, b)


def sub(a: ExprLike, b: ExprLike) -> Expr:
    a, b = _coerce(a), _coerce(b)
    if isinstance(a, Literal) and isinstance(b, Literal):
        return Literal(a.value - b.value)
    if _is_literal(b, _ZERO):
        return a
    if _is_literal(a, _ZERO):
        return neg(b)
    return Sub(a, b)


def mul(a: ExprLike, b: ExprLike) -> Expr:
    a, b = _coerce(a), _coerce(b)
    if isinstance(a, Literal) and isinstance(b, Literal):
        return Literal(a.value * b.value)
    if _is_literal(a, _ZERO) or _is_literal(b, _ZERO):
        return Literal(_ZERO)
    if _is_literal(a, _ONE):
        return b
    if _is_literal(b, _ONE):
        return a
    return Mul(a, b)


def div(a: ExprLike, b: ExprLike) -> Expr:
    a, b = _coerce(a), _coerce(b)
    if certified_sign(b) is Sign.ZERO:
        raise DivisionByZero("divisor is certified zero")
    if isinstance(a, Literal) and isinstance(b, Literal):
        return Literal(a.value / b.value)
    if _is_literal(b, _ONE):
        return a
    if _is_literal(a, _ZERO):
        return Literal(_ZERO)
    return Div(a, b)


def sqrt_(x: ExprLike) -> Expr:
    x = _coerce(x)
    sign = certified_sign(x)
    if sign is Sign.NEGATIVE:
        raise CertificationError("square root of a certified-negative value")
    if sign is Sign.ZERO:
        return Literal(_ZERO)
    if isinstance(x, Literal):
        root = is_perfect_square(x.value)
        if root is not None:
            return Literal(root)
    return Sqrt(x)


# ---------------------------------------------------------------------------
# exact normalization into a + b*sqrt(5)


def gn_normalize(x: Expr) -> GoldenNumber:
    """Exact value of ``x`` in the a+b*sqrt(5) field.

    Succeeds when, bottom-up, every square root is taken of a
    nonnegative *rational* equal to r**2 or 5*r**2 for rational r.
    Raises :class:`NotInField` as soon as a subterm provably escapes
    that syntactic criterion (e.g. ``sqrt(10 - 2*sqrt(5))``).
    """
    memo: dict[int, GoldenNumber] = {}

    def walk(node: Expr) -> GoldenNumber:
        found = memo.get(id(node))
        if found is not None:
            return found
        if isinstance(node, Literal):
            result = GoldenNumber.from_rational(node.value)
        elif isinstance(node, Add):
            result = walk(node.lhs) + walk(node.rhs)
        elif isinstance(node, Sub):
            result = walk(node.lhs) - walk(node.rhs)
        elif isinstance(node, Mul):
            result = walk(node.lhs) * walk(node.rhs)
        elif isinstance(node, Div):
            den = walk(node.den)
            if den.is_zero:
                raise DivisionByZero("normalized divisor is zero")
            result = walk(node.num) / den
        elif isinstance(node, Neg):
            result = -walk(node.operand)
        elif isinstance(node, Sqrt):
            operand = walk(node.operand)
            if not operand.is_rational:
                raise NotInField(f"sqrt of irrational {operand}")
            q = operand.a
            if q < 0:
                raise CertificationError("sqrt of negative rational")
            root = gn_sqrt(operand)
            if root is None:
                raise NotInField(f"sqrt({q}) is not in the field")
            result = root
        else:  # pragma: no cover - node set is closed
            raise TypeError(f"unknown node {node!r}")
        memo[id(node)] = result
        return result

    return walk(x)


# ---------------------------------------------------------------------------
# quadratic-tower normalization (internal)
#
# Values of the form u + v*sqrt(r) with u, v in the a+b*sqrt(5) field
# and one shared radicand r (positive, not a perfect square in the
# field).  This is the exact engine behind sign certification and
# identity proofs for single-nesting radicals: all the pentagon
# quantities live in one such extension, because
# sqrt(10-2*sqrt(5)) * sqrt(10+2*sqrt(5)) = 4*sqrt(5).


class _TowerFail(Exception):
    pass


@dataclass
class _TowerValue:
    u: GoldenNumber
    v: GoldenNumber


class _Tower:
    def __init__(self) -> None:
        self.radicand: GoldenNumber | None = None

    def value(self, u: GoldenNumber, v: GoldenNumber | None = None) -> _TowerValue:
        return _TowerValue(u, v if v is not None else GN_ZERO)

    def add(self, x: _TowerValue, y: _TowerValue) -> _TowerValue:
        return _TowerValue(x.u + y.u, x.v + y.v)

    def sub(self, x: _TowerValue, y: _TowerValue) -> _TowerValue:
        return _TowerValue(x.u - y.u, x.v - y.v)

    def neg(self, x: _TowerValue) -> _TowerValue:
        return _TowerValue(-x.u, -x.v)

    def mul(self, x: _TowerValue, y: _TowerValue) -> _TowerValue:
        uv = x.u * y.u
        if not (x.v.is_zero or y.v.is_zero):
            assert self.radicand is not None
            uv = uv + x.v * y.v * self.radicand
        return _TowerValue(uv, x.u * y.v + x.v * y.u)

    def div(self, x: _TowerValue, y: _TowerValue) -> _TowerValue:
        if y.v.is_zero:
            if y.u.is_zero:
                raise DivisionByZero("tower division by zero")
            inv = y.u.inverse()
            return _TowerValue(x.u * inv, x.v * inv)
        assert self.radicand is not None
        norm = y.u * y.u - y.v * y.v * self.radicand
        if norm.is_zero:
            # u^2 = v^2 r would make r a field square; impossible here.
            raise DivisionByZero("tower division by zero")
        inv = norm.inverse()
        conj = _TowerValue(y.u * inv, -(y.v * inv))
        return self.mul(x, conj)

    def sqrt(self, x: _TowerValue) -> _TowerValue:
        if not x.v.is_zero:
            raise _TowerFail  # nested deeper than one radical level
        g = x.u
        sign = g.sign()
        if sign is Sign.NEGATIVE:
            raise _TowerFail
        if sign is Sign.ZERO:
            return self.value(GN_ZERO)
        root = gn_sqrt(g)
        if root is not None:
            return self.value(root)
        if self.radicand is None:
            self.radicand = g
            return self.value(GN_ZERO, GoldenNumber.from_rational(1))
        if g == self.radicand:
            return self.value(GN_ZERO, GoldenNumber.from_rational(1))
        # sqrt(g) = s/r * sqrt(r)  when  g*r = s^2 in the field.
        s = gn_sqrt(g * self.radicand)
        if s is None:
            raise _TowerFail
        return self.value(GN_ZERO, s / self.radicand)

    def sign(self, x: _TowerValue) -> Sign:
        if x.v.is_zero:
            return x.u.sign()
        if x.u.is_zero:
            return x.v.sign()
        su, sv = x.u.sign(), x.v.sign()
        if su is sv:
            return su
        assert self.radicand is not None
        gap = x.u * x.u - x.v * x.v * self.radicand
        return su if gap.sign() is Sign.POSITIVE else sv


def _tower_normalize(x: Expr) -> tuple[_Tower, _TowerValue]:
    """Exact normal form in one quadratic extension, or _TowerFail."""
    tower = _Tower()
    memo: dict[int, _TowerValue] = {}

    def walk(node: Expr) -> _TowerValue:
        found = memo.get(id(node))
        if found is not None:
            return found
        if isinstance(node, Literal):
            result = tower.value(GoldenNumber.from_rational(node.value))
        elif isinstance(node, Add):
            result = tower.add(walk(node.lhs), walk(node.rhs))
        elif isinstance(node, Sub):
            result = tower.sub(walk(node.lhs), walk(node.rhs))
        elif isinstance(node, Mul):
            result = tower.mul(walk(node.lhs), walk(node.rhs))
        elif isinstance(node, Div):
            result = tower.div(walk(node.num), walk(node.den))
        elif isinstance(node, Neg):
            result = tower.neg(walk(node.operand))
        elif isinstance(node, Sqrt):
            result = tower.sqrt(walk(node.operand))
        else:  # pragma: no cover
            raise TypeError(f"unknown node {node!r}")
        memo[id(node)] = result
        return result

    return tower, walk(x)


def exact_sign(x: Expr) -> Sign | None:
    """Sign via exact normalization when the value lies in the
    supported tower; None when it does not."""
    try:
        tower, value = _tower_normalize(x)
    except _TowerFail:
        return None
    return tower.sign(value)


def exact_rational(x: Expr) -> Fraction | None:
    """Exact rational value when normalization proves one, else None."""
    try:
        tower, value = _tower_normalize(x)
    except (_TowerFail, DivisionByZero):
        return None
    if value.v.is_zero and value.u.is_rational:
        return value.u.a
    return None


# ---------------------------------------------------------------------------
# interval evaluation and balls


def eval_interval(x: Expr, working_bits: int) -> iv.IntPair:
    """Enclosure of x at scale 2**-working_bits.

    Raises :class:`interval.StraddlesZero` when a divisor interval
    contains zero at this precision; callers refine and retry.
    """
    memo: dict[int, iv.IntPair] = {}

    def walk(node: Expr) -> iv.IntPair:
        found = memo.get(id(node))
        if found is not None:
            return found
        if isinstance(node, Literal):
            result = iv.from_fraction(node.value, working_bits)
        elif isinstance(node, Add):
            result = iv.add(walk(node.lhs), walk(node.rhs))
        elif isinstance(node, Sub):
            result = iv.sub(walk(node.lhs), walk(node.rhs))
        elif isinstance(node, Mul):
            result = iv.mul(walk(node.lhs), walk(node.rhs), working_bits)
        elif isinstance(node, Div):
            result = iv.div(walk(node.num), walk(node.den), working_bits)
        elif isinstance(node, Neg):
            result = iv.neg(walk(node.operand))
        elif isinstance(node, Sqrt):
            result = iv.sqrt(walk(node.operand), working_bits)
        else:  # pragma: no cover
            raise TypeError(f"unknown node {node!r}")
        memo[id(node)] = result
        return result

    return walk(x)


@dataclass(frozen=True)
class Ball:
    """A rigorous enclosure ``[center - radius, center + radius]``.

    Both fields are dyadic rationals (arbitrary-precision binary
    floats); the exact value of the evaluated expression is guaranteed
    to lie inside.
    """

    center: Fraction
    radius: Fraction

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise ValueError("negative radius")

    def lower(self) -> Fraction:
        return self.center - self.radius

    def upper(self) -> Fraction:
        return self.center + self.radius

    def contains(self, value: Fraction) -> bool:
        return self.lower() <= value <= self.upper()

    def sign(self) -> Sign | None:
        """Sign when the ball excludes zero, else None."""
        if self.lower() > 0:
            return Sign.POSITIVE
        if self.upper() < 0:
            return Sign.NEGATIVE
        if self.radius == 0 and self.center == 0:
            return Sign.ZERO
        return None


def _ball_from_pair(pair: iv.IntPair, working_bits: int) -> Ball:
    lo, hi = iv.to_fractions(pair, working_bits)
    return Ball((lo + hi) / 2, (hi - lo) / 2)


def expr_eval(x: Expr, precision_bits: int) -> Ball:
    """Evaluate with a certified relative error bound.

    The returned ball satisfies
    ``radius <= 2**-precision_bits * max(1, |center|)``.  Working
    precision starts just above the request and doubles as needed (the
    growth is what pays for cancellation in deep DAGs); a generous
    deterministic cap turns pathological inputs into
    :class:`PrecisionExhausted` instead of an endless loop.
    """
    if precision_bits <= 0:
        raise ValueError("precision_bits must be positive")
    w = max(SIGN_REFINE_START, precision_bits + 32)
    cap = max(SIGN_REFINE_CAP, 64 * (precision_bits + 32))
    tolerance_scale = Fraction(1, 1 << precision_bits)
    while w <= cap:
        try:
            pair = eval_interval(x, w)
        except iv.StraddlesZero:
            w *= 2
            continue
        ball = _ball_from_pair(pair, w)
        bound = tolerance_scale * max(_ONE, abs(ball.center))
        if ball.radius <= bound:
            return ball
        w *= 2
    raise PrecisionExhausted(
        f"could not reach 2**-{precision_bits} relative radius within {cap} bits"
    )


def _interval_sign(x: Expr, working_bits: int) -> Sign | None:
    """Sign when the enclosure at this precision excludes zero, else None."""
    try:
        lo, hi = eval_interval(x, working_bits)
    except iv.StraddlesZero:
        return None
    if lo > 0:
        return Sign.POSITIVE
    if hi < 0:
        return Sign.NEGATIVE
    return None


def certified_sign(x: Expr, cap_bits: int = SIGN_REFINE_CAP) -> Sign:
    """Rigorous sign of an expression.

    Layer 0 is one interval enclosure at 64 bits: when it excludes zero
    it is a proof, and most nonzero values are settled there.  Otherwise
    the exact normal form runs (which also decides exact zero), then
    interval refinement from 128 bits doubling up to the cap.  Raises
    :class:`PrecisionExhausted` when no route certifies.
    """
    sign = _interval_sign(x, SIGN_REFINE_START)
    if sign is None:
        sign = exact_sign(x)
    w = 2 * SIGN_REFINE_START
    while sign is None and w <= cap_bits:
        sign = _interval_sign(x, w)
        w *= 2
    if sign is None:
        raise PrecisionExhausted(f"sign not certified within {cap_bits} bits")
    return sign


# ---------------------------------------------------------------------------
# shared constant subterms

SQRT5_EXPR = Sqrt(Literal(Fraction(5)))
PHI_EXPR = Div(Add(Literal(Fraction(1)), SQRT5_EXPR), Literal(Fraction(2)))


def gn_to_expr(g: GoldenNumber) -> Expr:
    """Expression form of an exact field element."""
    return add(lit(g.a), mul(lit(g.b), SQRT5_EXPR))
