"""Exact arithmetic in quadratic extensions of the rationals.

Every golden-section quantity (phi, phi**2, 2+sqrt(5), ...) lives
exactly in :data:`GOLDEN`, the field of ``a + b*sqrt(5)``; a nested
radical such as ``sqrt(10 - 2*sqrt(5))`` lives one level up, in a
:class:`Quadratic` over :data:`GOLDEN`.  An algebra is an object whose
methods act on plain values: a :class:`~fractions.Fraction` in
:data:`Rationals`, a pair ``(a, b)`` meaning ``a + b*sqrt(r)`` in a
:class:`Quadratic`.  The pair of a value is unique, so equality is
componentwise and sign is decided by exact comparisons, never floating
point.
"""

from __future__ import annotations

import enum
import operator
from fractions import Fraction

from ..errors import DivisionByZero
from .rational import is_perfect_square


class Sign(enum.Enum):
    """Exhaustive three-way sign classification."""

    NEGATIVE = -1
    ZERO = 0
    POSITIVE = 1

    @staticmethod
    def of_rational(q: Fraction) -> "Sign":
        if q > 0:
            return Sign.POSITIVE
        if q < 0:
            return Sign.NEGATIVE
        return Sign.ZERO

    @property
    def is_nonnegative(self) -> bool:
        return self is not Sign.NEGATIVE


_ONE = Fraction(1)


class _Rationals:
    """The field Q: its elements are Fractions (ints are accepted)."""

    zero = Fraction(0)
    one = _ONE
    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    neg = staticmethod(operator.neg)
    mul = staticmethod(operator.mul)
    is_zero = staticmethod(operator.not_)
    sign = staticmethod(Sign.of_rational)
    sqrt = staticmethod(is_perfect_square)

    @staticmethod
    def inverse(a: Fraction) -> Fraction:
        if not a:
            raise DivisionByZero("division by zero")
        return _ONE / a  # a Fraction even when a is an int

    def div(self, a: Fraction, b: Fraction) -> Fraction:
        return a * self.inverse(b)


Rationals = _Rationals()


class Quadratic:
    """The field ``base(sqrt(radicand))``.

    Its elements are pairs ``(a, b)`` of ``base`` elements, meaning
    ``a + b*sqrt(radicand)``.  ``radicand`` is positive and not a square
    in ``base``, so the pair of a value is unique and the norm
    ``a**2 - b**2*radicand`` is zero only at zero.  While every element
    has ``b == 0`` the radicand is never read and may still be None.
    """

    def __init__(self, base, radicand) -> None:
        self.base = base
        self.radicand = radicand
        self.zero = (base.zero, base.zero)
        self.one = (base.one, base.zero)
        self._two = base.add(base.one, base.one)

    def add(self, x: tuple, y: tuple) -> tuple:
        add = self.base.add
        return add(x[0], y[0]), add(x[1], y[1])

    def sub(self, x: tuple, y: tuple) -> tuple:
        sub = self.base.sub
        return sub(x[0], y[0]), sub(x[1], y[1])

    def neg(self, x: tuple) -> tuple:
        neg = self.base.neg
        return neg(x[0]), neg(x[1])

    def mul(self, x: tuple, y: tuple) -> tuple:
        base = self.base
        (a, b), (c, d) = x, y
        if base.is_zero(d):
            return base.mul(a, c), base.mul(b, c)
        if base.is_zero(b):
            return base.mul(a, c), base.mul(a, d)
        # (a + b s)(c + d s) = ac + bd r + (ad + bc) s
        return (
            base.add(base.mul(a, c), base.mul(base.mul(b, d), self.radicand)),
            base.add(base.mul(a, d), base.mul(b, c)),
        )

    def norm(self, x: tuple):
        """``a**2 - b**2*radicand``, the product of ``x`` and its conjugate."""
        base = self.base
        a, b = x
        return base.sub(base.mul(a, a), base.mul(base.mul(b, b), self.radicand))

    def is_zero(self, x: tuple) -> bool:
        is_zero = self.base.is_zero
        return is_zero(x[0]) and is_zero(x[1])

    def inverse(self, x: tuple) -> tuple:
        """``1/(a + b s) = (a - b s)/norm``; raises DivisionByZero at zero."""
        base = self.base
        a, b = x
        if base.is_zero(b):
            return base.inverse(a), b
        scale = base.inverse(self.norm(x))
        return base.mul(a, scale), base.neg(base.mul(b, scale))

    def div(self, x: tuple, y: tuple) -> tuple:
        return self.mul(x, self.inverse(y))

    def sign(self, x: tuple) -> Sign:
        """Exact sign: when ``a`` and ``b*sqrt(r)`` have opposite signs the
        larger in magnitude wins, and ``a**2`` against ``b**2*r`` is the
        sign of the norm."""
        base = self.base
        a, b = x
        if base.is_zero(b):
            return base.sign(a)
        sign_b = base.sign(b)
        if base.is_zero(a):
            return sign_b
        sign_a = base.sign(a)
        if sign_a is sign_b:
            return sign_a
        return sign_a if base.sign(self.norm(x)) is Sign.POSITIVE else sign_b

    def sqrt(self, x: tuple) -> tuple | None:
        """The nonnegative square root of ``x`` in this field, or None.

        Denesting (Borodin, Fagin, Hopcroft & Tompa, "Decreasing the
        nesting depth of expressions involving square roots", J. Symbolic
        Comput. 1985): if ``sqrt(a + b s) = p + q s`` then ``2pq = b`` and
        ``p**2`` is a root of ``t**2 - a t + b**2 r/4``.  So a root exists
        only when the norm ``a**2 - b**2 r`` is the square of some ``n`` in
        the base, and then ``p**2`` is ``(a + n)/2`` or ``(a - n)/2`` and
        ``q = b/(2p)``.  For ``b != 0`` at most one of the two is a square,
        as their product ``b**2 r/4`` is not.
        """
        sign = self.sign(x)
        if sign is Sign.NEGATIVE:
            return None
        if sign is Sign.ZERO:
            return self.zero
        base = self.base
        a, b = x
        if base.is_zero(b):
            p = base.sqrt(a)
            if p is not None:
                return p, b
            q = base.sqrt(base.div(a, self.radicand))
            return None if q is None else (b, q)
        n = base.sqrt(self.norm(x))
        if n is None:
            return None
        for t in (base.add(a, n), base.sub(a, n)):
            p = base.sqrt(base.div(t, self._two))
            if p is not None:  # and nonzero, since t == 0 would need b == 0
                root = p, base.div(b, base.add(p, p))
                return root if self.sign(root) is Sign.POSITIVE else self.neg(root)
        return None


GOLDEN = Quadratic(Rationals, Fraction(5))
"""Q(sqrt5): the pair ``(a, b)`` is ``a + b*sqrt(5)``."""

PHI = (Fraction(1, 2), Fraction(1, 2))
