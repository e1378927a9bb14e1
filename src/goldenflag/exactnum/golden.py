"""Exact arithmetic in quadratic extensions of the rationals.

Every golden-section quantity (phi, phi**2, 2+sqrt(5), ...) lives
exactly in :data:`GOLDEN`, the field Q(sqrt5); a nested radical such as
``sqrt(10 - 2*sqrt(5))`` lives one level up, in a :class:`Quadratic`
over :data:`GOLDEN`.  An algebra is an object whose methods act on
plain values: a canonical integer triple ``(a, b, d)`` meaning
``(a + b*sqrt(5))/d`` in :data:`GOLDEN`, a pair ``(a, b)`` of
:data:`GOLDEN` elements meaning ``a + b*sqrt(r)`` in a
:class:`Quadratic`.  The representation of a value is unique, so
equality is tuple equality and sign is decided by exact integer
comparisons, never floating point.  Only this module reads a
:data:`GOLDEN` triple: other code makes one with ``GOLDEN.of`` and
reads a rational one back with ``GOLDEN.rational``.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import gcd, isqrt

from ..errors import DivisionByZero
from .rational import Rational


class Sign(enum.Enum):
    """Exhaustive three-way sign classification."""

    NEGATIVE = -1
    ZERO = 0
    POSITIVE = 1

    @property
    def is_nonnegative(self) -> bool:
        return self is not Sign.NEGATIVE


# indexed by (n > 0) - (n < 0), so -1 is the last
_SIGNS = (Sign.ZERO, Sign.POSITIVE, Sign.NEGATIVE)


def _canonical(a: int, b: int, d: int) -> tuple[int, int, int]:
    """The triple of ``(a + b*sqrt5)/d`` for ``d > 0``: lowest terms."""
    g = gcd(a, b, d)
    return (a, b, d) if g == 1 else (a // g, b // g, d // g)


def _root(n: int) -> int | None:
    """The integer square root of ``n`` when ``n`` is a square, else None."""
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None


class _Golden:
    """The field Q(sqrt5).

    Its elements are canonical integer triples ``(a, b, d)`` meaning
    ``(a + b*sqrt5)/d``, with ``d > 0`` and ``gcd(a, b, d) == 1``: the
    integer coefficient vector over one common denominator that is the
    standard representation of a number-field element (Cohen, "A Course
    in Computational Algebraic Number Theory", GTM 138, 4.2).  Each
    operation works on ints and reduces by one gcd (``div``, a product
    by an inverse, by two); a product by a rational (``b == 0``) skips
    the ``sqrt5`` cross terms, and the inverse of one needs no gcd.
    """

    zero = (0, 0, 1)
    one = (1, 0, 1)

    @staticmethod
    def of(a: Rational | int, b: Rational | int = 0) -> tuple[int, int, int]:
        """The element ``a + b*sqrt5`` for rationals ``a`` and ``b``."""
        p, q = a.as_integer_ratio()
        if not b:
            return p, 0, q
        r, s = b.as_integer_ratio()
        return _canonical(p * s, r * q, q * s)

    @staticmethod
    def rational(x: tuple) -> Fraction | None:
        """The value of ``x`` as a Fraction when it is rational, else None."""
        a, b, d = x
        return None if b else Fraction(a, d)

    @staticmethod
    def add(x: tuple, y: tuple) -> tuple:
        a1, b1, d1 = x
        a2, b2, d2 = y
        if d1 == d2:
            return _canonical(a1 + a2, b1 + b2, d1)
        return _canonical(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)

    @staticmethod
    def sub(x: tuple, y: tuple) -> tuple:
        a1, b1, d1 = x
        a2, b2, d2 = y
        if d1 == d2:
            return _canonical(a1 - a2, b1 - b2, d1)
        return _canonical(a1 * d2 - a2 * d1, b1 * d2 - b2 * d1, d1 * d2)

    @staticmethod
    def neg(x: tuple) -> tuple:
        a, b, d = x
        return -a, -b, d

    @staticmethod
    def mul(x: tuple, y: tuple) -> tuple:
        a1, b1, d1 = x
        a2, b2, d2 = y
        if not b2:
            return _canonical(a1 * a2, b1 * a2, d1 * d2)
        if not b1:
            return _canonical(a1 * a2, a1 * b2, d1 * d2)
        return _canonical(a1 * a2 + 5 * b1 * b2, a1 * b2 + b1 * a2, d1 * d2)

    @staticmethod
    def is_zero(x: tuple) -> bool:
        return not x[0] and not x[1]

    @staticmethod
    def sign(x: tuple) -> Sign:
        """The sign of ``a + b*sqrt5`` (``d > 0``): when ``a`` and ``b``
        have opposite signs, the larger of ``a**2`` and ``5*b**2`` wins."""
        a, b, _ = x
        if a * b < 0 and a * a > 5 * b * b:
            return _SIGNS[(a > 0) - (a < 0)]
        lead = b or a
        return _SIGNS[(lead > 0) - (lead < 0)]

    @staticmethod
    def inverse(x: tuple) -> tuple:
        """``d/(a + b*sqrt5) = d*(a - b*sqrt5)/(a**2 - 5*b**2)``; raises
        DivisionByZero at zero."""
        a, b, d = x
        if not b:
            if not a:
                raise DivisionByZero("division by zero")
            return (d, 0, a) if a > 0 else (-d, 0, -a)
        norm = a * a - 5 * b * b  # nonzero, as sqrt5 is irrational
        if norm < 0:
            return _canonical(-d * a, d * b, -norm)
        return _canonical(d * a, -d * b, norm)

    def div(self, x: tuple, y: tuple) -> tuple:
        return self.mul(x, self.inverse(y))

    def sqrt(self, x: tuple) -> tuple | None:
        """The nonnegative square root of ``x`` in Q(sqrt5), or None.

        ``sqrt(x) = sqrt(y)/d`` for the integral ``y = A + B*sqrt5``,
        ``A = a*d`` and ``B = b*d``.  For ``B == 0`` the root is
        ``sqrt(A)`` or ``sqrt(5*A)/5``, when that is an integer.
        Otherwise this is :meth:`Quadratic.sqrt`'s denesting over the
        integers: a root ``p + q*sqrt5`` needs the norm ``A**2 - 5*B**2``
        to be a square ``n**2`` and ``p**2`` to be ``(A + n)/2`` or
        ``(A - n)/2``, so that ``m = 2*p`` is the integer root of
        ``2*(A +- n)``, and then ``q = B/m``.
        """
        sign = self.sign(x)
        if sign is Sign.NEGATIVE:
            return None
        if sign is Sign.ZERO:
            return self.zero
        a, b, d = x
        A, B = a * d, b * d
        if not B:
            m = _root(A)
            if m is not None:
                return _canonical(m, 0, d)
            m = _root(5 * A)
            return None if m is None else _canonical(0, m, 5 * d)
        n = _root(A * A - 5 * B * B)
        if n is None:
            return None
        for t in (A + n, A - n):
            m = _root(2 * t)
            if m:  # nonzero, since t == 0 would need B == 0
                # +-(m/2 + (B/m)*sqrt5), over the denominator d
                root = _canonical(m * m, 2 * B, 2 * m * d)
                return root if self.sign(root) is Sign.POSITIVE else self.neg(root)
        return None


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


GOLDEN = _Golden()
"""Q(sqrt5): the triple ``(a, b, d)`` is ``(a + b*sqrt(5))/d``."""

PHI = GOLDEN.of(Fraction(1, 2), Fraction(1, 2))
