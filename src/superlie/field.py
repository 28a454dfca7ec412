"""Exact arithmetic in the field Q(i, sqrt2).

Every scalar is ``a + b*i + c*sqrt2 + d*i*sqrt2`` with rational coordinates.
This field is closed under the square roots needed by the degeneration
witnesses (it contains i, sqrt2, 1/sqrt2, sqrt(-1/2), ...), and equality is
decidable, so all verification in the package is exact.

An element is stored as four integer numerators ``n0..n3`` over one integer
denominator ``q``.  Every operation leaves it in canonical form: ``q > 0``
and ``gcd(n0, n1, n2, n3, q) == 1``, so zero is ``0/1`` and equal elements
have equal slots.

``field_sqrt`` finds a root A + B*sqrt2 of X + Y*sqrt2 (A, B, X, Y in Q(i))
from its norm n = A^2 - 2*B^2, a square root of X^2 - 2*Y^2: then
A^2 = (X + n)/2 and B^2 = (X - n)/4.  All three are Gaussian-integer roots
taken from the integer slots of x.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from math import gcd
from typing import Optional, Union


def _raw(n0, n1, n2, n3, q):
    # internal constructor for slots already in canonical form
    x = _alloc(FieldElem)
    x.n0 = n0
    x.n1 = n1
    x.n2 = n2
    x.n3 = n3
    x.q = q
    return x


def _reduced(n0, n1, n2, n3, q):
    # internal constructor for integer numerators over q > 0
    g = gcd(n0, n1, n2, n3, q)
    if g != 1:
        n0 //= g
        n1 //= g
        n2 //= g
        n3 //= g
        q //= g
    return _raw(n0, n1, n2, n3, q)


class FieldElem:
    """An element a + b*i + c*sqrt2 + d*i*sqrt2 of Q(i, sqrt2).

    The coordinates are ``int`` or ``Fraction``; ``.a``, ``.b``, ``.c``,
    ``.d`` and ``coords()`` give them back as ``Fraction``.
    """

    __slots__ = ("n0", "n1", "n2", "n3", "q")

    def __init__(self, a=0, b=0, c=0, d=0):
        coords = (a, b, c, d)
        for v in coords:
            if not isinstance(v, (int, Fraction)):
                raise TypeError("FieldElem coordinates must be int or "
                                f"Fraction, not {type(v).__name__}")
        # Over the lcm of reduced denominators the numerators are coprime
        # to q already, so no gcd is needed here.
        q = math.lcm(a.denominator, b.denominator, c.denominator,
                     d.denominator)
        self.n0, self.n1, self.n2, self.n3 = (
            v.numerator * (q // v.denominator) for v in coords)
        self.q = q

    @property
    def a(self) -> Fraction:
        return Fraction(self.n0, self.q)

    @property
    def b(self) -> Fraction:
        return Fraction(self.n1, self.q)

    @property
    def c(self) -> Fraction:
        return Fraction(self.n2, self.q)

    @property
    def d(self) -> Fraction:
        return Fraction(self.n3, self.q)

    def coords(self):
        return (self.a, self.b, self.c, self.d)

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not (self.n0 or self.n1 or self.n2 or self.n3)

    def is_rational(self) -> bool:
        return not (self.n1 or self.n2 or self.n3)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if type(other) is not FieldElem:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not (other.n0 or other.n1 or other.n2 or other.n3):
            return self
        if not (self.n0 or self.n1 or self.n2 or self.n3):
            return other
        q1, q2 = self.q, other.q
        if q1 == q2:
            return _reduced(self.n0 + other.n0, self.n1 + other.n1,
                            self.n2 + other.n2, self.n3 + other.n3, q1)
        return _reduced(self.n0 * q2 + other.n0 * q1,
                        self.n1 * q2 + other.n1 * q1,
                        self.n2 * q2 + other.n2 * q1,
                        self.n3 * q2 + other.n3 * q1, q1 * q2)

    __radd__ = __add__

    def __neg__(self):
        return _raw(-self.n0, -self.n1, -self.n2, -self.n3, self.q)

    def __sub__(self, other):
        if type(other) is not FieldElem:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if type(other) is not FieldElem:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a1, b1, c1, d1 = self.n0, self.n1, self.n2, self.n3
        a2, b2, c2, d2 = other.n0, other.n1, other.n2, other.n3
        q = self.q * other.q
        # rational factors (the overwhelmingly common case) scale coordinatewise
        if not (b1 or c1 or d1):
            if not a1:
                return self
            if not (b2 or c2 or d2):
                if not a2:
                    return other
                n = a1 * a2
                g = gcd(n, q)
                return _raw(n // g, 0, 0, 0, q // g)
            return _reduced(a1 * a2, a1 * b2, a1 * c2, a1 * d2, q)
        if not (b2 or c2 or d2):
            if not a2:
                return other
            return _reduced(a2 * a1, a2 * b1, a2 * c1, a2 * d1, q)
        # Write x = (a+bi) + (c+di)*sqrt2 and multiply over Q(i):
        # x1*x2 + 2*y1*y2 is the rational part, x1*y2 + y1*x2 the sqrt2 part.
        return _reduced(a1 * a2 - b1 * b2 + 2 * (c1 * c2 - d1 * d2),
                        a1 * b2 + b1 * a2 + 2 * (c1 * d2 + d1 * c2),
                        a1 * c2 - b1 * d2 + c1 * a2 - d1 * b2,
                        a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2, q)

    __rmul__ = __mul__

    def inv(self) -> "FieldElem":
        n0, n1, n2, n3, q = self.n0, self.n1, self.n2, self.n3, self.q
        if not (n1 or n2 or n3):
            if not n0:
                raise ZeroDivisionError("division by zero in Q(i, sqrt2)")
            return _raw(-q, 0, 0, 0, -n0) if n0 < 0 else _raw(q, 0, 0, 0, n0)
        # With x = (A + B*sqrt2)/q for Gaussian integers A, B, the
        # sqrt2-conjugate gives x*(A - B*sqrt2)/q = (u + v*i)/q^2, where
        # u + v*i = A^2 - 2*B^2, so 1/x = q*(A - B*sqrt2)*(u - v*i)/(u^2+v^2).
        u = n0 * n0 - n1 * n1 - 2 * (n2 * n2 - n3 * n3)
        v = 2 * (n0 * n1 - 2 * n2 * n3)
        return _reduced(q * (n0 * u + n1 * v), q * (n1 * u - n0 * v),
                        -q * (n2 * u + n3 * v), -q * (n3 * u - n2 * v),
                        u * u + v * v)

    def __truediv__(self, other):
        if type(other) is not FieldElem:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inv() ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- comparison / hashing -----------------------------------------

    def __eq__(self, other):
        if type(other) is not FieldElem:
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return (self.n0 == other.n0 and self.n1 == other.n1 and
                self.n2 == other.n2 and self.n3 == other.n3 and
                self.q == other.q)

    def __hash__(self):
        # a rational element hashes like the int or Fraction it equals, by
        # Python's rule for rationals (hash(|n0|) / q modulo the prime
        # _HASH_P, with the sign of n0) computed without a Fraction
        n0, q = self.n0, self.q
        if self.n1 or self.n2 or self.n3:
            return hash((n0, self.n1, self.n2, self.n3, q))
        if q == 1:
            return hash(n0)
        if q % _HASH_P:
            h = hash(hash(abs(n0)) * pow(q, -1, _HASH_P))
        else:
            h = sys.hash_info.inf
        if n0 < 0:
            h = -h
        return -2 if h == -1 else h

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"FieldElem({format_elem(self)!r})"

    def __str__(self):
        return format_elem(self)


_alloc = FieldElem.__new__
_HASH_P = sys.hash_info.modulus


def _coerce(x) -> Union["FieldElem", type(NotImplemented)]:
    if isinstance(x, FieldElem):
        return x
    if isinstance(x, (int, Fraction)):
        return _raw(x.numerator, 0, 0, 0, x.denominator)
    return NotImplemented


ZERO = FieldElem(0)
ONE = FieldElem(1)
I = FieldElem(0, 1)
SQRT2 = FieldElem(0, 0, 1)


# -- square roots -----------------------------------------------------

def _gaussian_sqrt(u: int, v: int):
    """A root x + y*i of the Gaussian integer u + v*i as (x, y), or None if
    it has none in Q(i) (such a root is a Gaussian integer): x^2 - y^2 = u,
    x^2 + y^2 = r = |u + v*i|, and 2*x*y = v fixes the sign of y once x >= 0.
    """
    r = math.isqrt(u * u + v * v)
    x, y = math.isqrt((r + u) // 2), math.isqrt((r - u) // 2)
    if r * r != u * u + v * v or 2 * x * x != r + u or 2 * y * y != r - u:
        return None
    return x, -y if v < 0 else y


def field_sqrt(x: FieldElem) -> Optional[FieldElem]:
    """Exact square root inside Q(i, sqrt2), or None if no root lies in the field.

    Of the two roots the one with the lexicographically larger coordinate
    tuple (a, b, c, d) is returned, so the choice is deterministic.
    """
    if x.is_zero():
        return ZERO
    # x = X + Y*sqrt2 and s = A + B*sqrt2 with X, Y, A, B in Q(i).  The norm
    # n = A^2 - 2*B^2 of s squares to X^2 - 2*Y^2, the norm of x = s^2, and
    # X = A^2 + 2*B^2, so A^2 = (X + n)/2 and B^2 = (X - n)/4.  Over x's
    # denominator q, X, Y and n have the numerators n0 + n1*i, n2 + n3*i and
    # u + v*i, and a root of z/(k*q) is a root of z*k*q over k*q.
    n0, n1, n2, n3, q = x.n0, x.n1, x.n2, x.n3, x.q
    norm = _gaussian_sqrt(n0 * n0 - n1 * n1 - 2 * (n2 * n2 - n3 * n3),
                          2 * (n0 * n1 - 2 * n2 * n3))
    for u, v in (norm, (-norm[0], -norm[1])) if norm else ():
        A = _gaussian_sqrt(2 * q * (n0 + u), 2 * q * (n1 + v))
        B = _gaussian_sqrt(4 * q * (n0 - u), 4 * q * (n1 - v))
        for sign in (1, -1) if A and B else ():
            # A + B*sqrt2, then A - B*sqrt2, over 4*q
            s = _reduced(2 * A[0], 2 * A[1], sign * B[0], sign * B[1], 4 * q)
            if s * s == x:
                return max(s, -s, key=FieldElem.coords)
    return None


# -- parsing / formatting ---------------------------------------------


class FieldSyntaxError(ValueError):
    """Scalar or expression text that does not parse or evaluate; exprlang,
    the one parser of such text, raises it as ``ExprSyntaxError``."""

    def __init__(self, message, pos=None):
        super().__init__(message if pos is None
                         else f"{message} (at position {pos})")
        self.pos = pos


def parse_elem(text: str) -> FieldElem:
    """Parse a constant of the field, e.g. ``-1/2*i + 3/4*sqrt2``; the
    grammar is exprlang's (see `exprlang.constant`)."""
    from .exprlang import constant
    return constant(text)


def _term(coeff: str, mono: str) -> str:
    """The text of a coefficient times a monomial: an empty monomial writes
    the coefficient alone; otherwise a coefficient 1 or -1 writes only the
    monomial or its negation, and a coefficient with more than one part is
    put in parentheses."""
    if not mono:
        return coeff
    if coeff == "1":
        return mono
    if coeff == "-1":
        return f"-{mono}"
    if "+" in coeff.strip("+-") or " - " in coeff:
        return f"({coeff})*{mono}"
    return f"{coeff}*{mono}"


def _join(parts) -> str:
    # a sum of term texts, "a - b" for "a + -b", and "0" when empty
    return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def format_elem(x: FieldElem) -> str:
    """Canonical text form; ``parse_elem(format_elem(x)) == x``."""
    return _join([_term(str(q), symbol) for q, symbol in
                  zip(x.coords(), ("", "i", "sqrt2", "i*sqrt2")) if q])


def format_sum(terms) -> str:
    """The text of a sum of (coefficient, monomial) terms, the body of a
    series or a cochain, each term written by `_term`.  Zero terms are left
    out and the empty sum is "0"."""
    return _join([_term(format_elem(x), mono) for x, mono in terms
                  if not x.is_zero()])
