"""Truncated Puiseux series over Q(i, sqrt2).

A series is a finite sum of terms ``coeff * t**exponent`` with rational
exponents, together with a precision bound: terms of exponent >= precision
are unknown.  ``precision is None`` marks an *exact* series (a finite sum
with no truncation), which is what polynomial arithmetic on witness data
produces; only ``inv``, ``sqrt`` and fractional powers introduce truncation.
``inv`` and ``sqrt`` write a series as c*t^a*(1 + rest) and share one
binomial series for (1 + rest)^r, r = -1 and 1/2.
Exponents and precisions are stored as ``int`` when integral and as
``Fraction`` otherwise; a float exponent or precision raises TypeError.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Dict, Optional, Union

from .field import FieldElem, ONE, ZERO, field_sqrt, format_sum

DEFAULT_PRECISION = Fraction(8)

Exponent = Union[int, Fraction]
_alloc = object.__new__


def parse_precision(text: str) -> Fraction:
    """A series precision from text; it must be a positive rational."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        value = None
    if value is None or value <= 0:
        raise ValueError(f"precision must be a positive rational, got {text!r}")
    return value


def working_precision(cap=None) -> Fraction:
    """Default truncation order; the SUPERLIE_PRECISION env var overrides it,
    and a caller's `cap` both, by parse_precision's rule (a float raises
    TypeError, as an exponent does)."""
    if cap is not None:
        return parse_precision(_exponent(cap))
    raw = os.environ.get("SUPERLIE_PRECISION")
    if raw is None:
        return DEFAULT_PRECISION
    return parse_precision(raw)


class SeriesError(ArithmeticError):
    pass


class NotInvertible(SeriesError):
    pass


class NoRoot(SeriesError):
    pass


class InsufficientPrecision(SeriesError):
    pass


class Diverges(SeriesError):
    pass


def diverges(e) -> Diverges:
    """The Diverges error of a term of order t^e, e < 0, that survives at
    t -> 0; the one place its text is written."""
    return Diverges(f"term of order t^{_exponent(e)} survives at t->0")


def _min_prec(p1: Optional[Exponent], p2: Optional[Exponent]):
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    return min(p1, p2)


def _exponent(e) -> Exponent:
    """An exponent or precision in canonical form: an ``int`` when it is
    integral, a ``Fraction`` only when it is not.  A float is refused: its
    binary value is not the rational it was written as."""
    if type(e) is int:
        return e
    if isinstance(e, float):
        raise TypeError(f"series exponents are exact rationals, not {e!r}")
    e = Fraction(e)
    return e.numerator if e.denominator == 1 else e


def _series(terms: Dict[Exponent, FieldElem],
            precision: Optional[Exponent]) -> "PuiseuxSeries":
    # internal constructor for canonical exponents, nonzero FieldElem
    # coefficients and no term at or past the precision
    s = _alloc(PuiseuxSeries)
    s.terms = terms
    s.precision = precision
    return s


def _scaled(s: "PuiseuxSeries", a: Exponent,
            c: FieldElem) -> "PuiseuxSeries":
    # s times the exact term c*t^a, c nonzero: each term of s moves by a and
    # keeps below the moved precision, and no coefficient vanishes
    terms = {}
    for e, x in s.terms.items():
        e += a
        terms[e if type(e) is int or e.denominator != 1
              else e.numerator] = x * c
    p = s.precision
    return _series(terms, None if p is None else _exponent(p + a))


class PuiseuxSeries:
    """Immutable truncated Puiseux series.

    ``terms`` maps each exponent to its nonzero coefficient; exponents and
    the precision are ``int`` when integral and ``Fraction`` otherwise.
    """

    __slots__ = ("terms", "precision")

    def __init__(self, terms: Dict[Exponent, FieldElem],
                 precision: Optional[Exponent] = None):
        if precision is not None:
            precision = _exponent(precision)
        clean = {}
        for e, c in terms.items():
            e = _exponent(e)
            if not isinstance(c, FieldElem):
                c = FieldElem(c)
            if c.is_zero():
                continue
            if precision is not None and e >= precision:
                continue
            clean[e] = c
        self.terms = clean
        self.precision = precision

    # -- constructors --------------------------------------------------

    @staticmethod
    def from_scalar(c,
                    precision: Optional[Exponent] = None) -> "PuiseuxSeries":
        if not isinstance(c, FieldElem):
            c = FieldElem(c)
        if precision is not None:
            precision = _exponent(precision)
        keep = not c.is_zero() and (precision is None or precision > 0)
        return _series({0: c} if keep else {}, precision)

    @staticmethod
    def t_power(e) -> "PuiseuxSeries":
        return _series({_exponent(e): ONE}, None)

    # -- structure -----------------------------------------------------

    def leading(self):
        """(exponent, coeff) of the lowest-order known term, or None."""
        if not self.terms:
            return None
        e = min(self.terms)
        return e, self.terms[e]

    def is_zero(self) -> bool:
        """True when the series is known to be exactly zero."""
        return not self.terms and self.precision is None

    def coeff(self, e) -> FieldElem:
        return self.terms.get(_exponent(e), ZERO)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            if e in terms:
                c = terms[e] + c
                if c.is_zero():
                    del terms[e]
                    continue
            terms[e] = c
        prec = _min_prec(self.precision, other.precision)
        if prec is not None:
            terms = {e: c for e, c in terms.items() if e < prec}
        return _series(terms, prec)

    __radd__ = __add__

    def __neg__(self):
        return _series({e: -c for e, c in self.terms.items()}, self.precision)

    def __sub__(self, other):
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
        if type(other) is FieldElem:
            if other.is_zero():
                return EXACT_ZERO
            return _scaled(self, 0, other)
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        t1, p1 = self.terms, self.precision
        t2, p2 = other.terms, other.precision
        if (not t1 and p1 is None) or (not t2 and p2 is None):
            # an exact zero factor: exact zero, whatever the other's precision
            return EXACT_ZERO
        if p1 is None and len(t1) == 1:
            return _scaled(other, *next(iter(t1.items())))
        if p2 is None and len(t2) == 1:
            return _scaled(self, *next(iter(t2.items())))
        # error O(t^P1) * other = O(t^(P1 + v2)), v2 a bound on other's
        # valuation, and symmetrically
        prec = None
        if p1 is not None:
            prec = p1 + (min(t2) if t2 else p2)
        if p2 is not None:
            bound = p2 + (min(t1) if t1 else p1)
            if prec is None or bound < prec:
                prec = bound
        if prec is not None:
            prec = _exponent(prec)
        acc: Dict[Exponent, FieldElem] = {}
        for e1, c1 in t1.items():
            for e2, c2 in t2.items():
                e = e1 + e2
                if prec is not None and e >= prec:
                    continue
                c = c1 * c2
                acc[e] = acc[e] + c if e in acc else c
        terms = {}
        for e, c in acc.items():
            if not c.is_zero():
                terms[e if type(e) is int or e.denominator != 1
                      else e.numerator] = c
        return _series(terms, prec)

    __rmul__ = __mul__

    def _binomial(self, r: Fraction, precision):
        """Write self = c*t^a*(1+rest); return (a, c, (1+rest)^r).

        (1+rest)^r is the binomial series sum_k binom(r, k)*rest^k, kept to
        the relative precision available for series in 1+rest (exact when
        rest is).  The coefficients binom(r, k) are formed as rationals, and
        a term with coefficient -1 is negated.
        """
        a, c = self.leading()
        rest = PuiseuxSeries({e - a: cc for e, cc in self.terms.items() if e != a},
                             None if self.precision is None
                             else self.precision - a) * c.inv()
        rel = rest.precision
        if rest.terms:
            budget = _exponent(precision if precision is not None
                               else working_precision())
            rel = budget if rel is None else min(rel, budget)
        if rel is not None and rel <= 0:
            raise InsufficientPrecision(f"result only known to O(t^{rel})")
        rest = PuiseuxSeries(rest.terms, rel)
        acc = power = PuiseuxSeries.from_scalar(ONE, rel)
        coeff = Fraction(1)
        k = 1
        while rest.terms and k * min(rest.terms) < rel:
            power = power * rest
            if not power.terms:
                break
            coeff = coeff * (r - (k - 1)) / k
            acc = acc + (power if coeff == 1 else -power if coeff == -1
                         else power * FieldElem(coeff))
            k += 1
        return a, c, acc

    def inv(self, precision: Optional[Fraction] = None) -> "PuiseuxSeries":
        """Multiplicative inverse, truncated: c^-1*t^-a times the binomial
        series of (1+rest)^-1.

        For an exact non-monomial argument the result is an infinite series,
        reported to ``precision`` relative orders past its leading exponent
        (the working precision when unspecified).  An exact zero raises
        NotInvertible; a truncated one, whose leading term a higher
        precision may show, raises InsufficientPrecision.
        """
        if self.leading() is None:
            if self.precision is not None:
                raise InsufficientPrecision("inverse of an unresolved zero")
            raise NotInvertible("series has no visible leading term")
        if self.precision is None and len(self.terms) == 1:
            (a, c), = self.terms.items()
            return _series({-a: c.inv()}, None)
        a, c, geom = self._binomial(Fraction(-1), precision)
        return _series({-a: c.inv()}, None) * geom

    def __truediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inv()

    def sqrt(self, precision: Optional[Fraction] = None) -> "PuiseuxSeries":
        """A square root: sqrt(c)*t^(a/2) times the binomial series of
        (1+rest)^(1/2), exact only for an exact monomial."""
        if not self.terms:
            if self.precision is None:
                return EXACT_ZERO
            raise InsufficientPrecision("square root of an unresolved zero")
        root_c = field_sqrt(self.leading()[1])
        if root_c is None:
            raise NoRoot("leading coefficient has no square root in the field")
        a, _, acc = self._binomial(Fraction(1, 2), precision)
        return PuiseuxSeries({Fraction(a, 2): root_c}, None) * acc

    def pow(self, exponent: Fraction,
            precision: Optional[Fraction] = None) -> "PuiseuxSeries":
        """Rational power with denominator a power of two."""
        exponent = Fraction(_exponent(exponent))
        den = exponent.denominator
        if den & (den - 1):
            raise NoRoot(f"unsupported power denominator {den}")
        base = self
        while den > 1:
            base = base.sqrt(precision)
            den //= 2
        k = exponent.numerator
        if k < 0:
            base = base.inv(precision)
            k = -k
        # repeated squaring, without the last square, which is not used
        out = PuiseuxSeries.from_scalar(ONE)
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    # -- limits ----------------------------------------------------------

    def limit_at_zero(self) -> FieldElem:
        """Value at t -> 0; Diverges on negative exponents."""
        neg = [e for e in self.terms if e < 0]
        if neg:
            raise diverges(min(neg))
        if self.precision is not None and self.precision <= 0:
            raise InsufficientPrecision(
                "constant term not resolved at this precision")
        return self.terms.get(0, ZERO)

    # -- comparisons -------------------------------------------------------

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms and self.precision == other.precision

    def __hash__(self):
        return hash((frozenset(self.terms.items()), self.precision))

    def __bool__(self):
        return bool(self.terms) or self.precision is not None

    def __repr__(self):
        return f"PuiseuxSeries({format_series(self)!r})"

    def __str__(self):
        return format_series(self)


# the exact zero; a series is immutable, so every caller shares this one
EXACT_ZERO = _series({}, None)


def _coerce(x) -> Union[PuiseuxSeries, type(NotImplemented)]:
    if type(x) is PuiseuxSeries or isinstance(x, PuiseuxSeries):
        return x
    if isinstance(x, (int, Fraction, FieldElem)):
        return PuiseuxSeries.from_scalar(x)
    return NotImplemented


def format_series(s: PuiseuxSeries) -> str:
    body = format_sum((s.terms[e], "" if e == 0 else "t" if e == 1
                       else f"t^({e})") for e in sorted(s.terms))
    if s.precision is not None:
        body += f" + O(t^({s.precision}))"
    return body
