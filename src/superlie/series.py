"""Truncated Puiseux series over Q(i, sqrt2).

A series is a finite sum of terms ``coeff * t**exponent`` with rational
exponents, together with a precision bound: terms of exponent >= precision
are unknown.  ``precision is None`` marks an *exact* series (a finite sum
with no truncation), which is what polynomial arithmetic on witness data
produces; only ``inv``, ``sqrt`` and fractional powers introduce truncation.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Dict, Optional, Union

from .field import FieldElem, ONE, ZERO, field_sqrt, format_sum

DEFAULT_PRECISION = Fraction(8)


def parse_precision(text: str) -> Fraction:
    """A series precision from text; it must be a positive rational."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        value = None
    if value is None or value <= 0:
        raise ValueError(f"precision must be a positive rational, got {text!r}")
    return value


def working_precision() -> Fraction:
    """Default truncation order; the SUPERLIE_PRECISION env var overrides it."""
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


def _min_prec(p1: Optional[Fraction], p2: Optional[Fraction]):
    if p1 is None:
        return p2
    if p2 is None:
        return p1
    return min(p1, p2)


class PuiseuxSeries:
    """Immutable truncated Puiseux series."""

    __slots__ = ("terms", "precision")

    def __init__(self, terms: Dict[Fraction, FieldElem],
                 precision: Optional[Fraction] = None):
        clean = {}
        for e, c in terms.items():
            e = Fraction(e)
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
    def from_scalar(c, precision: Optional[Fraction] = None) -> "PuiseuxSeries":
        if not isinstance(c, FieldElem):
            c = FieldElem(c)
        return PuiseuxSeries({Fraction(0): c}, precision)

    @staticmethod
    def t_power(e) -> "PuiseuxSeries":
        return PuiseuxSeries({Fraction(e): ONE})

    # -- structure -----------------------------------------------------

    def valuation_bound(self) -> Fraction:
        """A lower bound on the valuation (infinite for exact zero)."""
        if self.terms:
            return min(self.terms)
        if self.precision is not None:
            return self.precision
        return None  # exact zero: valuation +infinity

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
        return self.terms.get(Fraction(e), ZERO)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, ZERO) + c
        return PuiseuxSeries(terms, _min_prec(self.precision, other.precision))

    __radd__ = __add__

    def __neg__(self):
        return PuiseuxSeries({e: -c for e, c in self.terms.items()},
                             self.precision)

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
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.precision is None and other.precision is None:
            prec = None
        else:
            v1 = self.valuation_bound()
            v2 = other.valuation_bound()
            cands = []
            if self.precision is not None:
                # error O(t^P1) * other = O(t^(P1+v2)); v2 None means exact 0
                if v2 is not None:
                    cands.append(self.precision + v2)
            if other.precision is not None:
                if v1 is not None:
                    cands.append(other.precision + v1)
            prec = min(cands) if cands else None
        terms: Dict[Fraction, FieldElem] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                terms[e] = terms.get(e, ZERO) + c1 * c2
        return PuiseuxSeries(terms, prec)

    __rmul__ = __mul__

    def _split_leading(self, precision):
        """Write self = c*t^a*(1+rest); return (a, c, rest, rel).

        ``rel`` is the relative precision available for series in 1+rest
        (None when everything stays exact).
        """
        a, c = self.leading()
        rest = PuiseuxSeries({e - a: cc for e, cc in self.terms.items() if e != a},
                             None if self.precision is None
                             else self.precision - a) * c.inv()
        rel = rest.precision
        if rest.terms:
            budget = precision if precision is not None else working_precision()
            rel = budget if rel is None else min(rel, budget)
        if rel is not None and rel <= 0:
            raise InsufficientPrecision(f"result only known to O(t^{rel})")
        return a, c, PuiseuxSeries(rest.terms, rel), rel

    def inv(self, precision: Optional[Fraction] = None) -> "PuiseuxSeries":
        """Multiplicative inverse, truncated.

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
        a, c, rest, rel = self._split_leading(precision)
        geom = PuiseuxSeries.from_scalar(ONE, rel)
        if rest.terms:
            delta = min(rest.terms)
            power = PuiseuxSeries.from_scalar(ONE, rel)
            k = 1
            while k * delta < rel:
                power = power * rest
                if not power.terms:
                    break
                geom = geom + (power if k % 2 == 0 else -power)
                k += 1
        return PuiseuxSeries({-a: c.inv()}, None) * geom

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
        """A square root, by the binomial series on 1 + (lower-order part)."""
        if not self.terms:
            if self.precision is None:
                return PuiseuxSeries({}, None)
            raise InsufficientPrecision("square root of an unresolved zero")
        root_c = field_sqrt(self.leading()[1])
        if root_c is None:
            raise NoRoot("leading coefficient has no square root in the field")
        a, _, rest, rel = self._split_leading(precision)
        acc = PuiseuxSeries.from_scalar(ONE, rel)
        if rest.terms:
            delta = min(rest.terms)
            power = PuiseuxSeries.from_scalar(ONE, rel)
            coeff = Fraction(1)
            k = 1
            while k * delta < rel:
                power = power * rest
                if not power.terms:
                    break
                coeff = coeff * (Fraction(1, 2) - (k - 1)) / k
                acc = acc + power * FieldElem(coeff)
                k += 1
        result = PuiseuxSeries({a / 2: root_c}, None) * acc
        if result.precision is None and not (result * result == self):
            raise NoRoot("series has no square root in the field")
        return result

    def pow(self, exponent: Fraction,
            precision: Optional[Fraction] = None) -> "PuiseuxSeries":
        """Rational power with denominator a power of two."""
        exponent = Fraction(exponent)
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
        out = PuiseuxSeries.from_scalar(ONE)
        for _ in range(k):
            out = out * base
        return out

    # -- limits ----------------------------------------------------------

    def limit_at_zero(self) -> FieldElem:
        """Value at t -> 0; Diverges on negative exponents."""
        neg = [e for e in self.terms if e < 0]
        if neg:
            raise Diverges(f"term of order t^{min(neg)} survives at t->0")
        if self.precision is not None and self.precision <= 0:
            raise InsufficientPrecision(
                "constant term not resolved at this precision")
        return self.terms.get(Fraction(0), ZERO)

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


def _coerce(x) -> Union[PuiseuxSeries, type(NotImplemented)]:
    if isinstance(x, PuiseuxSeries):
        return x
    if isinstance(x, (int, Fraction, FieldElem)):
        return PuiseuxSeries.from_scalar(x)
    return NotImplemented


T = PuiseuxSeries.t_power(1)


def format_series(s: PuiseuxSeries) -> str:
    body = format_sum((s.terms[e], "" if e == 0 else "t" if e == 1
                       else f"t^({e})") for e in sorted(s.terms))
    if s.precision is not None:
        body += f" + O(t^({s.precision}))"
    return body
