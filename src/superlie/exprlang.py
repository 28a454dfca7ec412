"""A tiny expression language: the one grammar of scalar text.

Catalog structure constants, CLI matrices, cocycle coefficients,
degeneration witnesses and deformation parameters are all read by it.

Grammar (whitespace-insensitive)::

    expr     := term (('+' | '-') term)*
    term     := factor (('*' | '/') factor)*
    factor   := ('-' | '+') factor | atom ['^' exponent]
    atom     := rational | 'i' | 'sqrt2' | 't' | symbol
              | 'sqrt' '(' expr ')' | '(' expr ')'
    exponent := integer | '(' rational ')'
    symbol   := basis | basis '*^' basis '*@' basis   (vector contexts only)
    basis    := ('e' | 'f') digits

The token kinds are the named groups of one regular expression.  The parser
is a recursive descent whose methods compute the value of what they read, so
text is read to its value in one pass, with no tree in between.

``evaluate`` is the one function from text to value: a scalar gives a
PuiseuxSeries, and a linear combination of symbols, each of which its caller
maps to a coordinate, gives its coefficients: a witness's basis vector
(``evaluate_basis_vector``) over the basis symbols, a cochain over the terms
``e1*^e2*@e1`` (``cohomology``).  Powers and square roots take scalars only.
A syntax error anywhere in the text wins over an error of evaluation.
``basis_index`` is the one reader of basis names.  ``constant`` reads text
whose value must be an exact constant of the field.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Callable, Optional, Tuple

from .field import FieldElem, FieldSyntaxError, I, SQRT2
from .series import EXACT_ZERO, NotInvertible, PuiseuxSeries

ExprSyntaxError = FieldSyntaxError


class ExprTypeError(ValueError):
    """Raised when vectors are combined in a non-linear way, or on a symbol
    its caller does not know."""


_BASIS = r"[ef][0-9]+"      # ASCII digits: \d takes any Unicode digit
_TOKEN = re.compile(r"\s*(?:(?P<num>[0-9]+)|(?P<sqrt2>sqrt2)|(?P<sqrt>sqrt)|"
                    r"(?P<i>i)|(?P<t>t)|"
                    rf"(?P<symbol>{_BASIS}(?:\*\^{_BASIS}\*@{_BASIS})?)|"
                    r"(?P<op>[()^*/+\-]))")


def _tokenize(text: str):
    """(kind, value, position) tokens, kind the name of the group of
    `_TOKEN` that matched, ending in ("end", None, len(text))."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ExprSyntaxError(
                f"unexpected character {text[pos:].lstrip()[0]!r}", pos)
        kind = m.lastgroup
        val = m.group(kind)
        tokens.append((kind, int(val) if kind == "num" else val,
                       m.start(kind)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


def _scalar_only(name: str):
    raise ExprTypeError(f"symbol {name} in scalar context")


def _neg(v):
    return {k: -x for k, x in v.items()} if isinstance(v, dict) else -v


def _combine(op: str, lhs, rhs, precision):
    """lhs op rhs, each a scalar PuiseuxSeries or a vector {index: series};
    a vector is combined linearly only."""
    lvec, rvec = isinstance(lhs, dict), isinstance(rhs, dict)
    if op in "+-":
        if lvec != rvec:
            raise ExprTypeError("cannot add a scalar and a vector")
        if not lvec:
            return lhs + rhs if op == "+" else lhs - rhs
        out = dict(lhs)
        for k, x in rhs.items():
            if op == "-":
                x = -x
            out[k] = out[k] + x if k in out else x
        return out
    if op == "*":
        if lvec and rvec:
            raise ExprTypeError("cannot multiply two vectors")
        if rvec:
            return {k: lhs * x for k, x in rhs.items()}
        if lvec:
            return {k: rhs * x for k, x in lhs.items()}
        return lhs * rhs
    if rvec:
        raise ExprTypeError("cannot divide by a vector")
    inv = rhs.inv(precision)
    if lvec:
        return {k: inv * x for k, x in lhs.items()}
    return lhs * inv


class _Reader:
    """Reads one text by recursive descent, each method returning the value
    of what it read.  With `values` off it checks the syntax only, and every
    value is None."""

    def __init__(self, text: str, precision, symbol, values: bool):
        self.tokens = _tokenize(text)
        self.idx = 0
        self.precision = precision
        self.symbols = symbol is not None    # otherwise a syntax error
        self.symbol = symbol
        self.values = values

    def apply(self, fn, *args):
        return fn(*args) if self.values else None

    def scalar(self, read):
        """What `read` reads, where a symbol raises ExprTypeError."""
        outer, self.symbol = self.symbol, _scalar_only
        value = read()
        self.symbol = outer
        return value

    def unit(self, name: str):
        index, sign = self.symbol(name)
        return {index: PuiseuxSeries.from_scalar(FieldElem(sign))}

    def peek(self):
        return self.tokens[self.idx]

    def advance(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def accept(self, ops: str) -> Optional[str]:
        """The next token, consumed, if it is one of the operators `ops`."""
        kind, val, _ = self.peek()
        if kind == "op" and val in ops:
            self.idx += 1
            return val
        return None

    def number(self, message: str, nonzero: bool = False) -> int:
        """The next token, consumed, if it is an integer (a nonzero one when
        asked); otherwise ExprSyntaxError(message) at its position."""
        kind, val, pos = self.peek()
        if kind != "num" or (nonzero and val == 0):
            raise ExprSyntaxError(message, pos)
        self.idx += 1
        return val

    def expect_op(self, op: str):
        if not self.accept(op):
            raise ExprSyntaxError(f"expected {op!r}", self.peek()[2])

    def power_follows(self) -> bool:
        """Whether the atom at the cursor, a symbol or a parenthesized
        expression, is a power's base: '^' follows its closing parenthesis."""
        kind, val, _ = self.peek()
        if kind != "symbol" and val != "(":
            return False
        depth = 0
        for i in range(self.idx, len(self.tokens) - 1):
            val = self.tokens[i][1]
            depth += (val == "(") - (val == ")")
            if depth == 0:
                return self.tokens[i + 1][1] == "^"
        return False

    def read(self):
        value = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError("trailing input", pos)
        return value

    def expr(self):
        value = self.term()
        while op := self.accept("+-"):
            value = self.apply(_combine, op, value, self.term(),
                               self.precision)
        return value

    def term(self):
        value = self.factor()
        while op := self.accept("*/"):
            value = self.apply(_combine, op, value, self.factor(),
                               self.precision)
        return value

    def factor(self):
        op = self.accept("+-")
        if op:
            value = self.factor()
            return value if op == "+" else self.apply(_neg, value)
        base = self.scalar(self.atom) if self.symbols and \
            self.power_follows() else self.atom()
        if not self.accept("^"):
            return base
        return self.apply(PuiseuxSeries.pow, base, self.exponent(),
                          self.precision)

    def exponent(self) -> Fraction:
        paren = self.accept("(")
        sign = -1 if self.accept("-") else 1
        if not paren:
            return Fraction(sign * self.number("expected an integer exponent"))
        num = self.number("expected a rational exponent")
        den = self.number("expected a nonzero denominator", nonzero=True) \
            if self.accept("/") else 1
        self.expect_op(")")
        return Fraction(sign * num, den)

    def atom(self):
        kind, val, pos = self.advance()
        if kind == "num":
            if self.peek()[1] == "/" and self.tokens[self.idx + 1][0] == "num":
                # "p/q" reads as one rational literal, so 1/2*t is (1/2)*t
                self.idx += 1
                val = Fraction(val, self.number("zero denominator",
                                                nonzero=True))
            return self.apply(PuiseuxSeries.from_scalar, FieldElem(val))
        if kind in ("i", "sqrt2"):
            return self.apply(PuiseuxSeries.from_scalar,
                              I if kind == "i" else SQRT2)
        if kind == "t":
            return self.apply(PuiseuxSeries.t_power, 1)
        if kind == "symbol":
            if not self.symbols:
                raise ExprSyntaxError(f"symbol {val} not allowed here", pos)
            return self.apply(self.unit, val)
        if kind == "sqrt":
            self.expect_op("(")
            inner = self.scalar(self.expr)
        elif val == "(":
            inner = self.expr()
        else:
            raise ExprSyntaxError("expected an atom", pos)
        self.expect_op(")")
        if kind == "sqrt":
            return self.apply(PuiseuxSeries.sqrt, inner, self.precision)
        return inner


def evaluate(text: str, precision: Optional[Fraction] = None,
             symbol: Optional[Callable[[str], Tuple[int, int]]] = None):
    """The value of `text`: a PuiseuxSeries when it is a scalar.

    With `symbol` it may be a linear combination of symbols: ``symbol(name)``
    gives (index, sign), the symbol standing for sign times the index-th unit
    vector, and the value is {index: coefficient} over the indices some
    symbol reached; every other coordinate is exactly zero.  Without it a
    symbol is a syntax error.  A non-linear use of a symbol, or one in a
    power's base or a square root, raises ExprTypeError.
    """
    try:
        return _Reader(text, precision, symbol, True).read()
    except RecursionError:
        # a syntax-only read would recurse as deep again
        raise ExprSyntaxError("expression nested too deeply") from None
    except Exception:
        # a syntax error anywhere wins: read again with values off
        _Reader(text, precision, symbol, False).read()
        raise


def basis_index(name: str, m: int, n: int) -> int:
    """The combined index (odd indices offset by m) of the basis symbol
    e1..em, f1..fn called `name`; the one reader of basis names.  Any other
    name, the empty one included, raises ExprTypeError."""
    kind, num = name[:1], name[1:]
    if kind not in ("e", "f") or not (num.isascii() and num.isdigit()) or \
            not 1 <= int(num) <= (m if kind == "e" else n):
        raise ExprTypeError(f"unknown basis symbol {name}")
    return int(num) - 1 if kind == "e" else m + int(num) - 1


def evaluate_basis_vector(text: str, m: int, n: int,
                          precision: Optional[Fraction] = None):
    """A witness's basis vector over e1..em, f1..fn, as (even, odd)
    coefficient lists.  A division by an exact zero raises ExprSyntaxError,
    as in `constant`."""
    try:
        value = evaluate(text, precision,
                         lambda name: (basis_index(name, m, n), 1))
    except NotInvertible:
        raise ExprSyntaxError(f"division by zero in {text!r}") from None
    if not isinstance(value, dict):
        raise ExprTypeError(f"{text!r} is a scalar, not a basis vector")
    coords = [value.get(k, EXACT_ZERO) for k in range(m + n)]
    return coords[:m], coords[m:]


# -- exact constants ----------------------------------------------------------


def _exact(s: PuiseuxSeries, text: str) -> FieldElem:
    if s.precision is not None or any(e != 0 for e in s.terms):
        raise ExprSyntaxError(f"not a constant: {text!r}")
    return s.coeff(0)


def constant(text: str,
             symbol: Optional[Callable[[str], Tuple[int, int]]] = None):
    """The exact value of `text` over Q(i, sqrt2).

    Without `symbol` the text is a scalar and the result a FieldElem.  With
    it the text is a linear combination of symbols with constant
    coefficients, evaluated by `evaluate`, and the result maps each index a
    symbol reached to its FieldElem coefficient; a scalar that is exactly
    zero is the empty combination.  Text that does not parse, whose value is
    not an exact constant (a `t` term, a truncated series), or whose
    evaluation fails (division by zero, a square root outside the field)
    raises ExprSyntaxError naming the cause.
    """
    try:
        value = evaluate(text, symbol=symbol)
        if symbol is None:
            return _exact(value, text)
        if not isinstance(value, dict):
            if not value.is_zero():
                raise ExprTypeError(
                    f"{text!r} is a scalar, not a sum of symbols")
            value = {}
        return {k: _exact(x, text) for k, x in value.items()}
    except NotInvertible:
        raise ExprSyntaxError(f"division by zero in {text!r}") from None
    except ArithmeticError as exc:
        raise ExprSyntaxError(f"cannot evaluate {text!r}: {exc}") from None
