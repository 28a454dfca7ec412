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

The token kinds are the named groups of one regular expression, and the
parser reads operators, integers and exponents through ``accept`` and
``number``.

``evaluate`` is the one walk of a tree: it maps a scalar expression to a
PuiseuxSeries, and a linear combination of symbols, each of which its caller
maps to a coordinate, to its coefficients: a witness's basis vector
(``evaluate_basis_vector``) over the basis symbols, a cochain over the terms
``e1*^e2*@e1`` (``cohomology``).  ``basis_index`` is the one reader of basis
names.  ``constant`` reads text whose value must be an exact constant of the
field.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Tuple, Union

from .field import FieldElem, FieldSyntaxError, I, SQRT2
from .series import NotInvertible, PuiseuxSeries

# -- AST ----------------------------------------------------------------


@dataclass(frozen=True)
class Rat:
    value: Fraction


@dataclass(frozen=True)
class Const:
    name: str  # 'i' | 'sqrt2' | 't'


@dataclass(frozen=True)
class Symbol:
    name: str  # 'e1', 'f2', 'e1*^f2*@f1', ...


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str  # '+', '-', '*', '/'
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponent: Fraction


@dataclass(frozen=True)
class Sqrt:
    arg: "Expr"


Expr = Union[Rat, Const, Symbol, Neg, Bin, Pow, Sqrt]

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


class _Parser:
    def __init__(self, text: str, symbols: bool):
        self.tokens = _tokenize(text)
        self.idx = 0
        self.symbols = symbols

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

    def parse(self) -> Expr:
        e = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError("trailing input", pos)
        return e

    def expr(self) -> Expr:
        e = self.term()
        while op := self.accept("+-"):
            e = Bin(op, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.factor()
        while op := self.accept("*/"):
            e = Bin(op, e, self.factor())
        return e

    def factor(self) -> Expr:
        op = self.accept("+-")
        if op:
            return self.factor() if op == "+" else Neg(self.factor())
        a = self.atom()
        return Pow(a, self.exponent()) if self.accept("^") else a

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

    def atom(self) -> Expr:
        kind, val, pos = self.advance()
        if kind == "num":
            if self.peek()[1] == "/" and self.tokens[self.idx + 1][0] == "num":
                # "p/q" binds as one rational literal, so 1/2*t means (1/2)*t
                self.idx += 1
                return Rat(Fraction(val, self.number("zero denominator",
                                                     nonzero=True)))
            return Rat(Fraction(val))
        if kind in ("i", "sqrt2", "t"):
            return Const(kind)
        if kind == "symbol":
            if not self.symbols:
                raise ExprSyntaxError(f"symbol {val} not allowed here", pos)
            return Symbol(val)
        if kind == "sqrt":
            self.expect_op("(")
        elif val != "(":
            raise ExprSyntaxError("expected an atom", pos)
        inner = self.expr()
        self.expect_op(")")
        return Sqrt(inner) if kind == "sqrt" else inner


def parse(text: str, symbols: bool = False) -> Expr:
    return _Parser(text, symbols).parse()


# -- evaluation ----------------------------------------------------------------


def evaluate(e: Expr, precision: Optional[Fraction] = None,
             symbol: Optional[Callable[[str], Tuple[int, int]]] = None):
    """The value of `e`: a PuiseuxSeries when it is a scalar.

    With `symbol` it may be a linear combination of symbols: ``symbol(name)``
    gives (index, sign), the symbol standing for sign times the index-th unit
    vector, and the value is {index: coefficient} over the indices some
    symbol reached; every other coordinate is exactly zero.  Without it a
    symbol raises ExprTypeError, as does a non-linear use of one.
    """
    if isinstance(e, Rat):
        return PuiseuxSeries.from_scalar(FieldElem(e.value))
    if isinstance(e, Const):
        if e.name == "i":
            return PuiseuxSeries.from_scalar(I)
        if e.name == "sqrt2":
            return PuiseuxSeries.from_scalar(SQRT2)
        return PuiseuxSeries.t_power(1)
    if isinstance(e, Symbol):
        if symbol is None:
            raise ExprTypeError(f"symbol {e.name} in scalar context")
        index, sign = symbol(e.name)
        return {index: PuiseuxSeries.from_scalar(FieldElem(sign))}
    if isinstance(e, Neg):
        v = evaluate(e.arg, precision, symbol)
        return {k: -x for k, x in v.items()} if isinstance(v, dict) else -v
    if isinstance(e, Bin):
        lhs = evaluate(e.left, precision, symbol)
        rhs = evaluate(e.right, precision, symbol)
        lvec, rvec = isinstance(lhs, dict), isinstance(rhs, dict)
        if e.op in "+-":
            if lvec != rvec:
                raise ExprTypeError("cannot add a scalar and a vector")
            if not lvec:
                return lhs + rhs if e.op == "+" else lhs - rhs
            out = dict(lhs)
            for k, x in rhs.items():
                if e.op == "-":
                    x = -x
                out[k] = out[k] + x if k in out else x
            return out
        if e.op == "*":
            if lvec and rvec:
                raise ExprTypeError("cannot multiply two vectors")
            if rvec:
                return {k: lhs * x for k, x in rhs.items()}
            if lvec:
                return {k: rhs * x for k, x in lhs.items()}
            return lhs * rhs
        # division
        if rvec:
            raise ExprTypeError("cannot divide by a vector")
        inv = rhs.inv(precision)
        if lvec:
            return {k: inv * x for k, x in lhs.items()}
        return lhs * inv
    # powers and roots take scalars only
    if isinstance(e, Pow):
        return evaluate(e.base, precision).pow(e.exponent, precision)
    if isinstance(e, Sqrt):
        return evaluate(e.arg, precision).sqrt(precision)
    raise TypeError(f"not an expression node: {e!r}")


def basis_index(name: str, m: int, n: int) -> int:
    """The combined index (odd indices offset by m) of the basis symbol
    e1..em, f1..fn called `name`; the one reader of basis names.  Any other
    name, the empty one included, raises ExprTypeError."""
    kind, num = name[:1], name[1:]
    if kind not in ("e", "f") or not (num.isascii() and num.isdigit()) or \
            not 1 <= int(num) <= (m if kind == "e" else n):
        raise ExprTypeError(f"unknown basis symbol {name}")
    return int(num) - 1 if kind == "e" else m + int(num) - 1


_ZERO = PuiseuxSeries({})


def evaluate_basis_vector(text: str, m: int, n: int,
                          precision: Optional[Fraction] = None):
    """A witness's basis vector over e1..em, f1..fn, as (even, odd)
    coefficient lists."""
    value = evaluate(parse(text, symbols=True), precision,
                     lambda name: (basis_index(name, m, n), 1))
    if not isinstance(value, dict):
        raise ExprTypeError(f"{text!r} is a scalar, not a basis vector")
    coords = [value.get(k, _ZERO) for k in range(m + n)]
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
        if symbol is None:
            return _exact(evaluate(parse(text)), text)
        value = evaluate(parse(text, symbols=True), None, symbol)
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


# -- formatting ---------------------------------------------------------------


def format_expr(e: Expr) -> str:
    """Parenthesized-when-needed text form; parse(format_expr(e)) == e."""
    def prec_of(node) -> int:
        if isinstance(node, Bin):
            return 1 if node.op in "+-" else 2
        if isinstance(node, Neg):
            return 3
        if isinstance(node, Pow):
            return 3
        return 4

    def wrap(node, minimum):
        txt = format_expr(node)
        return f"({txt})" if prec_of(node) < minimum else txt

    if isinstance(e, Rat):
        return str(e.value)
    if isinstance(e, Const):
        return e.name
    if isinstance(e, Symbol):
        return e.name
    if isinstance(e, Neg):
        # unary minus takes a factor: anything below Pow/Neg level needs parens
        return "-" + wrap(e.arg, 3)
    if isinstance(e, Bin):
        if e.op in "+-":
            return f"{wrap(e.left, 1)} {e.op} {wrap(e.right, 2)}"
        return f"{wrap(e.left, 2)}{e.op}{wrap(e.right, 3)}"
    if isinstance(e, Pow):
        ex = e.exponent
        base = wrap(e.base, 4)
        if ex.denominator == 1 and ex >= 0:
            return f"{base}^{ex}"
        return f"{base}^({ex})"
    if isinstance(e, Sqrt):
        return f"sqrt({format_expr(e.arg)})"
    raise TypeError(f"not an expression node: {e!r}")
