"""The former tree reader of scalar text, the test oracle of
`exprlang.evaluate` and `field.parse_elem`: text is parsed to a tree of the
node classes below, which `_evaluate` walks; `_format` writes a tree back
as text.  It shares only the tokenizer and the error classes with the code
it checks (`test_modp.py` keeps it so)."""

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from superlie.exprlang import ExprSyntaxError, ExprTypeError, _tokenize
from superlie.field import I, SQRT2, FieldElem
from superlie.series import PuiseuxSeries


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


class _TreeParser:
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

    def accept(self, ops):
        kind, val, _ = self.peek()
        if kind == "op" and val in ops:
            self.idx += 1
            return val
        return None

    def number(self, message, nonzero=False):
        kind, val, pos = self.peek()
        if kind != "num" or (nonzero and val == 0):
            raise ExprSyntaxError(message, pos)
        self.idx += 1
        return val

    def expect_op(self, op):
        if not self.accept(op):
            raise ExprSyntaxError(f"expected {op!r}", self.peek()[2])

    def parse(self):
        e = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError("trailing input", pos)
        return e

    def expr(self):
        e = self.term()
        while op := self.accept("+-"):
            e = Bin(op, e, self.term())
        return e

    def term(self):
        e = self.factor()
        while op := self.accept("*/"):
            e = Bin(op, e, self.factor())
        return e

    def factor(self):
        op = self.accept("+-")
        if op:
            return self.factor() if op == "+" else Neg(self.factor())
        a = self.atom()
        return Pow(a, self.exponent()) if self.accept("^") else a

    def exponent(self):
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


def _parse(text, symbols=False):
    return _TreeParser(text, symbols).parse()


def _evaluate(e, precision=None, symbol=None):
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
        v = _evaluate(e.arg, precision, symbol)
        return {k: -x for k, x in v.items()} if isinstance(v, dict) else -v
    if isinstance(e, Bin):
        lhs = _evaluate(e.left, precision, symbol)
        rhs = _evaluate(e.right, precision, symbol)
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
        if rvec:
            raise ExprTypeError("cannot divide by a vector")
        inv = rhs.inv(precision)
        if lvec:
            return {k: inv * x for k, x in lhs.items()}
        return lhs * inv
    if isinstance(e, Pow):
        return _evaluate(e.base, precision).pow(e.exponent, precision)
    return _evaluate(e.arg, precision).sqrt(precision)


def _format(e) -> str:
    """Parenthesized-when-needed text form; _parse(_format(e)) == e."""
    def prec_of(node) -> int:
        if isinstance(node, Bin):
            return 1 if node.op in "+-" else 2
        return 3 if isinstance(node, (Neg, Pow)) else 4

    def wrap(node, minimum):
        txt = _format(node)
        return f"({txt})" if prec_of(node) < minimum else txt

    if isinstance(e, Rat):
        return str(e.value)
    if isinstance(e, (Const, Symbol)):
        return e.name
    if isinstance(e, Neg):
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
    return f"sqrt({_format(e.arg)})"
