from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import pytest

from superlie import catalog
from superlie.exprlang import (ExprSyntaxError, ExprTypeError, _tokenize,
                               basis_index, evaluate, evaluate_basis_vector)
from superlie.field import I, SQRT2, FieldElem, FieldSyntaxError
from superlie.series import PuiseuxSeries

ONE = FieldElem(1)
PREC = Fraction(8)


def test_parse_shapes():
    """Precedence and associativity, read off values."""
    s = evaluate("t^(-1)/2", PREC)       # (t^(-1))/2, not t^(-1/2)
    assert s.terms == {-1: FieldElem(Fraction(1, 2))}
    assert evaluate("-t^2") == -evaluate("t*t")    # '^' above unary minus
    assert evaluate("-i*t^(1/2)").terms == {Fraction(1, 2): -I}
    assert evaluate("2*3^2") == evaluate("18")
    assert evaluate("(2*3)^2") == evaluate("36")
    assert evaluate("1 - 2 - 3") == evaluate("-4")
    assert evaluate("12/2/3") == evaluate("2")
    q = evaluate("(1+sqrt(2*t))/(1-sqrt(2*t))", PREC)
    assert evaluate("sqrt((1+sqrt(2*t))/(1-sqrt(2*t)))", PREC) == \
        q.sqrt(PREC)


def test_rational_literal_binds_tightly():
    # "p/q" is one literal, read before '^' and '*'
    assert evaluate("t^(1/2)").terms == {Fraction(1, 2): ONE}
    assert evaluate("1/2*t").terms == {1: FieldElem(Fraction(1, 2))}
    assert evaluate("2/4^(1/2)") == evaluate("sqrt2/2")


SYNTAX_ERRORS = [
    ("", "expected an atom", 0),
    ("t^", "expected an integer exponent", 2),
    ("2*", "expected an atom", 2),
    ("sqrt(", "expected an atom", 5),
    ("t^x", "unexpected character 'x'", 2),
    ("t^(t)", "expected a rational exponent", 3),
    ("t^(1/0)", "expected a nonzero denominator", 5),
    ("1/0", "zero denominator", 2),
    ("1/ 0", "zero denominator", 3),
    ("(1", "expected ')'", 2),
    ("1)", "trailing input", 1),
    ("sqrt2 sqrt", "trailing input", 6),
    ("\u0662", "unexpected character '\u0662'", 0),
    ("  @", "unexpected character '@'", 0),
    ("t^-(1)", "expected an integer exponent", 3),
    ("t^--1", "expected an integer exponent", 3),
    ("t^(-x)", "unexpected character 'x'", 4),
    ("t^(1/2", "expected ')'", 6),
    ("t ^ (1/)", "expected a nonzero denominator", 7),
    ("sqrt t", "expected '('", 5),
    ("+", "expected an atom", 1),
    ("3 +\t", "expected an atom", 4),
    ("1//2", "expected an atom", 2),
    ("e1", "symbol e1 not allowed here", 0),
    ("e1*^e2", "symbol e1 not allowed here", 0),
]


@pytest.mark.parametrize("text, message, pos", SYNTAX_ERRORS)
def test_syntax_error_message_and_position(text, message, pos):
    with pytest.raises(ExprSyntaxError) as info:
        evaluate(text)
    assert str(info.value) == f"{message} (at position {pos})"
    assert info.value.pos == pos


def test_syntax_error_wins_over_evaluation_error():
    """Text is read to its value in one pass, but a syntax error after a
    failing evaluation is still the one raised."""
    with pytest.raises(ExprSyntaxError, match=r"trailing input \(at position 7"):
        evaluate("1/(t-t))")
    with pytest.raises(ExprSyntaxError, match=r"expected an atom \(at position 10"):
        evaluate_basis_vector("sqrt(f1) +", 1, 1, PREC)
    with pytest.raises(ExprSyntaxError, match=r"expected an atom \(at position 5"):
        evaluate_basis_vector("e9 + )", 1, 1, PREC)


@pytest.mark.parametrize("text, name", [
    ("e1^2", "e1"), ("(e1+1)^2", "e1"), ("(e1*f1)^2", "e1"), ("-f1^2", "f1"),
    ("sqrt(f1)", "f1"), ("t*sqrt(1 + e1)", "e1"), ("sqrt(sqrt(f1))", "f1"),
])
def test_symbol_in_a_power_or_root_is_a_type_error(text, name):
    with pytest.raises(ExprTypeError) as info:
        evaluate_basis_vector(text, 1, 1, PREC)
    assert str(info.value) == f"symbol {name} in scalar context"


def test_eval_examples():
    s = evaluate("t^(-1)/2", PREC)
    assert s.coeff(-1) == FieldElem(Fraction(1, 2))

    s = evaluate("i/sqrt(2)", PREC)
    assert s.coeff(0) == FieldElem(0, 0, 0, Fraction(1, 2))

    # alpha = sqrt(t) + i*sqrt(1-t) satisfies alpha^2 + 1 = 2*alpha*sqrt(t)
    alpha = evaluate("sqrt(t) + i*sqrt(1-t)", PREC)
    lhs = alpha * alpha + PuiseuxSeries.from_scalar(ONE)
    rhs = alpha * evaluate("2*sqrt(t)", PREC)
    diff = lhs - rhs
    assert not diff.terms


def test_basis_vector_evaluation():
    even, odd = evaluate_basis_vector("e1 - 2*f2", 2, 3, PREC)
    assert even[0].coeff(0) == ONE
    assert even[1].is_zero()
    assert odd[1].coeff(0) == FieldElem(-2)

    even, odd = evaluate_basis_vector("t^(-1)*e2", 2, 1, PREC)
    assert even[1].coeff(-1) == ONE


def test_basis_vector_type_errors():
    with pytest.raises(ExprTypeError):
        evaluate_basis_vector("e1*f1", 1, 1, PREC)  # vector * vector
    with pytest.raises(ExprTypeError):
        evaluate_basis_vector("e3", 2, 1, PREC)  # out of range
    with pytest.raises(ExprTypeError):
        evaluate_basis_vector("2*t", 1, 1, PREC)  # scalar, not a vector
    with pytest.raises(ExprTypeError):
        evaluate_basis_vector("1/e1", 1, 1, PREC)  # divide by vector


def test_unary_plus():
    assert evaluate("+-+t") == -evaluate("t")
    assert evaluate("1 - +2") == evaluate("1 - 2")


def test_one_syntax_error_class():
    assert ExprSyntaxError is FieldSyntaxError


def test_vector_over_caller_named_symbols():
    """A cochain term is one symbol; the caller maps each symbol to an
    index and a sign."""
    vec = evaluate("2*e1 - (1 + i)*e1*^e2*@e1 + e1", None,
                   {"e1": (0, 1), "e1*^e2*@e1": (3, -1)}.get)
    assert sorted(vec) == [0, 3]
    assert vec[0] == PuiseuxSeries.from_scalar(FieldElem(3))
    assert vec[3] == PuiseuxSeries.from_scalar(FieldElem(1, 1))
    with pytest.raises(ExprSyntaxError):
        evaluate("e1*^e2*@e1")  # symbols are off in scalar contexts
    with pytest.raises(ExprTypeError):
        evaluate_basis_vector("e1*^e2*@e1", 2, 0, PREC)


# -- the former tree reader, the oracle for the one-pass reader ---------------
#
# Text used to be parsed to a tree of the node classes below, which
# `_evaluate` walked; `_format` wrote a tree back as text.  The one-pass
# reader must give the same value, or raise the same error, on every text.


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


SYMBOLS = ("e1", "e2", "f1", "f2", "e3", "e1*^e2*@e1")


def _rand_expr(rng, depth):
    """A random tree over rationals, i, sqrt2, t, the symbols of SYMBOLS,
    negation, the four operations, powers of any base and square roots."""
    choice = rng.randint(0, 7 if depth > 0 else 3)
    if choice == 0:
        return Rat(Fraction(rng.randint(0, 9), rng.choice((1, 1, 2, 3))))
    if choice == 1:
        return Const(rng.choice(("i", "sqrt2")))
    if choice == 2:
        return Const("t")
    if choice == 3:
        return Symbol(rng.choice(SYMBOLS))
    if choice == 4:
        return Neg(_rand_expr(rng, depth - 1))
    if choice == 5:
        op = rng.choice("+-*/")
        right = _rand_expr(rng, depth - 1)
        if op == "/":
            # "p/q" fuses into one rational literal, so a bare numeric
            # divisor would not round-trip as a division node
            while isinstance(right, Rat):
                right = _rand_expr(rng, depth - 1)
        return Bin(op, _rand_expr(rng, depth - 1), right)
    if choice == 6:
        return Pow(_rand_expr(rng, depth - 1),
                   Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))))
    return Sqrt(_rand_expr(rng, depth - 1))


def test_format_roundtrip_examples():
    """The oracle's writer and reader agree on the trees behind some
    hand-written texts, and the one-pass reader gives their values."""
    for text in ("t^(1/2)", "-i", "2*t", "t^(-1)/2",
                 "sqrt((1+sqrt(2*t))/(1-sqrt(2*t)))"):
        e = _parse(text)
        assert _parse(_format(e)) == e
        assert evaluate(_format(e), PREC) == _evaluate(e, PREC)


def test_property_format_parse_roundtrip(rng):
    # the random corpus of the differential test writes the trees it means
    for _ in range(1000):
        e = _rand_expr(rng, 3)
        assert _parse(_format(e), symbols=True) == e


def _symbol(name):
    """Basis symbols of shape (2|2), e3 unknown, the cochain term at 7."""
    return (7, -1) if "*" in name else (basis_index(name, 2, 2), 1)


def _outcome(read):
    """The value `read()` gives, as terms and precision per coordinate, or
    the class and message of what it raises."""
    try:
        value = read()
    except Exception as exc:
        return type(exc), str(exc)
    if isinstance(value, dict):
        return {k: (x.terms, x.precision) for k, x in value.items()}
    return value.terms, value.precision


def _corpus(rng):
    """1500 distinct random texts, then every distinct catalog coefficient
    and witness text."""
    texts = {}
    while len(texts) < 1500:
        texts[_format(_rand_expr(rng, 3))] = None
    texts = list(texts)
    for entry in catalog.list_entries():
        texts += [v["coeff"] for br in entry.doc["brackets"]
                  for v in br["value"]]
    for row in catalog.witnesses():
        for key in ("basis", "alt_basis"):
            texts += row.get(key, {}).values()
    return list(dict.fromkeys(texts))


def test_one_pass_reader_matches_tree_oracle(rng):
    """On random texts, every catalog coefficient and every witness text,
    at each order and with and without symbols, the one-pass reader gives
    the tree evaluator's value or raises its error, syntax errors first."""
    mismatches = []
    texts = _corpus(rng)
    for text in texts:
        for precision in (None, Fraction(1, 2), Fraction(1), Fraction(2),
                          Fraction(8), Fraction(16)):
            for symbol in (None, _symbol):
                old = _outcome(lambda: _evaluate(
                    _parse(text, symbol is not None), precision, symbol))
                new = _outcome(lambda: evaluate(text, precision, symbol))
                if old != new:
                    mismatches.append((text, precision, symbol, old, new))
    assert not mismatches, mismatches[:5]
