from fractions import Fraction

import pytest

from superlie.exprlang import (Bin, Const, ExprSyntaxError, ExprTypeError,
                               Neg, Pow, Rat, Sqrt, Symbol, evaluate,
                               evaluate_basis_vector, format_expr, parse)
from superlie.field import FieldElem, FieldSyntaxError
from superlie.series import PuiseuxSeries

ONE = FieldElem(1)
PREC = Fraction(8)


def test_parse_shapes():
    e = parse("t^(-1)/2")
    assert isinstance(e, Bin) and e.op == "/"
    assert isinstance(e.left, Pow)

    # unary minus binds tighter than '*'
    e = parse("-i*t^(1/2)")
    assert isinstance(e, Bin) and e.op == "*"
    assert isinstance(e.left, Neg)
    assert isinstance(e.right, Pow) and e.right.exponent == Fraction(1, 2)

    e = parse("sqrt((1+sqrt(2*t))/(1-sqrt(2*t)))")
    assert isinstance(e, Sqrt)
    assert isinstance(e.arg, Bin) and e.arg.op == "/"


def test_rational_literal_binds_tightly():
    # "1/2" is one literal: "t^(1/2)" has a rational exponent node
    e = parse("t^(1/2)")
    assert isinstance(e, Pow) and e.exponent == Fraction(1, 2)


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
        parse(text)
    assert str(info.value) == f"{message} (at position {pos})"
    assert info.value.pos == pos


def test_eval_examples():
    s = evaluate(parse("t^(-1)/2"), PREC)
    assert s.coeff(-1) == FieldElem(Fraction(1, 2))

    s = evaluate(parse("i/sqrt(2)"), PREC)
    assert s.coeff(0) == FieldElem(0, 0, 0, Fraction(1, 2))

    # alpha = sqrt(t) + i*sqrt(1-t) satisfies alpha^2 + 1 = 2*alpha*sqrt(t)
    alpha = evaluate(parse("sqrt(t) + i*sqrt(1-t)"), PREC)
    lhs = alpha * alpha + PuiseuxSeries.from_scalar(ONE)
    rhs = alpha * evaluate(parse("2*sqrt(t)"), PREC)
    diff = lhs - rhs
    assert not diff.terms


def test_format_roundtrip_examples():
    for text in ("t^(1/2)", "-i", "2*t", "t^(-1)/2",
                 "sqrt((1+sqrt(2*t))/(1-sqrt(2*t)))"):
        e = parse(text)
        assert parse(format_expr(e)) == e


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
    assert parse("+-+t") == Neg(Const("t"))
    assert parse("1 - +2") == parse("1 - 2")


def test_one_syntax_error_class():
    assert ExprSyntaxError is FieldSyntaxError


def test_vector_over_caller_named_symbols():
    """A cochain term is one symbol; the caller maps each symbol to an
    index and a sign."""
    e = parse("2*e1 - (1 + i)*e1*^e2*@e1 + e1", symbols=True)
    assert e.left.right.right == Symbol("e1*^e2*@e1")
    vec = evaluate(e, None, {"e1": (0, 1), "e1*^e2*@e1": (3, -1)}.get)
    assert sorted(vec) == [0, 3]
    assert vec[0] == PuiseuxSeries.from_scalar(FieldElem(3))
    assert vec[3] == PuiseuxSeries.from_scalar(FieldElem(1, 1))
    with pytest.raises(ExprSyntaxError):
        parse("e1*^e2*@e1")  # symbols are off in scalar contexts
    with pytest.raises(ExprTypeError):
        evaluate_basis_vector("e1*^e2*@e1", 2, 0, PREC)


def test_property_format_parse_roundtrip(rng):
    # randomized expression trees survive format -> parse unchanged
    def rand_expr(depth):
        choice = rng.randint(0, 6 if depth > 0 else 2)
        if choice == 0:
            return parse(str(rng.randint(0, 9)))
        if choice == 1:
            return Const(rng.choice(("i", "sqrt2")))
        if choice == 2:
            return parse("t")
        if choice == 3:
            return Neg(rand_expr(depth - 1))
        if choice == 4:
            op = rng.choice("+-*/")
            right = rand_expr(depth - 1)
            if op == "/":
                # "p/q" fuses into one rational literal, so a bare numeric
                # divisor would not round-trip as a division node
                while isinstance(right, Rat):
                    right = rand_expr(depth - 1)
            return Bin(op, rand_expr(depth - 1), right)
        if choice == 5:
            return Pow(parse("t"), Fraction(rng.randint(-4, 4),
                                            rng.choice((1, 2, 4))))
        return Sqrt(rand_expr(depth - 1))

    for _ in range(1000):
        e = rand_expr(3)
        assert parse(format_expr(e)) == e
