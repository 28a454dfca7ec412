from fractions import Fraction

import pytest

from superlie import catalog
from superlie.exprlang import (ExprSyntaxError, ExprTypeError, basis_index,
                               evaluate, evaluate_basis_vector)
from superlie.field import I, FieldElem, FieldSyntaxError
from superlie.series import PuiseuxSeries

from exprtree import (Bin, Const, Neg, Pow, Rat, Sqrt, Symbol, _evaluate,
                      _format, _parse)

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
