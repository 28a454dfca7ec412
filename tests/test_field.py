import json
import math
import random
import re
import sys
from fractions import Fraction
from importlib import resources

import pytest

from superlie.field import (FieldElem, FieldSyntaxError, field_sqrt,
                            format_elem, parse_elem)

from conftest import SEED, rand_elem


def coords(x):
    return (x.a, x.b, x.c, x.d)


def test_parse_examples():
    assert coords(parse_elem("-1/2*i")) == (0, Fraction(-1, 2), 0, 0)
    assert coords(parse_elem("sqrt2/2")) == (0, 0, Fraction(1, 2), 0)
    assert coords(parse_elem("3/4 + i*sqrt2")) == (Fraction(3, 4), 0, 0, 1)
    assert coords(parse_elem("-1/2*i + 3/4*sqrt2")) == \
        (0, Fraction(-1, 2), Fraction(3, 4), 0)


def test_parse_rejects_garbage():
    # digits are ASCII only; re's \d would also read "\u0661\u0662" as 12
    for text in ("", "1 +", "sqrt3", "i i", "1/*2",
                 "\u0661\u0662", "2*\u0663", "\uff11"):
        with pytest.raises(FieldSyntaxError):
            parse_elem(text)


def test_basic_arithmetic():
    i = FieldElem(0, 1)
    r2 = FieldElem(0, 0, 1)
    assert i * i == FieldElem(-1)
    assert r2 * r2 == FieldElem(2)
    assert (i * r2) * (i * r2) == FieldElem(-2)
    assert (FieldElem(1) + i) * (FieldElem(1) - i) == FieldElem(2)


def test_inverse_and_division():
    x = FieldElem(Fraction(3, 4), Fraction(-1, 2), 2, Fraction(1, 3))
    assert x * x.inv() == FieldElem(1)
    assert (x / x) == FieldElem(1)
    with pytest.raises(ZeroDivisionError):
        FieldElem(0).inv()


def test_field_sqrt_known_values():
    assert field_sqrt(FieldElem(2)) == FieldElem(0, 0, 1)       # sqrt2
    assert field_sqrt(FieldElem(-1)) == FieldElem(0, 1)         # i
    assert field_sqrt(FieldElem(0)) == FieldElem(0)
    # sqrt(2i) = 1 + i lies in the field
    s = field_sqrt(FieldElem(0, 2))
    assert s is not None and s * s == FieldElem(0, 2)
    # 3 has no square root in Q(i, sqrt2)
    assert field_sqrt(FieldElem(3)) is None


def test_sqrt_branch_deterministic():
    # the returned root has the lexicographically larger coordinate tuple
    s = field_sqrt(FieldElem(2))
    assert (s.a, s.b, s.c, s.d) > ((-s).a, (-s).b, (-s).c, (-s).d)


def test_property_roundtrip_and_axioms(rng):
    for _ in range(1000):
        x = rand_elem(rng)
        y = rand_elem(rng)
        z = rand_elem(rng)
        assert parse_elem(format_elem(x)) == x
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        if not x.is_zero():
            assert x * x.inv() == FieldElem(1)


def test_property_sqrt_squares_back(rng):
    found = 0
    for _ in range(1000):
        x = rand_elem(rng, span=5)
        s = field_sqrt(x * x)  # perfect squares always have a root
        assert s is not None and s * s == x * x
        found += 1
    assert found == 1000


def test_hash_agrees_with_equality():
    assert FieldElem(1) == 1 and 1 in {FieldElem(1)}
    assert FieldElem(1) in {1}
    assert Fraction(-3, 4) in {FieldElem(Fraction(-3, 4))}
    assert FieldElem(Fraction(1, 2)) in {Fraction(1, 2): None}
    assert hash(FieldElem(Fraction(6, 4), 0, 0, 0)) == hash(Fraction(3, 2))
    # the same element reached by different operations
    x = FieldElem(Fraction(1, 2), Fraction(-2, 3), 0, 5)
    y = (x * FieldElem(0, 3, 1, 0)) / FieldElem(0, 3, 1, 0)
    assert x == y and hash(x) == hash(y) and len({x, y}) == 1
    assert len({FieldElem(0), FieldElem(Fraction(0, 7)), -FieldElem(0), 0}) == 1


_P = sys.hash_info.modulus


@pytest.mark.parametrize("x", [
    -1, 1, -2, 0, 10**40 + 3, -(10**40 + 3), Fraction(-1, 2), Fraction(-1, 3),
    Fraction(10**50 + 1, 7), Fraction(-(10**50 + 1), 7), Fraction(1, _P),
    Fraction(-1, _P), Fraction(3, 2 * _P), Fraction(-5, 2 * _P), _P, -_P,
    Fraction(_P - 1, _P + 1), Fraction(1, _P - 1), Fraction(-1, _P - 1)])
def test_rational_hash_is_python_numeric_hash(x):
    """A rational element hashes by Python's numeric rule, without building
    a Fraction: the same as the int or Fraction it equals, also for
    denominators divisible by the hash modulus."""
    assert hash(FieldElem(x)) == hash(Fraction(x)) == hash(x)
    assert FieldElem(x) in {x} and x in {FieldElem(x)}


@pytest.mark.parametrize("bad", [0.1, 1.0, "1/2", "1", None, 1j])
def test_constructor_rejects_non_rationals(bad):
    with pytest.raises(TypeError):
        FieldElem(bad)
    with pytest.raises(TypeError):
        FieldElem(0, 0, 0, bad)
    with pytest.raises(TypeError):
        FieldElem(1) + bad


# -- differential test against the Fraction-slot implementation ---------------

class RefElem:
    """The former FieldElem, one Fraction per coordinate: the test oracle."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a=0, b=0, c=0, d=0):
        self.a, self.b = Fraction(a), Fraction(b)
        self.c, self.d = Fraction(c), Fraction(d)

    def coords(self):
        return (self.a, self.b, self.c, self.d)

    def is_zero(self):
        return not (self.a or self.b or self.c or self.d)

    def is_rational(self):
        return not (self.b or self.c or self.d)

    def __add__(self, other):
        other = _ref(other)
        return RefElem(self.a + other.a, self.b + other.b,
                       self.c + other.c, self.d + other.d)

    __radd__ = __add__

    def __neg__(self):
        return RefElem(-self.a, -self.b, -self.c, -self.d)

    def __sub__(self, other):
        return self + (-_ref(other))

    def __rsub__(self, other):
        return _ref(other) + (-self)

    def __mul__(self, other):
        other = _ref(other)
        if self.is_rational():
            return RefElem(*(self.a * v for v in other.coords()))
        if other.is_rational():
            return RefElem(*(other.a * v for v in self.coords()))
        a1, b1, c1, d1 = self.coords()
        a2, b2, c2, d2 = other.coords()
        return RefElem(a1 * a2 - b1 * b2 + 2 * (c1 * c2 - d1 * d2),
                       a1 * b2 + b1 * a2 + 2 * (c1 * d2 + d1 * c2),
                       a1 * c2 - b1 * d2 + c1 * a2 - d1 * b2,
                       a1 * d2 + b1 * c2 + c1 * b2 + d1 * a2)

    __rmul__ = __mul__

    def inv(self):
        if self.is_zero():
            raise ZeroDivisionError
        conj = RefElem(self.a, self.b, -self.c, -self.d)
        z = self * conj
        nrm = z.a * z.a + z.b * z.b
        return conj * RefElem(z.a / nrm, -z.b / nrm)

    def __truediv__(self, other):
        return self * _ref(other).inv()

    def __rtruediv__(self, other):
        return _ref(other) * self.inv()

    def __pow__(self, k):
        if k < 0:
            return self.inv() ** (-k)
        out = RefElem(1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        return self.coords() == _ref(other).coords()

    def __hash__(self):
        return hash(self.coords())


def _ref(x):
    return x if isinstance(x, RefElem) else RefElem(x)


def _rat_sqrt(q):
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    if q == 0:
        return Fraction(0)
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def _gaussian_sqrt(u, v):
    """Square root of u + v*i inside Q(i), as an (x, y) pair, or None; the
    former helper of ``field_sqrt``, kept here for ``ref_sqrt``."""
    if v == 0:
        r = _rat_sqrt(u)
        if r is not None:
            return (r, Fraction(0))
        r = _rat_sqrt(-u)
        if r is not None:
            return (Fraction(0), r)
        return None
    r = _rat_sqrt(u * u + v * v)
    if r is None:
        return None
    x = _rat_sqrt((u + r) / 2)
    if x is None or x == 0:
        return None
    return (x, v / (2 * x))


def ref_sqrt(x):
    """``field_sqrt`` as it was written over the Fraction slots."""
    if x.is_zero():
        return RefElem(0)
    zero = (Fraction(0), Fraction(0))
    X, Y = (x.a, x.b), (x.c, x.d)
    candidates = []

    def push(A, B):
        s = RefElem(A[0], A[1], B[0], B[1])
        if s * s == x:
            candidates.append(s)

    if Y == zero:
        A = _gaussian_sqrt(*X)
        if A is not None:
            push(A, zero)
        B = _gaussian_sqrt(X[0] / 2, X[1] / 2)
        if B is not None:
            push(zero, B)
    else:
        (Xu, Xv), (Yu, Yv) = X, Y
        D = (Xu * Xu - Xv * Xv - 2 * (Yu * Yu - Yv * Yv),
             2 * Xu * Xv - 4 * Yu * Yv)
        rD = _gaussian_sqrt(*D)
        if rD is not None:
            for sign in (1, -1):
                A = _gaussian_sqrt((Xu + sign * rD[0]) / 2,
                                   (Xv + sign * rD[1]) / 2)
                if A is None or A == zero:
                    continue
                au, av = A
                nrm = au * au + av * av
                iu, iv = au / (2 * nrm), -av / (2 * nrm)
                push(A, (Yu * iu - Yv * iv, Yu * iv + Yv * iu))
    if not candidates:
        return None
    roots = set(candidates) | {-s for s in candidates}
    return max(roots, key=lambda s: s.coords())


SPECIAL = [(0, 0, 0, 0), (1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, 0, 0),
           (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (0, 0, -1, 0),
           (1, 1, 0, 0), (Fraction(1, 2), 0, Fraction(1, 2), 0),
           (0, Fraction(1, 2), 0, Fraction(-1, 2))]


def random_coords(rng):
    if rng.random() < 0.15:
        return rng.choice(SPECIAL)
    big = rng.random() < 0.2
    out = []
    for _ in range(4):
        if rng.random() < 0.4:
            out.append(0)
        elif big:
            out.append(Fraction(rng.randint(-10**12, 10**12),
                                rng.randint(1, 10**12)))
        else:
            out.append(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
    if rng.random() < 0.3:   # a rational element
        out[1:] = [0, 0, 0]
    return tuple(out)


def assert_canonical(x):
    assert type(x) is FieldElem
    slots = (x.n0, x.n1, x.n2, x.n3, x.q)
    assert all(type(v) is int for v in slots)
    assert x.q > 0 and math.gcd(*slots) == 1
    if x.is_zero():
        assert slots == (0, 0, 0, 0, 1)


def check_same(x, ref, text=False):
    assert_canonical(x)
    assert x.coords() == ref.coords()
    assert all(type(v) is Fraction for v in x.coords())
    assert (x.a, x.b, x.c, x.d) == ref.coords()
    assert x.is_zero() == ref.is_zero() and bool(x) == (not ref.is_zero())
    assert x.is_rational() == ref.is_rational()
    if x.is_rational():
        assert x == x.a and hash(x) == hash(x.a)
    if text:
        assert format_elem(x) == format_elem(ref)
        assert parse_elem(format_elem(x)) == x


def test_differential_against_fraction_slots():
    rng = random.Random(SEED)
    for _ in range(2000):
        cs = [random_coords(rng) for _ in range(3)]
        (x, y, z), (rx, ry, rz) = ([cls(*c) for c in cs]
                                   for cls in (FieldElem, RefElem))
        k = rng.choice([0, 1, 2, 5, 9, 13, 17, 23, 29, 31, 37, 41, 43])
        r = rng.choice([k, -k, Fraction(k, 7), Fraction(-7, k or 1)])
        check_same(x, rx, text=True)
        check_same(x * y + z, rx * ry + rz, text=True)
        for got, want in [(x + y, rx + ry), (x - y, rx - ry), (x * y, rx * ry),
                          (-x, -rx), (x + r, rx + r), (r - x, r - rx),
                          (x - r, rx - r), (x * r, rx * r), (r * y, r * ry)]:
            check_same(got, want)
        for e in range(4):
            check_same(x ** e, rx ** e)
        for u, ru in ((x, rx), (x * y, rx * ry)):
            if ru.is_zero():
                with pytest.raises(ZeroDivisionError):
                    u.inv()
                with pytest.raises(ZeroDivisionError):
                    z / u
                continue
            check_same(u.inv(), ru.inv(), text=True)
            check_same(z / u, rz / ru)
            check_same(u ** -2, ru ** -2)
            check_same(1 / u, 1 / ru)
            if r:
                check_same(u / r, ru / r)
        for u, v, ru, rv in ((x, y, rx, ry), (x, -(-x), rx, rx),
                             (x * y, y * x, rx * ry, ry * rx)):
            assert (u == v) == (ru == rv) and (u != v) == (not ru == rv)
            if u == v:
                assert hash(u) == hash(v)
        assert (x == r) == (rx == RefElem(r))
        for u, ru in ((x, rx), (x * x, rx * rx)):
            s, rs = field_sqrt(u), ref_sqrt(ru)
            assert (s is None) == (rs is None)
            if s is not None:
                check_same(s, rs)


# -- the former text writer ---------------------------------------------------


def _ref_format_part(q, symbol, first):
    sign = "-" if q < 0 else ("" if first else "+")
    if not first:
        sign = " - " if q < 0 else " + "
    q = abs(q)
    if symbol and q == 1:
        coeff = ""
    else:
        coeff = str(q) + ("*" if symbol else "")
    return f"{sign}{coeff}{symbol}"


def ref_format_elem(x):
    """``format_elem`` as it was written, part by part with its own signs."""
    parts = []
    for q, symbol in ((x.a, ""), (x.b, "i"), (x.c, "sqrt2"), (x.d, "i*sqrt2")):
        if q:
            parts.append(_ref_format_part(q, symbol, first=not parts))
    if not parts:
        return "0"
    return "".join(parts)


def test_format_elem_matches_former_writer():
    rng = random.Random(SEED)
    for _ in range(5000):
        x = FieldElem(*random_coords(rng))
        assert format_elem(x) == ref_format_elem(x)
    for signs in range(81):   # every pattern of -1, 0, 1 coordinates
        c = [(signs // 3 ** k) % 3 - 1 for k in range(4)]
        for x in (FieldElem(*c), FieldElem(*(Fraction(v, 3) for v in c))):
            assert format_elem(x) == ref_format_elem(x)


# -- differential test against the former parser -------------------------------
#
# parse_elem used to have a grammar of its own (below, as it was):
#   elem   := term (('+' | '-') term)*
#   term   := ('+' | '-')* factor (('*' | '/') factor)*
#   factor := integer ['/' integer] | 'i' | 'sqrt2'
# It is now exprlang's, which accepts all of it with the same values.

_REF_TOKEN = re.compile(r"\s*(?:(\d+)|(sqrt2)|(i)|([+\-*/]))")


class RefSyntaxError(ValueError):
    pass


def _ref_tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REF_TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise RefSyntaxError(f"unexpected character at {pos}")
        if m.group(1):
            tokens.append(("num", int(m.group(1)), m.start(1)))
        elif m.group(2):
            tokens.append(("sqrt2", None, m.start(2)))
        elif m.group(3):
            tokens.append(("i", None, m.start(3)))
        else:
            tokens.append(("op", m.group(4), m.start(4)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


def ref_parse_elem(text):
    """The former field.parse_elem."""
    tokens = _ref_tokenize(text)
    idx = 0

    def peek():
        return tokens[idx]

    def factor():
        nonlocal idx
        kind, val, pos = tokens[idx]
        if kind == "num":
            idx += 1
            if tokens[idx][0] == "op" and tokens[idx][1] == "/" and \
                    tokens[idx + 1][0] == "num":
                den = tokens[idx + 1][1]
                if den == 0:
                    raise RefSyntaxError("zero denominator")
                idx += 2
                return FieldElem(Fraction(val, den))
            return FieldElem(val)
        if kind == "i":
            idx += 1
            return FieldElem(0, 1)
        if kind == "sqrt2":
            idx += 1
            return FieldElem(0, 0, 1)
        raise RefSyntaxError("expected a number, 'i' or 'sqrt2'")

    def term():
        nonlocal idx
        sign = FieldElem(1)
        while peek()[0] == "op" and peek()[1] in "+-":
            if peek()[1] == "-":
                sign = -sign
            idx += 1
        value = factor()
        while peek()[0] == "op" and peek()[1] in "*/":
            op = peek()[1]
            idx += 1
            rhs = factor()
            value = value * rhs if op == "*" else value / rhs
        return sign * value

    result = term()
    while peek()[0] == "op" and peek()[1] in "+-":
        op = peek()[1]
        idx += 1
        rhs = term()
        result = result + rhs if op == "+" else result - rhs
    if peek()[0] != "end":
        raise RefSyntaxError("trailing input")
    return result


def assert_parsers_agree(text):
    """Equal values, or both reject; the former parser let a division by
    zero escape as ZeroDivisionError, which is now a syntax error (naming a
    literal p/0 first when the text has one, as it is found while parsing)."""
    try:
        want = ref_parse_elem(text)
    except ZeroDivisionError:
        with pytest.raises(FieldSyntaxError,
                           match="division by zero|zero denominator"):
            parse_elem(text)
        return
    except RefSyntaxError:
        with pytest.raises(FieldSyntaxError):
            parse_elem(text)
        return
    assert parse_elem(text) == want, text


def old_grammar_text(rng):
    """A seeded string of the former grammar: runs of unary signs, p/q
    literals, division by i and sqrt2 (and sometimes by 0), spaces."""
    def factor():
        r = rng.random()
        if r < 0.45:
            num = [str(rng.randint(0, 40))]
            if rng.random() < 0.4:
                num += ["/", str(rng.randint(0, 12))]
            return num
        return ["i"] if r < 0.75 else ["sqrt2"]

    def term():
        tokens = [rng.choice("+-") for _ in range(rng.choice((0, 0, 1, 2, 3)))]
        tokens += factor()
        for _ in range(rng.choice((0, 1, 1, 2, 3))):
            tokens += [rng.choice("*//")] + factor()
        return tokens

    tokens = term()
    for _ in range(rng.choice((0, 1, 2, 3))):
        tokens += [rng.choice("+-")] + term()
    return "".join(tok + rng.choice(("", "", " ", "  ")) for tok in tokens)


def test_parse_elem_matches_former_parser_on_data():
    texts = []

    def walk(node, key=None):
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, k)
        elif isinstance(node, list):
            for v in node:
                walk(v, key)
        elif key in ("coeff", "param"):
            texts.append(node)

    data = resources.files("superlie.data")
    for name in ("catalog.json", "witnesses.json", "nondegen.json",
                 "expected.json"):
        walk(json.loads(data.joinpath(name).read_text()))
    assert len(texts) > 170
    for text in texts:
        assert_parsers_agree(text)


def test_parse_elem_matches_former_parser_on_seeded_strings():
    rng = random.Random(SEED)
    outcomes = {"value": 0, "rejected": 0}
    for _ in range(12000):
        text = old_grammar_text(rng)
        assert_parsers_agree(text)
        try:
            ref_parse_elem(text)
            outcomes["value"] += 1
        except (RefSyntaxError, ZeroDivisionError):
            outcomes["rejected"] += 1
    # both outcomes are exercised
    assert outcomes["value"] > 8000 and outcomes["rejected"] > 100
    for text in ("", "1 +", "sqrt3", "i i", "1/*2", "i/0", "1/0", "1 2",
                 "sqrt", "- -", "+"):
        assert_parsers_agree(text)
    # exprlang's grammar is wider: signs after '*' and '/', parentheses
    assert parse_elem("2*-1") == parse_elem("(1 + 1)/-1") == -2


def test_parse_elem_unary_plus_and_errors():
    assert parse_elem("+1") == 1
    assert parse_elem("1 - +2") == -1
    assert parse_elem("+-+i") == -FieldElem(0, 1)
    for text, cause in [("i/0", "division by zero"),
                        ("1/(i - i)", "division by zero"),
                        ("t", "not a constant"),
                        ("1/(1 + t)", "not a constant"),
                        ("sqrt(3)", "no square root"),
                        ("e1", "not allowed")]:
        with pytest.raises(FieldSyntaxError, match=re.escape(cause)):
            parse_elem(text)
