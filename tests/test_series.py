from fractions import Fraction

import pytest

from superlie import series
from superlie.field import I, FieldElem, field_sqrt, format_elem
from superlie.linalg import SingularMatrix, series_solve
from superlie.series import (Diverges, InsufficientPrecision, NoRoot,
                             NotInvertible, PuiseuxSeries, format_series,
                             parse_precision, working_precision)

from conftest import rand_elem, ref_format_terms

ONE = FieldElem(1)
R2 = FieldElem(0, 0, 1)


def t_pow(e, c=1):
    return PuiseuxSeries({Fraction(e): FieldElem(c)})


def test_default_precision_is_8(monkeypatch):
    """No cap means 8, whatever the environment holds: the precision is
    set only by an argument."""
    monkeypatch.setenv("SUPERLIE_PRECISION", "1/2")
    assert working_precision() == working_precision(None) == 8


@pytest.mark.parametrize("text", ["0", "-1", "abc", "", "1/0"])
def test_precision_must_be_positive_rational(text):
    with pytest.raises(ValueError, match="positive rational"):
        parse_precision(text)


def test_caller_cap_checked_by_the_same_rule():
    """A caller's cap overrides the default; a float is refused as an
    exponent is, and a cap <= 0 as the text is."""
    assert working_precision(16) == working_precision(Fraction(16)) == 16
    assert working_precision(Fraction(1, 2)) == Fraction(1, 2)
    for bad in (0.5, 8.0):
        with pytest.raises(TypeError, match="exact rational"):
            working_precision(bad)
    for bad in (0, -2, Fraction(-1), Fraction(0)):
        with pytest.raises(ValueError, match="positive rational"):
            working_precision(bad)


def test_parse_precision_accepts_rationals():
    assert parse_precision("1/2") == Fraction(1, 2)
    assert parse_precision(" 16 ") == 16


def test_arith_examples():
    t = t_pow(1)
    tinv = t_pow(-1)
    assert t * tinv == PuiseuxSeries.from_scalar(ONE)
    one_plus_t = PuiseuxSeries({Fraction(0): ONE, Fraction(1): ONE})
    diff = one_plus_t - one_plus_t
    assert not diff.terms
    root2t = PuiseuxSeries({Fraction(1, 2): R2})
    assert root2t * root2t == t_pow(1, 2)


def test_is_zero_only_for_exact_zero():
    exact = PuiseuxSeries({})
    truncated = PuiseuxSeries({}, precision=Fraction(8))
    assert exact.is_zero()
    assert not truncated.is_zero()


def test_inv_examples():
    assert t_pow(1).inv(Fraction(8)) == t_pow(-1)
    x = PuiseuxSeries({Fraction(0): ONE, Fraction(1, 2): -R2})
    inv = x.inv(Fraction(2))
    assert inv.coeff(0) == ONE
    assert inv.coeff(Fraction(1, 2)) == R2
    assert inv.coeff(1) == FieldElem(2)
    prod = x * inv
    assert prod.coeff(0) == ONE
    assert all(c.is_zero() for e, c in prod.terms.items() if e != 0)
    with pytest.raises(NotInvertible):
        PuiseuxSeries({}).inv(Fraction(8))


def test_inv_of_unresolved_zero_needs_precision():
    # no visible term below a finite precision: a higher one may show a
    # leading term, so this is not a division by zero
    with pytest.raises(InsufficientPrecision):
        PuiseuxSeries({}, Fraction(1)).inv()
    with pytest.raises(InsufficientPrecision):
        (PuiseuxSeries({Fraction(0): ONE, Fraction(1): -ONE})
         .sqrt(Fraction(1)) - 1).inv()


def test_sqrt_examples():
    s = t_pow(1, 2).sqrt(Fraction(8))
    assert s == PuiseuxSeries({Fraction(1, 2): R2})
    num = PuiseuxSeries({Fraction(0): ONE, Fraction(1, 2): R2})
    den = PuiseuxSeries({Fraction(0): ONE, Fraction(1, 2): -R2})
    q = num * den.inv(Fraction(3))
    r = q.sqrt(Fraction(3))
    assert r.coeff(0) == ONE
    assert r.coeff(Fraction(1, 2)) == R2
    assert r.coeff(1) == ONE
    sq = r * r
    for e, c in sq.terms.items():
        assert c == q.coeff(e)
    with pytest.raises(NoRoot):
        t_pow(1, 3).sqrt(Fraction(8))


def test_limit_examples():
    one_plus_t = PuiseuxSeries({Fraction(0): ONE, Fraction(1): ONE},
                               precision=Fraction(8))
    assert one_plus_t.limit_at_zero() == ONE
    with pytest.raises(Diverges):
        PuiseuxSeries(t_pow(-1).terms, precision=Fraction(8)).limit_at_zero()
    half = PuiseuxSeries({Fraction(1, 2): ONE}, precision=Fraction(8))
    assert half.limit_at_zero() == FieldElem(0)
    with pytest.raises(InsufficientPrecision):
        PuiseuxSeries({}, precision=Fraction(0)).limit_at_zero()


@pytest.mark.parametrize("e, text", [
    (-1, "t^-1"), (Fraction(-2, 2), "t^-1"), (Fraction(-1, 2), "t^-1/2")])
def test_divergence_text(e, text):
    """`limit_at_zero` raises the error `diverges` builds, its lowest
    negative exponent written in canonical form."""
    want = f"term of order {text} survives at t->0"
    assert str(series.diverges(e)) == want
    with pytest.raises(Diverges) as raised:
        PuiseuxSeries({e: ONE, 1: ONE}).limit_at_zero()
    assert str(raised.value) == want


def test_exact_series_limit():
    assert t_pow(2).limit_at_zero() == FieldElem(0)
    assert PuiseuxSeries({}).limit_at_zero() == FieldElem(0)


def test_precision_soundness_on_refinement(rng):
    # recomputing at higher precision never changes determined coefficients
    x = PuiseuxSeries({Fraction(0): ONE, Fraction(1): rand_elem(rng)})
    lo = x.inv(Fraction(4))
    hi = x.inv(Fraction(9))
    for e, c in lo.terms.items():
        assert hi.coeff(e) == c


def test_property_arith_identities(rng):
    for _ in range(1000):
        terms = {Fraction(rng.randint(-4, 8), rng.choice((1, 2, 4))):
                 rand_elem(rng) for _ in range(rng.randint(0, 4))}
        x = PuiseuxSeries(terms)
        y = PuiseuxSeries({Fraction(rng.randint(-2, 4)): rand_elem(rng)})
        z = PuiseuxSeries({Fraction(rng.randint(0, 3)): rand_elem(rng)})
        assert (x + y) - y == x
        assert x * (y + z) == x * y + x * z
        assert (x * y) * z == x * (y * z)


def test_property_inv_and_sqrt(rng):
    prec = Fraction(6)
    done = 0
    while done < 200:
        lead = rand_elem(rng, span=4)
        if lead.is_zero():
            continue
        x = PuiseuxSeries({Fraction(0): lead * lead,
                           Fraction(1): rand_elem(rng, span=4),
                           Fraction(2): rand_elem(rng, span=4)})
        inv = x.inv(prec)
        prod = x * inv
        assert prod.coeff(0) == ONE
        assert all(c.is_zero() for e, c in prod.terms.items() if e != 0)
        s = x.sqrt(prec)
        sq = s * s
        for e, c in sq.terms.items():
            assert c == x.coeff(e)
        done += 1


def _format_series_before(s):
    """format_series as it was before it wrote through `field.format_sum`,
    kept as the oracle of the new writer."""
    body = ref_format_terms([(format_elem(s.terms[e]), "" if e == 0 else
                              "t" if e == 1 else f"t^({e})")
                             for e in sorted(s.terms)])
    if s.precision is not None:
        body += f" + O(t^({s.precision}))"
    return body


def test_format_series_matches_former_writer(rng):
    """Seeded series, exact and truncated, with full Q(i, sqrt2)
    coefficients and the ones written without a factor or in parentheses,
    print as they did before format_sum."""
    i = FieldElem(0, 1)
    special = [ONE, -ONE, i, -i, FieldElem(1, 1), FieldElem(-1, -1), R2,
               -(i * R2), FieldElem(0, 0, 0, -3), FieldElem(Fraction(-1, 2)),
               FieldElem(-1, 1, -1, 1)]
    for _ in range(400):
        terms = {Fraction(rng.randint(-6, 8), rng.randint(1, 4)):
                 rng.choice((rand_elem(rng), rng.choice(special)))
                 for _ in range(rng.randint(0, 5))}
        precision = rng.choice((None, Fraction(rng.randint(1, 12),
                                               rng.randint(1, 3))))
        s = PuiseuxSeries(terms, precision)
        assert format_series(s) == _format_series_before(s)


# -- the Fraction-keyed series arithmetic, kept as the oracle ----------------
#
# `_RefSeries` is PuiseuxSeries as it was when every exponent was a Fraction
# and every product went term by term through the checking constructor;
# `_ref_series_solve` is linalg.series_solve as it was before it skipped
# exact zeros.  The seeded tests below require the same terms and precision
# from both, or the same exception class.


class _RefSeries:
    __slots__ = ("terms", "precision")

    def __init__(self, terms, precision=None):
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

    @staticmethod
    def from_scalar(c, precision=None):
        return _RefSeries({Fraction(0): c}, precision)

    def valuation_bound(self):
        if self.terms:
            return min(self.terms)
        if self.precision is not None:
            return self.precision
        return None

    def leading(self):
        if not self.terms:
            return None
        e = min(self.terms)
        return e, self.terms[e]

    def is_zero(self):
        return not self.terms and self.precision is None

    def __add__(self, other):
        other = _ref_coerce(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, FieldElem(0)) + c
        p1, p2 = self.precision, other.precision
        prec = p2 if p1 is None else p1 if p2 is None else min(p1, p2)
        return _RefSeries(terms, prec)

    def __neg__(self):
        return _RefSeries({e: -c for e, c in self.terms.items()},
                          self.precision)

    def __sub__(self, other):
        return self + (-_ref_coerce(other))

    def __rsub__(self, other):
        return _ref_coerce(other) + (-self)

    def __mul__(self, other):
        other = _ref_coerce(other)
        if self.precision is None and other.precision is None:
            prec = None
        else:
            v1 = self.valuation_bound()
            v2 = other.valuation_bound()
            cands = []
            if self.precision is not None and v2 is not None:
                cands.append(self.precision + v2)
            if other.precision is not None and v1 is not None:
                cands.append(other.precision + v1)
            prec = min(cands) if cands else None
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                terms[e] = terms.get(e, FieldElem(0)) + c1 * c2
        return _RefSeries(terms, prec)

    __rmul__ = __mul__

    def _split_leading(self, precision):
        a, c = self.leading()
        rest = _RefSeries({e - a: cc for e, cc in self.terms.items()
                           if e != a},
                          None if self.precision is None
                          else self.precision - a) * c.inv()
        rel = rest.precision
        if rest.terms:
            budget = precision if precision is not None \
                else working_precision()
            rel = budget if rel is None else min(rel, budget)
        if rel is not None and rel <= 0:
            raise InsufficientPrecision(f"result only known to O(t^{rel})")
        return a, c, _RefSeries(rest.terms, rel), rel

    def inv(self, precision=None):
        if self.leading() is None:
            if self.precision is not None:
                raise InsufficientPrecision("inverse of an unresolved zero")
            raise NotInvertible("series has no visible leading term")
        a, c, rest, rel = self._split_leading(precision)
        geom = _RefSeries.from_scalar(ONE, rel)
        if rest.terms:
            delta = min(rest.terms)
            power = _RefSeries.from_scalar(ONE, rel)
            k = 1
            while k * delta < rel:
                power = power * rest
                if not power.terms:
                    break
                geom = geom + (power if k % 2 == 0 else -power)
                k += 1
        return _RefSeries({-a: c.inv()}, None) * geom

    def sqrt(self, precision=None):
        if not self.terms:
            if self.precision is None:
                return _RefSeries({}, None)
            raise InsufficientPrecision("square root of an unresolved zero")
        root_c = field_sqrt(self.leading()[1])
        if root_c is None:
            raise NoRoot("leading coefficient has no square root in the field")
        a, _, rest, rel = self._split_leading(precision)
        acc = _RefSeries.from_scalar(ONE, rel)
        if rest.terms:
            delta = min(rest.terms)
            power = _RefSeries.from_scalar(ONE, rel)
            coeff = Fraction(1)
            k = 1
            while k * delta < rel:
                power = power * rest
                if not power.terms:
                    break
                coeff = coeff * (Fraction(1, 2) - (k - 1)) / k
                acc = acc + power * FieldElem(coeff)
                k += 1
        result = _RefSeries({a / 2: root_c}, None) * acc
        if result.precision is None and not _same(result * result, self):
            raise NoRoot("series has no square root in the field")
        return result

    def pow(self, exponent, precision=None):
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
        out = _RefSeries.from_scalar(ONE)
        for _ in range(k):
            out = out * base
        return out


def _ref_coerce(x):
    return x if isinstance(x, _RefSeries) else _RefSeries.from_scalar(x)


def _same(x, y):
    return x.terms == y.terms and x.precision == y.precision


def _ref_series_solve(matrix, rhs, precision=None):
    n = len(matrix)
    width = len(rhs[0]) if rhs else 0
    aug = [list(a) + list(b) for a, b in zip(matrix, rhs)]
    for c in range(n):
        best = best_val = None
        for k in range(c, n):
            if aug[k][c].terms:
                v = aug[k][c].leading()[0]
                if best_val is None or v < best_val:
                    best, best_val = k, v
        if best is None:
            if any(aug[k][c].precision is not None for k in range(c, n)):
                raise InsufficientPrecision(f"no pivot in column {c}")
            raise SingularMatrix(f"no pivot in column {c}")
        aug[c], aug[best] = aug[best], aug[c]
        pivot_inv = aug[c][c].inv(precision)
        aug[c] = [x * pivot_inv for x in aug[c]]
        for k in range(n):
            if k != c and not aug[k][c].is_zero():
                factor = aug[k][c]
                aug[k] = [a - factor * b for a, b in zip(aug[k], aug[c])]
    return [row[n:n + width] for row in aug]


_PRECISIONS = (None, Fraction(1, 2), Fraction(1), Fraction(8))


def _rand_terms(rng):
    """Seeded terms with exponent denominators 1, 2 and 4; a quarter of
    them empty (an exact zero, or an unresolved one under a precision)."""
    if rng.random() < 0.25:
        return {}
    terms = {}
    for _ in range(rng.randint(1, 3)):
        coeff = rand_elem(rng, 3)
        if rng.random() < 0.3:
            coeff = coeff * coeff       # a leading square lets sqrt go on
        terms[Fraction(rng.randint(-4, 8), rng.choice((1, 2, 4)))] = coeff
    return terms


def _rand_pair(rng):
    """The same seeded series as a PuiseuxSeries and as a _RefSeries."""
    terms, precision = _rand_terms(rng), rng.choice(_PRECISIONS)
    return PuiseuxSeries(terms, precision), _RefSeries(terms, precision)


def _outcome(fn):
    try:
        return fn()
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


def _assert_matches(got, want):
    """Equal terms and precision, or the same exception class; keys and the
    precision in canonical form."""
    if isinstance(want, type):
        assert got is want
        return
    assert isinstance(got, PuiseuxSeries)
    assert got.terms == want.terms and got.precision == want.precision
    for e in list(got.terms) + [got.precision]:
        if e is not None:
            assert type(e) in (int, Fraction)
            assert (type(e) is int) == (Fraction(e).denominator == 1)


def test_seeded_arithmetic_matches_fraction_keyed_oracle(rng):
    powers = [Fraction(k) for k in (-2, -1, 0, 1, 2, 3)] + \
        [Fraction(k, 2) for k in (-3, -1, 1, 3)] + [Fraction(3, 4)]
    for _ in range(600):
        (x, rx), (y, ry) = _rand_pair(rng), _rand_pair(rng)
        budget = rng.choice(_PRECISIONS + (Fraction(3),))
        power = rng.choice(powers)
        checks = [
            (lambda: x + y, lambda: rx + ry),
            (lambda: x - y, lambda: rx - ry),
            (lambda: x * y, lambda: rx * ry),
            (lambda: -x, lambda: -rx),
            (lambda: x.inv(budget), lambda: rx.inv(budget)),
            (lambda: x.sqrt(budget), lambda: rx.sqrt(budget)),
            (lambda: x.pow(power, budget), lambda: rx.pow(power, budget)),
        ]
        for new, ref in checks:
            _assert_matches(_outcome(new), _outcome(ref))


def _rand_solve_case(rng):
    """A seeded sparse series system: most off-diagonal entries exact
    zeros, some truncated or unresolved zeros, and right-hand sides with
    exact FieldElem entries as a basis change passes them."""
    size = rng.randint(1, 4)
    new, ref = [], []
    for r in range(size + 1):     # the last row holds the right-hand sides
        row_new, row_ref = [], []
        for c in range(size if r < size else 2 * size):
            if r == size and rng.random() < 0.4:
                x = rand_elem(rng, 3) if rng.random() < 0.5 else FieldElem(0)
                row_new.append(x)
                row_ref.append(x)
                continue
            if r != c and rng.random() < 0.6:
                terms, precision = {}, None
            else:
                terms, precision = _rand_terms(rng), rng.choice(_PRECISIONS)
            row_new.append(PuiseuxSeries(terms, precision))
            row_ref.append(_RefSeries(terms, precision))
        new.append(row_new)
        ref.append(row_ref)
    rhs_new = [new[-1][k::size] for k in range(size)]
    rhs_ref = [ref[-1][k::size] for k in range(size)]
    return new[:-1], rhs_new, ref[:-1], rhs_ref


def test_seeded_series_solve_matches_former_solver(rng):
    solved = 0
    for _ in range(400):
        a, b, ra, rb = _rand_solve_case(rng)
        budget = rng.choice(_PRECISIONS)
        got = _outcome(lambda: series_solve(a, b, budget))
        want = _outcome(lambda: _ref_series_solve(ra, rb, budget))
        if isinstance(want, type):
            assert got is want
            continue
        solved += 1
        assert len(got) == len(want)
        for row, ref_row in zip(got, want):
            assert len(row) == len(ref_row)
            for x, rx in zip(row, ref_row):
                _assert_matches(x, rx)
    assert solved >= 100


def test_float_exponents_and_precisions_are_refused():
    with pytest.raises(TypeError):
        PuiseuxSeries({0.1: ONE})
    with pytest.raises(TypeError):
        PuiseuxSeries({Fraction(1): ONE}, 0.75)
    with pytest.raises(TypeError):
        PuiseuxSeries.from_scalar(ONE, 0.5)
    with pytest.raises(TypeError):
        PuiseuxSeries.t_power(0.5)
    with pytest.raises(TypeError):
        t_pow(1).coeff(0.5)
    with pytest.raises(TypeError):
        PuiseuxSeries({0: ONE, 1: ONE}).inv(2.0)


def test_exponents_are_int_when_integral():
    s = PuiseuxSeries({Fraction(2): ONE, Fraction(1, 2): ONE, "3/3": R2},
                      Fraction(8))
    assert [type(e) for e in sorted(s.terms)] == [Fraction, int, int]
    assert type(s.precision) is int
    sq = PuiseuxSeries({Fraction(1, 2): ONE}) * PuiseuxSeries(
        {Fraction(3, 2): ONE})
    assert list(sq.terms) == [2] and type(next(iter(sq.terms))) is int
    assert t_pow(1, 4).sqrt() == PuiseuxSeries({Fraction(1, 2): FieldElem(2)})


_EXPONENTS = [Fraction(k) for k in (-2, -1, 0, 1, 2, 3)] + \
    [Fraction(k, 2) for k in (-3, -1, 1, 3, 5)]
_COEFFS = (ONE, -ONE, FieldElem(2), I, R2, I * R2, ONE + I, ONE - R2)


def _rand_operand(rng):
    """A seeded operand: one exact term c*t^a (the one-term paths), exact
    sums, truncated series, unresolved and exact zeros, and plain FieldElem
    and int scalars; coefficients mix i and sqrt2."""
    coeff = lambda: rng.choice(_COEFFS) if rng.random() < 0.5 \
        else rand_elem(rng, 3)
    kind = rng.choice(("term", "term", "term", "sum", "truncated",
                       "unresolved", "zero", "field", "int"))
    if kind == "field":
        return coeff() if rng.random() < 0.9 else FieldElem(0)
    if kind == "int":
        return rng.randint(-3, 3)
    if kind == "zero":
        return PuiseuxSeries({})
    if kind == "unresolved":
        return PuiseuxSeries({}, rng.choice(_EXPONENTS[3:]))
    terms = {rng.choice(_EXPONENTS): coeff()
             for _ in range(1 if kind == "term" else rng.randint(2, 3))}
    precision = None
    if kind == "truncated":
        precision = max(terms) + rng.choice((Fraction(1, 2), 1, 2))
    return PuiseuxSeries(terms, precision)


def _ref(x):
    """A series operand as a _RefSeries; a scalar stays a scalar."""
    return _RefSeries(x.terms, x.precision) \
        if isinstance(x, PuiseuxSeries) else x


def test_one_term_paths_match_fraction_keyed_oracle(rng):
    one_term = 0
    for _ in range(3000):
        x, y = _rand_operand(rng), _rand_operand(rng)
        if not isinstance(x, PuiseuxSeries):
            x, y = y, x
        if not isinstance(x, PuiseuxSeries):
            continue
        rx, ry = _ref(x), _ref(y)
        budget = rng.choice(_PRECISIONS + (Fraction(3),))
        checks = [(lambda: x * y, lambda: rx * ry),
                  (lambda: y * x, lambda: ry * rx),
                  (lambda: x.inv(budget), lambda: rx.inv(budget))]
        if isinstance(y, PuiseuxSeries):
            checks.append((lambda: y.inv(budget), lambda: ry.inv(budget)))
        for new, ref in checks:
            _assert_matches(_outcome(new), _outcome(ref))
        one_term += any(isinstance(s, FieldElem) or (
            isinstance(s, PuiseuxSeries) and s.precision is None
            and len(s.terms) == 1) for s in (x, y))
    assert one_term >= 1000


def test_pow_by_squaring_matches_repeated_products(rng):
    """`pow` squares; the oracle multiplies k times.  Both give the same
    terms and precision, or the same exception, on seeded exact, truncated
    and zero series with numerators -3..9 over 1, 2 and 4."""
    for _ in range(3000):
        x = _rand_operand(rng)
        if not isinstance(x, PuiseuxSeries):
            x = PuiseuxSeries.from_scalar(x)
        exponent = Fraction(rng.randint(-3, 9), rng.choice((1, 1, 1, 2, 4)))
        budget = rng.choice(_PRECISIONS + (Fraction(3),))
        _assert_matches(_outcome(lambda: x.pow(exponent, budget)),
                        _outcome(lambda: _ref(x).pow(exponent, budget)))
    # 10^8 products before; about 27 squares and 12 products now
    assert t_pow(1).pow(10**8) == t_pow(10**8)
    assert t_pow(-1, -1).pow(-10**8 - 1) == t_pow(10**8 + 1, -1)
