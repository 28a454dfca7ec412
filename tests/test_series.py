from fractions import Fraction

import pytest

from superlie.field import FieldElem, format_elem
from superlie.series import (Diverges, InsufficientPrecision, NoRoot,
                             NotInvertible, PuiseuxSeries, format_series,
                             parse_precision, working_precision)

from conftest import rand_elem

ONE = FieldElem(1)
R2 = FieldElem(0, 0, 1)


def t_pow(e, c=1):
    return PuiseuxSeries({Fraction(e): FieldElem(c)})


def test_default_precision_is_8(monkeypatch):
    monkeypatch.delenv("SUPERLIE_PRECISION", raising=False)
    assert working_precision() == 8


def test_precision_env_override(monkeypatch):
    monkeypatch.setenv("SUPERLIE_PRECISION", "12")
    assert working_precision() == 12


@pytest.mark.parametrize("text", ["0", "-1", "abc", "", "1/0"])
def test_precision_must_be_positive_rational(monkeypatch, text):
    with pytest.raises(ValueError, match="positive rational"):
        parse_precision(text)
    monkeypatch.setenv("SUPERLIE_PRECISION", text)
    with pytest.raises(ValueError, match="positive rational"):
        working_precision()


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
    parts = []
    for e in sorted(s.terms):
        c = s.terms[e]
        txt = format_elem(c)
        if e != 0:
            mono = "t" if e == 1 else f"t^({e})"
            if txt == "1":
                txt = mono
            elif txt == "-1":
                txt = f"-{mono}"
            else:
                if "+" in txt.strip("+-") or " - " in txt:
                    txt = f"({txt})*{mono}"
                else:
                    txt = f"{txt}*{mono}"
        parts.append(txt)
    body = " + ".join(parts).replace("+ -", "- ") if parts else "0"
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
