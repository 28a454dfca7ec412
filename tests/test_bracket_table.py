"""Each computation builds an algebra's bracket table once and passes it
down; a passed table gives the same results as one built on the spot."""

from fractions import Fraction

import pytest

from superlie import catalog, orbitrel
from superlie.algebra import SuperAlgebra
from superlie.cohomology import Cochain2Even, cochain_dim, d1, d2, h2_even
from superlie.field import FieldElem, ZERO
from superlie.invariants import (ABC_TUPLES, abc_derivations, center, derived,
                                 invariant_report, trivial_sub_max)


@pytest.fixture
def table_builds(monkeypatch):
    """The algebras whose `bracket_table()` was built, one per build."""
    builds = []
    build = SuperAlgebra.bracket_table

    def counting(self):
        builds.append(self)
        return build(self)

    monkeypatch.setattr(SuperAlgebra, "bracket_table", counting)
    return builds


def _small():
    return [e.algebra for e in catalog.list_entries() if e.m + e.n <= 4]


def test_h2_even_builds_one_table(table_builds):
    for g in _small():
        table_builds.clear()
        h2_even(g)
        assert table_builds == [g], g.name


def test_invariant_report_builds_one_table(table_builds):
    for label in ("(2|2)_3", "(1|3)_2", "(2|3)_6"):
        g = catalog.get(label).algebra
        table_builds.clear()
        invariant_report(g)
        assert table_builds == [g], label


def test_component_analysis_builds_one_table_per_algebra(table_builds,
                                                         monkeypatch):
    """Each distinct algebra's table is built exactly once, however many
    derivation paths (label, label.ab, label.F.ab, ...) reach it."""
    monkeypatch.setattr(orbitrel, "_MEMO", {})
    orbitrel.component_analysis("(2|2)")
    built = [(g.m, g.n, tuple(g.consts.items())) for g in table_builds]
    assert built and len(built) == len(set(built))


def _scalar(rng):
    if rng.random() < 0.5:
        return ZERO
    return FieldElem(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))


def test_passed_table_gives_the_same_results(rng):
    cases = []
    for g in _small():
        cases += [g, g.ab(), g.forget_gamma()]
    for g in cases:
        br = g.bracket_table()
        assert center(g, br) == center(g), g.name
        assert derived(g, br) == derived(g), g.name
        for tup in ABC_TUPLES:
            for deg in (0, 1):
                assert (abc_derivations(g, *tup, deg, br)
                        == abc_derivations(g, *tup, deg)), g.name
        assert trivial_sub_max(g, br) == trivial_sub_max(g), g.name
        phi = Cochain2Even(g.m, g.n, [_scalar(rng)
                                      for _ in range(cochain_dim(g.m, g.n))])
        assert d2(g, phi, br) == d2(g, phi), g.name
        A = [[_scalar(rng) for _ in range(g.m)] for _ in range(g.m)]
        D = [[_scalar(rng) for _ in range(g.n)] for _ in range(g.n)]
        assert d1(g, A, D, br).vec == d1(g, A, D).vec, g.name


def test_integral_table_is_the_least_integral_multiple(rng):
    """`integral_table` scales a table by the lcm of its denominators: ints
    for a rational algebra with no common factor left over, FieldElems over
    q = 1 for an irrational one, and the same terms in the same places."""
    from math import gcd, lcm
    from superlie.algebra import integral_table
    from conftest import rand_gl
    for e in catalog.list_entries():
        g = e.algebra
        for irrational in (False, True):
            h = g.apply_basis_change(rand_gl(g.m, rng, irrational),
                                     rand_gl(g.n, rng, irrational))
            br = h.bracket_table()
            coeffs = [x for row in br for terms in row for _, x in terms]
            scale = lcm(*(x.q for x in coeffs))
            got = integral_table(br)
            assert ([[[k for k, _ in t] for t in row] for row in got]
                    == [[[k for k, _ in t] for t in row] for row in br])
            flat = [y for row in got for terms in row for _, y in terms]
            assert flat == [x * scale for x in coeffs], h.name
            if all(x.is_rational() for x in coeffs):
                assert all(type(y) is int for y in flat), h.name
                assert not flat or gcd(*flat, scale) == 1, h.name
            else:
                assert all(y.q == 1 for y in flat), h.name
