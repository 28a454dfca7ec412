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


def test_component_analysis_builds_one_table_per_path(table_builds,
                                                      monkeypatch):
    monkeypatch.setattr(orbitrel, "_INV", {})
    orbitrel.component_analysis("(2|2)")
    assert 0 < len(table_builds) <= len(orbitrel._INV)


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
