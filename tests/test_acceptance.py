"""Acceptance suite: the nine binding criteria.

Every assertion uses exact arithmetic (tolerance = exact equality).  A few
values printed in the source tables are contradicted by exact computation;
expected.json records each of them under known_h2_discrepancies,
known_cocycle_discrepancies or known_orbit_dim_discrepancies, next to the
computed value.  For those labels the tests assert three things: the source
value is still held verbatim, the recorded value really differs from it (or,
for a cocycle, the printed entry really fails), and the program gives the
recorded value.  Every other label is checked against the source value.
"""

import random
import time
from fractions import Fraction

import pytest

from superlie import catalog, cohomology, gamma23, invariants, orbitrel
from superlie.algebra import integral_table
from superlie.catalog import K2m, heisenberg_1n
from superlie.field import FieldElem, format_elem, parse_elem
from superlie.linalg import rank
from superlie.series import PuiseuxSeries, format_series

from conftest import dense, dense_views, rand_elem


# -- criterion 1: catalog integrity -------------------------------------------------


def test_c1_catalog_axioms_fast():
    entries = catalog.list_entries()
    assert len(entries) == 99
    algebras = [e.algebra for e in entries]  # construction is not timed
    start = time.monotonic()
    for g in algebras:
        assert g.check_consistency() == []
        assert g.check_jacobi() == []
        assert g.is_nilpotent()
    assert time.monotonic() - start < 5.0


# -- criterion 2: cohomology regression (source values, exact) ----------------------

H2_SOURCE = {
    "(1|1)_1": 0, "(2|1)_1": 1, "(1|2)_3": 2, "(1|2)_2": 0, "(3|1)_3": 4,
    "(2|2)_1": 0, "(2|2)_6": 4, "(1|3)_1": 4, "(1|3)_5": 0, "(4|1)_6": 3,
    "(1|4)_7": 4, "(1|4)_4": 0, "(3|2)_5": 0, "(3|2)_13": 0, "(2|3)_6": 0,
    "(2|3)_18": 2, "(2|3)_19": 2, "(2|3)_23": 2, "(2|3)_24": 6,
}


@pytest.mark.parametrize("label", sorted(H2_SOURCE))
def test_c2_h2_dims(label):
    exp = catalog.expected()
    want = H2_SOURCE[label]
    assert exp["h2_dims"][label] == want
    known = exp["known_h2_discrepancies"]
    if label in known:
        assert known[label] != want
        want = known[label]
    got = cohomology.h2_even(catalog.get(label).algebra)["dim"]
    assert got == want


@pytest.mark.parametrize("label", sorted(catalog.expected()["cocycles"]))
def test_c2_listed_cocycles_validate(label):
    exp = catalog.expected()
    g = catalog.get(label).algebra
    # a spanning set of B^2, built and ranked once for this algebra
    coboundaries = dense(
        invariants._derivation_images(g, integral_table(g), 1, 1, 1, 0),
        cohomology.cochain_dim(g.m, g.n))
    b_rank = rank(coboundaries)

    def independent_mod_coboundaries(phis):
        vs = [list(p.vec) for p in phis]
        return rank(coboundaries + vs) == b_rank + len(vs)

    texts = exp["cocycles"][label]
    fixes = exp["known_cocycle_discrepancies"].get(label, {})
    for verbatim in fixes:
        # the printed entry is still listed, and fails as printed: it is
        # not a cocycle, or it is a coboundary
        assert verbatim in texts
        bad = cohomology.parse_cocycle(verbatim, g.m, g.n)
        assert (not cohomology.is_cocycle(g, bad)
                or not independent_mod_coboundaries([bad]))
    phis = [cohomology.parse_cocycle(fixes.get(t, t), g.m, g.n)
            for t in texts]
    assert all(cohomology.is_cocycle(g, p) for p in phis)
    h2 = exp["known_h2_discrepancies"].get(label, exp["h2_dims"][label])
    if len(phis) > h2:
        # more cocycles listed than H^2 has room for: the first h2 span it
        assert independent_mod_coboundaries(phis[:h2])
        assert not independent_mod_coboundaries(phis)
    else:
        assert independent_mod_coboundaries(phis)


# -- criterion 3: orbit dimensions --------------------------------------------------


def test_c3_orbit_dim_spot_values():
    table = catalog.expected()["orbit_dims"]
    assert table["(1|1)_1"] == 1
    assert table["(3|0)_1"] == 3
    assert table["(4|1)_6"] == 10
    assert table["(5|0)_3"] == 17
    assert table["(3|2)_5"] == 9


@pytest.mark.parametrize("label", sorted(catalog.expected()["orbit_dims"]))
def test_c3_orbit_dims_match_diagrams(label):
    # the diagram level is the orbit dimension, except at the six levels
    # recorded in known_orbit_dim_discrepancies: there the recorded table
    # value must still equal the level, and the computed value applies
    exp = catalog.expected()
    want = exp["orbit_dims"][label]
    known = exp["known_orbit_dim_discrepancies"]
    if label in known:
        assert known[label]["table"] == want
        assert known[label]["computed"] != want
        want = known[label]["computed"]
    assert invariants.orbit_dim(catalog.get(label).algebra) == want


# -- criterion 4: degeneration witnesses --------------------------------------------


def test_c4_all_witness_rows_verify_fast():
    start = time.monotonic()
    results = orbitrel.verify_builtin_witnesses()
    elapsed = time.monotonic() - start
    bad = [(r.witness.from_name, r.witness.to_name, r.reason)
           for r in results if not r.ok]
    assert bad == []
    assert elapsed < 30.0


# -- criterion 5: non-degeneration tables -------------------------------------------


def test_c5_low_dim_reports_empty():
    for dim in (2, 3, 4):
        assert orbitrel.discrepancy_report(dim) == []


def test_c5_every_row_certifies_or_is_reported():
    report = orbitrel.discrepancy_report()
    reported = {(r["row"]["from"], r["row"]["to"], r["row"]["criterion"])
                for r in report}
    # rows outside the report had their cited criterion re-certified by
    # discrepancy_report itself; reported rows must carry an alternative
    # certificate or an explicit unconfirmed/refuted flag
    for r in report:
        assert r["alternatives"] or r.get("status") in ("unconfirmed",
                                                        "refuted"), r
    # Case III: only rows flagged "known" in expected.json may appear
    for r in report:
        assert r["known"], r
    assert len(reported) == len(report)


# -- criterion 6: components --------------------------------------------------------


@pytest.mark.parametrize("key,count", [
    ("(1|2)", 2), ("(2|2)", 2), ("(1|3)", 2), ("(1|4)", 2), ("(3|2)", 2),
    ("(2|3)", 5), ("(2|0)", 1), ("(1|1)", 1), ("(0|2)", 1), ("(3|0)", 1),
    ("(2|1)", 1), ("(0|3)", 1), ("(4|0)", 1), ("(3|1)", 1), ("(0|4)", 1),
    ("(5|0)", 1), ("(4|1)", 1), ("(0|5)", 1),
])
def test_c6_components(key, count):
    res = orbitrel.component_analysis(key)
    got = sorted(res["components"])
    assert got == sorted(catalog.expected()["components"][key])
    assert len(got) == count
    assert res["warnings"] == []


# -- criterion 7: gamma23 -----------------------------------------------------------


def test_c7_gamma23_representatives_and_actions():
    reps = gamma23.REPRESENTATIVES
    assert len(reps) == 12
    assert {gamma23.classify_pair(p) for p in reps.values()} == set(reps)
    rng = random.Random(20260823)
    mismatches = 0
    total = 0
    for label, pair in reps.items():
        for _ in range(200):
            T = gamma23.random_gl(2, rng)
            S = gamma23.random_gl(3, rng)
            if gamma23.classify_pair(gamma23.pair_act(T, S, pair)) != label:
                mismatches += 1
            total += 1
    assert total == 2400
    assert mismatches == 0


def test_c7_representatives_match_catalog_fingerprints():
    for label in gamma23.REPRESENTATIVES:
        g = catalog.get(label).algebra.ab()
        gamma = dense_views(g)[2]
        K = [[gamma[j][k][0] for k in range(3)] for j in range(3)]
        L = [[gamma[j][k][1] for k in range(3)] for j in range(3)]
        assert gamma23.classify_pair((K, L)) == label


# -- criterion 8: rigid families ----------------------------------------------------


def test_c8_heisenberg_rigid_1_to_6():
    for n in range(1, 7):
        assert cohomology.h2_even(heisenberg_1n(n))["dim"] == 0


def test_c8_k2m():
    """K(2|m) for every odd m from 3 to 25 is a nilpotent superalgebra with
    dim H^2 = (m + 1)/2 and orbit dimension (2m^2 - m + 3)/2, that is
    dim Der_0 = (m + 5)/2."""
    dims = {}
    for m in range(3, 26, 2):
        g = K2m(m)
        assert g.check_consistency() == []
        assert g.check_jacobi() == []
        assert g.is_nilpotent()
        assert cohomology.h2_even(g)["dim"] == (m + 1) // 2, m
        dims[m] = invariants.orbit_dim(g)
        assert dims[m] == (2 * m * m - m + 3) // 2, m
    assert list(dims.values()) == [9, 24, 47, 78, 117, 164, 219, 282, 353,
                                   432, 519, 614]


# -- criterion 9: seeded property suites --------------------------------------------


def test_c9_field_series_parser_roundtrips(rng):
    for _ in range(1000):
        x = rand_elem(rng)
        assert parse_elem(format_elem(x)) == x
        y, z = rand_elem(rng), rand_elem(rng)
        assert x * (y + z) == x * y + x * z
    from superlie.exprlang import evaluate
    for _ in range(1000):
        num = rng.randint(-99, 99)
        den = rng.randint(1, 99)
        expo = Fraction(rng.randint(-6, 6), rng.choice((1, 2, 4)))
        s = evaluate(f"{num}/{den}*t^({expo})")
        assert evaluate(format_series(s)) == s
        assert s.coeff(expo) == FieldElem(Fraction(num, den))
    for _ in range(1000):
        a = PuiseuxSeries({Fraction(rng.randint(-3, 6)): rand_elem(rng)})
        b = PuiseuxSeries({Fraction(rng.randint(-3, 6), 2): rand_elem(rng)})
        assert (a + b) - b == a
        assert a * b == b * a


def test_c9_d2_after_d1_zero_everywhere(rng):
    for entry in catalog.list_entries():
        g = entry.algebra
        A = [[FieldElem(rng.randint(-2, 2)) for _ in range(g.m)]
             for _ in range(g.m)]
        D = [[FieldElem(rng.randint(-2, 2)) for _ in range(g.n)]
             for _ in range(g.n)]
        assert cohomology.is_cocycle(g, cohomology.d1(g, A, D)), entry.label


def test_c9_invariance_under_basis_changes(rng):
    small = [e for e in catalog.list_entries() if 1 <= e.m and 1 <= e.n
             and e.m + e.n <= 4]
    base = {e.label: (invariants.center(e.algebra)[0],
                      invariants.derived(e.algebra),
                      cohomology.h2_even(e.algebra)["dim"])
            for e in small}
    for case in range(200):
        entry = small[case % len(small)]
        g = entry.algebra
        T = gamma23.random_gl(g.m, rng)
        S = gamma23.random_gl(g.n, rng)
        moved = g.apply_basis_change(T, S)
        center_dims, derived_dims, h2_dim = base[entry.label]
        assert invariants.center(moved)[0] == center_dims
        assert invariants.derived(moved) == derived_dims
        assert cohomology.h2_even(moved)["dim"] == h2_dim


def test_c9_verified_pairs_pass_necessary_conditions():
    for row in catalog.witnesses():
        res = orbitrel.auto_nondegen(row["from"], row["to"])
        assert isinstance(res, orbitrel.Inconclusive), \
            (row["from"], row["to"])
