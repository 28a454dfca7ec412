from fractions import Fraction

import pytest

from superlie import catalog, orbitrel
from superlie.orbitrel import (DegenerationWitness, Failed, Inconclusive,
                               auto_nondegen, build_hasse, components,
                               discrepancy_report, to_dot, verify_degeneration,
                               verify_builtin_witnesses)
from superlie.series import InsufficientPrecision


def test_all_builtin_witnesses_verify():
    results = verify_builtin_witnesses()
    assert len(results) == 117
    bad = [r for r in results if not r.ok]
    assert bad == []


def test_witness_cache_is_keyed_by_precision(monkeypatch):
    monkeypatch.delenv("SUPERLIE_PRECISION", raising=False)
    default = verify_builtin_witnesses("(2|3)")
    with pytest.raises(InsufficientPrecision):
        verify_builtin_witnesses("(2|3)", precision=Fraction(1, 2))
    # the default is resolved before the lookup: an explicit 8 shares its
    # entries, and a changed environment variable does not
    explicit = verify_builtin_witnesses("(2|3)", precision=Fraction(8))
    assert all(a is b for a, b in zip(default, explicit, strict=True))
    monkeypatch.setenv("SUPERLIE_PRECISION", "1/2")
    with pytest.raises(InsufficientPrecision):
        verify_builtin_witnesses("(2|3)")


def test_witness_wrong_limit_detected():
    w = DegenerationWitness("(1|2)_2", "(1|2)_1", {"y1": "t*f1"})
    res = verify_degeneration(w)
    assert isinstance(res, Failed)
    assert res.reason in ("WrongLimit", "SingularBasis")


def test_witness_singular_basis_detected():
    w = DegenerationWitness("(1|2)_2", "(1|2)_1",
                            {"y1": "f1", "y2": "f1"})
    res = verify_degeneration(w)
    assert isinstance(res, Failed)
    assert res.reason == "SingularBasis"


def test_witness_diverges_detected():
    w = DegenerationWitness("(1|2)_2", "(1|2)_2", {"y1": "t^(-1)*f1"})
    res = verify_degeneration(w)
    assert isinstance(res, Failed)
    assert res.reason in ("Diverges", "WrongLimit")


def test_nested_radical_witnesses():
    rows = [w for w in catalog.witnesses("(2|3)")
            if w["from"] == "(2|3)_6" and w["to"] in ("(2|3)_10", "(2|3)_11")]
    assert len(rows) == 2
    for row in rows:
        assert verify_degeneration(row).ok


def test_auto_nondegen_spec_pairs():
    certs = auto_nondegen("(1|2)_2", "(1|2)_3")
    assert isinstance(certs, list) and certs
    assert any(c.criterion == "derived" for c in certs)

    certs = auto_nondegen("(1|3)_1", "(1|3)_3")
    assert isinstance(certs, list) and certs
    assert any(c.criterion == "gamma_zero" for c in certs)


def test_auto_nondegen_undecided_pairs():
    # pairs whose separation no implemented invariant decides
    for g, h in (("(2|3)_7", "(2|3)_2"), ("(2|3)_10", "(2|3)_11"),
                 ("(2|3)_10", "(2|3)_5")):
        assert isinstance(auto_nondegen(g, h), Inconclusive)


def test_hasse_dim3():
    diagram = build_hasse((1, 2))
    assert set(diagram.edges) == {("(1|2)_2", "(1|2)_1"),
                                  ("(1|2)_1", "(1|2)_0"),
                                  ("(1|2)_3", "(1|2)_0")}
    dot = to_dot(diagram)
    assert dot.count("->") == 3
    assert diagram.failed_witnesses == []


def test_hasse_dim2():
    diagram = build_hasse((1, 1))
    assert diagram.edges == [("(1|1)_1", "(1|1)_0")]
    assert build_hasse((0, 3)).edges == []
    assert build_hasse((2, 0)).edges == []


def test_orbit_dim_strictly_decreases_along_edges():
    for dim in ((1, 2), (2, 2), (1, 3)):
        diagram = build_hasse(dim)
        for frm, to in diagram.edges:
            assert diagram.orbit_dims[frm] > diagram.orbit_dims[to]


def test_components_families():
    exp = catalog.expected()["components"]
    for key in ("(1|2)", "(2|2)", "(1|3)"):
        assert sorted(components(key)) == sorted(exp[key])


def test_discrepancy_report_low_dims_empty():
    for dim in (2, 3, 4):
        assert discrepancy_report(dim) == []


def test_discrepancy_report_case_iii_all_known():
    report = discrepancy_report("(2|3)")
    assert len(report) == 9
    assert all(r["known"] for r in report)
    statuses = {(r["row"]["from"], r["row"]["to"]): r.get("status")
                for r in report}
    assert statuses[("(2|3)_19", "(2|3)_2")] == "refuted"
    assert statuses[("(2|3)_22", "(2|3)_21")] == "refuted"
    assert statuses[("(2|3)_7", "(2|3)_2")] == "unconfirmed"
    assert statuses[("(2|3)_4", "(2|3)_3")] == "alternative"
    # rows with an alternative certificate actually list one
    for r in report:
        if r.get("status") == "alternative":
            assert r["alternatives"]


def test_refutation_bases_verify():
    """Rows recorded as refuted by an explicit degeneration really degenerate."""
    for row in catalog.expected()["known_discrepancies"]:
        if "refutation_basis" in row:
            w = DegenerationWitness(row["from"], row["to"],
                                    row["refutation_basis"])
            assert verify_degeneration(w).ok, (row["from"], row["to"])


def test_refuted_transitivity_rows_have_witness_paths():
    diagram = build_hasse((2, 3))
    assert "(2|3)_2" in diagram.closure["(2|3)_19"]
    assert "(2|3)_21" in diagram.closure["(2|3)_22"]


def test_verified_pairs_satisfy_necessary_conditions():
    """Every verified witness pair passes every implemented necessary
    condition (no certificate of non-degeneration exists for it)."""
    for row in catalog.witnesses():
        certs = auto_nondegen(row["from"], row["to"])
        assert isinstance(certs, Inconclusive), \
            (row["from"], row["to"],
             [c.describe() for c in certs] if isinstance(certs, list) else [])
