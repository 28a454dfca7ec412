import pytest

from superlie import catalog
from superlie.algebra import SuperAlgebra
from superlie.catalog import K2m, MEven, NotFound, heisenberg_1n


def test_counts():
    assert len(catalog.labels()) == 99
    by_total = {}
    for e in catalog.list_entries():
        by_total[e.m + e.n] = by_total.get(e.m + e.n, 0) + 1
    assert by_total == {2: 4, 3: 9, 4: 21, 5: 65}


def test_family_lookups():
    assert len(catalog.list_entries("(2|3)")) == 25
    assert len(catalog.list_entries((1, 2))) == 4
    assert len(catalog.list_entries(4)) == 21


def test_not_found():
    with pytest.raises(NotFound):
        catalog.get("(9|9)_1")
    with pytest.raises(NotFound):
        catalog.list_entries("bogus")


def test_witness_and_nondegen_counts():
    assert len(catalog.witnesses()) == 117
    assert len(catalog.nondegen_rows()) == 188
    table = [w for w in catalog.witnesses(3) if w["source"] == "table"]
    assert len(table) == 1
    for w in catalog.witnesses():
        catalog.get(w["from"])
        catalog.get(w["to"])


def test_heisenberg():
    for n in range(1, 7):
        g = heisenberg_1n(n)
        assert (g.m, g.n) == (1, n)
        assert g.check_consistency() == []
        assert g.check_jacobi() == []
        assert g.is_nilpotent()
    with pytest.raises(ValueError):
        heisenberg_1n(0)


def test_k2m():
    for m in (1, 3, 5):
        g = K2m(m)
        assert (g.m, g.n) == (2, m)
        assert g.check_consistency() == []
        assert g.check_jacobi() == []
        assert g.is_nilpotent()
    with pytest.raises(MEven):
        K2m(4)


# the two families as they were once built: a bracket document, read back
# by `from_doc`


def heisenberg_1n_from_doc(n):
    doc = {"name": f"H(1|{n})", "m": 1, "n": n,
           "brackets": [{"lhs": f"f{i}", "rhs": f"f{i}",
                         "value": [{"coeff": "1", "basis": "e1"}]}
                        for i in range(1, n + 1)]}
    return SuperAlgebra.from_doc(doc)


def K2m_from_doc(m):
    brackets = []
    for i in range(1, m):
        brackets.append({"lhs": "e1", "rhs": f"f{i}",
                         "value": [{"coeff": "1", "basis": f"f{i + 1}"}]})
    for j in range(1, (m + 1) // 2 + 1):
        sign = "1" if (j + 1) % 2 == 0 else "-1"
        brackets.append({"lhs": f"f{j}", "rhs": f"f{m + 1 - j}",
                         "value": [{"coeff": sign, "basis": "e2"}]})
    return SuperAlgebra.from_doc({"name": f"K(2|{m})", "m": 2, "n": m,
                                  "brackets": brackets})


def test_families_match_their_documents():
    """K2m and heisenberg_1n, built on the combined basis, equal the
    algebras read from their bracket documents: the same stored pairs and
    coefficients, name and document."""
    for got, want in ([(K2m(m), K2m_from_doc(m)) for m in range(1, 42, 2)]
                      + [(heisenberg_1n(n), heisenberg_1n_from_doc(n))
                         for n in range(1, 11)]):
        assert repr(got.consts) == repr(want.consts), want.name
        assert got.name == want.name
        assert got.to_doc() == want.to_doc()


def test_expected_tables_reference_real_labels():
    exp = catalog.expected()
    for label in exp["orbit_dims"]:
        catalog.get(label)
    for label in exp["h2_dims"]:
        catalog.get(label)
    for key, labels in exp["components"].items():
        for label in labels:
            catalog.get(label)
    # every label has an orbit dim, published or regression
    covered = set(exp["orbit_dims"]) | set(exp["orbit_dims_regression"])
    assert covered == set(catalog.labels())
