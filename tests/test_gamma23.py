import random

from superlie import catalog, gamma23, invariants
from superlie.algebra import SuperAlgebra
from superlie.field import FieldElem, format_elem
from superlie.gamma23 import (REPRESENTATIVES, classify_pair, pair_act,
                              pencil_signature, random_gl, sym_normal_form)

from conftest import dense_views


def test_twelve_distinct_labels():
    assert len(REPRESENTATIVES) == 12
    assert {classify_pair(p) for p in REPRESENTATIVES.values()} == \
        set(REPRESENTATIVES)


def test_signatures_distinct():
    sigs = {label: pencil_signature(pair)
            for label, pair in REPRESENTATIVES.items()}
    assert len(set(sigs.values())) == 12


def test_seeded_group_actions_preserve_label():
    rng = random.Random(20260823)
    mismatches = []
    for label, pair in REPRESENTATIVES.items():
        for _ in range(200):
            T = random_gl(2, rng)
            S = random_gl(3, rng)
            if classify_pair(pair_act(T, S, pair)) != label:
                mismatches.append(label)
    assert mismatches == []


def ref_simdiag(pair):
    """simdiag_test as it was before it took the pencil's span dimension and
    member ranks from pencil_signature: everything recomputed, invertible
    members found by det."""
    from superlie.linalg import det, inv, mat_mul, rank, transpose
    g1, g2 = pair
    if rank(g1) <= 1 and rank(g2) <= 1:
        return True
    if gamma23._span_dim(pair) <= 1:
        return True
    for member, other in [(gamma23._add(gamma23._scale(g1, FieldElem(lam)),
                                        g2), g1)
                          for lam in gamma23.PROBES] + [(g1, g2)]:
        if not det(member).is_zero():
            return gamma23._is_diagonalizable(mat_mul(inv(member), other))
    comp = gamma23._kernel_complement(pair)
    if comp is None:
        return False
    ct = transpose(comp)
    return ref_simdiag((mat_mul(ct, mat_mul(g1, comp)),
                        mat_mul(ct, mat_mul(g2, comp))))


def test_simdiag_with_pencil_data_matches_reference():
    """pencil_signature hands its span dimension and member ranks to
    simdiag_test; the verdict is the one computed from scratch."""
    rng = random.Random(20260823)

    def rand_sym():
        # a sum of 0-3 rank-one forms v v^t with small integer entries
        mat = [[FieldElem(0)] * 3 for _ in range(3)]
        for _ in range(rng.randint(0, 3)):
            v = [FieldElem(rng.randint(-2, 2)) for _ in range(3)]
            mat = [[mat[r][c] + v[r] * v[c] for c in range(3)]
                   for r in range(3)]
        return mat

    pairs = list(REPRESENTATIVES.values())
    pairs += [pair_act(random_gl(2, rng), random_gl(3, rng), p)
              for p in REPRESENTATIVES.values() for _ in range(5)]
    pairs += [(rand_sym(), rand_sym()) for _ in range(300)]
    verdicts = set()
    for pair in pairs:
        want = ref_simdiag(pair)
        assert pencil_signature(pair).simdiag == want
        assert gamma23.simdiag_test(pair) == want
        verdicts.add(want)
    assert verdicts == {True, False}


def pair_to_algebra(pair):
    """Assemble the gamma-only (2|3) superalgebra of a symmetric pair."""
    g1, g2 = pair
    brackets = []
    for j in range(3):
        for k in range(j, 3):
            value = []
            if not g1[j][k].is_zero():
                value.append({"coeff": format_elem(g1[j][k]), "basis": "e1"})
            if not g2[j][k].is_zero():
                value.append({"coeff": format_elem(g2[j][k]), "basis": "e2"})
            if value:
                brackets.append({"lhs": f"f{j + 1}", "rhs": f"f{k + 1}",
                                 "value": value})
    return SuperAlgebra.from_doc({"name": "pair", "m": 2, "n": 3,
                                  "brackets": brackets})


def test_representatives_match_catalog_fingerprints():
    """Each representative, assembled as a superalgebra, agrees with the
    catalog entry of the same index in every computed invariant."""
    for label, pair in REPRESENTATIVES.items():
        index = int(label.split("_")[1])
        entry = catalog.get(f"(2|3)_{index}")
        built = pair_to_algebra(pair)
        cat = entry.algebra.ab()  # gamma-only part of the catalog algebra
        assert invariants.center(built)[0] == invariants.center(cat)[0], label
        assert invariants.derived(built) == invariants.derived(cat), label
        assert invariants.orbit_dim(built) == invariants.orbit_dim(cat), label
        # and the catalog gamma classifies back to the same label
        gamma = dense_views(cat)[2]
        K = [[gamma[j][k][0] for k in range(3)] for j in range(3)]
        L = [[gamma[j][k][1] for k in range(3)] for j in range(3)]
        assert classify_pair((K, L)) == label


def test_sym_normal_form_diagonalizable():
    a = [[FieldElem(2), FieldElem(0), FieldElem(0)],
         [FieldElem(0), FieldElem(0), FieldElem(1)],
         [FieldElem(0), FieldElem(1), FieldElem(0)]]
    res = sym_normal_form(a)
    assert res is not gamma23.UNSUPPORTED
    assert res["kind"] == "diagonal"
