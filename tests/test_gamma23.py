import itertools
import random
from fractions import Fraction

from superlie import catalog, gamma23, invariants
from superlie.algebra import SuperAlgebra
from superlie.field import ONE, ZERO, FieldElem, format_elem
from superlie.gamma23 import (REPRESENTATIVES, PencilSignature, classify_pair,
                              pair_act, pencil_signature, random_gl)
from superlie.linalg import det, inv, mat_mul, rank, transpose

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


# -- the probe-and-charpoly classifier, kept as the oracle ---------------------
# It ranks probe members, expands det and every 2x2 minor of the pencil by
# cofactors, and decides simdiag from the characteristic polynomial of
# M^-1 * G for an invertible member M.

PROBES = [Fraction(k) for k in range(7)]


def _form_det(entries):
    """Determinant of a matrix of binary forms (cofactor expansion)."""
    n = len(entries)
    if n == 1:
        return list(entries[0][0])
    total = [ZERO]
    for j in range(n):
        minor = [[entries[r][c] for c in range(n) if c != j]
                 for r in range(1, n)]
        term = gamma23._form_mul(entries[0][j], _form_det(minor))
        total = total + [ZERO] * (len(term) - len(total))
        sign = ONE if j % 2 == 0 else -ONE
        for k, x in enumerate(term):
            total[k] = total[k] + sign * x
    return total


def _pencil_entries(pair):
    g1, g2 = pair
    return [[[g2[i][j], g1[i][j]] for j in range(3)] for i in range(3)]


def _all_minors(entries, size):
    return [_form_det([[entries[r][c] for c in cols] for r in rows])
            for rows in itertools.combinations(range(3), size)
            for cols in itertools.combinations(range(3), size)]


def _probe_members(pair):
    """lam*G1 + G2 for lam in PROBES, then G1."""
    g1, g2 = pair
    return [gamma23._add(gamma23._scale(g1, FieldElem(lam)), g2)
            for lam in PROBES] + [g1]


def _is_diagonalizable(mat):
    """The squarefree part of the characteristic polynomial kills `mat`."""
    n = len(mat)
    charpoly = _form_det([[[-mat[i][j], ONE if i == j else ZERO]
                           for j in range(n)] for i in range(n)])
    gcd = gamma23._poly_gcd(charpoly, gamma23._poly_diff(charpoly))
    squarefree, rest = gamma23._poly_divmod(charpoly, gcd)
    assert not rest
    image = [[ZERO] * n for _ in range(n)]
    power = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for coeff in squarefree:
        image = gamma23._add(image, gamma23._scale(power, coeff))
        power = mat_mul(power, mat)
    return all(x.is_zero() for row in image for x in row)


def ref_simdiag(pair):
    """Simultaneous diagonalizability by congruence, all from scratch: an
    invertible probe member M gives the endomorphism M^-1 * G, and a pencil
    with none is reduced off its common kernel."""
    g1, g2 = pair
    if rank(g1) <= 1 and rank(g2) <= 1:
        return True
    if gamma23._span_dim(pair) <= 1:
        return True
    for member, other in zip(_probe_members(pair), [g1] * len(PROBES) + [g2]):
        if not det(member).is_zero():
            return _is_diagonalizable(mat_mul(inv(member), other))
    comp = gamma23._kernel_complement(gamma23._common_kernel(pair))
    if comp is None:
        return False
    ct = transpose(comp)
    return ref_simdiag((mat_mul(ct, mat_mul(g1, comp)),
                        mat_mul(ct, mat_mul(g2, comp))))


def ref_signature(pair):
    """The six fields from probe ranks and cofactor forms."""
    g1, g2 = pair
    sd = gamma23._span_dim(pair)
    ckd = 3 - rank([list(r) for r in g1] + [list(r) for r in g2])
    entries = _pencil_entries(pair)
    det_roots = gamma23._common_root_count([_form_det(entries)], 3)
    det_count = -1 if det_roots is None else det_roots
    if sd == 0:
        generic, has_rank1 = 0, False
    elif sd == 1:
        generic = rank(g1 if any(not x.is_zero() for r in g1 for x in r)
                       else g2)
        has_rank1 = generic == 1
    else:
        generic = max(rank(m) for m in _probe_members(pair))
        rank1_roots = gamma23._common_root_count(_all_minors(entries, 2), 2)
        has_rank1 = (det_roots is None and rank1_roots is None) or \
            bool(rank1_roots)
    return PencilSignature(sd, ckd, generic, det_count, has_rank1,
                           ref_simdiag(pair))


def rank_one_sum(rng):
    """A sum of 0-3 rank-one forms v v^t with small integer entries."""
    mat = [[ZERO] * 3 for _ in range(3)]
    for _ in range(rng.randint(0, 3)):
        v = [FieldElem(rng.randint(-2, 2)) for _ in range(3)]
        mat = [[mat[r][c] + v[r] * v[c] for c in range(3)] for r in range(3)]
    return mat


def unit_entries(rng):
    """A symmetric matrix with entries in {-1, 0, 1}."""
    mat = [[ZERO] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            mat[i][j] = mat[j][i] = FieldElem(rng.randint(-1, 1))
    return mat


def test_signature_matches_probe_oracle():
    """All six fields, from the determinant form, equal the probe-and-
    charpoly oracle's, and simdiag_test called on the pair alone agrees."""
    rng = random.Random(20260823)
    pairs = list(REPRESENTATIVES.values())
    pairs += [pair_act(random_gl(2, rng), random_gl(3, rng), p)
              for p in REPRESENTATIVES.values() for _ in range(5)]
    for make in (rank_one_sum, unit_entries):
        pairs += [(make(rng), make(rng)) for _ in range(3000)]
    seen = set()
    for pair in pairs:
        want = ref_signature(pair)
        assert pencil_signature(pair) == want, pair
        assert gamma23.simdiag_test(pair) == want.simdiag, pair
        seen |= {("simdiag", want.simdiag),
                 ("rank1", want.has_rank1_member)}
        if want.span_dim == 2:
            form = gamma23._poly_trim(_form_det(_pencil_entries(pair)))
            seen.add("regular" if form else "singular")
            if form:
                # distinct roots of a cubic: 3, 2, 1 for [111], [21], [3]
                seen.add(("roots", want.det_root_count))
                if len(form) < 4:
                    seen.add("root at (1:0)")
    assert seen == {("simdiag", True), ("simdiag", False),
                    ("rank1", True), ("rank1", False), "regular",
                    "singular", ("roots", 3), ("roots", 2), ("roots", 1),
                    "root at (1:0)"}


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
