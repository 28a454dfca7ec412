import itertools
import random
from fractions import Fraction
from typing import List, Optional

import pytest

from superlie import catalog, gamma23, invariants, linalg
from superlie.algebra import SuperAlgebra
from superlie.field import I, ONE, SQRT2, ZERO, FieldElem, format_elem
from superlie.gamma23 import (REPRESENTATIVES, Mat, PencilSignature, SymPair,
                              classify_pair, pair_act, pencil_signature,
                              random_gl)
from superlie.linalg import (_echelon, det, integral, kernel, mat_mul, rank,
                             rref, solve, transpose)

from conftest import dense, dense_views


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


def test_pair_act_takes_int_matrices():
    """Int identity matrices act as the identity: each representative is
    classified as itself."""
    t = [[int(i == j) for j in range(2)] for i in range(2)]
    s = [[int(i == j) for j in range(3)] for i in range(3)]
    for label, pair in REPRESENTATIVES.items():
        assert classify_pair(pair_act(t, s, pair)) == label


# -- the probe-and-charpoly classifier, kept as the oracle ---------------------
# It ranks probe members, expands det and every 2x2 minor of the pencil by
# cofactors, counts common roots by polynomial gcds, and decides simdiag
# from the characteristic polynomial of M^-1 * G for an invertible member M.
# It shares no code with `pencil_signature`: the polynomial and kernel
# helpers below are its own.

PROBES = [Fraction(k) for k in range(7)]


def _poly_trim(p: List[FieldElem]) -> List[FieldElem]:
    while p and p[-1].is_zero():
        p = p[:-1]
    return p


def _poly_divmod(a: List[FieldElem], b: List[FieldElem]):
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [ZERO] * max(0, len(a) - len(b) + 1)
    r = list(a)
    binv = b[-1].inv()
    while len(r) >= len(b) and _poly_trim(r):
        r = _poly_trim(r)
        if len(r) < len(b):
            break
        shift = len(r) - len(b)
        c = r[-1] * binv
        q[shift] = c
        for i, bc in enumerate(b):
            r[shift + i] = r[shift + i] - c * bc
        r = r[:-1]
    return _poly_trim(q), _poly_trim(r)


def _poly_gcd(a: List[FieldElem], b: List[FieldElem]) -> List[FieldElem]:
    a, b = _poly_trim(list(a)), _poly_trim(list(b))
    while b:
        _, r = _poly_divmod(a, b)
        a, b = b, r
    if a:
        lead_inv = a[-1].inv()
        a = [x * lead_inv for x in a]
    return a


def _poly_diff(p: List[FieldElem]) -> List[FieldElem]:
    return _poly_trim([p[k] * FieldElem(k) for k in range(1, len(p))])


def _distinct_root_count(p: List[FieldElem]) -> int:
    """Number of distinct complex roots (degree of the squarefree part)."""
    p = _poly_trim(list(p))
    if len(p) <= 1:
        return 0
    g = _poly_gcd(p, _poly_diff(p))
    return (len(p) - 1) - (len(g) - 1)


def _form_mul(f: List[FieldElem], g: List[FieldElem]) -> List[FieldElem]:
    out = [ZERO] * (len(f) + len(g) - 1)
    for a, fa in enumerate(f):
        for b, gb in enumerate(g):
            out[a + b] = out[a + b] + fa * gb
    return out


def _common_root_count(forms: List[List[FieldElem]], degree: int) -> Optional[int]:
    """Distinct common projective roots of nonzero degree-`degree` forms.

    Returns None when every form vanishes identically (all points are roots).
    """
    forms = [f for f in forms if _poly_trim(list(f))]
    if not forms:
        return None
    # finite part: dehomogenize at y=1
    g: List[FieldElem] = []
    infinity = True  # common root at (1, 0) iff every form's x^degree coeff is 0
    for f in forms:
        f = list(f) + [ZERO] * (degree + 1 - len(f))
        if not f[degree].is_zero():
            infinity = False
        g = _poly_gcd(g, _poly_trim(f)) if g else _poly_trim(f)
    count = _distinct_root_count(g) if len(g) > 1 else 0
    return count + (1 if infinity else 0)


def _span_dim(pair: SymPair) -> int:
    n = len(pair[0])
    return rank([[g[i][j] for i in range(n) for j in range(i, n)] for g in pair])


def _common_kernel(pair: SymPair) -> Mat:
    """A basis of the common kernel of G1 and G2."""
    return kernel([list(r) for r in pair[0]] + [list(r) for r in pair[1]])


def _kernel_complement(ker: Mat) -> Optional[Mat]:
    """Columns of standard basis vectors complementary to the common kernel
    `ker`; None when it is zero."""
    if not ker:
        return None
    n = len(ker[0])
    _, pivots = rref(ker)
    return [[ONE if r == c else ZERO for c in range(n) if c not in pivots]
            for r in range(n)]



def _form_det(entries):
    """Determinant of a matrix of binary forms (cofactor expansion)."""
    n = len(entries)
    if n == 1:
        return list(entries[0][0])
    total = [ZERO]
    for j in range(n):
        minor = [[entries[r][c] for c in range(n) if c != j]
                 for r in range(1, n)]
        term = _form_mul(entries[0][j], _form_det(minor))
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
    gcd = _poly_gcd(charpoly, _poly_diff(charpoly))
    squarefree, rest = _poly_divmod(charpoly, gcd)
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
    if _span_dim(pair) <= 1:
        return True
    for member, other in zip(_probe_members(pair), [g1] * len(PROBES) + [g2]):
        if not det(member).is_zero():
            return _is_diagonalizable(solve(member, other))
    comp = _kernel_complement(_common_kernel(pair))
    if comp is None:
        return False
    ct = transpose(comp)
    return ref_simdiag((mat_mul(ct, mat_mul(g1, comp)),
                        mat_mul(ct, mat_mul(g2, comp))))


def ref_signature(pair):
    """The six fields from probe ranks and cofactor forms."""
    g1, g2 = pair
    sd = _span_dim(pair)
    ckd = 3 - rank([list(r) for r in g1] + [list(r) for r in g2])
    entries = _pencil_entries(pair)
    det_roots = _common_root_count([_form_det(entries)], 3)
    det_count = -1 if det_roots is None else det_roots
    if sd == 0:
        generic, has_rank1 = 0, False
    elif sd == 1:
        generic = rank(g1 if any(not x.is_zero() for r in g1 for x in r)
                       else g2)
        has_rank1 = generic == 1
    else:
        generic = max(rank(m) for m in _probe_members(pair))
        rank1_roots = _common_root_count(_all_minors(entries, 2), 2)
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


IRRATIONAL = [ZERO, ONE, -ONE, I, SQRT2, ONE + I, I * SQRT2,
              FieldElem(Fraction(1, 3))]


def irrational_entries(rng):
    """A symmetric matrix with entries in {0, +-1, i, sqrt2, 1+i, i*sqrt2,
    1/3}."""
    mat = [[ZERO] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            mat[i][j] = mat[j][i] = rng.choice(IRRATIONAL)
    return mat


def irrational_gl(size, rng):
    """An invertible matrix with entries in IRRATIONAL."""
    while True:
        mat = [[rng.choice(IRRATIONAL) for _ in range(size)]
               for _ in range(size)]
        if not det(mat).is_zero():
            return mat


def branch(want, form):
    """Which exit of `pencil_signature` the pair takes: span at most 1, a
    regular pencil by its number of distinct roots, or a singular one by its
    common kernel dimension."""
    if want.span_dim <= 1:
        return "span<=1"
    if form:
        return ("roots", want.det_root_count)
    return ("singular kernel", want.common_kernel_dim)


BRANCHES = {"span<=1", ("roots", 3), ("roots", 2), ("roots", 1),
            ("singular kernel", 0), ("singular kernel", 1)}


def test_signature_matches_probe_oracle():
    """All six fields, from the integral pencil, equal the probe-and-
    charpoly oracle's, simdiag_test called on the pair alone agrees, and
    classify_pair gives every pair one of the twelve labels, on rational
    pairs and on pairs over Q(i, sqrt2)."""
    rng = random.Random(20260823)
    pairs = list(REPRESENTATIVES.values())
    pairs += [pair_act(random_gl(2, rng), random_gl(3, rng), p)
              for p in REPRESENTATIVES.values() for _ in range(5)]
    for make in (rank_one_sum, unit_entries):
        pairs += [(make(rng), make(rng)) for _ in range(3000)]
    rational = len(pairs)
    pairs += [(irrational_entries(rng), irrational_entries(rng))
              for _ in range(300)]
    for _ in range(100):
        pairs += [(rank_one_sum(rng), irrational_entries(rng)),
                  (irrational_entries(rng), unit_entries(rng))]
    pairs += [pair_act(irrational_gl(2, rng), irrational_gl(3, rng), p)
              for p in REPRESENTATIVES.values() for _ in range(3)]
    seen, seen_irrational = set(), set()
    for k, pair in enumerate(pairs):
        want = ref_signature(pair)
        assert pencil_signature(pair) == want, pair
        assert gamma23.simdiag_test(pair) == want.simdiag, pair
        assert classify_pair(pair) is not None, pair
        seen |= {("simdiag", want.simdiag),
                 ("rank1", want.has_rank1_member)}
        form = _poly_trim(_form_det(_pencil_entries(pair)))
        seen.add(branch(want, form))
        if k >= rational:
            seen_irrational.add(branch(want, form))
        if want.span_dim == 2:
            seen.add("regular" if form else "singular")
            if form:
                # distinct roots of a cubic: 3, 2, 1 for [111], [21], [3]
                seen.add(("roots", want.det_root_count))
                if len(form) < 4:
                    seen.add("root at (1:0)")
                if len(form) < 3:
                    seen.add("multiple root at (1:0)")
    assert seen == BRANCHES | {
        ("simdiag", True), ("simdiag", False), ("rank1", True),
        ("rank1", False), "regular", "singular", "root at (1:0)",
        "multiple root at (1:0)"}
    assert seen_irrational == BRANCHES


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


# The normal forms as the upper triangles (G[0][0], G[0][1], G[0][2], G[1][1],
# G[1][2], G[2][2]) of G1 and G2, in the order of REPRESENTATIVES.
PINNED_PENCILS = {
    "(2|3)_0": ((0, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0)),
    "(2|3)_1": ((1, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 0)),
    "(2|3)_2": ((1, 0, 0, 1, 0, 0), (0, 0, 0, 0, 0, 0)),
    "(2|3)_3": ((1, 0, 0, 1, 0, 1), (0, 0, 0, 0, 0, 0)),
    "(2|3)_4": ((1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0)),
    "(2|3)_5": ((1, 0, 0, 0, 0, 1), (0, 0, 0, 1, 0, 0)),
    "(2|3)_6": ((1, 0, 0, 0, 0, 1), (0, 0, 0, 1, 0, 1)),
    "(2|3)_7": ((0, 1, 0, 0, 0, 0), (0, 0, 0, 2, 0, 0)),
    "(2|3)_8": ((0, 1, 0, 0, 0, 0), (0, 0, 0, 2, 1, 0)),
    "(2|3)_9": ((0, 1, 0, 0, 0, 1), (0, 0, 0, 2, 0, 0)),
    "(2|3)_10": ((0, 1, 0, 0, 0, 1), (0, 0, 0, 2, 0, 1)),
    "(2|3)_11": ((0, 1, 0, 0, 0, 1), (0, 0, 0, 2, 1, 0)),
}


def test_representatives_pinned():
    """The twelve pencils read off the catalog, written out."""
    assert list(REPRESENTATIVES) == list(PINNED_PENCILS)
    for label, pair in REPRESENTATIVES.items():
        for g, want in zip(pair, PINNED_PENCILS[label]):
            assert all(g[i][j] == g[j][i] for i in range(3) for j in range(3))
            upper = tuple(g[i][j] for i in range(3) for j in range(i, 3))
            assert upper == want, label


def test_normal_forms_are_pure_gamma():
    """The catalog algebras the pencils are read from store no e-e or e-f
    pair, so the pencil is the whole algebra."""
    for label in REPRESENTATIVES:
        g = catalog.get(label).algebra
        assert (g.m, g.n) == (2, 3), label
        assert all(a >= g.m for a, _ in g.consts), label


def test_signature_table_pinned():
    """The twelve signature keys and their labels, written out."""
    assert gamma23._SIGNATURE_TABLE == {
        (0, 3, 0, -1, False, True): "(2|3)_0",
        (1, 2, 1, -1, True, True): "(2|3)_1",
        (1, 1, 2, -1, False, True): "(2|3)_2",
        (1, 0, 3, 1, False, True): "(2|3)_3",
        (2, 1, 2, -1, True, True): "(2|3)_4",
        (2, 0, 3, 2, True, True): "(2|3)_5",
        (2, 0, 3, 3, False, True): "(2|3)_6",
        (2, 1, 2, -1, True, False): "(2|3)_7",
        (2, 0, 2, -1, False, False): "(2|3)_8",
        (2, 0, 3, 1, True, False): "(2|3)_9",
        (2, 0, 3, 2, False, False): "(2|3)_10",
        (2, 0, 3, 1, False, False): "(2|3)_11",
    }


def test_scaled_pair_keeps_label():
    """(c1*G1, c2*G2) is in the orbit of (G1, G2): clearing denominators up
    to 10^6, or scaling by an irrational, keeps the label."""
    rng = random.Random(20261019)
    for label, (g1, g2) in REPRESENTATIVES.items():
        scalars = [FieldElem(Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**6),
                                      rng.randint(1, 10**6)))
                   for _ in range(8)]
        scalars.append(ONE + I * SQRT2 / 3)
        for c1, c2 in zip(scalars, reversed(scalars)):
            pair = (gamma23._scale(g1, c1), gamma23._scale(g2, c2))
            assert classify_pair(pair) == label, (label, c1, c2)


SQUARE = [[ONE, ZERO, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]]
NARROW = [[ONE, ZERO], [ZERO, ONE], [ZERO, ZERO]]


@pytest.mark.parametrize("pair", [
    (SQUARE, [[ONE, ZERO], [ZERO, ONE]]),
    (SQUARE, NARROW),
    (NARROW, SQUARE),
], ids=["second-2x2", "second-3x2", "first-3x2"])
def test_malformed_pair_value_error(pair):
    with pytest.raises(ValueError, match="pair of symmetric 3x3 matrices"):
        pencil_signature(pair)


# -- the closed forms behind the signature ------------------------------------

RATIONAL = [FieldElem(Fraction(k, d)) for k in range(-3, 4) for d in (1, 2)]


def rank_k_sum(rng, k, rows, cols, scalars, symmetric=False):
    """A rows x cols matrix: the sum of k products u v^t of vectors with
    entries from `scalars` (v = u when `symmetric`), so of rank at most k."""
    mat = [[ZERO] * cols for _ in range(rows)]
    for _ in range(k):
        u = [rng.choice(scalars) for _ in range(rows)]
        v = u if symmetric else [rng.choice(scalars) for _ in range(cols)]
        mat = [[mat[r][c] + u[r] * v[c] for c in range(cols)]
               for r in range(rows)]
    return mat


def test_rank_closed_form_matches_elimination():
    """The number of `_independent_rows` of seeded symmetric sums of 0-3
    rank-one forms, rational (as FieldElems and as the int copy from
    `integral`) and over Q(i, sqrt2), equals `linalg.rank`."""
    rng = random.Random(20261020)
    seen = set()
    for scalars in (RATIONAL, IRRATIONAL):
        for k in range(4):
            for _ in range(40):
                g = rank_k_sum(rng, k, 3, 3, scalars, symmetric=True)
                want = rank(g)
                flat = integral(g[0] + g[1] + g[2])
                for m in (g, [flat[:3], flat[3:6], flat[6:]]):
                    assert len(gamma23._independent_rows(m)) == want, m
                seen.add((scalars is IRRATIONAL, want))
    assert seen == {(irr, r) for irr in (False, True) for r in range(4)}


def test_independent_rows_span_the_rows():
    """`_independent_rows` of seeded 6x3 stacks of rank 0-3 picks as many
    rows as `_echelon` finds pivots, each an input row, and they span the
    echelon rows."""
    rng = random.Random(20261021)
    seen = set()
    for scalars in (RATIONAL, IRRATIONAL):
        for k in range(4):
            for _ in range(40):
                rows = rank_k_sum(rng, k, 6, 3, scalars)
                echelon = dense(_echelon([dict(enumerate(r)) for r in rows],
                                         False)[0], 3)
                picked = gamma23._independent_rows(rows)
                assert len(picked) == len(echelon), rows
                assert all(any(p is r for r in rows) for p in picked)
                if picked:
                    assert rank(picked + echelon) == len(picked), rows
                seen.add((scalars is IRRATIONAL, len(picked)))
    assert seen == {(irr, r) for irr in (False, True) for r in range(4)}


def test_span_dim_closed_form_matches_elimination():
    """The span dimension of (G1, G2), read off the 2x2 minors of the two
    upper triangles, is the rank of their 2x6 stack, also when the second
    is a multiple of the first or one of them is 0."""
    rng = random.Random(20261022)
    seen = set()
    for scalars in (RATIONAL, IRRATIONAL):
        for _ in range(30):
            g = rank_k_sum(rng, rng.randint(0, 3), 3, 3, scalars,
                           symmetric=True)
            h = rank_k_sum(rng, rng.randint(0, 3), 3, 3, scalars,
                           symmetric=True)
            c = rng.choice(scalars)
            zero = linalg.zeros(3, 3)
            for pair in ((g, h), (g, gamma23._scale(g, c)), (g, zero),
                         (zero, h)):
                want = rank([[m[i][j] for i in range(3) for j in range(i, 3)]
                             for m in pair])
                assert pencil_signature(pair).span_dim == want, pair
                seen.add(want)
    assert seen == {0, 1, 2}


def test_classify_pair_runs_no_elimination(monkeypatch):
    """With every elimination of `linalg` (and `det`) raising, the twelve
    representatives and seeded actions of them, rational and over
    Q(i, sqrt2), still get their labels."""
    rng = random.Random(20261023)
    cases = []
    for label, pair in REPRESENTATIVES.items():
        cases.append((label, pair))
        cases += [(label, pair_act(random_gl(2, rng), random_gl(3, rng), pair))
                  for _ in range(16)]
        cases += [(label, pair_act(irrational_gl(2, rng),
                                   irrational_gl(3, rng), pair))
                  for _ in range(2)]

    def boom(*args, **kwargs):
        raise AssertionError("elimination reached")

    for name in ("_echelon", "rank", "rref", "kernel", "det"):
        monkeypatch.setattr(linalg, name, boom)
    monkeypatch.setattr(gamma23, "det", boom)
    assert [classify_pair(pair) for _, pair in cases] == \
        [label for label, _ in cases]
