from fractions import Fraction
from itertools import product
from typing import Dict, List

import pytest

from superlie import catalog, cohomology, gamma23, invariants
from superlie.algebra import SuperAlgebra, _mirror, integral_table, pairs
from superlie.catalog import heisenberg_1n
from superlie.cohomology import (Cochain2Even, cochain_basis_index, d1, d2,
                                 format_cocycle, h2_even, is_cocycle,
                                 parse_cocycle)
from superlie.exprlang import constant, evaluate
from superlie.field import I, ONE, SQRT2, ZERO, FieldElem, format_elem
from superlie.linalg import kernel, rank, rref

import modp
from conftest import (basis_vector, dense, rand_elem, ref_format_terms,
                      table_cases)


def test_cocycle_format_roundtrip():
    g = catalog.get("(2|3)_24").algebra
    for text in catalog.expected()["cocycles"]["(2|3)_24"]:
        phi = parse_cocycle(text, g.m, g.n)
        again = parse_cocycle(format_cocycle(phi), g.m, g.n)
        assert again.vec == phi.vec


def test_cocycle_format_parse_roundtrip_random(rng):
    """Every coefficient format_cocycle writes parses back: full Q(i, sqrt2)
    scalars and the ones that need a sign or parentheses."""
    special = [FieldElem(1, 1), I * SQRT2, -(I * SQRT2), FieldElem(1),
               FieldElem(-1), FieldElem(0, -1), FieldElem(0, 0, 0, -3)]
    for text in ("(1 + i)*e1*^e2*@e1", "i*sqrt2*e1*^e2*@e1",
                 "-i*sqrt2*e1*^e2*@e1"):
        phi = parse_cocycle(text, 2, 0)
        assert format_cocycle(phi) == text
    shapes = [(m, n) for m in range(6) for n in range(6 - m)
              if cohomology.cochain_dim(m, n)]
    for m, n in shapes:
        size = cohomology.cochain_dim(m, n)
        zero = Cochain2Even(m, n, [ZERO] * size)
        assert parse_cocycle(format_cocycle(zero), m, n).vec == zero.vec
        for _ in range(12):
            vec = [rng.choice((rand_elem(rng), rng.choice(special)))
                   if rng.random() < 0.4 else ZERO for _ in range(size)]
            vec[rng.randrange(size)] = rng.choice(special)
            phi = Cochain2Even(m, n, vec)
            assert parse_cocycle(format_cocycle(phi), m, n).vec == phi.vec


def _format_cocycle_before(phi):
    """format_cocycle as it was before it wrote through `field.format_sum`,
    kept as the oracle of the new writer."""
    names = [f"e{i + 1}" for i in range(phi.m)] + \
            [f"f{j + 1}" for j in range(phi.n)]
    return ref_format_terms([
        (format_elem(x), f"{names[a]}*^{names[b]}*@{names[k]}")
        for (a, b, k), x in zip(cochain_basis_index(phi.m, phi.n), phi.vec)
        if not x.is_zero()])


def test_format_cocycle_matches_former_writer(rng):
    """Seeded cochains of every shape, zero and full Q(i, sqrt2)
    coefficients among them, print as they did before format_sum."""
    special = [FieldElem(1), FieldElem(-1), I, -I, FieldElem(1, 1),
               FieldElem(-1, -1), SQRT2, -(I * SQRT2), FieldElem(0, 0, 0, -3),
               FieldElem(Fraction(-1, 2)), FieldElem(-1, 1, -1, 1)]
    for m, n in [(m, n) for m in range(6) for n in range(6 - m)
                 if cohomology.cochain_dim(m, n)]:
        size = cohomology.cochain_dim(m, n)
        for density in (0, 0.1, 0.3, 0.3, 0.7, 1):
            vec = [rng.choice((rand_elem(rng), rng.choice(special)))
                   if rng.random() < density else ZERO for _ in range(size)]
            phi = Cochain2Even(m, n, vec)
            assert format_cocycle(phi) == _format_cocycle_before(phi)


def test_parse_cocycle_constant_coefficients():
    """A coefficient is any constant expression; a term may repeat."""
    phi = parse_cocycle("(1/2 + i)*e1*^f1*@f2 - sqrt(2)/2*f1*^f1*@e1"
                        " + 2*(e1*^f1*@f2 - i*e1*^f1*@f2)", 1, 2)
    assert cochain_value(phi, 0, 1) == ([ZERO],
                                        [ZERO, FieldElem(Fraction(5, 2), -1)])
    assert cochain_value(phi, 1, 1) == ([FieldElem(0, 0, Fraction(-1, 2))],
                               [ZERO, ZERO])
    for text, cause in [("t*e1*^e2*@e1", "not a constant"),
                        ("i/0*e1*^e2*@e1", "division by zero"),
                        ("2", "not a sum of symbols"),
                        ("e1", "not a cochain term"),
                        ("e1*^e2*@e1 e2*^e1*@e2", "trailing input")]:
        with pytest.raises(ValueError, match=cause):
            parse_cocycle(text, 2, 0)


def test_parse_cocycle_reversed_pairs():
    """A term on a pair out of slot order takes the graded sign."""
    for text, same in [("e2*^e1*@e1", "-e1*^e2*@e1"),
                       ("f1*^e2*@f3", "-e2*^f1*@f3"),
                       ("f3*^f1*@e2", "f1*^f3*@e2")]:
        assert parse_cocycle(text, 2, 3).vec == \
            parse_cocycle(same, 2, 3).vec


def test_parse_cocycle_rejects_bad_terms():
    for text in ("e1*^f1*@e1", "f1*^f2*@f1", "e1*^e2*@f1", "e1*^e1*@e1",
                 "e3*^f1*@f1", "e1*^f4*@f1", "e1*^f1*@f0", ""):
        with pytest.raises(ValueError):
            parse_cocycle(text, 2, 3)


def cochain_values(phi):
    """The nonzero values of phi as (a, b, terms) over ordered basis pairs,
    terms the nonzero (index, coefficient) pairs of phi(x_a, x_b) (odd
    indices offset by m), mirrored to the other pairs: phi is antisymmetric
    on e-e and e-f pairs and symmetric on f-f pairs."""
    m, n = phi.m, phi.n
    found, blocks, end = {}, iter(pairs(m, n)), 0
    for s, x in enumerate(phi.vec):
        if x.is_zero():
            continue
        while s >= end:     # to the pair whose block holds slot s
            a, b = next(blocks)
            lo, width = (m, n) if a < m <= b else (0, m)
            start, end = end, end + width
        found.setdefault((a, b), []).append((lo + s - start, x))
    out = []
    for (a, b), terms in found.items():
        out.append((a, b, terms))
        if a != b:
            out.append((b, a, _mirror(m, a, b, terms)))
    return out


def cochain_value(phi, a, b):
    """phi on basis indices (0-based, odd indices offset by m), as a graded
    vector, read through `cochain_values`."""
    out = [ZERO] * (phi.m + phi.n)
    for p, q, terms in cochain_values(phi):
        if (p, q) == (a, b):
            for k, x in terms:
                out[k] = x
    return out[:phi.m], out[phi.m:]


def test_cochain_value_graded_symmetry(rng):
    """cochain_value mirrors each slot with the graded sign, and slot
    (a, b, k) of cochain_basis_index is the coordinate of phi(x_a, x_b) on x_k."""
    for m, n in [(m, n) for m in range(6) for n in range(6) if m + n <= 5]:
        d = m + n
        slots = cohomology.cochain_basis_index(m, n)
        assert len(slots) == cohomology.cochain_dim(m, n)
        for s, (a, b, k) in enumerate(slots):
            unit = Cochain2Even(m, n, [FieldElem(int(i == s))
                                       for i in range(len(slots))])
            assert sum(cochain_value(unit, a, b), [])[k] == FieldElem(1)
        phi = Cochain2Even(m, n, [_rand_scalar(rng) for _ in slots])
        for a in range(d):
            for b in range(d):
                even, odd = cochain_value(phi, a, b)
                mirror = sum(cochain_value(phi, b, a), [])
                sign = 1 if a >= m and b >= m else -1
                assert even + odd == [sign * x for x in mirror]
                other = odd if (a < m) == (b < m) else even
                assert all(x.is_zero() for x in other)
        with pytest.raises(ValueError):
            Cochain2Even(m, n, [ZERO] * (len(slots) + 1))


def test_d2_after_d1_vanishes_on_all_catalog(rng):
    for entry in catalog.list_entries():
        g = entry.algebra
        A = [[FieldElem(rng.randint(-3, 3)) for _ in range(g.m)]
             for _ in range(g.m)]
        D = [[FieldElem(rng.randint(-3, 3)) for _ in range(g.n)]
             for _ in range(g.n)]
        assert is_cocycle(g, d1(g, A, D)), entry.label


def test_heisenberg_rigid():
    for n in range(1, 7):
        assert h2_even(heisenberg_1n(n))["dim"] == 0


# -- deformation probes, a test helper that no command uses -------------------


def deformation_nilpotency_probe(base_doc: Dict, extra_brackets: List[Dict],
                                 param_value: str) -> Dict:
    """Replay a deformation: the base algebra's structure constants plus
    those of the deformed brackets with the parameter substituted, added
    pair by pair; then test nilpotency (Jacobi checked first)."""
    base = SuperAlgebra.from_doc(base_doc)
    brackets = []
    tval = constant(param_value)
    for extra in extra_brackets:
        value = []
        for v in extra["value"]:
            series = evaluate(v["coeff"])
            # substitute t = param_value by exact polynomial composition
            subbed = ZERO
            for expo, cf in series.terms.items():
                if expo.denominator != 1 or expo < 0:
                    raise ValueError("probe brackets must be polynomial in t")
                subbed = subbed + cf * tval ** int(expo)
            value.append({"coeff": format_elem(subbed), "basis": v["basis"]})
        brackets.append({"lhs": extra["lhs"], "rhs": extra["rhs"],
                         "value": value})
    delta = SuperAlgebra.from_doc({"m": base.m, "n": base.n,
                                   "brackets": brackets})
    consts = {p: dict(terms) for p, terms in base.consts.items()}
    for p, terms in delta.consts.items():
        acc = consts.setdefault(p, {})
        for k, x in terms:
            acc[k] = acc[k] + x if k in acc else x
    g = SuperAlgebra(base.m, base.n, {p: v.items() for p, v in consts.items()},
                     name=base.name)
    violations = g.check_jacobi()
    if violations:
        raise ValueError(f"deformed product violates Jacobi at {violations[:3]}")
    series = g.lower_central_series()
    return {"nilpotent": series[-1] == (0, 0), "series": series}


def test_deformation_probes():
    for probe in catalog.expected()["deformation_probes"]:
        base = catalog.get(probe["label"]).doc
        result = deformation_nilpotency_probe(
            base, probe["extra"], probe["param"])
        assert result["nilpotent"] == probe["expect_nilpotent"], probe["label"]


def test_deformation_probe_reads_either_orientation():
    """A deformed bracket adds to the base bracket of the same pair in
    either orientation: [e2,e1] = t*e3 is [e1,e2] = -t*e3."""
    base = catalog.get("(3|0)_1").doc

    def probe(lhs, rhs, coeff):
        extra = [{"lhs": lhs, "rhs": rhs,
                  "value": [{"coeff": coeff, "basis": "e3"}]}]
        return deformation_nilpotency_probe(base, extra, "2")

    want = {"nilpotent": True, "series": [(3, 0), (1, 0), (0, 0)]}
    assert probe("e1", "e2", "-t") == want
    assert probe("e2", "e1", "t") == want


# -- the dense evaluators, oracles for the sparse d2 and d1 -------------------


def _add(u, w, scale=1):
    return ([x + scale * y for x, y in zip(u[0], w[0])],
            [x + scale * y for x, y in zip(u[1], w[1])])


def _phi_of(g, phi, u, w):
    """phi(u, w) for graded vectors u, w, by bilinearity."""
    out = ([ZERO] * g.m, [ZERO] * g.n)
    for k, x in enumerate(u[0] + u[1]):
        for l, y in enumerate(w[0] + w[1]):
            if not (x * y).is_zero():
                pe, po = cochain_value(phi, k, l)
                out = _add(out, ([x * y * t for t in pe],
                                 [x * y * t for t in po]))
    return out


def dense_d2(g, phi):
    """All six terms of d2 phi on every ordered basis triple."""
    d = g.dim
    vecs = [basis_vector(g, k) for k in range(d)]
    out = {}
    for a in range(d):
        for b in range(d):
            for c in range(d):
                pa, pb, pc = g.parity(a), g.parity(b), g.parity(c)
                x, y, z = vecs[a], vecs[b], vecs[c]
                acc = g.bracket(x, cochain_value(phi, b, c))
                acc = _add(acc, g.bracket(y, cochain_value(phi, a, c)),
                           -(-1) ** (pa * pb))
                acc = _add(acc, g.bracket(z, cochain_value(phi, a, b)),
                           (-1) ** (pc * (pa + pb)))
                acc = _add(acc, _phi_of(g, phi, g.bracket(x, y), z), -1)
                acc = _add(acc, _phi_of(g, phi, g.bracket(x, z), y),
                           (-1) ** (pb * pc))
                acc = _add(acc, _phi_of(g, phi, x, g.bracket(y, z)))
                if any(not t.is_zero() for t in acc[0] + acc[1]):
                    out[(a, b, c)] = acc
    return out


def dense_d1(g, A, D):
    """(d1 psi)(x,y) = [psi x, y] + [x, psi y] - psi([x,y]) on every pair."""
    m, n = g.m, g.n
    vecs = [basis_vector(g, k) for k in range(m + n)]

    def psi(w):
        return ([sum((A[r][k] * w[0][k] for k in range(m)), ZERO)
                 for r in range(m)],
                [sum((D[r][l] * w[1][l] for l in range(n)), ZERO)
                 for r in range(n)])

    def entry(a, b):
        x, y = vecs[a], vecs[b]
        acc = _add(g.bracket(psi(x), y), g.bracket(x, psi(y)))
        return sum(_add(acc, psi(g.bracket(x, y)), -1), [])

    d = m + n
    val = {(a, b): entry(a, b) for a in range(d) for b in range(d)}
    # the mirrored entries: antisymmetric on e-e and e-f pairs (zero on the
    # e-e diagonal), symmetric on f-f pairs
    for (a, b), v in val.items():
        sign = 1 if a >= m and b >= m else -1
        assert v == [sign * x for x in val[(b, a)]]
    return Cochain2Even(m, n, [val[(a, b)][k] for a, b, k in
                               cohomology.cochain_basis_index(m, n)])


def _rand_scalar(rng):
    """Zero half the time, else rational, i, sqrt2 or a general element."""
    kind = rng.randrange(8)
    if kind < 4:
        return ZERO
    q = FieldElem(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
    return [q, q * I, q * SQRT2, rand_elem(rng, 5)][kind - 4]


def _canonical(t, m):
    """Is (a, b, c) a canonical triple: a <= b <= c, with two neighbours
    equal only at an odd index (odd indices offset by m)?"""
    a, b, c = t
    return (a < b or a == b >= m) and (b < c or b == c >= m)


def _graded_sort(t, m):
    """The sorted triple of t and the graded sign that takes the value on it
    to the value on t: each adjacent swap of x, y multiplies by
    -(-1)^(|x||y|)."""
    t, sign = list(t), 1
    for i in (0, 1, 0):
        if t[i] > t[i + 1]:
            t[i], t[i + 1] = t[i + 1], t[i]
            sign *= 1 if t[i] >= m and t[i + 1] >= m else -1
    return tuple(t), sign


def _d2_cases(rng):
    """Every catalog algebra of dimension <= 4, the five dimension-5 labels
    of the h2-catalog benchmark workload and two rational basis changes of
    each (2|2) and (1|3) algebra."""
    cases = [e.algebra for e in catalog.list_entries() if e.m + e.n <= 4]
    cases += [catalog.get(lab).algebra for lab in
              ("(0|5)_0", "(1|4)_4", "(2|3)_6", "(3|2)_5", "(4|1)_6")]
    for e in catalog.list_entries():
        if (e.m, e.n) in ((2, 2), (1, 3)):
            for _ in range(2):
                cases.append(e.algebra.apply_basis_change(
                    gamma23.random_gl(e.m, rng), gamma23.random_gl(e.n, rng)))
    return cases


def _random_cochain(g, rng):
    return Cochain2Even(g.m, g.n, [_rand_scalar(rng) for _ in
                                   range(cohomology.cochain_dim(g.m, g.n))])


def test_sparse_d2_d1_match_dense_oracles(rng):
    """Seeded comparison on the cases of `_d2_cases`: d2 is the dense d2 on
    the canonical triples, and d1 is the dense d1."""
    for g in _d2_cases(rng):
        for _ in range(2):
            phi = _random_cochain(g, rng)
            assert d2(g, phi) == {t: v for t, v in dense_d2(g, phi).items()
                                  if _canonical(t, g.m)}, g.name
            A = [[_rand_scalar(rng) for _ in range(g.m)] for _ in range(g.m)]
            D = [[_rand_scalar(rng) for _ in range(g.n)] for _ in range(g.n)]
            assert d1(g, A, D).vec == dense_d1(g, A, D).vec, g.name


def test_orbit_dim_is_coboundary_rank(rng):
    """dim O(g) = dim B^2(g,g)_0: orbit_dim, the report's orbit dimension
    and the rank of the coboundary rows agree on `table_cases` and on
    K(2|m), m = 3, 5, 7; there d1 is also the dense d1."""
    cases = [(g, None) for g in table_cases(rng)]
    cases += [(catalog.K2m(m), want) for m, want in ((3, 9), (5, 24), (7, 47))]
    for g, want in cases:
        got = invariants.orbit_dim(g)
        assert got == invariants.invariant_report(g, False)["orbit_dim"] \
            == rank(dense(invariants._derivation_images(
                g, integral_table(g), 1, 1, 1, 0),
                cohomology.cochain_dim(g.m, g.n))), g.name
        assert want is None or got == want, g.name
        A = [[_rand_scalar(rng) for _ in range(g.m)] for _ in range(g.m)]
        D = [[_rand_scalar(rng) for _ in range(g.n)] for _ in range(g.n)]
        assert d1(g, A, D).vec == dense_d1(g, A, D).vec, g.name


def test_coboundary_rows_are_minus_the_derivation_columns(rng):
    """The degree-0 (1,1,1) `invariants._derivation_images` of the integral
    table are m^2 + n^2 in number, keyed by cochain slots only, and their
    nonempty negations are the coboundary rows, d1 of each elementary even
    map written from its definition over the same table
    (`modp.coboundary_rows`), list for list, on `table_cases` and K(2|m),
    m = 3, 5, 7, 9."""
    for g in table_cases(rng) + [catalog.K2m(m) for m in (3, 5, 7, 9)]:
        ibr = integral_table(g)
        images = invariants._derivation_images(g, ibr, 1, 1, 1, 0)
        total = cohomology.cochain_dim(g.m, g.n)
        assert len(images) == g.m ** 2 + g.n ** 2, g.name
        assert all(s < total for image in images for s in image), g.name
        table = [[dict(terms) for terms in row] for row in ibr]
        assert ([{s: -x for s, x in row.items()} for row in images if row]
                == [row for row in modp.coboundary_rows(g, table) if row]), \
            g.name


def test_d1_refuses_maps_of_another_shape():
    """d1 on an (m|n) algebra takes an m x m A and an n x n D: a 1 x 4 A
    with a 1 x 4 D on (2|2)_3 (as many entries as 2 x 2 blocks) raises, as
    do blocks of the other part's size."""
    g = catalog.get("(2|2)_3").algebra
    one = [[ONE] * 4]
    with pytest.raises(ValueError, match="A of size 2x2 and D of size 2x2"):
        d1(g, one, one)
    square = [[ONE, ZERO], [ZERO, ONE]]
    g = catalog.get("(3|1)_1").algebra
    with pytest.raises(ValueError):
        d1(g, square, square)
    with pytest.raises(ValueError):
        d1(g, [[ONE] * 3] * 3, [[ONE, ZERO]])
    assert is_cocycle(g, d1(g, [[ONE] * 3] * 3, [[ONE]]))


def test_d2_refuses_cochains_of_another_shape():
    """A cochain of (1|3) has as many slots as one of (3|1), 15, but d2 and
    is_cocycle on a (3|1) algebra refuse it: an H^2 class of (1|3)_1 read on
    (3|1)_1 raises instead of giving a d2 value."""
    assert cohomology.cochain_dim(1, 3) == cohomology.cochain_dim(3, 1)
    phi = h2_even(catalog.get("(1|3)_1").algebra)["basis"][0]
    g = catalog.get("(3|1)_1").algebra
    with pytest.raises(ValueError, match=r"\(1\|3\)"):
        d2(g, phi)
    with pytest.raises(ValueError):
        is_cocycle(g, phi)


def _non_jacobi_algebras(rng):
    """Two seeded super-antisymmetric brackets of each shape of dimension 3
    or 4 with both parities, each failing super-Jacobi."""
    out = []
    for m, n in ((1, 2), (2, 1), (1, 3), (2, 2), (3, 1)):
        found = 0
        while found < 2:
            g = SuperAlgebra(m, n, {
                (a, b): [(k, _rand_scalar(rng)) for k in
                         (range(m, m + n) if a < m <= b else range(m))]
                for a, b in pairs(m, n)}, name=f"non-Jacobi ({m}|{n})")
            if g.check_jacobi():
                out.append(g)
                found += 1
    return out


def test_d2_is_graded_alternating(rng):
    """The dense d2 on every ordered triple is the graded sign times its
    value on the sorted triple, and zero where an even index repeats, on
    the cases of `_d2_cases` and on brackets that fail super-Jacobi; so d2's
    canonical triples determine it."""
    for g in _d2_cases(rng) + _non_jacobi_algebras(rng):
        zero = ([ZERO] * g.m, [ZERO] * g.n)
        for _ in range(2):
            dense = dense_d2(g, _random_cochain(g, rng))
            for t in product(range(g.dim), repeat=3):
                key, sign = _graded_sort(t, g.m)
                if not _canonical(key, g.m):    # an even index repeats
                    assert t not in dense, (g.name, t)
                    continue
                want = dense.get(key, zero)
                assert dense.get(t, zero) == ([sign * x for x in want[0]],
                                              [sign * x for x in want[1]]), \
                    (g.name, t)


# -- the dense d2 matrix and the rank-per-cocycle lift, oracles for h2_even ----


def dense_d2_matrix(g):
    """One dense row per output coordinate that any unit cochain reaches,
    scattered from `dense_d2` of each unit cochain."""
    total = cohomology.cochain_dim(g.m, g.n)
    cols = [dense_d2(g, Cochain2Even(g.m, g.n, [FieldElem(int(i == si))
                                                for i in range(total)]))
            for si in range(total)]
    keys = sorted({(t, p, r) for image in cols for t, vv in image.items()
                   for p in (0, 1) for r, x in enumerate(vv[p])
                   if not x.is_zero()})
    return [[image[t][p][r] if t in image else ZERO for image in cols]
            for t, p, r in keys]


def rank_lift_h2(g, d2m):
    """dim ker d2 - dim im d1, with d2m a matrix of d2, and a basis lifted
    by adding each cocycle that raises the rank over the coboundaries."""
    total = cohomology.cochain_dim(g.m, g.n)
    cocycles = kernel(d2m) if d2m else \
        [[FieldElem(int(i == j)) for j in range(total)] for i in range(total)]
    stack = dense(invariants._derivation_images(g, integral_table(g), 1, 1,
                                                1, 0), total)
    b_rank = current = rank(stack)
    basis = []
    dim = len(cocycles) - b_rank
    for z in cocycles:
        if rank(stack + [z]) > current:
            stack.append(z)
            current += 1
            basis.append(tuple(z))
        if current == b_rank + dim:
            break
    return dim, basis


def _nonzero_rref_rows(matrix):
    return [row for row in rref(matrix)[0] if any(row)]


def _h2_cases(rng):
    """(algebra, whether its oracle matrix comes from `dense_d2`, dim H^2
    or None): every catalog algebra, those of dimension <= 4 from
    `dense_d2`; two rational basis changes of each algebra of dimension 4
    and one of each of eight seeded labels of dimension 5; and K(2|m),
    m = 3, 5, 7, whose H^2 has dimension (m + 1)/2."""
    entries = catalog.list_entries()
    cases = [(e.algebra, e.m + e.n <= 4, None) for e in entries]
    changed = [e for e in entries if e.m + e.n == 4 for _ in range(2)]
    changed += rng.sample([e for e in entries if e.m + e.n == 5], 8)
    for e in changed:
        cases.append((e.algebra.apply_basis_change(
            gamma23.random_gl(e.m, rng), gamma23.random_gl(e.n, rng)),
            False, None))
    cases += [(catalog.K2m(m), False, (m + 1) // 2) for m in (3, 5, 7)]
    return cases


def test_d2_matrix_and_lift_match_dense_oracles(rng):
    """On the cases of `_h2_cases`: the d2 matrix has the oracle matrix's
    RREF and no zero row, h2_even lifts the same basis, each
    basis cocycle is a cocycle, and the basis adds its size to the rank of
    the coboundaries.  On the catalog algebras of dimension <= 4 the oracle
    has a row for every ordered triple, from `dense_d2`, so dropping the
    non-canonical rows must keep the RREF; elsewhere it is `modp`'s, at
    each of its primes, since `d2` reads the rows under test."""
    for g, from_dense, want in _h2_cases(rng):
        ibr = integral_table(g)
        total = cohomology.cochain_dim(g.m, g.n)
        rows = cohomology._d2_rows(g, ibr).values()
        got = h2_even(g)
        vecs = [phi.vec for phi in got["basis"]]
        if from_dense:
            old = dense_d2_matrix(g)
            assert (_nonzero_rref_rows(dense(rows, total))
                    == _nonzero_rref_rows(old)), g.name
            dim, basis = rank_lift_h2(g, old)
            assert got["dim"] == dim, g.name
            assert vecs == basis, g.name
        else:
            for p in modp.PRIMES:
                cocycles, dim, basis = modp.h2(g, p)
                assert modp.rref(rows, p) == cocycles, (g.name, p)
                assert got["dim"] == dim, (g.name, p)
                assert modp.residue(vecs, p) == basis, (g.name, p)
        assert want is None or got["dim"] == want, g.name
        assert all(any(row.values()) for row in rows), g.name
        assert all(is_cocycle(g, phi) for phi in got["basis"]), g.name
        cob = dense(invariants._derivation_images(g, ibr, 1, 1, 1, 0), total)
        assert rank(cob + vecs) == rank(cob) + got["dim"], g.name


def test_values_agree_with_value(rng):
    """`cochain_values` lists exactly the nonzero values `cochain_value`
    gives, on every ordered pair of random cochains of every shape."""
    for m, n in [(m, n) for m in range(6) for n in range(6 - m)]:
        for _ in range(3):
            phi = Cochain2Even(m, n, [_rand_scalar(rng) for _ in
                                      range(cohomology.cochain_dim(m, n))])
            listed = {(a, b): t for a, b, t in cochain_values(phi)}
            for a in range(m + n):
                for b in range(m + n):
                    dense = sum(cochain_value(phi, a, b), [])
                    terms = [(k, x) for k, x in enumerate(dense)
                             if not x.is_zero()]
                    assert listed.get((a, b), []) == terms, (m, n, a, b)


def test_d2_and_coboundary_rows_match_modp_oracle(rng):
    """On `table_cases` and K(2|m) for odd m <= 9, at each prime of
    `modp.PRIMES`: the d2 rows and the coboundary rows, read off the
    integral bracket table, have the RREF of the cocycle rows of every
    ordered triple and of the coboundary rows written from their
    definitions, and h2_even gives the oracle's dimension and lifted
    basis."""
    for g in table_cases(rng) + [catalog.K2m(m) for m in (3, 5, 7, 9)]:
        ibr = integral_table(g)
        rows = cohomology._d2_rows(g, ibr).values()
        images = invariants._derivation_images(g, ibr, 1, 1, 1, 0)
        got = h2_even(g)
        for p in modp.PRIMES:
            cocycles, dim, basis = modp.h2(g, p)
            assert modp.rref(rows, p) == cocycles, (g.name, p)
            assert (modp.rref(images, p) == modp.rref(
                modp.coboundary_rows(g, modp.table(g, p)), p)), (g.name, p)
            assert got["dim"] == dim, (g.name, p)
            assert modp.residue([phi.vec for phi in got["basis"]], p) \
                == basis, (g.name, p)
