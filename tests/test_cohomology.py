from fractions import Fraction

import pytest

from superlie import catalog, cohomology, gamma23
from superlie.catalog import heisenberg_1n
from superlie.cohomology import (Cochain2Even, d1, d2, format_cocycle,
                                 h2_even, is_cocycle, parse_cocycle)
from superlie.field import I, SQRT2, ZERO, FieldElem

from conftest import rand_elem


def expected_h2(label):
    """The exactly computed dimension: recorded erratum value if one exists,
    else the source value."""
    exp = catalog.expected()
    return exp["known_h2_discrepancies"].get(label, exp["h2_dims"][label])


def test_h2_dims_all_regression_labels():
    for label in catalog.expected()["h2_dims"]:
        g = catalog.get(label).algebra
        assert h2_even(g)["dim"] == expected_h2(label), label


def test_cocycle_format_roundtrip():
    g = catalog.get("(2|3)_24").algebra
    for text in catalog.expected()["cocycles"]["(2|3)_24"]:
        phi = parse_cocycle(text, g.m, g.n)
        again = parse_cocycle(format_cocycle(phi), g.m, g.n)
        assert again.vec == phi.vec


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


def test_cochain_value_graded_symmetry(rng):
    """value mirrors each slot with the graded sign, and slot (a, b, k) of
    cochain_basis_index is the coordinate of phi(x_a, x_b) on x_k."""
    for m, n in [(m, n) for m in range(6) for n in range(6) if m + n <= 5]:
        d = m + n
        slots = cohomology.cochain_basis_index(m, n)
        assert len(slots) == cohomology.cochain_dim(m, n)
        for s, (a, b, k) in enumerate(slots):
            unit = Cochain2Even(m, n, [FieldElem(int(i == s))
                                       for i in range(len(slots))])
            assert sum(unit.value(a, b), [])[k] == FieldElem(1)
        phi = Cochain2Even(m, n, [_rand_scalar(rng) for _ in slots])
        for a in range(d):
            for b in range(d):
                even, odd = phi.value(a, b)
                mirror = sum(phi.value(b, a), [])
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


def test_deformation_probes():
    for probe in catalog.expected()["deformation_probes"]:
        base = catalog.get(probe["label"]).doc
        result = cohomology.deformation_nilpotency_probe(
            base, probe["extra"], probe["param"])
        assert result["nilpotent"] == probe["expect_nilpotent"], probe["label"]


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
                pe, po = phi.value(k, l)
                out = _add(out, ([x * y * t for t in pe],
                                 [x * y * t for t in po]))
    return out


def dense_d2(g, phi):
    """All six terms of d2 phi on every ordered basis triple."""
    d = g.dim
    vecs = [g.basis_vector(k) for k in range(d)]
    out = {}
    for a in range(d):
        for b in range(d):
            for c in range(d):
                pa, pb, pc = g.parity(a), g.parity(b), g.parity(c)
                x, y, z = vecs[a], vecs[b], vecs[c]
                acc = g.bracket(x, phi.value(b, c))
                acc = _add(acc, g.bracket(y, phi.value(a, c)),
                           -(-1) ** (pa * pb))
                acc = _add(acc, g.bracket(z, phi.value(a, b)),
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
    vecs = [g.basis_vector(k) for k in range(m + n)]

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


def test_sparse_d2_d1_match_dense_oracles(rng):
    """Seeded comparison on every catalog algebra of dimension <= 4, the
    five dimension-5 labels of the h2-catalog benchmark workload and two
    rational basis changes of each (2|2) and (1|3) algebra."""
    cases = [e.algebra for e in catalog.list_entries() if e.m + e.n <= 4]
    cases += [catalog.get(lab).algebra for lab in
              ("(0|5)_0", "(1|4)_4", "(2|3)_6", "(3|2)_5", "(4|1)_6")]
    for e in catalog.list_entries():
        if (e.m, e.n) in ((2, 2), (1, 3)):
            for _ in range(2):
                cases.append(e.algebra.apply_basis_change(
                    gamma23.random_gl(e.m, rng), gamma23.random_gl(e.n, rng)))
    for g in cases:
        for _ in range(2):
            vec = [_rand_scalar(rng)
                   for _ in range(cohomology.cochain_dim(g.m, g.n))]
            phi = Cochain2Even(g.m, g.n, vec)
            assert d2(g, phi) == dense_d2(g, phi), g.name
            A = [[_rand_scalar(rng) for _ in range(g.m)] for _ in range(g.m)]
            D = [[_rand_scalar(rng) for _ in range(g.n)] for _ in range(g.n)]
            assert d1(g, A, D).vec == dense_d1(g, A, D).vec, g.name
