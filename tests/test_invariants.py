from fractions import Fraction
from itertools import combinations, product

import pytest

from superlie import catalog, invariants
from superlie.algebra import SuperAlgebra
from superlie.field import I, ONE, SQRT2, ZERO, FieldElem
from superlie.gamma23 import random_gl
from superlie.groebner import poly_add, poly_scale
from superlie.linalg import kernel, rank, rref

from conftest import basis_vector, dense_views, table_cases


def test_center_examples():
    (de, do), _ = invariants.center(catalog.get("(2|3)_4").algebra)
    assert (de, do) == (2, 1)
    (de, do), _ = invariants.center(catalog.get("(2|3)_3").algebra)
    assert (de, do) == (2, 0)
    (de, do), _ = invariants.center(catalog.get("(1|1)_1").algebra)
    assert (de, do) == (1, 0)
    # abelian and purely odd: everything is central
    (de, do), _ = invariants.center(catalog.get("(0|3)_0").algebra)
    assert (de, do) == (0, 3)


def test_derived_examples():
    assert invariants.derived(catalog.get("(2|3)_22").algebra) == (1, 2)
    assert invariants.derived(catalog.get("(2|3)_21").algebra) == (0, 2)
    assert invariants.derived(catalog.get("(0|3)_0").algebra) == (0, 0)


def test_gamma_is_zero():
    assert invariants.gamma_is_zero(catalog.get("(2|3)_21").algebra)
    assert not invariants.gamma_is_zero(catalog.get("(2|3)_22").algebra)


def test_orbit_dims_published():
    # six diagram levels are contradicted by exact stabilizer computations;
    # for those the computed value recorded alongside the table one applies
    known = catalog.expected()["known_orbit_dim_discrepancies"]
    for label, want in catalog.expected()["orbit_dims"].items():
        if label in known:
            assert want == known[label]["table"]
            want = known[label]["computed"]
        got = invariants.orbit_dim(catalog.get(label).algebra)
        assert got == want, f"orbit_dim({label}) = {got}, expected {want}"


def test_orbit_dims_regression():
    for label, want in catalog.expected()["orbit_dims_regression"].items():
        got = invariants.orbit_dim(catalog.get(label).algebra)
        assert got == want, f"orbit_dim({label}) = {got}, frozen {want}"


def test_abc_derivations_010_is_hom_into_annihilator(rng):
    """A (0,1,0)-derivation of degree d is any parity-d map into the
    two-sided annihilator, the center: m * z_d + n * z_(1-d) of them, as
    `invariant_report` reads it, against the full ordered system of
    abc_derivations, on `table_cases` (Q(i, sqrt2) basis changes
    included)."""
    for g in table_cases(rng):
        z, _ = invariants.center(g)
        for deg in (0, 1):
            dim, _ = invariants.abc_derivations(g, 0, 1, 0, deg)
            assert dim == g.m * z[deg] + g.n * z[1 - deg], (g.name, deg)


def test_abc_degree_is_zero_or_one():
    """A degree other than 0 or 1 is refused, not read as degree 1."""
    g = catalog.get("(2|3)_6").algebra
    br = g.bracket_table()
    for deg in (2, 3, -1):
        with pytest.raises(ValueError, match="degree 0 or 1"):
            invariants.abc_derivations(g, 1, 1, 1, deg)
        with pytest.raises(ValueError, match="degree 0 or 1"):
            invariants._derivation_images(g, br, 1, 1, 1, deg)
    assert invariants.abc_derivations(g, 1, 1, 1, 1)[0] == 6


def test_ordinary_derivations_match_orbit_dim():
    for label in ("(2|2)_6", "(3|1)_3", "(2|3)_6"):
        g = catalog.get(label).algebra
        assert (invariants.orbit_dim(g)
                == g.m ** 2 + g.n ** 2
                - invariants.abc_derivations(g, 1, 1, 1, 0)[0])


def test_trivial_sub_known_values():
    # equal t-values: the reason the cited item-(8) row cannot certify 7 -/-> 2
    t7 = invariants.trivial_sub_max(catalog.get("(2|3)_7").algebra)
    t2 = invariants.trivial_sub_max(catalog.get("(2|3)_2").algebra)
    assert t7["exact"] == 4
    assert t2["exact"] == 4
    t21 = invariants.trivial_sub_max(catalog.get("(2|3)_21").algebra)
    assert t21["exact"] == 4


def test_abelian_has_full_trivial_sub():
    g = catalog.get("(2|3)_0").algebra
    t = invariants.trivial_sub_max(g)
    assert t["exact"] == 5


def _odd_squares(c):
    """The (1|2) algebra with [f1,f1] = e1 and [f2,f2] = c*e1."""
    brackets = [{"lhs": f, "rhs": f, "value": [{"coeff": k, "basis": "e1"}]}
                for f, k in (("f1", "1"), ("f2", c))]
    return SuperAlgebra.from_doc({"name": f"sq{c}", "m": 1, "n": 2,
                                  "brackets": brackets})


def test_grid_search_when_groebner_is_undecided(monkeypatch):
    """An "unknown" Groebner verdict falls back to a small grid search:
    a chart with a grid point is a subalgebra, one without leaves the shape
    undecided, and t(g) is then not exact."""
    monkeypatch.setattr(invariants, "system_verdict", lambda eqs: "unknown")
    # y = f1 + v*f2 has [y, y] = (1 + v^2)*e1, zero at the grid point v = i
    br = _odd_squares("1").bracket_table()
    assert invariants.trivial_shape_exists(br, 1, 2, 0, 1) is True
    assert invariants._search_witness(
        invariants._bracket_polys(br, [{1: (), 2: (0,)}], 0, 1), 1) \
        == [I]
    # 1 + 3*v^2 has roots +-i/sqrt(3), off the grid, and [f2, f2] != 0
    g = _odd_squares("3")
    assert invariants.trivial_shape_exists(g.bracket_table(), 1, 2, 0, 1) \
        is None
    # only (1|0) is found; (1|2), (1|1), (0|2) and (0|1) stay undecided
    assert invariants.trivial_sub_max(g) == \
        {"lower": 1, "exact": None, "graded_profile": [(1, 0)]}
    # decided, f1 + i/sqrt(3)*f2 spans a trivial (0|1), and with e1 a (1|1)
    monkeypatch.undo()
    assert invariants.trivial_sub_max(g) == \
        {"lower": 2, "exact": 2, "graded_profile": [(0, 1), (1, 0), (1, 1)]}


# -- dense oracles for the sparse derivation systems and axiom checks --------


def dense_abc_derivations(g, alpha, beta, gamma, degree):
    """Every elementary map x_src -> x_dst applied to the brackets of all
    pairs of unit vectors; one row per (a, b, output coordinate)."""
    alpha, beta, gamma = (x if isinstance(x, FieldElem) else FieldElem(x)
                          for x in (alpha, beta, gamma))
    m, n = g.m, g.n
    d = m + n
    if degree == 0:
        unknowns = [("e", q, p) for q in range(m) for p in range(m)] + \
                   [("f", q, p) for q in range(n) for p in range(n)]
    else:
        unknowns = [("eo", q, p) for q in range(n) for p in range(m)] + \
                   [("oe", q, p) for q in range(m) for p in range(n)]
    if not unknowns:
        return 0, []
    vecs = [basis_vector(g, k) for k in range(d)]
    brackets = [[sum(g.bracket(x, y), []) for y in vecs] for x in vecs]
    rows = []
    for a in range(d):
        sign = FieldElem((-1) ** (degree * g.parity(a)))
        for b in range(d):
            block = [[ZERO] * len(unknowns) for _ in range(d)]
            for ui, (kind, q, p) in enumerate(unknowns):
                src = p if kind in ("e", "eo") else m + p
                dst = q if kind in ("e", "oe") else m + q
                res = [ZERO] * d
                res[dst] = alpha * brackets[a][b][src]
                if src == a:
                    res = [x - beta * y for x, y in zip(res, brackets[dst][b])]
                if src == b:
                    res = [x - sign * gamma * y
                           for x, y in zip(res, brackets[a][dst])]
                for k in range(d):
                    block[k][ui] = res[k]
            rows.extend(r for r in block if any(not x.is_zero() for x in r))
    basis = kernel(rows) if rows else \
        [[ONE if i == j else ZERO for j in range(len(unknowns))]
         for i in range(len(unknowns))]
    return len(basis), basis


def _nonzero(part, *signed):
    """Is sum(sign * vec) nonzero on the even (0) or odd (1) part?"""
    return any(not sum((s * v[part][k] for s, v in signed), ZERO).is_zero()
               for k in range(len(signed[0][1][part])))


def dense_check_jacobi(g):
    d = g.dim
    v = [basis_vector(g, k) for k in range(d)]
    br = g.bracket
    bad = []
    for a, b, c in product(range(d), repeat=3):
        pa, pb, pc = g.parity(a), g.parity(b), g.parity(c)
        signed = [((-1) ** (pa * pc), br(v[a], br(v[b], v[c]))),
                  ((-1) ** (pb * pa), br(v[b], br(v[c], v[a]))),
                  ((-1) ** (pc * pb), br(v[c], br(v[a], v[b])))]
        if _nonzero(0, *signed) or _nonzero(1, *signed):
            bad.append((a, b, c))
    return bad


def dense_check_consistency(g):
    m, n = g.m, g.n
    v = [basis_vector(g, k) for k in range(m + n)]
    f = v[m:]
    br = g.bracket
    problems = []
    for a, b, c in product(range(m), repeat=3):
        if _nonzero(0, (1, br(v[a], br(v[b], v[c]))),
                    (-1, br(br(v[a], v[b]), v[c])),
                    (-1, br(v[b], br(v[a], v[c])))):
            problems.append(f"even Jacobi fails at (e{a+1},e{b+1},e{c+1})")
    for a, b, j in product(range(m), range(m), range(n)):
        if _nonzero(1, (1, br(br(v[a], v[b]), f[j])),
                    (-1, br(v[a], br(v[b], f[j]))),
                    (1, br(v[b], br(v[a], f[j])))):
            problems.append(f"rho([e{a+1},e{b+1}]) != commutator on f{j+1}")
    for a, i, j in product(range(m), range(n), range(n)):
        if _nonzero(0, (1, br(v[a], br(f[i], f[j]))),
                    (-1, br(br(v[a], f[i]), f[j])),
                    (-1, br(f[i], br(v[a], f[j])))):
            problems.append(f"(J1) fails at (e{a+1},f{i+1},f{j+1})")
    for i, j, k in product(range(n), repeat=3):
        if _nonzero(1, (1, br(br(f[i], f[j]), f[k])),
                    (1, br(br(f[j], f[k]), f[i])),
                    (1, br(br(f[k], f[i]), f[j]))):
            problems.append(f"(J2) fails at (f{i+1},f{j+1},f{k+1})")
    return problems


def _graded_span(gens):
    """Graded row-echelon bases of the span of graded vectors."""
    bases = []
    for part in (0, 1):
        rows = [list(g[part]) for g in gens
                if any(not x.is_zero() for x in g[part])]
        if rows:
            rows, pivots = rref(rows)
            rows = rows[:len(pivots)]
        bases.append(rows)
    return tuple(bases)


def dense_lower_central_series(g):
    """Graded dimensions of g = g^1 >= g^2 >= ... from dense brackets of
    basis vectors with graded echelon bases, until stabilization."""
    m, n = g.m, g.n
    vecs = [basis_vector(g, k) for k in range(m + n)]
    current = ([[ONE if i == k else ZERO for k in range(m)] for i in range(m)],
               [[ONE if j == l else ZERO for l in range(n)] for j in range(n)])
    dims = [(m, n)]
    for _ in range(g.dim + 1):
        span_vecs = [(ev, [ZERO] * n) for ev in current[0]] + \
                    [([ZERO] * m, od) for od in current[1]]
        even_b, odd_b = _graded_span([g.bracket(v, w) for v in vecs
                                      for w in span_vecs])
        d = (len(even_b), len(odd_b))
        dims.append(d)
        if d == dims[-2]:
            dims.pop()
            break
        current = (even_b, odd_b)
        if d == (0, 0):
            break
    return dims


def test_sparse_abc_derivations_match_dense_oracle(rng):
    """Every catalog algebra of dimension <= 4, the five dimension-5 labels
    of the h2-catalog benchmark workload, their ab() and F reductions, and
    two rational basis changes of each (2|2) and (1|3) algebra."""
    base = [e.algebra for e in catalog.list_entries() if e.m + e.n <= 4]
    base += [catalog.get(lab).algebra for lab in
             ("(0|5)_0", "(1|4)_4", "(2|3)_6", "(3|2)_5", "(4|1)_6")]
    cases = [h for g in base for h in (g, g.ab(), g.forget_gamma())]
    for e in catalog.list_entries():
        if (e.m, e.n) in ((2, 2), (1, 3)):
            for _ in range(2):
                cases.append(e.algebra.apply_basis_change(
                    random_gl(e.m, rng), random_gl(e.n, rng)))
    # (1,1,1), (0,1,0), (0,1,-1), (0,1,1), (3,2,2) and (0,2,-2) are built on
    # the pairs a <= b; (1,0,0), (2,1,-1), (1,1,-1) and (i,1,sqrt2) on all
    tuples = invariants.ABC_TUPLES + [(0, 1, 1), (3, 2, 2), (0, 2, -2),
                                      (1, 0, 0), (2, 1, -1), (1, 1, -1),
                                      (I, 1, SQRT2)]
    for g in cases:
        for tup in tuples:
            for deg in (0, 1):
                assert (invariants.abc_derivations(g, *tup, deg)
                        == dense_abc_derivations(g, *tup, deg)), \
                    (g.name, tup, deg)


def test_abc_scalars_may_be_fractions():
    """(alpha, beta, gamma) may be ints, Fractions or FieldElems: on every
    label a Fraction tuple gives the dimension of the equal FieldElem tuple
    and of an integer multiple of it."""
    tuples = [((Fraction(1, 2), 1, 1), (1, 2, 2)),
              ((0, Fraction(2, 3), Fraction(-1, 3)), (0, 2, -1))]
    for e in catalog.list_entries():
        for tup, multiple in tuples:
            as_field = [FieldElem(x) for x in tup]
            for deg in (0, 1):
                dim = invariants.abc_derivations(e.algebra, *tup, deg)[0]
                assert dim == invariants.abc_derivations(
                    e.algebra, *as_field, deg)[0] == \
                    invariants.abc_derivations(e.algebra, *multiple, deg)[0], \
                    (e.label, tup, deg)


def _perturbed(g, rng):
    """g with one to three structure constants moved: the same draws as on
    the c/rho/gamma tensors, applied to the stored pairs."""
    m, n = g.m, g.n
    consts = {p: dict(v) for p, v in g.consts.items()}

    def bump(a, b, k, x):
        vec = consts.setdefault((a, b), {})
        vec[k] = vec.get(k, ZERO) + x

    for _ in range(rng.randint(1, 3)):
        x = rng.choice([ONE, -ONE, FieldElem(2), I, SQRT2])
        kind = rng.choice("crg")
        if kind == "c" and m >= 2:
            i, j = rng.sample(range(m), 2)
            k = rng.randrange(m)
            # c[i][j][k] += x, c[j][i][k] -= x
            bump(min(i, j), max(i, j), k, x if i < j else -x)
        elif kind == "r" and m and n:
            bump(rng.randrange(m), m + rng.randrange(n),
                 m + rng.randrange(n), x)
        elif kind == "g" and m and n:
            i, j, k = rng.randrange(n), rng.randrange(n), rng.randrange(m)
            bump(m + min(i, j), m + max(i, j), k, x)
    return SuperAlgebra(m, n, {p: v.items() for p, v in consts.items()},
                        name=f"{g.name}~")


def test_sparse_axiom_checks_match_dense_oracles(rng):
    """Seeded perturbations of every catalog algebra, violations and
    non-nilpotent cases included."""
    cases = [_perturbed(e.algebra, rng) for e in catalog.list_entries()]
    jacobi = [g.check_jacobi() for g in cases]
    consistency = [g.check_consistency() for g in cases]
    series = [g.lower_central_series() for g in cases]
    assert jacobi == [dense_check_jacobi(g) for g in cases]
    assert consistency == [dense_check_consistency(g) for g in cases]
    dense_series = [dense_lower_central_series(g) for g in cases]
    assert series == dense_series
    assert [g.is_nilpotent() for g in cases] == \
        [s[-1] == (0, 0) for s in dense_series]
    # each (J.) expression is +- the super-Jacobi sum at its ordered triple
    assert [bool(bad) for bad in jacobi] == \
        [bool(probs) for probs in consistency]
    assert sum(1 for s in series if s[-1] != (0, 0)) >= 30
    assert sum(1 for bad in jacobi if bad) >= 30
    found = " ".join(p for probs in consistency for p in probs)
    for kind in ("even Jacobi", "commutator", "(J1)", "(J2)"):
        assert kind in found, kind


# -- dense oracles for the invariants read from the bracket table -------------


def _kernel_of_columns(cols, size):
    """Kernel of the matrix with the given columns; with no rows it is
    everything."""
    rows = [list(r) for r in zip(*cols)]
    if rows:
        return kernel(rows)
    return [[ONE if i == j else ZERO for j in range(size)]
            for i in range(size)]


def dense_center(g):
    """The kernel of ad read from the c/rho/gamma tensors."""
    m, n = g.m, g.n
    c, rho, gam = dense_views(g)
    even_cols = [sum((list(c[v][j]) for j in range(m)), [])
                 + sum((list(rho[v][j]) for j in range(n)), [])
                 for v in range(m)]
    odd_cols = [sum((list(rho[j][v]) for j in range(m)), [])  # = -[f_v, e_j]
                + sum((list(gam[v][j]) for j in range(n)), [])
                for v in range(n)]
    even = _kernel_of_columns(even_cols, m) if m else []
    odd = _kernel_of_columns(odd_cols, n) if n else []
    return (len(even), len(odd)), (even, odd)


def dense_derived(g):
    m, n = g.m, g.n
    c, rho, gam = dense_views(g)
    even_rows = [list(c[i][j]) for i in range(m) for j in range(i + 1, m)]
    even_rows += [list(gam[i][j]) for i in range(n) for j in range(i, n)]
    odd_rows = [list(rho[i][j]) for i in range(m) for j in range(n)]
    return (rank(even_rows) if even_rows else 0,
            rank(odd_rows) if odd_rows else 0)


def poly_mul(p, q):
    """The product of two polynomials (exponent tuple -> coefficient)."""
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            mono = tuple(a + b for a, b in zip(m1, m2))
            acc = out.get(mono, ZERO) + c1 * c2
            if acc.is_zero():
                out.pop(mono, None)
            else:
                out[mono] = acc
    return out


def subspace_vars(pivots, total, offset):
    """Basis columns in column-echelon form: pivot rows carry 1, rows below
    a pivot (not pivots themselves) carry variables.  Returns (columns,
    var_count): each column entry is either a FieldElem or ('var', idx)."""
    cols = []
    var_idx = offset
    for p in pivots:
        col = []
        for r in range(total):
            if r == p:
                col.append(ONE)
            elif r in pivots or r < p:
                col.append(ZERO)
            else:
                col.append(("var", var_idx))
                var_idx += 1
        cols.append(col)
    return cols, var_idx - offset


def column_gens(cols, at):
    """The nonzero entries of chart columns as generators: 1 -> (),
    ("var", i) -> (i,), at combined basis index at + row."""
    out = []
    for col in cols:
        gen = {}
        for r, e in enumerate(col):
            if isinstance(e, tuple):
                gen[at + r] = (e[1],)
            elif e:
                assert e == ONE
                gen[at + r] = ()
        out.append(gen)
    return out


def dense_bracket_polys(g, ecols, ocols, nvars):
    """The bracket of every pair of generators, coordinate by coordinate of
    the c/rho/gamma tensors."""
    m, n = g.m, g.n
    c, rho, gam = dense_views(g)

    def entry_poly(e):
        if isinstance(e, tuple):
            mono = [0] * nvars
            mono[e[1]] = 1
            return {tuple(mono): ONE}
        return {} if e.is_zero() else {tuple([0] * nvars): e}

    gens = [("e", [entry_poly(x) for x in col]) for col in ecols] + \
           [("f", [entry_poly(x) for x in col]) for col in ocols]
    eqs = []
    for i1, (k1, v1) in enumerate(gens):
        for i2, (k2, v2) in enumerate(gens):
            if i2 < i1 or (k1 == k2 == "e" and i1 == i2):
                continue
            acc = [{} for _ in range(m if k1 == k2 else n)]
            for a, pa in enumerate(v1):
                for b, pb in enumerate(v2):
                    if not pa or not pb:
                        continue
                    if k1 == k2 == "e":
                        coefs = c[a][b]
                    elif k1 == k2 == "f":
                        coefs = gam[a][b]
                    elif k1 == "e":
                        coefs = rho[a][b]
                    else:
                        coefs = [-x for x in rho[b][a]]
                    prod = poly_mul(pa, pb)
                    for k, cf in enumerate(coefs):
                        if not cf.is_zero():
                            acc[k] = poly_add(acc[k], poly_scale(prod, cf))
            eqs.extend(p for p in acc if p)
    return eqs


def test_table_invariants_match_dense_oracles(rng):
    """center, derived and the trivial-subalgebra equations of every shape
    and echelon pattern, on every catalog algebra, its ab() and F
    reductions and one seeded rational basis change of it."""
    cases = []
    for e in catalog.list_entries():
        g = e.algebra
        cases += [g, g.ab(), g.forget_gamma(), g.apply_basis_change(
            random_gl(g.m, rng), random_gl(g.n, rng))]
    for g in cases:
        assert invariants.center(g) == dense_center(g), g.name
        assert invariants.derived(g) == dense_derived(g), g.name
        br = g.bracket_table()
        for a, b in product(range(g.m + 1), range(g.n + 1)):
            for epiv in combinations(range(g.m), a):
                ecols, ev = subspace_vars(epiv, g.m, 0)
                egens, next_var = invariants._chart(epiv, g.m, 0, 0)
                assert next_var == ev
                assert [list(x.items()) for x in egens] == \
                    [list(x.items()) for x in column_gens(ecols, 0)]
                for opiv in combinations(range(g.n), b):
                    ocols, ov = subspace_vars(opiv, g.n, ev)
                    ogens, next_var = invariants._chart(opiv, g.n, g.m, ev)
                    assert next_var == ev + ov
                    assert [list(x.items()) for x in ogens] == \
                        [list(x.items()) for x in column_gens(ocols, g.m)]
                    nvars = max(ev + ov, 1)
                    got = invariants._bracket_polys(br, egens + ogens, a,
                                                    nvars)
                    want = dense_bracket_polys(g, ecols, ocols, nvars)
                    assert ([list(p.items()) for p in got]
                            == [list(p.items()) for p in want]), \
                        (g.name, epiv, opiv)


# -- the table invariants as they were over FieldElem tables, oracles for the
# -- integral table ------------------------------------------------------------


def center_before(g, br=None):
    """Graded dimension of the center, with graded bases: for each parity,
    the kernel of ad over the combined basis."""
    m, d = g.m, g.dim
    if br is None:
        br = g.bracket_table()

    def ad_kernel(vs):
        # column v, row (b, k): coordinate k of [x_v, x_b]
        cols = [[dict(br[v][b]) for b in range(d)] for v in vs]
        return kernel([[col[b].get(k, ZERO) for col in cols]
                       for b in range(d) for k in range(d)]) if vs else []

    even_basis, odd_basis = ad_kernel(range(m)), ad_kernel(range(m, d))
    return (len(even_basis), len(odd_basis)), (even_basis, odd_basis)


def derived_before(g, br=None):
    """Graded dimension of [g, g]: the ranks of the even and odd parts of
    the brackets [x_a, x_b], a <= b."""
    m, d = g.m, g.dim
    if br is None:
        br = g.bracket_table()
    rows = [[dict(br[a][b]).get(k, ZERO) for k in range(d)]
            for a in range(d) for b in range(a, d)]
    return rank([r[:m] for r in rows]), rank([r[m:] for r in rows])


def abc_derivations_before(g, alpha, beta, gamma, degree, br=None):
    """Dimension (with basis) of degree-`degree` (alpha,beta,gamma)-derivations.

    The defining equation, for homogeneous x, y:
        alpha * D[x,y] = beta * [Dx, y] + (-1)^(degree*|x|) * gamma * [x, Dy]
    evaluated on ALL ordered basis pairs (beta != gamma makes both orders
    informative).  The unknowns are the elementary maps x_src -> x_dst of the
    given degree; each equation is a sum over the nonzero brackets only.
    """
    alpha, beta, gamma = (x if isinstance(x, FieldElem) else FieldElem(x)
                          for x in (alpha, beta, gamma))
    m, n = g.m, g.n
    d = m + n
    if degree == 0:
        # A (m x m), D (n x n): maps within parity, entry (q, p) is p -> q
        unknowns = [(p, q) for q in range(m) for p in range(m)] + \
                   [(m + p, m + q) for q in range(n) for p in range(n)]
    else:
        # even -> odd (n x m) and odd -> even (m x n)
        unknowns = [(p, m + q) for q in range(n) for p in range(m)] + \
                   [(m + p, q) for q in range(m) for p in range(n)]
    if not unknowns:
        return 0, []

    if br is None:
        br = g.bracket_table()
    from_src = [[] for _ in range(d)]  # from_src[s]: (unknown, dst)
    for ui, (src, dst) in enumerate(unknowns):
        from_src[src].append((ui, dst))
    rows = []
    for a in range(d):
        # (-1)^(degree*|a|) * gamma
        sgamma = -gamma if degree * g.parity(a) % 2 else gamma
        for b in range(d):
            # residual = alpha*D[a,b] - beta*[Da,b] - sign*gamma*[a,Db] as
            # (output coordinate, unknown, coefficient) terms
            terms = [(dst, ui, alpha * x) for src, x in br[a][b]
                     for ui, dst in from_src[src]]
            terms += [(k, ui, -(beta * y)) for ui, dst in from_src[a]
                      for k, y in br[dst][b]]
            terms += [(k, ui, -(sgamma * y)) for ui, dst in from_src[b]
                      for k, y in br[a][dst]]
            block = {}  # output coordinate -> row
            for k, ui, x in terms:
                row = block.get(k)
                if row is None:
                    row = block[k] = [ZERO] * len(unknowns)
                row[ui] = row[ui] + x
            rows.extend(block[k] for k in sorted(block)
                        if any(not x.is_zero() for x in block[k]))
    basis = kernel(rows) if rows else \
        [[ONE if i == j else ZERO for j in range(len(unknowns))]
         for i in range(len(unknowns))]
    return len(basis), basis


def test_invariants_match_former_field_code(rng):
    """center, derived and the (alpha,beta,gamma)-derivations, which now
    read the integral copy of the bracket table, equal the code that read
    the FieldElem table, values and bases, on `table_cases` (with Q(i,
    sqrt2) basis changes up to dimension 3)."""
    tuples = invariants.ABC_TUPLES + [(I, 1, SQRT2)]
    for g in table_cases(rng, irrational_dim=3):
        br = g.bracket_table()
        assert invariants.center(g) == center_before(g, br), g.name
        assert invariants.derived(g) == derived_before(g, br), g.name
        for tup in tuples:
            for deg in (0, 1):
                assert (invariants.abc_derivations(g, *tup, deg)
                        == abc_derivations_before(g, *tup, deg, br)), \
                    (g.name, tup, deg)


def test_report_ranks_match_derivation_kernels(rng):
    """invariant_report reads each (alpha,beta,gamma) entry as unknowns less
    the rank of the rows; each equals the kernel dimension that
    abc_derivations returns, and orbit_dim equals the report's, on
    `table_cases` (Q(i, sqrt2) basis changes included)."""
    for g in table_cases(rng):
        report = invariants.invariant_report(g, with_trivial=False)
        for a, b, c in invariants.ABC_TUPLES:
            for deg in (0, 1):
                assert (report["abc_entries"][f"({a},{b},{c})@{deg}"]
                        == invariants.abc_derivations(g, a, b, c, deg)[0]), \
                    (g.name, (a, b, c), deg)
        assert report["orbit_dim"] == invariants.orbit_dim(g), g.name
        assert report["der0_dim"] == \
            g.m ** 2 + g.n ** 2 - report["orbit_dim"], g.name


def test_report_builds_the_integral_table_once(monkeypatch):
    """The center reads the stored pairs, so a report builds the integral
    table of its derivation systems once."""
    calls = []
    real = invariants.integral_table
    monkeypatch.setattr(invariants, "integral_table",
                        lambda g: calls.append(g.name) or real(g))
    invariants.invariant_report(catalog.get("(2|3)_6").algebra)
    assert calls == ["(2|3)_6"]


def trivial_sub_max_exhaustive(g):
    """t(g) with every shape (a|b) searched, in increasing a then b."""
    m, n = g.m, g.n
    br = g.bracket_table()
    profile, undecided = [], []
    for a in range(m + 1):
        for b in range(n + 1):
            if a + b == 0:
                continue
            res = invariants.trivial_shape_exists(br, m, n, a, b)
            if res is True:
                profile.append((a, b))
            elif res is None:
                undecided.append(a + b)
    best = max((a + b for a, b in profile), default=0)
    exact = None if max(undecided, default=0) > best else best
    return {"lower": best, "exact": exact, "graded_profile": sorted(profile)}


def test_trivial_sub_max_matches_exhaustive_search():
    """Deciding shapes from the largest down, and taking a shape below a
    found one without a search, gives the exhaustive result on every
    catalog algebra and its ab() and F reductions."""
    for e in catalog.list_entries():
        g = e.algebra
        for h in (g, g.ab(), g.forget_gamma()):
            assert (invariants.trivial_sub_max(h)
                    == trivial_sub_max_exhaustive(h)), h.name
