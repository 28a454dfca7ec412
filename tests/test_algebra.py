from fractions import Fraction
from itertools import product

import pytest

from conftest import rand_elem
from superlie import catalog, cohomology, invariants, orbitrel
from superlie.algebra import AlgebraError, SuperAlgebra, pairs
from superlie.field import ONE, ZERO, format_elem, parse_elem
from superlie.gamma23 import random_gl
from superlie.linalg import SingularMatrix, series_solve, solve, transpose
from superlie.series import PuiseuxSeries


def test_from_doc_to_doc_roundtrip_all_catalog():
    for entry in catalog.list_entries():
        g = entry.algebra
        g2 = SuperAlgebra.from_doc(g.to_doc())
        assert g2.constants_equal(g)
        assert g2.m == g.m and g2.n == g.n


def test_constants_equal_is_reflexive_on_series_constants():
    """A truncated series constant is not known to be zero minus itself,
    yet the algebra equals itself; a different constant still differs."""
    g = SuperAlgebra(2, 0, {(0, 1): [(1, PuiseuxSeries({0: ONE, 1: ONE}, 8))]})
    h = SuperAlgebra(2, 0, {(0, 1): [(1, PuiseuxSeries({0: ONE}, 8))]})
    assert g.constants_equal(g)
    assert not g.constants_equal(h)


def test_axioms_all_catalog():
    for entry in catalog.list_entries():
        g = entry.algebra
        assert g.check_consistency() == []
        assert g.check_jacobi() == []
        assert g.is_nilpotent()


def test_tampered_algebra_fails():
    doc = catalog.get("(2|2)_6").doc
    bad = {**doc, "brackets": [dict(b) for b in doc["brackets"]]}
    for b in bad["brackets"]:
        b["value"] = [dict(v) for v in b["value"]]
    # redirect [e2,f2] from f1 to f2: ad(e2) is then no Gamma-derivation
    bad["brackets"][0]["value"][0]["basis"] = "f2"
    g = SuperAlgebra.from_doc(bad)
    assert g.check_jacobi() != [] or g.check_consistency() != []


def test_ab_and_forget_gamma():
    g = catalog.get("(2|3)_22").algebra
    f = g.forget_gamma()
    assert f.constants_equal(catalog.get("(2|3)_21").algebra)
    a = catalog.get("(2|3)_19").algebra.ab()
    # ab keeps only gamma; the result is a valid superalgebra
    assert a.check_consistency() == []
    assert a.check_jacobi() == []


def test_conflicting_mirror_brackets_rejected():
    # [f2,f1] restates the unordered pair {f1,f2}; a second, conflicting
    # specification must be rejected rather than silently combined
    doc = {"name": "bad", "m": 1, "n": 2, "brackets": [
        {"lhs": "f1", "rhs": "f2", "value": [{"coeff": "1", "basis": "e1"}]},
        {"lhs": "f2", "rhs": "f1", "value": [{"coeff": "-1", "basis": "e1"}]},
    ]}
    with pytest.raises(AlgebraError):
        SuperAlgebra.from_doc(doc)


def test_property_invariance_under_basis_change(rng):
    """center/derived/h2 dims are unchanged by 200 random basis changes."""
    small = [e for e in catalog.list_entries() if e.m + e.n <= 4
             and e.m >= 1 and e.n >= 1]
    base = {e.label: (invariants.center(e.algebra)[0],
                      invariants.derived(e.algebra),
                      cohomology.h2_even(e.algebra)["dim"])
            for e in small}
    cases = 0
    while cases < 200:
        entry = rng.choice(small)
        g = entry.algebra
        T = random_gl(g.m, rng)
        S = random_gl(g.n, rng)
        moved = g.apply_basis_change(T, S)
        assert moved.check_jacobi() == []
        center_dims, derived_dims, h2_dim = base[entry.label]
        assert invariants.center(moved)[0] == center_dims
        assert invariants.derived(moved) == derived_dims
        assert cohomology.h2_even(moved)["dim"] == h2_dim
        cases += 1
    assert cases == 200


# -- the dense c/rho/gamma tensor code that `consts` replaced, as the oracle --


def tensor_from_doc(doc):
    """(m, n, c, rho, gamma) of a document, by the tensor-filling rules."""
    m, n = int(doc["m"]), int(doc["n"])
    c = [[[ZERO] * m for _ in range(m)] for _ in range(m)]
    rho = [[[ZERO] * n for _ in range(n)] for _ in range(m)]
    gamma = [[[ZERO] * m for _ in range(n)] for _ in range(n)]

    def slot(sym):
        return sym[0], int(sym[1:]) - 1

    for entry in doc.get("brackets", []):
        lk, li = slot(entry["lhs"])
        rk, ri = slot(entry["rhs"])
        value = [(parse_elem(v["coeff"]), slot(v["basis"])[1])
                 for v in entry.get("value", [])]
        for coeff, k in value:
            if lk == "e" and rk == "e":
                c[li][ri][k] = c[li][ri][k] + coeff
                c[ri][li][k] = c[ri][li][k] - coeff
            elif lk == "e":
                rho[li][ri][k] = rho[li][ri][k] + coeff
            elif rk == "e":
                rho[ri][li][k] = rho[ri][li][k] - coeff
            else:
                gamma[li][ri][k] = gamma[li][ri][k] + coeff
                if li != ri:
                    gamma[ri][li][k] = gamma[ri][li][k] + coeff
    return m, n, c, rho, gamma


def tensor_to_doc(name, m, n, c, rho, gamma):
    brackets = []

    def emit(lhs, rhs, vec, names):
        value = [{"coeff": format_elem(x), "basis": names[k]}
                 for k, x in enumerate(vec) if not x.is_zero()]
        if value:
            brackets.append({"lhs": lhs, "rhs": rhs, "value": value})

    e = [f"e{i+1}" for i in range(m)]
    f = [f"f{j+1}" for j in range(n)]
    for i in range(m):
        for j in range(i + 1, m):
            emit(e[i], e[j], c[i][j], e)
    for i in range(m):
        for j in range(n):
            emit(e[i], f[j], rho[i][j], f)
    for i in range(n):
        for j in range(i, n):
            emit(f[i], f[j], gamma[i][j], e)
    return {"name": name, "m": m, "n": n, "brackets": brackets}


def tensor_basis_change(m, n, c, rho, gamma, T, S):
    """The tensors in the basis x_i = sum_a T[a][i] e_a,
    y_j = sum_b S[b][j] f_b: every ordered pair, mirrors and diagonal
    included, combined from the whole tensor and solved by T or S."""
    if any(isinstance(x, PuiseuxSeries) for row in list(T) + list(S)
           for x in row):
        lift = lambda v: [x if isinstance(x, PuiseuxSeries)
                          else PuiseuxSeries.from_scalar(x) for x in v]
        T, S = [lift(r) for r in T], [lift(r) for r in S]
        c, rho, gamma = ([[lift(v) for v in row] for row in t]
                         for t in (c, rho, gamma))
        solver, zero = series_solve, PuiseuxSeries({})
    else:
        solver, zero = solve, ZERO

    def combo(tensor, P, Q, out_dim):
        cols = []
        for i in range(len(P[0]) if P else 0):
            for j in range(len(Q[0]) if Q else 0):
                acc = [zero] * out_dim
                for a in range(len(P)):
                    if P[a][i].is_zero():
                        continue
                    for b in range(len(Q)):
                        if Q[b][j].is_zero():
                            continue
                        coef = P[a][i] * Q[b][j]
                        for k in range(out_dim):
                            acc[k] = acc[k] + coef * tensor[a][b][k]
                cols.append(acc)
        return cols

    new_c = [[[]] * m for _ in range(m)]
    new_rho = [[[]] * n for _ in range(m)]
    new_gamma = [[[]] * n for _ in range(n)]
    if m:
        sol = transpose(solver(T, transpose(combo(c, T, T, m)
                                            + combo(gamma, S, S, m))))
        for idx, (i, j) in enumerate(product(range(m), repeat=2)):
            new_c[i][j] = sol[idx]
        for idx, (i, j) in enumerate(product(range(n), repeat=2)):
            new_gamma[i][j] = sol[m * m + idx]
    cols = combo(rho, T, S, n) if n else []
    if cols:
        sol = transpose(solver(S, transpose(cols)))
        for idx, (i, j) in enumerate(product(range(m), range(n))):
            new_rho[i][j] = sol[idx]
    return [new_c, new_rho, new_gamma]


@pytest.mark.parametrize("lift", [lambda x: x, PuiseuxSeries.from_scalar],
                         ids=["field", "series"])
@pytest.mark.parametrize("label", ["(0|2)_0", "(0|3)_0"])
def test_singular_odd_basis_is_refused_without_odd_outputs(label, lift):
    """With m = 0 no stored pair has an odd output, and a singular S is
    refused all the same."""
    g = catalog.get(label).algebra
    S = [[lift(ONE)] * g.n] + [[lift(ZERO)] * g.n for _ in range(g.n - 1)]
    with pytest.raises(SingularMatrix):
        g.apply_basis_change([], S)


def tensor_limit(c, rho, gamma):
    """t -> 0 in every entry, in the tensors' walking order."""
    lim = lambda x: x.limit_at_zero() if isinstance(x, PuiseuxSeries) else x
    return [[[[lim(x) for x in v] for v in row] for row in t]
            for t in (c, rho, gamma)]


def tensor_consts(m, n, c, rho, gamma):
    """The nonzero tensor entries at the pairs of `pairs(m, n)`."""
    out = {}
    for a, b in pairs(m, n):
        if b < m:
            vec = enumerate(c[a][b])
        elif a < m:
            vec = ((m + l, x) for l, x in enumerate(rho[a][b - m]))
        else:
            vec = enumerate(gamma[a - m][b - m])
        vec = tuple((k, x) for k, x in vec if not x.is_zero())
        if vec:
            out[(a, b)] = vec
    return out


def _same_consts(g, want):
    assert g.consts == want, g.name
    assert list(g.consts) == list(want), g.name


def test_stored_constants_match_tensor_oracle(rng):
    """Every catalog algebra, its ab() and F reductions and two seeded
    rational basis changes: the stored pairs are the nonzero tensor entries
    and `to_doc` is the tensor document."""
    for e in catalog.list_entries():
        g = e.algebra
        m, n, c, rho, gamma = tensor_from_doc(e.doc)
        zc = [[[ZERO] * m for _ in range(m)] for _ in range(m)]
        zr = [[[ZERO] * n for _ in range(n)] for _ in range(m)]
        zg = [[[ZERO] * m for _ in range(n)] for _ in range(n)]
        cases = [(g, (c, rho, gamma)), (g.ab(), (zc, zr, gamma)),
                 (g.forget_gamma(), (c, rho, zg))]
        for _ in range(2):
            T, S = random_gl(m, rng), random_gl(n, rng)
            cases.append((g.apply_basis_change(T, S),
                          tensor_basis_change(m, n, c, rho, gamma, T, S)))
        for h, tensors in cases:
            _same_consts(h, tensor_consts(m, n, *tensors))
            assert h.to_doc() == tensor_to_doc(h.name, m, n, *tensors)


def _outcome(fn):
    """fn(), or the type and message of the exception it raises."""
    try:
        return fn()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("precision", [None, Fraction(1, 2)],
                         ids=["default", "1/2"])
def test_series_basis_change_matches_tensor_oracle(precision):
    """Every builtin witness basis, at the default precision and at one too
    low for some limits: the moved series constants entry for entry (terms
    and precision), and the limit or the first exception of t -> 0."""
    raised = 0
    for doc in catalog.witnesses():
        w = orbitrel.DegenerationWitness.from_doc(doc)
        g = catalog.get(w.from_name).algebra
        m, n, c, rho, gamma = tensor_from_doc(catalog.get(w.from_name).doc)
        for basis in filter(None, (w.basis, w.alt_basis)):
            T, S = orbitrel._witness_matrices(w, m, n, precision, basis)
            moved = _outcome(lambda: g.apply_basis_change(T, S))
            want = _outcome(lambda: tensor_basis_change(m, n, c, rho, gamma,
                                                        T, S))
            if isinstance(want, tuple):
                assert moved == want, (w.from_name, w.to_name)
                continue
            _same_consts(moved, tensor_consts(m, n, *want))
            limit = _outcome(moved.limit_at_zero)
            want_limit = _outcome(lambda: tensor_limit(*want))
            if isinstance(want_limit, tuple):
                assert limit == want_limit, (w.from_name, w.to_name)
                raised += 1
            else:
                _same_consts(limit, tensor_consts(m, n, *want_limit))
    assert raised == (0 if precision is None else 4)


def _homogeneous(g, parity, rng):
    coords = [rand_elem(rng) for _ in range(g.n if parity else g.m)]
    return ([ZERO] * g.m, coords) if parity else (coords, [ZERO] * g.n)


def test_bracket_graded_antisymmetry(rng):
    """[y, x] = -(-1)^(|x||y|) [x, y] on seeded homogeneous vectors."""
    nonzero = 0
    for e in catalog.list_entries():
        g = e.algebra
        for px, py in product((0, 1), repeat=2):
            if not (g.n if px else g.m) or not (g.n if py else g.m):
                continue
            x, y = _homogeneous(g, px, rng), _homogeneous(g, py, rng)
            xy, yx = g.bracket(x, y), g.bracket(y, x)
            sign = ONE if px and py else -ONE
            assert [list(part) for part in yx] == \
                [[sign * v for v in part] for part in xy], (g.name, px, py)
            nonzero += any(not v.is_zero() for part in xy for v in part)
    assert nonzero >= 100


def test_constructor_rejects_bad_pairs_and_parities():
    ok = SuperAlgebra(2, 1, {(0, 1): [(0, ONE)], (0, 2): [(2, ONE)],
                             (2, 2): [(1, ONE)]})
    assert list(ok.consts) == [(0, 1), (0, 2), (2, 2)]
    assert SuperAlgebra(2, 1, {(0, 1): [(0, ZERO)]}).consts == {}
    for pair in [(1, 0), (0, 0), (2, 0), (0, 3)]:
        with pytest.raises(AlgebraError, match="not a stored pair"):
            SuperAlgebra(2, 1, {pair: [(0, ONE)]})
    for pair, k in [((0, 1), 2), ((0, 2), 1), ((2, 2), 2), ((0, 1), 3)]:
        with pytest.raises(AlgebraError, match="wrong parity"):
            SuperAlgebra(2, 1, {pair: [(k, ONE)]})


@pytest.mark.parametrize("brackets, message", [
    ([("f1", "f2", "e1"), ("f2", "f1", "e1")], "duplicate bracket [f2,f1]"),
    ([("e1", "e2", "e1"), ("e2", "e1", "e2")], "duplicate bracket [e2,e1]"),
    ([("e1", "f1", "e1")], "bracket [e1,f1] has odd-graded value"),
    ([("f1", "f1", "f1")], "bracket [f1,f1] has odd-graded value"),
    ([("e1", "e2", "f1")], "bracket [e1,e2] has odd-graded value"),
    ([("e2", "e2", "e1")], "[e2,e2] must vanish"),
    ([("e1", "f3", "f1")], "unknown basis symbol 'f3'"),
])
def test_from_doc_messages(brackets, message):
    doc = {"m": 2, "n": 2, "brackets": [
        {"lhs": lhs, "rhs": rhs, "value": [{"coeff": "1", "basis": out}]}
        for lhs, rhs, out in brackets]}
    with pytest.raises(AlgebraError) as info:
        SuperAlgebra.from_doc(doc)
    assert str(info.value) == message


@pytest.mark.parametrize("lhs, rhs, basis", [
    slots for name in ("", "e+1", "e1_0")
    for slots in ((name, "e2", "e3"), ("e2", name, "e3"), ("e2", "e3", name))
] + [("f 1", "f1", "e1"), ("f1", "f 1", "e1"), ("e1", "f1", "f 1")])
def test_from_doc_refuses_malformed_basis_names(lhs, rhs, basis):
    """Only e1..em, f1..fn name a basis vector.  Names that int() reads,
    "e+1" as e1, "f 1" as f1 and "e1_0" as e10, are refused like "", in
    each place a document names one; the (10|1) shape has an e10."""
    doc = {"m": 10, "n": 1, "brackets": [
        {"lhs": lhs, "rhs": rhs, "value": [{"coeff": "1", "basis": basis}]}]}
    bad = next(name for name in (lhs, rhs, basis)
               if name not in ("e1", "e2", "e3", "f1"))
    with pytest.raises(AlgebraError) as info:
        SuperAlgebra.from_doc(doc)
    assert str(info.value) == f"unknown basis symbol {bad!r}"
