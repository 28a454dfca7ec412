"""Finite-dimensional Lie superalgebras with exact structure constants.

An algebra of type (m|n) is given by three tensors over the scalar ring
(FieldElem for catalog algebras, PuiseuxSeries while verifying witnesses):

* ``c[i][j]``     -- [e_i, e_j] as a coefficient vector over e_1..e_m,
* ``rho[i][j]``   -- [e_i, f_j] as a coefficient vector over f_1..f_n,
* ``gamma[i][j]`` -- [f_i, f_j] as a coefficient vector over e_1..e_m.

c is antisymmetric and gamma symmetric; nothing else is assumed until
`check_jacobi` / `check_consistency` are called.
"""

from __future__ import annotations

from itertools import chain, product
from typing import Dict, List, Tuple

from .field import FieldElem, ONE, ZERO, parse_elem, format_elem
from .linalg import rref, solve, series_solve, transpose
from .series import PuiseuxSeries


class AlgebraError(ValueError):
    pass


def _is_zero(x) -> bool:
    return x.is_zero()


def _known_zero(x) -> bool:
    """Zero to every known order (a truncated series with no terms counts:
    symmetry of exact inputs is preserved by the exact arithmetic, only the
    precision bookkeeping may differ)."""
    if isinstance(x, PuiseuxSeries):
        return not x.terms
    return x.is_zero()


def _sparse(graded) -> List[Tuple[int, FieldElem]]:
    """Nonzero (index, coefficient) pairs of a graded vector over the
    combined basis (odd indices offset by m)."""
    return [(k, x) for k, x in enumerate(chain(*graded)) if not _is_zero(x)]


def _right(br, a, b, c):
    """[x_a, [x_b, x_c]] as (index, coefficient) terms, from a bracket table."""
    return [(k, x * y) for r, x in br[b][c] for k, y in br[a][r]]


def _left(br, a, b, c):
    """[[x_a, x_b], x_c] as (index, coefficient) terms, from a bracket table."""
    return [(k, x * y) for r, x in br[a][b] for k, y in br[r][c]]


def _vanishes(parts, lo: int, hi: int) -> bool:
    """Does the sum of the (negate, terms) parts vanish on the combined
    coordinates lo..hi-1?"""
    acc = {}
    for negate, terms in parts:
        for k, x in terms:
            if lo <= k < hi:
                x = -x if negate else x
                acc[k] = acc[k] + x if k in acc else x
    return all(_is_zero(x) for x in acc.values())


def _zero_like(x):
    if isinstance(x, PuiseuxSeries):
        return PuiseuxSeries({})
    return ZERO


class SuperAlgebra:
    __slots__ = ("name", "m", "n", "c", "rho", "gamma")

    def __init__(self, m: int, n: int, c, rho, gamma, name: str = ""):
        self.name = name
        self.m = m
        self.n = n
        self.c = tuple(tuple(tuple(v) for v in row) for row in c)
        self.rho = tuple(tuple(tuple(v) for v in row) for row in rho)
        self.gamma = tuple(tuple(tuple(v) for v in row) for row in gamma)
        self._validate_shapes()

    def _validate_shapes(self):
        m, n = self.m, self.n
        if len(self.c) != m or any(len(r) != m for r in self.c) or \
                any(len(v) != m for r in self.c for v in r):
            raise AlgebraError("c tensor has wrong shape")
        if len(self.rho) != m or any(len(r) != n for r in self.rho) or \
                any(len(v) != n for r in self.rho for v in r):
            raise AlgebraError("rho tensor has wrong shape")
        if len(self.gamma) != n or any(len(r) != n for r in self.gamma) or \
                any(len(v) != m for r in self.gamma for v in r):
            raise AlgebraError("gamma tensor has wrong shape")
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    if not _known_zero(self.c[i][j][k] + self.c[j][i][k]):
                        raise AlgebraError(
                            f"c is not antisymmetric at ({i},{j},{k})")
        for i in range(n):
            for j in range(n):
                for k in range(m):
                    if not _known_zero(self.gamma[i][j][k] - self.gamma[j][i][k]):
                        raise AlgebraError(
                            f"gamma is not symmetric at ({i},{j},{k})")

    # -- basic data ------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.m + self.n

    def basis_names(self) -> List[str]:
        return [f"e{i + 1}" for i in range(self.m)] + \
               [f"f{j + 1}" for j in range(self.n)]

    # -- the bracket -------------------------------------------------------

    def _scalar_zero(self):
        for tensor in (self.c, self.rho, self.gamma):
            for row in tensor:
                for vec in row:
                    for entry in vec:
                        return _zero_like(entry)
        return ZERO

    def bracket(self, x, y):
        """Bracket of graded vectors x=(even,odd), y=(even,odd)."""
        m, n = self.m, self.n
        xe, xo = x
        ye, yo = y
        zero = self._scalar_zero()
        even = [zero] * m
        odd = [zero] * n
        for i in range(m):
            a = xe[i]
            if _is_zero(a):
                continue
            for j in range(m):
                b = ye[j]
                if _is_zero(b):
                    continue
                coef = a * b
                for k in range(m):
                    t = self.c[i][j][k]
                    if not _is_zero(t):
                        even[k] = even[k] + coef * t
            for j in range(n):
                b = yo[j]
                if _is_zero(b):
                    continue
                coef = a * b
                for l in range(n):
                    t = self.rho[i][j][l]
                    if not _is_zero(t):
                        odd[l] = odd[l] + coef * t
        for i in range(n):
            a = xo[i]
            if _is_zero(a):
                continue
            for j in range(m):
                b = ye[j]
                if _is_zero(b):
                    continue
                coef = a * b  # [f_i, e_j] = -[e_j, f_i]
                for l in range(n):
                    t = self.rho[j][i][l]
                    if not _is_zero(t):
                        odd[l] = odd[l] - coef * t
            for j in range(n):
                b = yo[j]
                if _is_zero(b):
                    continue
                coef = a * b
                for k in range(m):
                    t = self.gamma[i][j][k]
                    if not _is_zero(t):
                        even[k] = even[k] + coef * t
        return even, odd

    def basis_vector(self, idx: int):
        """Graded unit vector for the idx-th basis element (0-based)."""
        zero = self._scalar_zero()
        if isinstance(zero, PuiseuxSeries):
            one = PuiseuxSeries.from_scalar(ONE)
        else:
            one = ONE
        even = [zero] * self.m
        odd = [zero] * self.n
        if idx < self.m:
            even = list(even)
            even[idx] = one
        else:
            odd = list(odd)
            odd[idx - self.m] = one
        return even, odd

    def bracket_table(self):
        """table[a][b] = [x_a, x_b] as a sparse combined-basis vector (odd
        indices offset by m).  Built from `bracket`, so the sign of
        [f, e] = -rho is decided there only."""
        d = self.dim
        vecs = [self.basis_vector(k) for k in range(d)]
        return [[_sparse(self.bracket(vecs[a], vecs[b])) for b in range(d)]
                for a in range(d)]

    # -- axioms --------------------------------------------------------------

    def parity(self, idx: int) -> int:
        return 0 if idx < self.m else 1

    def check_jacobi(self) -> List[Tuple[int, int, int]]:
        """Super-Jacobi on all homogeneous basis triples; returns violations."""
        d = self.dim
        br = self.bracket_table()
        odd = [self.parity(k) for k in range(d)]
        bad = []
        for a, b, c in product(range(d), repeat=3):
            # (-1)^(|a||c|) [a,[b,c]] + (-1)^(|b||a|) [b,[c,a]]
            #     + (-1)^(|c||b|) [c,[a,b]]
            if not _vanishes([(odd[a] and odd[c], _right(br, a, b, c)),
                              (odd[b] and odd[a], _right(br, b, c, a)),
                              (odd[c] and odd[b], _right(br, c, a, b))],
                             0, d):
                bad.append((a, b, c))
        return bad

    def check_consistency(self) -> List[str]:
        """The (J1)/(J2) formulation: even part is a Lie algebra, rho is a
        representation, gamma is equivariant (J1) and cyclically flat (J2)."""
        m, n = self.m, self.n
        d = m + n
        br = self.bracket_table()
        problems = []
        # even Jacobi: [a,[b,c]] - [[a,b],c] - [b,[a,c]]
        for a, b, c in product(range(m), repeat=3):
            if not _vanishes([(False, _right(br, a, b, c)),
                              (True, _left(br, a, b, c)),
                              (True, _right(br, b, a, c))], 0, m):
                problems.append(f"even Jacobi fails at (e{a+1},e{b+1},e{c+1})")
        # rho is a representation of the even part:
        # [[a,b],f] - [a,[b,f]] + [b,[a,f]]
        for a, b, j in product(range(m), range(m), range(n)):
            if not _vanishes([(False, _left(br, a, b, m + j)),
                              (True, _right(br, a, b, m + j)),
                              (False, _right(br, b, a, m + j))], m, d):
                problems.append(
                    f"rho([e{a+1},e{b+1}]) != commutator on f{j+1}")
        # (J1): [a, gamma(u,v)] = gamma(rho(a)u, v) + gamma(u, rho(a)v)
        for a, i, j in product(range(m), range(n), range(n)):
            if not _vanishes([(False, _right(br, a, m + i, m + j)),
                              (True, _left(br, a, m + i, m + j)),
                              (True, _right(br, m + i, a, m + j))], 0, m):
                problems.append(f"(J1) fails at (e{a+1},f{i+1},f{j+1})")
        # (J2): rho(gamma(u,v))w + rho(gamma(v,w))u + rho(gamma(w,u))v = 0
        for i, j, k in product(range(n), repeat=3):
            if not _vanishes([(False, _left(br, m + i, m + j, m + k)),
                              (False, _left(br, m + j, m + k, m + i)),
                              (False, _left(br, m + k, m + i, m + j))], m, d):
                problems.append(f"(J2) fails at (f{i+1},f{j+1},f{k+1})")
        return problems

    # -- lower central series -------------------------------------------------

    def _graded_span(self, gens) -> Tuple[List, List]:
        """Reduce a list of graded vectors to graded row-echelon bases."""
        even_rows = [list(g[0]) for g in gens if any(not _is_zero(x) for x in g[0])]
        odd_rows = [list(g[1]) for g in gens if any(not _is_zero(x) for x in g[1])]
        even_basis = []
        if even_rows:
            rows, pivots = rref(even_rows)
            even_basis = rows[:len(pivots)]
        odd_basis = []
        if odd_rows:
            rows, pivots = rref(odd_rows)
            odd_basis = rows[:len(pivots)]
        return even_basis, odd_basis

    def lower_central_series(self, max_steps: int = 32):
        """Graded dimensions of g = g^1 >= g^2 >= ... until stabilization."""
        m, n = self.m, self.n
        vecs = [self.basis_vector(k) for k in range(m + n)]
        current = ([[ONE if i == k else ZERO for k in range(m)] for i in range(m)],
                   [[ONE if j == l else ZERO for l in range(n)] for j in range(n)])
        dims = [(m, n)]
        for _ in range(max_steps):
            gens = []
            span_vecs = [ (ev, [ZERO] * n) for ev in current[0] ] + \
                        [ ([ZERO] * m, od) for od in current[1] ]
            for v in vecs:
                for w in span_vecs:
                    gens.append(self.bracket(v, w))
            even_b, odd_b = self._graded_span(gens)
            d = (len(even_b), len(odd_b))
            dims.append(d)
            if d == dims[-2]:
                dims.pop()
                break
            current = (even_b, odd_b)
            if d == (0, 0):
                break
        return dims

    def is_nilpotent(self) -> bool:
        return self.lower_central_series()[-1] == (0, 0)

    # -- functors ------------------------------------------------------------

    def ab(self) -> "SuperAlgebra":
        """Forget c and rho: only the odd-odd pairing survives."""
        m, n = self.m, self.n
        zc = [[[ZERO] * m for _ in range(m)] for _ in range(m)]
        zr = [[[ZERO] * n for _ in range(n)] for _ in range(m)]
        return SuperAlgebra(m, n, zc, zr, self.gamma, name=f"ab({self.name})")

    def forget_gamma(self) -> "SuperAlgebra":
        """Forget the odd-odd pairing (the F construction)."""
        m, n = self.m, self.n
        zg = [[[ZERO] * m for _ in range(n)] for _ in range(n)]
        return SuperAlgebra(m, n, self.c, self.rho, zg, name=f"F({self.name})")

    # -- basis change -----------------------------------------------------------

    def apply_basis_change(self, T, S) -> "SuperAlgebra":
        """Structure constants in the basis x_i = sum_a T[a][i] e_a,
        y_j = sum_b S[b][j] f_b.  T, S may have FieldElem or series entries."""
        m, n = self.m, self.n
        series_mode = any(isinstance(x, PuiseuxSeries)
                          for row in list(T) + list(S) for x in row)
        if series_mode:
            lift = lambda v: [x if isinstance(x, PuiseuxSeries)
                              else PuiseuxSeries.from_scalar(x) for x in v]
            T = [lift(row) for row in T]
            S = [lift(row) for row in S]
            c = [[lift(v) for v in row] for row in
                 [[list(vv) for vv in rr] for rr in self.c]]
            rho = [[lift(v) for v in row] for row in
                   [[list(vv) for vv in rr] for rr in self.rho]]
            gamma = [[lift(v) for v in row] for row in
                     [[list(vv) for vv in rr] for rr in self.gamma]]
            solver = series_solve
            zero = PuiseuxSeries({})
        else:
            c = [[list(v) for v in row] for row in self.c]
            rho = [[list(v) for v in row] for row in self.rho]
            gamma = [[list(v) for v in row] for row in self.gamma]
            solver = solve
            zero = ZERO

        def combo(tensor, P, Q, out_dim):
            """v_{ij} = sum_{a,b} P[a][i] Q[b][j] tensor[a][b] (vector valued)."""
            cols = []
            for i in range(len(P[0]) if P else 0):
                for j in range(len(Q[0]) if Q else 0):
                    acc = [zero] * out_dim
                    for a in range(len(P)):
                        pa = P[a][i]
                        if _is_zero(pa):
                            continue
                        for b in range(len(Q)):
                            qb = Q[b][j]
                            if _is_zero(qb):
                                continue
                            coef = pa * qb
                            vec = tensor[a][b]
                            for k in range(out_dim):
                                acc[k] = acc[k] + coef * vec[k]
                    cols.append(acc)
            return cols

        new_c = [[None] * m for _ in range(m)]
        new_rho = [[None] * n for _ in range(m)]
        new_gamma = [[None] * n for _ in range(n)]
        if m:
            cols = combo(c, T, T, m) + combo(gamma, S, S, m)
            sol = solver(T, transpose(cols))
            sol_cols = transpose(sol)
            idx = 0
            for i in range(m):
                for j in range(m):
                    new_c[i][j] = sol_cols[idx]
                    idx += 1
            for i in range(n):
                for j in range(n):
                    new_gamma[i][j] = sol_cols[idx]
                    idx += 1
        if n:
            cols = combo(rho, T, S, n)
            if cols:
                sol = solver(S, transpose(cols))
                sol_cols = transpose(sol)
                idx = 0
                for i in range(m):
                    for j in range(n):
                        new_rho[i][j] = sol_cols[idx]
                        idx += 1
            else:
                new_rho = []
        if m == 0:
            new_c = []
            new_gamma = [[[] for _ in range(n)] for _ in range(n)]
        if n == 0:
            new_rho = [[] for _ in range(m)]
            new_gamma = []
        return SuperAlgebra(m, n, new_c, new_rho, new_gamma,
                            name=f"{self.name}'")

    # -- limits -------------------------------------------------------------

    def limit_at_zero(self) -> "SuperAlgebra":
        """Take t->0 in every structure constant (series entries only)."""
        def lim(x):
            if isinstance(x, PuiseuxSeries):
                return x.limit_at_zero()
            return x
        c = [[[lim(x) for x in v] for v in row] for row in self.c]
        rho = [[[lim(x) for x in v] for v in row] for row in self.rho]
        gamma = [[[lim(x) for x in v] for v in row] for row in self.gamma]
        return SuperAlgebra(self.m, self.n, c, rho, gamma,
                            name=f"lim({self.name})")

    def constants_equal(self, other: "SuperAlgebra") -> bool:
        if (self.m, self.n) != (other.m, other.n):
            return False
        for t1, t2 in ((self.c, other.c), (self.rho, other.rho),
                       (self.gamma, other.gamma)):
            for r1, r2 in zip(t1, t2):
                for v1, v2 in zip(r1, r2):
                    for x1, x2 in zip(v1, v2):
                        if not _is_zero(x1 - x2):
                            return False
        return True

    # -- JSON ------------------------------------------------------------------

    @staticmethod
    def from_doc(doc: Dict) -> "SuperAlgebra":
        m, n = int(doc["m"]), int(doc["n"])
        c = [[[ZERO] * m for _ in range(m)] for _ in range(m)]
        rho = [[[ZERO] * n for _ in range(n)] for _ in range(m)]
        gamma = [[[ZERO] * m for _ in range(n)] for _ in range(n)]
        seen = set()

        def slot(sym: str) -> Tuple[str, int]:
            kind, num = sym[0], int(sym[1:])
            if kind not in "ef" or num < 1 or \
                    num > (m if kind == "e" else n):
                raise AlgebraError(f"unknown basis symbol {sym!r}")
            return kind, num - 1

        for entry in doc.get("brackets", []):
            lk, li = slot(entry["lhs"])
            rk, ri = slot(entry["rhs"])
            # both orientations write the same slots, so an unordered pair
            # may be specified only once
            key = tuple(sorted(((lk, li), (rk, ri))))
            if key in seen:
                raise AlgebraError(f"duplicate bracket [{entry['lhs']},{entry['rhs']}]")
            seen.add(key)
            value = [(parse_elem(v["coeff"]), slot(v["basis"]))
                     for v in entry.get("value", [])]
            expect = "e" if lk == rk else "f"
            if any(kind != expect for _, (kind, _) in value):
                raise AlgebraError(
                    f"bracket [{entry['lhs']},{entry['rhs']}] has odd-graded value")
            if lk == "e" and rk == "e":
                if li == ri and value:
                    raise AlgebraError(f"[e{li+1},e{li+1}] must vanish")
                for coeff, (_, k) in value:
                    c[li][ri][k] = c[li][ri][k] + coeff
                    c[ri][li][k] = c[ri][li][k] - coeff
            elif lk == "e" and rk == "f":
                for coeff, (_, l) in value:
                    rho[li][ri][l] = rho[li][ri][l] + coeff
            elif lk == "f" and rk == "e":
                for coeff, (_, l) in value:
                    rho[ri][li][l] = rho[ri][li][l] - coeff
            else:
                for coeff, (_, k) in value:
                    gamma[li][ri][k] = gamma[li][ri][k] + coeff
                    if li != ri:
                        gamma[ri][li][k] = gamma[ri][li][k] + coeff
        return SuperAlgebra(m, n, c, rho, gamma, name=doc.get("name", ""))

    def to_doc(self) -> Dict:
        brackets = []

        def emit(lhs, rhs, pairs, names):
            value = [{"coeff": format_elem(x), "basis": names[k]}
                     for k, x in pairs if not _is_zero(x)]
            if value:
                brackets.append({"lhs": lhs, "rhs": rhs, "value": value})

        e = [f"e{i+1}" for i in range(self.m)]
        f = [f"f{j+1}" for j in range(self.n)]
        for i in range(self.m):
            for j in range(i + 1, self.m):
                emit(e[i], e[j], list(enumerate(self.c[i][j])), e)
        for i in range(self.m):
            for j in range(self.n):
                emit(e[i], f[j], list(enumerate(self.rho[i][j])), f)
        for i in range(self.n):
            for j in range(i, self.n):
                emit(f[i], f[j], list(enumerate(self.gamma[i][j])), e)
        return {"name": self.name, "m": self.m, "n": self.n,
                "brackets": brackets}

    def __repr__(self):
        return f"SuperAlgebra({self.name or '?'}, ({self.m}|{self.n}))"
