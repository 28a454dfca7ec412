"""Finite-dimensional Lie superalgebras with exact structure constants.

An algebra of type (m|n) has the combined graded basis x_0..x_{m+n-1}:
e_1..e_m, then f_1..f_n (odd indices offset by m).  It stores one sparse
map, ``consts``: each pair (a, b) of `pairs(m, n)` whose bracket is nonzero
maps to [x_a, x_b] as (k, coefficient) terms, k increasing.  The scalars are
FieldElem for catalog algebras and PuiseuxSeries while verifying witnesses.
Every other bracket follows from [x_b, x_a] = -(-1)^(|a||b|) [x_a, x_b],
which `_mirror` alone applies.  Nothing else is assumed until `check_jacobi`
/ `check_consistency` are called.
"""

from __future__ import annotations

import json
from itertools import chain, product
from operator import itemgetter
from typing import Dict, List, Tuple

from .exprlang import ExprTypeError, basis_index
from .field import FieldElem, ONE, ZERO, parse_elem, format_elem
from .linalg import _echelon, integral, solve, series_solve
from .series import PuiseuxSeries


class AlgebraError(ValueError):
    pass


def pairs(m: int, n: int) -> List[Tuple[int, int]]:
    """The pairs (a, b) whose bracket [x_a, x_b] an (m|n) algebra stores, in
    the order `to_doc` emits them: e-e pairs a < b, then e-f pairs, then f-f
    pairs a <= b."""
    d = m + n
    return ([(a, b) for a in range(m) for b in range(a + 1, m)]
            + [(a, b) for a in range(m) for b in range(m, d)]
            + [(a, b) for a in range(m, d) for b in range(a, d)])


def basis_names(m: int, n: int) -> List[str]:
    """e1..em, then f1..fn: the names of the combined basis, as every
    document and cochain writes them (`exprlang.basis_index` reads them)."""
    return [f"e{i + 1}" for i in range(m)] + [f"f{j + 1}" for j in range(n)]


def _mirror(m: int, a: int, b: int, terms):
    """[x_b, x_a] from the terms of [x_a, x_b]: -(-1)^(|a||b|) times them."""
    if a >= m and b >= m:
        return terms
    return [(k, -x) for k, x in terms]


def integral_table(g: "SuperAlgebra"):
    """g's bracket table (`SuperAlgebra.bracket_table`) times the lcm of its
    coefficients' denominators (`linalg.integral`): ints for a rational
    algebra.  Only the stored pairs are scaled; `_mirror` fills the rest.  A
    system linear in the structure constants has the same kernel and rank
    for it."""
    m, d = g.m, g.dim
    flat = iter(integral([x for terms in g.consts.values() for _, x in terms]))
    br = [[[] for _ in range(d)] for _ in range(d)]
    for (a, b), terms in g.consts.items():
        br[a][b] = [(k, next(flat)) for k, _ in terms]
        br[b][a] = _mirror(m, a, b, br[a][b])
    return br


class SuperAlgebra:
    __slots__ = ("name", "m", "n", "consts")

    def __init__(self, m: int, n: int, consts, name: str = ""):
        """consts maps pairs of `pairs(m, n)` to iterables of (k, x) terms
        of [x_a, x_b]; zero terms and pairs without terms are dropped."""
        self.name = name
        self.m = m
        self.n = n
        order = pairs(m, n)
        unknown = set(consts) - set(order)
        if unknown:
            raise AlgebraError(f"pair {min(unknown)} is not a stored pair "
                               f"of a ({m}|{n}) algebra")
        self.consts = {}
        for a, b in order:
            terms = tuple(sorted(((k, x) for k, x in consts.get((a, b), ())
                                  if not x.is_zero()), key=itemgetter(0)))
            lo, hi = (m, m + n) if a < m <= b else (0, m)
            if any(not lo <= k < hi for k, _ in terms):
                names = basis_names(m, n)
                raise AlgebraError(f"[{names[a]},{names[b]}] has an output "
                                   "of the wrong parity")
            if terms:
                self.consts[(a, b)] = terms

    # -- basic data ------------------------------------------------------

    @property
    def dim(self) -> int:
        return self.m + self.n

    # -- the bracket -------------------------------------------------------

    def _terms(self, a: int, b: int):
        """[x_a, x_b] as (k, coefficient) terms, from the stored pair."""
        if a <= b:
            return self.consts.get((a, b), ())
        return _mirror(self.m, b, a, self.consts.get((b, a), ()))

    def _bracket(self, xs, ys):
        """[x, y] as {k: coefficient} from the nonzero (index, coefficient)
        pairs of x and y over the combined basis."""
        acc = {}
        for a, xa in xs:
            for b, yb in ys:
                terms = self._terms(a, b)
                if not terms:
                    continue
                coef = xa * yb
                for k, t in terms:
                    acc[k] = acc[k] + coef * t if k in acc else coef * t
        return acc

    def bracket(self, x, y):
        """Bracket of graded vectors x=(even,odd), y=(even,odd), from their
        nonzero coordinates over the combined basis (odd indices offset by
        m)."""
        xs, ys = ([(k, c) for k, c in enumerate(chain(*v)) if not c.is_zero()]
                  for v in (x, y))
        acc = self._bracket(xs, ys)
        out = [acc.get(k, ZERO) for k in range(self.dim)]
        return out[:self.m], out[self.m:]

    def bracket_table(self):
        """table[a][b] = [x_a, x_b] as its nonzero (k, coefficient) terms, k
        increasing (odd indices offset by m), read off the stored pairs."""
        d = self.dim
        return [[list(self._terms(a, b)) for b in range(d)] for a in range(d)]

    # -- axioms --------------------------------------------------------------

    def parity(self, idx: int) -> int:
        return 0 if idx < self.m else 1

    def _jacobi_vanishes(self, br, a: int, b: int, c: int) -> bool:
        """Does the super-Jacobi sum at (x_a, x_b, x_c), read from the
        bracket table `br`, vanish?  It is (-1)^(|a||c|) [x_a,[x_b,x_c]]
        + (-1)^(|b||a|) [x_b,[x_c,x_a]] + (-1)^(|c||b|) [x_c,[x_a,x_b]]."""
        acc = {}
        for p, q, r in ((a, b, c), (b, c, a), (c, a, b)):
            negate = p >= self.m and r >= self.m
            for s, x in br[q][r]:
                for k, y in br[p][s]:
                    z = -(x * y) if negate else x * y
                    acc[k] = acc[k] + z if k in acc else z
        return all(x.is_zero() for x in acc.values())

    def check_jacobi(self) -> List[Tuple[int, int, int]]:
        """Super-Jacobi on all homogeneous basis triples; returns violations."""
        br = self.bracket_table()
        return [t for t in product(range(self.dim), repeat=3)
                if not self._jacobi_vanishes(br, *t)]

    def check_consistency(self) -> List[str]:
        """The (J1)/(J2) formulation: even part is a Lie algebra, rho is a
        representation, gamma is equivariant (J1) and cyclically flat (J2).
        Each condition below is +- the super-Jacobi sum at the same ordered
        triple, so these are the `check_jacobi` triples of parity eee, eef,
        eff or fff, stably sorted by that pattern."""
        texts = [
            # [a,[b,c]] - [[a,b],c] - [b,[a,c]]
            "even Jacobi fails at ({},{},{})",
            # [[a,b],f] - [a,[b,f]] + [b,[a,f]]
            "rho([{},{}]) != commutator on {}",
            # (J1): [a, gamma(u,v)] = gamma(rho(a)u, v) + gamma(u, rho(a)v)
            "(J1) fails at ({},{},{})",
            # (J2): rho(gamma(u,v))w + rho(gamma(v,w))u + rho(gamma(w,u))v = 0
            "(J2) fails at ({},{},{})",
        ]
        names = basis_names(self.m, self.n)
        bad = [(sum(p), t) for t in self.check_jacobi()
               if (p := [self.parity(k) for k in t]) == sorted(p)]
        return [texts[odd].format(*(names[k] for k in t))
                for odd, t in sorted(bad, key=itemgetter(0))]

    # -- lower central series -------------------------------------------------

    def lower_central_series(self):
        """Graded dimensions of g = g^1 >= g^2 >= ... until stabilization,
        which comes within dim + 1 steps: each step before it lowers the
        total dimension.  g^(k+1) is spanned by the [x_a, v] for v in a
        basis of g^k, eliminated as sparse rows.  Each is homogeneous, and
        so is each echelon row, so the pivots before column m are the even
        part's.  Once g^k = 0 the next step repeats it."""
        m, d = self.m, self.dim
        basis = [[(k, ONE)] for k in range(d)]      # of g^k
        dims = [(m, self.n)]
        for _ in range(d + 1):
            rows, pivots = _echelon([self._bracket([(a, ONE)], v)
                                     for a, v in product(range(d), basis)],
                                    False)
            basis = [list(row.items()) for row in rows]
            even = sum(c < m for c in pivots)
            dim = (even, len(pivots) - even)
            if dim == dims[-1]:
                break
            dims.append(dim)
        return dims

    def is_nilpotent(self) -> bool:
        return self.lower_central_series()[-1] == (0, 0)

    # -- functors ------------------------------------------------------------

    def ab(self) -> "SuperAlgebra":
        """Forget c and rho: only the odd-odd pairing survives."""
        return SuperAlgebra(self.m, self.n, {p: v for p, v in self.consts.items()
                                             if p[0] >= self.m},
                            name=f"ab({self.name})")

    def forget_gamma(self) -> "SuperAlgebra":
        """Forget the odd-odd pairing (the F construction)."""
        return SuperAlgebra(self.m, self.n, {p: v for p, v in self.consts.items()
                                             if p[0] < self.m},
                            name=f"F({self.name})")

    # -- basis change -----------------------------------------------------------

    def apply_basis_change(self, T, S, precision=None) -> "SuperAlgebra":
        """Structure constants in the basis x_i = sum_a T[a][i] e_a,
        y_j = sum_b S[b][j] f_b.  T, S may have FieldElem or series entries.
        Each stored pair of the new basis is bracketed in the old one; the
        even outputs are then solved by T and the odd ones by S, each block
        even when no pair has an output in it, so a singular T or S is
        always refused.  With series entries each pivot of that solve is
        inverted to `precision` relative orders (the working precision when
        None)."""
        m, n, d = self.m, self.n, self.dim
        solver = solve
        if any(isinstance(x, PuiseuxSeries) for row in list(T) + list(S)
               for x in row):
            lift = lambda x: x if isinstance(x, PuiseuxSeries) \
                else PuiseuxSeries.from_scalar(x)
            T = [[lift(x) for x in row] for row in T]
            S = [[lift(x) for x in row] for row in S]
            solver = lambda P, rhs: series_solve(P, rhs, precision)
        # each new basis vector's nonzero coordinates, listed once
        new = [[(k, x) for k, x in enumerate(col, offset) if not x.is_zero()]
               for offset, P in ((0, T), (m, S)) for col in zip(*P)]
        blocks = ([], [])   # (pair, its bracket) by the parity of its output
        for a, b in pairs(m, n):
            blocks[a < m <= b].append(((a, b), self._bracket(new[a], new[b])))
        consts = {}
        for P, block, lo, hi in ((T, blocks[0], 0, m), (S, blocks[1], m, d)):
            rhs = [[acc.get(k, ZERO) for _, acc in block]
                   for k in range(lo, hi)]
            for (p, _), sol in zip(block, zip(*solver(P, rhs))):
                consts[p] = [(lo + k, x) for k, x in enumerate(sol)]
        return SuperAlgebra(m, n, consts, name=f"{self.name}'")

    # -- limits -------------------------------------------------------------

    def limit_at_zero(self) -> "SuperAlgebra":
        """Take t->0 in every structure constant (series entries only), pair
        by pair in `pairs()` order."""
        def lim(x):
            if isinstance(x, PuiseuxSeries):
                return x.limit_at_zero()
            return x
        return SuperAlgebra(self.m, self.n,
                            {p: [(k, lim(x)) for k, x in v]
                             for p, v in self.consts.items()},
                            name=f"lim({self.name})")

    def constants_equal(self, other: "SuperAlgebra") -> bool:
        """The same shape and the same stored constants: terms are stored
        canonically, so the comparison is the stored maps', and an algebra
        with a truncated series constant equals itself."""
        return (self.m, self.n) == (other.m, other.n) and \
            self.consts == other.consts

    # -- JSON ------------------------------------------------------------------

    @staticmethod
    def from_doc(doc: Dict) -> "SuperAlgebra":
        m, n = doc["m"], doc["n"]
        for key, v in (("m", m), ("n", n)):
            if type(v) is not int or v < 0:     # a bool is an int too
                raise AlgebraError(f"{key} must be an integer >= 0, not "
                                   f"{json.dumps(v, default=str)}")
        name = doc.get("name", "")
        if not isinstance(name, str):
            raise AlgebraError(f"name must be a string, not {json.dumps(name)}")
        consts: Dict[Tuple[int, int], Dict[int, FieldElem]] = {}
        seen = set()

        def slot(sym: str) -> int:
            try:
                return basis_index(sym, m, n)
            except (ExprTypeError, TypeError):      # TypeError: not a string
                raise AlgebraError(f"unknown basis symbol {sym!r}") from None

        brackets = doc.get("brackets", [])
        if not isinstance(brackets, list):
            raise AlgebraError("brackets must be a list")
        for entry in brackets:
            try:
                a, b = slot(entry["lhs"]), slot(entry["rhs"])
                value = [(parse_elem(v["coeff"]), slot(v["basis"]))
                         for v in entry.get("value", [])]
            except (KeyError, TypeError):
                raise AlgebraError(
                    f"malformed bracket {json.dumps(entry, default=str)}: "
                    "expected string lhs and rhs and a value list of "
                    "string coeff and basis terms") from None
            # both orientations write the same pair, so an unordered pair
            # may be specified only once
            if (min(a, b), max(a, b)) in seen:
                raise AlgebraError(f"duplicate bracket [{entry['lhs']},{entry['rhs']}]")
            seen.add((min(a, b), max(a, b)))
            even = (a < m) == (b < m)
            if any((k < m) != even for _, k in value):
                raise AlgebraError(
                    f"bracket [{entry['lhs']},{entry['rhs']}] has odd-graded value")
            if a == b < m and value:
                raise AlgebraError(f"[e{a+1},e{a+1}] must vanish")
            terms = [(k, x) for x, k in value]
            if a > b:
                a, b, terms = b, a, _mirror(m, a, b, terms)
            acc = consts.setdefault((a, b), {})
            for k, x in terms:
                acc[k] = acc[k] + x if k in acc else x
        return SuperAlgebra(m, n, {p: v.items() for p, v in consts.items()},
                            name=name)

    def to_doc(self) -> Dict:
        names = basis_names(self.m, self.n)
        brackets = [{"lhs": names[a], "rhs": names[b],
                     "value": [{"coeff": format_elem(x), "basis": names[k]}
                               for k, x in terms]}
                    for (a, b), terms in self.consts.items()]
        return {"name": self.name, "m": self.m, "n": self.n,
                "brackets": brackets}

    def __repr__(self):
        return f"SuperAlgebra({self.name or '?'}, ({self.m}|{self.n}))"
