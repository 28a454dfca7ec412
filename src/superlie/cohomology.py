"""Even adjoint 2-cohomology (H^2(g,g))_0.

An even 2-cochain phi is stored as one vector over the slots of
`cochain_basis_index`: the coordinates of phi(e_i, e_j) for i < j, of
phi(e_i, f_j), and of phi(f_i, f_j) for i <= j.  phi is antisymmetric on
e-e and e-f pairs and symmetric on f-f pairs.  The differential convention
is, for homogeneous x,y,z:

    d2 phi(x,y,z) = [x, phi(y,z)] - (-1)^(|x||y|) [y, phi(x,z)]
                  + (-1)^(|z|(|x|+|y|)) [z, phi(x,y)]
                  - phi([x,y], z) + (-1)^(|y||z|) phi([x,z], y)
                  + phi(x, [y,z]).

Under it the cocycles the catalog's source lists validate, with two
exceptions recorded in expected.json.  Three printed entries, in (2|3)_18,
(2|3)_23 and (2|3)_24, are not cocycles or are coboundaries; they still fail
with the even-odd sign flipped or the off-diagonal odd-odd terms scaled by
1/2 or 2, and known_cocycle_discrepancies holds corrections that validate.
The four cocycles listed for (1|3)_1 are cocycles, but H^2 has dimension 3
there, so they are dependent modulo coboundaries.

d2 phi is graded-alternating (swapping neighbours x, y multiplies it by
-(-1)^(|x||y|)), so `d2` evaluates it on the canonical triples a <= b <= c
only, with two neighbours equal only at an odd index; the d2 matrix of
`h2_even` has rows for those triples only and the same kernel.  It and the
coboundary rows are read off `algebra.integral_table`: ints for a rational
algebra, with the same kernels and ranks.

d1 is not written here: (d1 E)(x_a, x_b) = [Ex_a, x_b] + [x_a, Ex_b] -
E[x_a, x_b] is minus the (1,1,1)-derivation residual of degree 0, and
`invariants._derivation_images`, the one writer of every derivation
system, gives the image of each elementary even map E: x_j -> x_i keyed by
cochain slot.  `d1` sums minus the images of one map, `h2_even` ranks them
as the coboundary rows, and their rank, dim B^2(g,g)_0, is the orbit
dimension.

`h2_even` eliminates the d2 matrix once, reduced.  Z^2 has one basis
cocycle per free column, so a cocycle is determined by its free
coordinates, and B^2 lies in Z^2: dim H^2 is dim Z^2 less the rank of the
coboundary rows on the free columns, and the lifted H^2 basis is read off
the echelon pivots of those rows with the free columns reversed.

Cocycles print/parse in the compact notation "e1*^e2*@e1" for
e_1^* wedge e_2^* tensor e_1; a term "f1*^f1*@e1" means
phi(f1,f1) = e1 (coefficient 1, diagonal included).  A cocycle is an
exprlang linear combination of such terms, so a coefficient is any constant
expression: "(1 + i)*e1*^e2*@e1", "-i*sqrt2*e1*^f1*@f1".
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .algebra import SuperAlgebra, basis_names, integral_table, pairs
from .exprlang import basis_index, constant
from .field import ZERO, format_sum
from .invariants import _derivation_images
from .linalg import _echelon, kernel_vectors


class Cochain2Even:
    """An even 2-cochain as one vector over the slots of
    `cochain_basis_index(m, n)`."""

    __slots__ = ("m", "n", "vec")

    def __init__(self, m, n, vec):
        self.m, self.n = m, n
        self.vec = tuple(vec)
        if len(self.vec) != cochain_dim(m, n):
            raise ValueError(f"an even 2-cochain of ({m}|{n}) has "
                             f"{cochain_dim(m, n)} slots, got {len(self.vec)}")


# -- the fixed flat basis of even 2-cochains ---------------------------------


def cochain_basis_index(m: int, n: int) -> List[Tuple[int, int, int]]:
    """Slots in the fixed order: (a, b, k) is the coordinate of
    phi(x_a, x_b) on x_k (odd indices offset by m)."""
    return [(a, b, k) for a, b in pairs(m, n)
            for k in (range(m, m + n) if a < m <= b else range(m))]


def cochain_dim(m: int, n: int) -> int:
    return m * (m * (m - 1) // 2) + n * m * n + m * (n * (n + 1) // 2)


# -- differentials -------------------------------------------------------------
# `_d2_entries` writes d2 once: `d2` sums the images of one cochain's slots
# and `_d2_matrix` reads unit ones.  d1's images are the derivation images
# of `invariants`: `d1` sums them over one map's entries and `h2_even`
# eliminates them.


def d1(g: SuperAlgebra, A, D) -> Cochain2Even:
    """(d1 psi)(x,y) = [psi x, y] + [x, psi y] - psi([x,y]) for the even map
    psi = (A on the e's, D on the f's), columns = images, A m x m and D
    n x n: minus the degree-0 (1,1,1) `invariants._derivation_images` of
    g's bracket table, each times its entry of A or D."""
    m, n = g.m, g.n
    if len(A) != m or len(D) != n or any(len(row) != m for row in A) \
            or any(len(row) != n for row in D):
        raise ValueError(f"d1 on a ({m}|{n}) algebra takes A of size "
                         f"{m}x{m} and D of size {n}x{n}")
    psi = [x for row in A for x in row] + [x for row in D for x in row]
    vec = [ZERO] * cochain_dim(m, n)
    images = _derivation_images(g, g.bracket_table(), 1, 1, 1, 0)
    for x, image in zip(psi, images):
        if x:
            for s, y in image.items():
                vec[s] = vec[s] - y * x
    return Cochain2Even(m, n, vec)


def _d2_entries(g: SuperAlgebra, br, support):
    """{(a, b, c, r): {slot: coefficient}}: coordinate r of d2 phi on each
    canonical triple (a, b, c), split by the (slot, value) pairs of
    `support`, with br g's bracket table or a multiple of it; canceled terms
    sum to zero.

    Only the values of phi on the support (mirrored) and the nonzero
    brackets are visited, and a product is formed only for a canonical
    triple."""
    m, d = g.m, g.dim
    odd = [k >= m for k in range(d)]
    # before[a][b]: x_a may stand left of its neighbour x_b in a canonical
    # triple
    before = [[a < b or a == b >= m for b in range(d)] for a in range(d)]
    left = [[(t, br[t][k]) for t in range(d) if br[t][k]] for k in range(d)]
    # into[k]: the (p, q, x) of the stored pairs (p, q) whose bracket has
    # x x_k
    into = [[] for _ in range(d)]
    for p, q in g.consts:
        for k, x in br[p][q]:
            into[k].append((p, q, x))
    index = cochain_basis_index(m, g.n)
    entries = {}
    for s, c in support:
        a, b, k = index[s]
        # [x_t, phi(y,z)] - (-1)^(|x||y|) [y, phi(x,z)]
        #     + (-1)^(|z|(|x|+|y|)) [z, phi(x,y)] at phi(x_a, x_b) = c x_k;
        # the mirrored value phi(x_b, x_a) reaches no canonical triple
        for t, w in left[k]:
            if before[t][a]:
                for r, y in w:
                    row = entries.setdefault((t, a, b, r), {})
                    z = c * y
                    row[s] = row[s] + z if s in row else z
            if before[a][t] and before[t][b]:
                x = c if odd[a] and odd[t] else -c
                for r, y in w:
                    row = entries.setdefault((a, t, b, r), {})
                    z = x * y
                    row[s] = row[s] + z if s in row else z
            if before[b][t]:
                x = -c if odd[t] and odd[a] != odd[b] else c
                for r, y in w:
                    row = entries.setdefault((a, b, t, r), {})
                    z = x * y
                    row[s] = row[s] + z if s in row else z
        # - phi([x,y], z) + (-1)^(|y||z|) phi([x,z], y) + phi(x, [y,z]) at
        # each value phi(x_p, x_q) = v x_k; each key puts x_i before x_j for
        # the bracket [x_i, x_j]
        values = [(a, b, c)]
        if a != b:
            values.append((b, a, c if odd[a] and odd[b] else -c))
        for p, q, v in values:
            for i, j, x in into[p]:
                if before[j][q]:
                    row = entries.setdefault((i, j, q, k), {})
                    z = -(x * v)
                    row[s] = row[s] + z if s in row else z
                if before[i][q] and before[q][j]:
                    row = entries.setdefault((i, q, j, k), {})
                    z = -(x * v) if odd[q] and odd[j] else x * v
                    row[s] = row[s] + z if s in row else z
            for i, j, x in into[q]:
                if before[p][i]:
                    row = entries.setdefault((p, i, j, k), {})
                    z = x * v
                    row[s] = row[s] + z if s in row else z
    return entries


def d2(g: SuperAlgebra, phi: Cochain2Even):
    """Evaluate d2 phi on the canonical homogeneous basis triples.

    A triple (a, b, c) is canonical when a <= b <= c and two neighbours are
    equal only at an odd index.  Returns a dict (a,b,c) -> graded vector
    over the canonical triples, keys ascending, zero entries omitted.

    These values give all the others, since d2 phi is graded-alternating:
    swapping two neighbours x, y multiplies it by -(-1)^(|x||y|).  The value
    on any ordered triple is the product of those signs over the swaps that
    sort it, times the value on the sorted triple; it is zero where an even
    index repeats.  The values are read off g's bracket table.
    """
    m = g.m
    if (phi.m, phi.n) != (m, g.n):
        raise ValueError(f"a cochain of ({phi.m}|{phi.n}) is not one of "
                         f"the ({m}|{g.n}) algebra {g.name or '?'}")
    entries = _d2_entries(g, g.bracket_table(),
                          [(s, x) for s, x in enumerate(phi.vec) if x])
    acc = {}
    for (a, b, c, r), row in entries.items():
        acc.setdefault((a, b, c), [ZERO] * g.dim)[r] = sum(row.values(), ZERO)
    return {t: (out[:m], out[m:]) for t, out in sorted(acc.items())
            if any(out)}


def is_cocycle(g: SuperAlgebra, phi: Cochain2Even) -> bool:
    return not d2(g, phi)


# -- cohomology ------------------------------------------------------------------


def _d2_matrix(g: SuperAlgebra, ibr) -> list:
    """The rows of `_d2_entries` in key order, as sparse {slot: coefficient}
    rows with zero entries and empty rows dropped, from `ibr`, the integral
    table of g (`algebra.integral_table`): one row per coordinate of `d2`
    on a canonical triple.  Repeated rows are left to the elimination."""
    total = cochain_dim(g.m, g.n)
    entries = _d2_entries(g, ibr, [(s, 1) for s in range(total)])
    rows = [{s: x for s, x in row.items() if x}
            for _, row in sorted(entries.items())]
    return [row for row in rows if row]


def h2_even(g: SuperAlgebra) -> Dict:
    """{dim, basis}: dim H^2(g,g)_0 = dim Z^2 - dim B^2, with the basis of
    H^2 that a greedy pass keeps: of the cocycles z_f of Z^2's reduced
    basis, one per free column f of the d2 matrix, each that is not in the
    span of B^2 and of the cocycles before it.

    The d2 matrix is eliminated once, reduced.  A vector of Z^2 is its free
    coordinates, and z_f is dropped exactly when some coboundary has its
    last nonzero free coordinate at f: an echelon pivot of the coboundary
    rows read on the free columns in reverse.  Only the kept cocycles are
    built, by `linalg.kernel_vectors`."""
    m, n = g.m, g.n
    total = cochain_dim(m, n)
    ibr = integral_table(g)
    rows, pivots = _echelon(_d2_matrix(g, ibr), True)
    pivoted = set(pivots)
    free = [c for c in range(total) if c not in pivoted]
    place = {f: i for i, f in enumerate(reversed(free))}
    _, lasts = _echelon([{place[s]: x for s, x in row.items() if s in place}
                         for row in _derivation_images(g, ibr, 1, 1, 1, 0)],
                        False)
    dropped = {free[-1 - i] for i in lasts}
    kept = [f for f in free if f not in dropped]
    return {"dim": len(kept),
            "basis": [Cochain2Even(m, n, vec) for vec in
                      kernel_vectors(rows, pivots, total, kept)]}


# -- the paper-style cocycle notation ---------------------------------------------


def parse_cocycle(text: str, m: int, n: int) -> Cochain2Even:
    """Parse e.g. "-2*e1*^e2*@e1 + e2*^f1*@f1" into a cochain; "0" is the
    zero cochain."""
    def slot(term: str) -> Tuple[int, int]:
        # the slot of a term x_a*^x_b*@x_c, and the graded sign that takes
        # phi(x_a, x_b) to the stored pair
        names = term.replace("*@", "*^").split("*^")
        if len(names) != 3:
            raise ValueError(f"{term} is not a cochain term like e1*^e2*@e1")
        a, b, c = (basis_index(name, m, n) for name in names)
        mixed = (a < m) != (b < m)
        if (c >= m) != mixed:
            raise ValueError(f"{names[0]}*^{names[1]}* must map to an "
                             f"{'f' if mixed else 'e'}")
        if a == b < m:
            raise ValueError("e_i*^e_i* vanishes")
        return index[min(a, b), max(a, b), c], -1 if a > b and b < m else 1

    index = {t: s for s, t in enumerate(cochain_basis_index(m, n))}
    vec = [ZERO] * len(index)
    for k, x in constant(text, slot).items():
        vec[k] = x
    return Cochain2Even(m, n, vec)


def format_cocycle(phi: Cochain2Even) -> str:
    """The text `parse_cocycle` reads back; the zero cochain is "0"."""
    names = basis_names(phi.m, phi.n)
    return format_sum((x, f"{names[a]}*^{names[b]}*@{names[k]}")
                      for (a, b, k), x in zip(cochain_basis_index(phi.m, phi.n),
                                              phi.vec))
