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
-(-1)^(|x||y|)), so `_d2_rows` writes it on the canonical triples
a <= b <= c only, two neighbours equal only at an odd index: one row per
coordinate from the six terms above, reading phi through `_slot_table`.
`d2` is those rows times phi; `h2_even` eliminates them and the coboundary
rows, both read off `algebra.integral_table` (ints for a rational algebra).

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

from itertools import combinations_with_replacement
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


def _slot_table(m: int, n: int):
    """at[p][q] = (sign, base, outputs): phi(x_p, x_q) is sign times the sum
    over k in `outputs` of slot base + k times x_k, where sign is the graded
    mirror sign -(-1)^(|p||q|) for p > q and 1 else; None where phi
    vanishes, at p = q even."""
    d = m + n
    at = [[None] * d for _ in range(d)]
    slot = 0
    for a, b in pairs(m, n):
        outputs = range(m, d) if a < m <= b else range(m)
        at[a][b] = (1, slot - outputs.start, outputs)
        at[b][a] = (1 if a >= m else -1, slot - outputs.start, outputs)
        slot += len(outputs)
    return at


# -- differentials -------------------------------------------------------------
# `_d2_rows` writes d2 once, reading phi through `_slot_table`: `h2_even`
# eliminates its rows and `d2` multiplies them by one cochain.  d1's images
# are the derivation images of `invariants`: `d1` sums them over one map's
# entries and `h2_even` eliminates them.


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


def _d2_rows(g: SuperAlgebra, br) -> dict:
    """{(a, b, c, r): {slot: coefficient}}, keys ascending: coordinate r of
    d2 phi on each canonical triple (a, b, c) as a row over the cochain
    slots, with br g's bracket table or a multiple of it; zero entries and
    empty rows are dropped.  Each row is written from the six terms of the
    module docstring's formula at (x, y, z) = (x_a, x_b, x_c), reading phi
    through `_slot_table`."""
    m, d = g.m, g.dim
    at = _slot_table(m, g.n)
    mirror = [list(col) for col in zip(*at)]    # mirror[w][k] = at[k][w]
    # central[u]: every bracket of x_u, and so every term with it, vanishes
    central = [not any(row) for row in br]
    rows = {}
    for a, b, c in combinations_with_replacement(range(d), 3):
        if (a == b < m or b == c < m
                or central[a] and central[b] and central[c]):
            continue
        oa, ob, oc = a >= m, b >= m, c >= m
        acc = {}    # {r: {slot: coefficient}}
        # [x, phi(y,z)] - (-1)^(|x||y|) [y, phi(x,z)]
        #     + (-1)^(|z|(|x|+|y|)) [z, phi(x,y)]
        for sign, u, phi in ((1, a, at[b][c]),
                             (1 if oa and ob else -1, b, at[a][c]),
                             (-1 if oc and oa != ob else 1, c, at[a][b])):
            if phi is None or central[u]:
                continue
            s, base, outputs = phi
            for k in outputs:
                col = base + k
                for r, y in br[u][k]:
                    row = acc.get(r) or acc.setdefault(r, {})
                    z = -y if sign != s else y
                    row[col] = row[col] + z if col in row else z
        # - phi([x,y], z) + (-1)^(|y||z|) phi([x,z], y) + phi(x, [y,z])
        for sign, terms, phis in (
                (-1, br[a][b], mirror[c]),
                (-1 if ob and oc else 1, br[a][c], mirror[b]),
                (1, br[b][c], at[a])):
            for k, y in terms:
                if phis[k] is None:
                    continue
                s, base, outputs = phis[k]
                z = -y if sign != s else y
                for r in outputs:
                    row = acc.get(r) or acc.setdefault(r, {})
                    col = base + r
                    row[col] = row[col] + z if col in row else z
        for r in sorted(acc):
            row = {col: x for col, x in acc[r].items() if x}
            if row:
                rows[a, b, c, r] = row
    return rows


def d2(g: SuperAlgebra, phi: Cochain2Even):
    """d2 phi on the canonical triples (a, b, c), a <= b <= c with two
    neighbours equal only at an odd index: a dict (a,b,c) -> graded vector,
    keys ascending, zero values omitted, from the rows of `_d2_rows` on g's
    bracket table times phi.

    These values give all the others, since d2 phi is graded-alternating:
    swapping two neighbours x, y multiplies it by -(-1)^(|x||y|), and it is
    zero where an even index repeats."""
    m = g.m
    if (phi.m, phi.n) != (m, g.n):
        raise ValueError(f"a cochain of ({phi.m}|{phi.n}) is not one of "
                         f"the ({m}|{g.n}) algebra {g.name or '?'}")
    acc = {}
    for (a, b, c, r), row in _d2_rows(g, g.bracket_table()).items():
        x = sum((y * phi.vec[s] for s, y in row.items()), ZERO)
        if x:
            acc.setdefault((a, b, c), [ZERO] * g.dim)[r] = x
    return {t: (out[:m], out[m:]) for t, out in acc.items()}


def is_cocycle(g: SuperAlgebra, phi: Cochain2Even) -> bool:
    return not d2(g, phi)


# -- cohomology ------------------------------------------------------------------


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
    rows, pivots = _echelon(_d2_rows(g, ibr).values(), True)
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
        if at[a][b] is None:
            raise ValueError("e_i*^e_i* vanishes")
        sign, base, _ = at[a][b]
        return base + c, sign

    at = _slot_table(m, n)
    vec = [ZERO] * cochain_dim(m, n)
    for k, x in constant(text, slot).items():
        vec[k] = x
    return Cochain2Even(m, n, vec)


def format_cocycle(phi: Cochain2Even) -> str:
    """The text `parse_cocycle` reads back; the zero cochain is "0"."""
    names = basis_names(phi.m, phi.n)
    return format_sum((x, f"{names[a]}*^{names[b]}*@{names[k]}")
                      for (a, b, k), x in zip(cochain_basis_index(phi.m, phi.n),
                                              phi.vec))
