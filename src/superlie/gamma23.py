"""Orbits of pairs of symmetric 3x3 matrices under (T, S) with

    (T, S) . (G1, G2) = (T11 S^t G1 S + T12 S^t G2 S,
                         T21 S^t G1 S + T22 S^t G2 S),

the action whose orbits are the (2|3) algebras with trivial even bracket
and trivial even action.  The normal forms are the gamma-pencils of the
catalog's (2|3)_0 ... (2|3)_11, [f_i, f_j] = G1[i][j] e1 + G2[i][j] e2,
read off their bracket tables.  `classify_pair` names the twelve orbits
by an exact invariant signature of the matrix pencil x*G1 + y*G2: span
dimension, common kernel, generic rank, number of distinct projective
roots of its determinant, existence of a rank-one member, and
simultaneous diagonalizability by congruence.

These are Segre-Kronecker data of the pencil, all computed with +, - and *
on an integral copy of it: the pair times the lcm L of the denominators of
its twelve stored entries (`linalg.integral`), which is the group element
T = L*I, S = I, so a rational pair becomes a pair of int matrices.  No
elimination runs: the span dimension is read off the 2x2 minors of the two
upper triangles, and the rank of a member, or of the stack [G1; G2], is
the number of its rows picked greedily as independent by cross products
and 3x3 determinants.  The cubic form
f = det(x*G1 + y*G2) has its four coefficients from the cofactors of G1
and G2.  A regular pencil (f not identically 0) has generic rank 3; f has
a multiple root iff its discriminant is 0, a triple one iff its Hessian is
also 0, and then the root is read off the Hessian or off f, so it lies in
the coefficient field.  The member at a root of multiplicity m drops rank
by at most m, so the rank of that member gives the rank-one members and
decides simultaneous diagonalizability (a drop of m).  Over C a singular
pencil (f = 0) of span 2 has one of two Kronecker forms: a regular 2x2
pencil plus a common kernel line, or L1 + L1^t = [[0, x, y], [x, 0, 0],
[y, 0, 0]] with no common kernel (a kernel of dimension 2 would leave a
span of at most 1).  Its generic rank is 2, since no plane of symmetric
forms has all its members of rank at most 1, and it has a rank-one member
iff its common kernel is a line, at a root of the 2x2 block's determinant.
That kernel is spanned by the cross product of two independent rows of
[G1; G2], and the pencil is diagonalizable iff the 2x2 block's
determinant has distinct roots; L1 + L1^t is not diagonalizable.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Tuple

from . import catalog
from .field import FieldElem, parse_elem
from .linalg import SingularMatrix, det, integral, mat_mul, transpose, zeros

Mat = List[List[FieldElem]]
SymPair = Tuple[Mat, Mat]


def _add(a: Mat, b: Mat) -> Mat:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _scale(a: Mat, c: FieldElem) -> Mat:
    return [[c * x for x in row] for row in a]


def _is_symmetric(a: Mat) -> bool:
    """Is `a` a symmetric 3x3 matrix?"""
    return (len(a) == 3 and all(len(row) == 3 for row in a)
            and a[0][1] == a[1][0] and a[0][2] == a[2][0]
            and a[1][2] == a[2][1])


# -- the normal forms ----------------------------------------------------------


def _pencil(g) -> SymPair:
    """(G1, G2) with [f_i, f_j] = G1[i][j] e1 + G2[i][j] e2 in the (2|3)
    algebra `g`, read off its bracket table."""
    br = g.bracket_table()
    pair = (zeros(3, 3), zeros(3, 3))
    for i in range(3):
        for j in range(3):
            for k, x in br[2 + i][2 + j]:
                pair[k][i][j] = x
    return pair


REPRESENTATIVES: Dict[str, SymPair] = {
    label: _pencil(catalog.get(label).algebra)
    for label in (f"(2|3)_{k}" for k in range(12))}


# -- the action ----------------------------------------------------------------


def pair_act(T: Mat, S: Mat, pair: SymPair) -> SymPair:
    if det(T).is_zero() or det(S).is_zero():
        raise SingularMatrix("group element is singular")
    g1, g2 = pair
    st = transpose(S)
    a = mat_mul(st, mat_mul(g1, S))
    b = mat_mul(st, mat_mul(g2, S))
    return (_add(_scale(a, T[0][0]), _scale(b, T[0][1])),
            _add(_scale(a, T[1][0]), _scale(b, T[1][1])))


def random_gl(size: int, rng) -> Mat:
    """A random invertible matrix with small rational entries."""
    while True:
        mat = [[FieldElem(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                for _ in range(size)] for _ in range(size)]
        if not det(mat).is_zero():
            return mat


# -- binary forms of the pencil x*G1 + y*G2 ------------------------------------
# Everything below uses only +, -, * and truth tests, so matrices of ints,
# of FieldElems or one of each go through the same code.


def _cofactors(g) -> list:
    """The cofactor matrix of a symmetric 3x3 matrix, itself symmetric."""
    (a, b, c), (_, d, e), (_, _, f) = g
    c01, c02, c12 = c * e - b * f, b * e - c * d, b * c - a * e
    return [[d * f - e * e, c01, c02],
            [c01, a * f - c * c, c12],
            [c02, c12, a * d - b * b]]


def _cross(u, v) -> tuple:
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _independent_rows(rows) -> list:
    """A basis of the span of the 3-vectors `rows`, so as many as their
    rank, picked greedily: the first nonzero row, the first row whose cross
    product with it is nonzero, then the first row off the plane of the
    two."""
    basis, normal = [], None
    for row in rows:
        if not basis:
            if any(row):
                basis.append(row)
        elif normal is None:
            cross = _cross(basis[0], row)
            if any(cross):
                basis.append(row)
                normal = cross
        elif normal[0] * row[0] + normal[1] * row[1] + normal[2] * row[2]:
            basis.append(row)
            break
    return basis


def _det_form(g1, g2) -> tuple:
    """(a, b, c, d) with det(x*G1 + y*G2) = a x^3 + b x^2 y + c x y^2 + d y^3.
    By Jacobi's formula b pairs G2 with the cofactors of G1 entrywise, and c
    pairs G1 with those of G2."""
    c1, c2 = _cofactors(g1), _cofactors(g2)

    def pairing(g, h):
        return (g[0][0] * h[0][0] + g[1][1] * h[1][1] + g[2][2] * h[2][2]
                + 2 * (g[0][1] * h[0][1] + g[0][2] * h[0][2]
                       + g[1][2] * h[1][2]))

    return (g1[0][0] * c1[0][0] + g1[0][1] * c1[0][1] + g1[0][2] * c1[0][2],
            pairing(g2, c1), pairing(g1, c2),
            g2[0][0] * c2[0][0] + g2[0][1] * c2[0][1] + g2[0][2] * c2[0][2])


def _root_drops(g1, g2, form) -> List[Tuple[int, int]]:
    """(multiplicity, rank drop of the member there) at each multiple root
    of the nonzero det `form` (a, b, c, d).  A multiple root makes the
    discriminant vanish.  The Hessian (b^2 - 3ac) x^2 + (bc - 9ad) xy +
    (c^2 - 3bd) y^2 is then 0 at a triple root, and otherwise a multiple of
    the square of the linear factor at the double root, so the root lies in
    the coefficient field."""
    a, b, c, d = form
    if (b * b * c * c - 4 * a * c * c * c - 4 * b * b * b * d
            - 27 * a * a * d * d + 18 * a * b * c * d):
        return []
    h0, h1, h2 = b * b - 3 * a * c, b * c - 9 * a * d, c * c - 3 * b * d
    m, x, y = (2, -h1, 2 * h0) if h0 or h1 or h2 else (3, -b, 3 * a)
    member = g1 if not y else [[x * p + y * q for p, q in zip(r1, r2)]
                               for r1, r2 in zip(g1, g2)]
    return [(m, 3 - len(_independent_rows(member)))]


def simdiag_test(pair: SymPair) -> bool:
    """Is {G1, G2} simultaneously diagonalizable by a congruence?  The
    `simdiag` entry of its `pencil_signature`."""
    return pencil_signature(pair).simdiag


def _singular_simdiag(g1, g2, rows) -> bool:
    """`simdiag_test` of a singular span-2 pencil whose stacked [G1; G2] has
    the independent rows `rows`."""
    if len(rows) == 3:
        # a singular pencil with no common kernel is L1 + L1^t
        return False
    # the cross product of the two rows spans the common kernel, and the
    # basis vectors off its first nonzero coordinate span a complement; on
    # it the pencil is a regular 2x2 one, diagonalizable iff its determinant
    # det(H1) x^2 + b xy + det(H2) y^2 has distinct roots
    ker = _cross(*rows)
    p = next(p for p in range(3) if ker[p])
    i, j = [k for k in range(3) if k != p]
    b = g1[i][i] * g2[j][j] + g1[j][j] * g2[i][i] - 2 * g1[i][j] * g2[i][j]
    det1 = g1[i][i] * g1[j][j] - g1[i][j] * g1[i][j]
    det2 = g2[i][i] * g2[j][j] - g2[i][j] * g2[i][j]
    return bool(b * b - 4 * det1 * det2)


# -- signature and classification -------------------------------------------------


class PencilSignature(NamedTuple):
    """A pencil's orbit invariants, a tuple: its own `_SIGNATURE_TABLE` key."""
    span_dim: int
    common_kernel_dim: int
    generic_rank: int
    det_root_count: int
    has_rank1_member: bool
    simdiag: bool


def pencil_signature(pair: SymPair) -> PencilSignature:
    if len(pair) != 2 or not all(_is_symmetric(g) for g in pair):
        raise ValueError("expected a pair of symmetric 3x3 matrices")
    # the upper triangles of both matrices, times one lcm
    upper = integral([g[i][j] for g in pair for i in range(3)
                      for j in range(i, 3)])
    u1, u2 = upper[:6], upper[6:]
    g1, g2 = ([[a, b, c], [b, d, e], [c, e, f]]
              for a, b, c, d, e, f in (u1, u2))
    sd = 2 if any(u1[i] * u2[j] - u1[j] * u2[i]
                  for i in range(6) for j in range(i + 1, 6)) else \
        1 if any(upper) else 0
    if sd <= 1:
        # every member is a multiple of g, and a single symmetric form is
        # always congruent to a diagonal
        r = len(_independent_rows(g1 if any(u1) else g2))
        return PencilSignature(
            span_dim=sd, common_kernel_dim=3 - r, generic_rank=r,
            det_root_count=1 if r == 3 else -1, has_rank1_member=r == 1,
            simdiag=True)
    form = _det_form(g1, g2)
    if any(form):
        # regular: every Jordan block at a root has size 1 iff the member
        # there drops rank by the root's multiplicity
        drops = _root_drops(g1, g2, form)
        return PencilSignature(
            span_dim=2, common_kernel_dim=0, generic_rank=3,
            det_root_count=3 - sum(m - 1 for m, _ in drops),
            has_rank1_member=any(d == 2 for _, d in drops),
            simdiag=all(m == d for m, d in drops))
    # singular: a regular 2x2 pencil plus a common kernel line, which has
    # a rank-one member, or L1 + L1^t with no common kernel, which has none
    rows = _independent_rows(g1 + g2)
    return PencilSignature(
        span_dim=2, common_kernel_dim=3 - len(rows), generic_rank=2,
        det_root_count=-1, has_rank1_member=len(rows) == 2,
        simdiag=_singular_simdiag(g1, g2, rows))


def _build_signature_table() -> Dict[PencilSignature, str]:
    table: Dict[PencilSignature, str] = {}
    for label, rep in REPRESENTATIVES.items():
        key = pencil_signature(rep)
        if key in table:
            raise AssertionError(
                f"signature collision: {label} vs {table[key]} at {key}")
        table[key] = label
    return table


_SIGNATURE_TABLE = _build_signature_table()


def classify_pair(pair: SymPair) -> Optional[str]:
    """Orbit label "(2|3)_k" (k = 0..11), or None when no signature matches."""
    return _SIGNATURE_TABLE.get(pencil_signature(pair))


# -- parsing (CLI input) -------------------------------------------------------------


def parse_sym_matrix(rows) -> Mat:
    """A symmetric 3x3 matrix from three lists of three scalar strings."""
    if not (isinstance(rows, list) and len(rows) == 3 and all(
            isinstance(row, list) and len(row) == 3
            and all(isinstance(x, str) for x in row) for row in rows)):
        raise ValueError("expected three lists of three scalar strings")
    mat = [[parse_elem(x) for x in row] for row in rows]
    if not _is_symmetric(mat):
        raise ValueError("expected a symmetric 3x3 matrix of scalars")
    return mat
