"""Orbits of pairs of symmetric 3x3 matrices under (T, S) with

    (T, S) . (G1, G2) = (T11 S^t G1 S + T12 S^t G2 S,
                         T21 S^t G1 S + T22 S^t G2 S),

the action whose orbits are the (2|3) algebras with trivial even bracket
and trivial even action.  `classify_pair` names the twelve orbits
(2|3)_0 ... (2|3)_11 by an exact invariant signature of the matrix pencil
x*G1 + y*G2: span dimension, common kernel, generic rank, number of
distinct projective roots of its determinant, existence of a rank-one
member, and simultaneous diagonalizability by congruence.

These are Segre-Kronecker data of the pencil, read off one cubic binary
form f = det(x*G1 + y*G2), whose four coefficients come from four `det`
calls.  A regular pencil (f not identically 0) has generic rank 3, and its
multiple roots lie in the coefficient field; the member at a root of
multiplicity m drops rank by at most m, so one `rank` per multiple root
gives the rank-one members and decides simultaneous diagonalizability
(a drop of m at every multiple root).  Only a singular pencil (f = 0)
needs its 2x2 minors, for the generic rank and the rank-one members, and
its common kernel: off that kernel it is a regular 2x2 pencil,
diagonalizable iff its determinant has distinct roots, and with no common
kernel it is the block L1 + L1^t, which is not diagonalizable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .field import FieldElem, ONE, ZERO, parse_elem
from .linalg import SingularMatrix, det, kernel, mat_mul, rank, rref, transpose

Mat = List[List[FieldElem]]
SymPair = Tuple[Mat, Mat]


def _fe(x) -> FieldElem:
    return x if isinstance(x, FieldElem) else FieldElem(x)


def _mat(rows) -> Mat:
    return [[_fe(x) for x in row] for row in rows]


def _zeros(r: int, c: int) -> Mat:
    return [[ZERO for _ in range(c)] for _ in range(r)]


def _add(a: Mat, b: Mat) -> Mat:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _scale(a: Mat, c: FieldElem) -> Mat:
    return [[c * x for x in row] for row in a]


def _is_symmetric(a: Mat) -> bool:
    return all((a[i][j] - a[j][i]).is_zero()
               for i in range(len(a)) for j in range(i + 1, len(a)))


# -- the constants of the normal-form propositions ---------------------------

I1 = _mat([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
I2 = _mat([[0, 0, 0], [0, 1, 0], [0, 0, 0]])
I3 = _mat([[0, 0, 0], [0, 0, 0], [0, 0, 1]])
ID3 = _add(_add(I1, I2), I3)
K = _mat([[0, 1], [1, 0]])
L = _mat([[0, 0], [0, 2]])
U0 = [_fe(0), _fe(1)]


def _embed(block: Mat, corner: FieldElem, border: Optional[Sequence[FieldElem]] = None) -> Mat:
    """3x3 matrix [[block, border], [border^t, corner]] (border defaults to 0)."""
    b = border if border is not None else [ZERO, ZERO]
    return [[block[0][0], block[0][1], b[0]],
            [block[1][0], block[1][1], b[1]],
            [b[0], b[1], corner]]


REPRESENTATIVES: Dict[str, SymPair] = {
    "(2|3)_0": (_zeros(3, 3), _zeros(3, 3)),
    "(2|3)_1": (I1, _zeros(3, 3)),
    "(2|3)_2": (_add(I1, I2), _zeros(3, 3)),
    "(2|3)_3": (ID3, _zeros(3, 3)),
    "(2|3)_4": (I1, I2),
    "(2|3)_5": (_add(I1, I3), I2),
    "(2|3)_6": (_add(I1, I3), _add(I2, I3)),
    "(2|3)_7": (_embed(K, ZERO), _embed(L, ZERO)),
    "(2|3)_8": (_embed(K, ZERO), _embed(L, ZERO, U0)),
    "(2|3)_9": (_embed(K, ONE), _embed(L, ZERO)),
    "(2|3)_10": (_embed(K, ONE), _embed(L, ONE)),
    "(2|3)_11": (_embed(K, ONE), _embed(L, ZERO, U0)),
}


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


# -- univariate polynomials over the field ------------------------------------
# coefficient lists, lowest degree first


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


# -- binary forms of the pencil x*G1 + y*G2 ------------------------------------
# a form of degree d is a coefficient list c[0..d] for sum c_k x^k y^(d-k)

HALF = FieldElem(Fraction(1, 2))
FOUR = FieldElem(4)


def _form_mul(f: List[FieldElem], g: List[FieldElem]) -> List[FieldElem]:
    out = [ZERO] * (len(f) + len(g) - 1)
    for a, fa in enumerate(f):
        for b, gb in enumerate(g):
            out[a + b] = out[a + b] + fa * gb
    return out


def _det_form(pair: SymPair) -> List[FieldElem]:
    """The cubic form det(x*G1 + y*G2), from its values det(G2) = c0,
    det(G1) = c3, det(G1 + G2) = c0 + c1 + c2 + c3 and
    det(G2 - G1) = c0 - c1 + c2 - c3."""
    g1, g2 = pair
    c0, c3 = det(g2), det(g1)
    plus = det(_add(g1, g2))
    minus = det([[y - x for x, y in zip(r1, r2)] for r1, r2 in zip(g1, g2)])
    even, odd = (plus + minus) * HALF, (plus - minus) * HALF
    return [c0, odd - c3, even - c0, c3]


def _root_drops(pair: SymPair, form: List[FieldElem]) -> List[Tuple[int, int]]:
    """(multiplicity, rank drop of the member there) at each multiple root
    of the nonzero det `form`.  These roots lie in the coefficient field:
    (1:0) of multiplicity 3 - deg f(t, 1) when that is at least 2, and the
    one root of gcd(f(t, 1), f'(t, 1)) otherwise."""
    g1, g2 = pair
    p = _poly_trim(list(form))
    if len(p) < 3:
        return [(4 - len(p), 3 - rank(g1))]
    g = _poly_gcd(p, _poly_diff(p))
    if len(g) == 1:
        return []
    # g = (t - a)^(m - 1) for the root a of multiplicity m = len(g)
    a = -g[-2] / FieldElem(len(g) - 1)
    return [(len(g), 3 - rank(_add(_scale(g1, a), g2)))]


def _minor_forms(pair: SymPair) -> List[List[FieldElem]]:
    """The six distinct 2x2 minors of x*G1 + y*G2 as quadratic forms (by
    symmetry, rows R and columns C give the minor of rows C and columns R)."""
    g1, g2 = pair
    entry = [[[g2[i][j], g1[i][j]] for j in range(3)] for i in range(3)]
    index_pairs = [(0, 1), (0, 2), (1, 2)]
    forms = []
    for k, (r1, r2) in enumerate(index_pairs):
        for c1, c2 in index_pairs[k:]:
            plus = _form_mul(entry[r1][c1], entry[r2][c2])
            minus = _form_mul(entry[r1][c2], entry[r2][c1])
            forms.append([x - y for x, y in zip(plus, minus)])
    return forms


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


# -- pencil signature ------------------------------------------------------------


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


def _is_nonzero(form: List[FieldElem]) -> bool:
    return any(not c.is_zero() for c in form)


def simdiag_test(pair: SymPair, sd: Optional[int] = None,
                 form: Optional[List[FieldElem]] = None,
                 drops: Optional[List[Tuple[int, int]]] = None) -> bool:
    """Is {G1, G2} simultaneously diagonalizable by a congruence?  `sd`,
    `form` and `drops` are the pair's `_span_dim`, `_det_form` and
    `_root_drops` when the caller has them."""
    if (_span_dim(pair) if sd is None else sd) <= 1:
        return True  # a single symmetric form is always congruent to a diagonal
    if form is None:
        form = _det_form(pair)
    if _is_nonzero(form):
        # regular: every Jordan block at a root has size 1 iff the member
        # there drops rank by the root's multiplicity
        if drops is None:
            drops = _root_drops(pair, form)
        return all(m == d for m, d in drops)
    return _singular_simdiag(pair, _common_kernel(pair))


def _singular_simdiag(pair: SymPair, ker: Mat) -> bool:
    """`simdiag_test` of a singular span-2 pencil with common kernel `ker`."""
    comp = _kernel_complement(ker)
    if comp is None:
        # a singular pencil with no common kernel is L1 + L1^t
        return False
    # off the common kernel the pencil is a regular 2x2 one, diagonalizable
    # iff its determinant a*x^2 + b*x*y + c*y^2 has distinct roots
    ct = transpose(comp)
    g1, g2 = (mat_mul(ct, mat_mul(g, comp)) for g in pair)
    b = (g1[0][0] * g2[1][1] + g1[1][1] * g2[0][0]
         - g1[0][1] * g2[1][0] - g1[1][0] * g2[0][1])
    return not (b * b - FOUR * det(g1) * det(g2)).is_zero()


# -- signature and classification -------------------------------------------------


@dataclass(frozen=True)
class PencilSignature:
    span_dim: int
    common_kernel_dim: int
    generic_rank: int
    det_root_count: int
    has_rank1_member: bool
    simdiag: bool

    def key(self):
        return (self.span_dim, self.common_kernel_dim, self.generic_rank,
                self.det_root_count, self.has_rank1_member, self.simdiag)


def pencil_signature(pair: SymPair) -> PencilSignature:
    if len(pair[0]) != 3 or not _is_symmetric(pair[0]) or not _is_symmetric(pair[1]):
        raise ValueError("expected a pair of symmetric 3x3 matrices")
    sd = _span_dim(pair)
    if sd <= 1:
        # every member is a multiple of g
        g = pair[0] if any(not x.is_zero() for r in pair[0] for x in r) else pair[1]
        r = rank(g)
        return PencilSignature(
            span_dim=sd, common_kernel_dim=3 - r, generic_rank=r,
            det_root_count=1 if r == 3 else -1, has_rank1_member=r == 1,
            simdiag=simdiag_test(pair, sd))
    form = _det_form(pair)
    if _is_nonzero(form):
        drops = _root_drops(pair, form)
        return PencilSignature(
            span_dim=2, common_kernel_dim=0, generic_rank=3,
            det_root_count=3 - sum(m - 1 for m, _ in drops),
            has_rank1_member=any(d == 2 for _, d in drops),
            simdiag=simdiag_test(pair, sd, form, drops))
    # singular: a member has rank 1 exactly where every 2x2 minor vanishes
    rank1_roots = _common_root_count(_minor_forms(pair), 2)
    ker = _common_kernel(pair)
    return PencilSignature(
        span_dim=2, common_kernel_dim=len(ker),
        generic_rank=1 if rank1_roots is None else 2, det_root_count=-1,
        has_rank1_member=rank1_roots is None or rank1_roots > 0,
        simdiag=_singular_simdiag(pair, ker))


def _build_signature_table() -> Dict[tuple, str]:
    table: Dict[tuple, str] = {}
    for label, rep in REPRESENTATIVES.items():
        key = pencil_signature(rep).key()
        if key in table:
            raise AssertionError(
                f"signature collision: {label} vs {table[key]} at {key}")
        table[key] = label
    return table


_SIGNATURE_TABLE = _build_signature_table()


def classify_pair(pair: SymPair) -> Optional[str]:
    """Orbit label "(2|3)_k" (k = 0..11), or None when no signature matches."""
    return _SIGNATURE_TABLE.get(pencil_signature(pair).key())


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
