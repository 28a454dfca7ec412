"""Orbits of pairs of symmetric 3x3 matrices under (T, S) with

    (T, S) . (G1, G2) = (T11 S^t G1 S + T12 S^t G2 S,
                         T21 S^t G1 S + T22 S^t G2 S),

the action whose orbits are the (2|3) algebras with trivial even bracket
and trivial even action.  `classify_pair` names the twelve orbits
(2|3)_0 ... (2|3)_11 by an exact invariant signature of the matrix pencil
span{G1, G2}: span dimension, common kernel, generic rank, number of
distinct rank-drop points of det on the projective line, existence of a
rank-one member, and simultaneous diagonalizability by congruence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .field import FieldElem, I, ONE, SQRT2, ZERO
from .linalg import SingularMatrix, det, inv as mat_inv, kernel, mat_mul, rank, rref, transpose

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
               for i in range(len(a)) for j in range(len(a)))


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


def _poly_squarefree_part(p: List[FieldElem]) -> List[FieldElem]:
    p = _poly_trim(list(p))
    g = _poly_gcd(p, _poly_diff(p))
    q, r = _poly_divmod(p, g)
    assert not r
    return q


# -- binary forms of the pencil x*G1 + y*G2 ------------------------------------
# a form of degree d is a coefficient list c[0..d] for sum c_k x^k y^(d-k)


def _form_mul(f: List[FieldElem], g: List[FieldElem]) -> List[FieldElem]:
    out = [ZERO] * (len(f) + len(g) - 1)
    for a, fa in enumerate(f):
        for b, gb in enumerate(g):
            out[a + b] = out[a + b] + fa * gb
    return out


def _form_det(entries: List[List[List[FieldElem]]]) -> List[FieldElem]:
    """Determinant of a matrix of binary forms (cofactor expansion)."""
    n = len(entries)
    if n == 1:
        return list(entries[0][0])
    total: List[FieldElem] = [ZERO]
    for j in range(n):
        minor = [[entries[r][c] for c in range(n) if c != j]
                 for r in range(1, n)]
        term = _form_mul(entries[0][j], _form_det(minor))
        if len(total) < len(term):
            total = total + [ZERO] * (len(term) - len(total))
        for k, x in enumerate(term):
            sign = ONE if j % 2 == 0 else -ONE
            total[k] = total[k] + sign * x
    return total


def _pencil_entries(pair: SymPair) -> List[List[List[FieldElem]]]:
    g1, g2 = pair
    n = len(g1)
    return [[[g2[i][j], g1[i][j]] for j in range(n)] for i in range(n)]


def _all_minors(entries, size: int) -> List[List[FieldElem]]:
    import itertools
    n = len(entries)
    forms = []
    for rows in itertools.combinations(range(n), size):
        for cols in itertools.combinations(range(n), size):
            sub = [[entries[r][c] for c in cols] for r in rows]
            forms.append(_form_det(sub))
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

PROBES = [Fraction(k) for k in range(7)]


def _span_dim(pair: SymPair) -> int:
    rows = [[x for row in g for x in row] for g in pair]
    return rank(rows)


def _common_kernel_dim(pair: SymPair) -> int:
    n = len(pair[0])
    stacked = [list(r) for r in pair[0]] + [list(r) for r in pair[1]]
    return n - rank(stacked)


def _probe_members(pair: SymPair) -> List[Mat]:
    g1, g2 = pair
    members = [_add(_scale(g1, _fe(lam)), g2) for lam in PROBES]
    members.append(g1)
    return members


def _ranks_attained(pair: SymPair, sd: int) -> Tuple[int, int, bool]:
    """(generic rank, distinct projective zeros of det(x*G1 + y*G2) or -1
    when it vanishes identically, whether some nonzero member has rank 1)
    of a pencil of span dimension sd."""
    if sd == 0:
        return 0, -1, False
    entries = _pencil_entries(pair)
    det_roots = _common_root_count([_form_det(entries)], 3)
    det_count = -1 if det_roots is None else det_roots
    if sd == 1:
        g = pair[0] if any(not x.is_zero() for r in pair[0] for x in r) else pair[1]
        r = rank(g)
        return r, det_count, r == 1
    generic = max(rank(mem) for mem in _probe_members(pair))
    rank1_roots = _common_root_count(_all_minors(entries, 2), 2)
    if det_roots is None and rank1_roots is None:
        # det and all 2x2 minors vanish identically: every member has rank 1
        return generic, det_count, True
    # otherwise a rank-1 member is a common root of the 2x2 minors (each of
    # them is in particular a root of det)
    return generic, det_count, bool(rank1_roots)


# -- simultaneous diagonalizability ---------------------------------------------


def _charpoly(mat: Mat) -> List[FieldElem]:
    """Characteristic polynomial det(xI - M), lowest degree first (n <= 3)."""
    n = len(mat)
    entries = [[[-mat[i][j], ONE if i == j else ZERO] for j in range(n)]
               for i in range(n)]
    form = _form_det(entries)  # here "x" is the variable, "y" absorbed: deg n
    # _form_det treats entries as forms in (x, y); with constant+x entries the
    # result is the univariate charpoly with coefficient k at x^k
    return list(form) + [ZERO] * (n + 1 - len(form))


def _eval_poly_at_matrix(p: List[FieldElem], mat: Mat) -> Mat:
    n = len(mat)
    out = _zeros(n, n)
    power = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for coeff in p:
        out = _add(out, _scale(power, coeff))
        power = mat_mul(power, mat)
    return out


def _is_diagonalizable(mat: Mat) -> bool:
    p = _charpoly(mat)
    s = _poly_squarefree_part(p)
    image = _eval_poly_at_matrix(s, mat)
    return all(x.is_zero() for row in image for x in row)


def _kernel_complement(pair: SymPair) -> Optional[Mat]:
    """Columns of standard basis vectors complementary to the common kernel."""
    n = len(pair[0])
    stacked = [list(r) for r in pair[0]] + [list(r) for r in pair[1]]
    ker = kernel(stacked)
    if not ker:
        return None
    _, pivots = rref(ker)
    complement = [c for c in range(n) if c not in pivots]
    return [[ONE if r == c else ZERO for c in complement] for r in range(n)]


def simdiag_test(pair: SymPair) -> bool:
    """Is {G1, G2} simultaneously diagonalizable by a congruence?"""
    g1, g2 = pair
    if rank(g1) <= 1 and rank(g2) <= 1:
        return True
    if _span_dim(pair) <= 1:
        return True  # a single symmetric form is always congruent to a diagonal
    invertible = None
    other = None
    for lam in PROBES:
        member = _add(_scale(g1, _fe(lam)), g2)
        if not det(member).is_zero():
            invertible, other = member, g1
            break
    if invertible is None and not det(g1).is_zero():
        invertible, other = g1, g2
    if invertible is not None:
        endo = mat_mul(mat_inv(invertible), other)
        return _is_diagonalizable(endo)
    # no invertible member: the whole pencil is singular
    comp = _kernel_complement(pair)
    if comp is None:
        # simultaneously diagonal pairs with identically-zero determinant
        # always share a kernel vector; none here, so not diagonalizable
        return False
    ct = transpose(comp)
    return simdiag_test((mat_mul(ct, mat_mul(g1, comp)),
                         mat_mul(ct, mat_mul(g2, comp))))


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
    generic, det_count, has_rank1 = _ranks_attained(pair, sd)
    return PencilSignature(
        span_dim=sd,
        common_kernel_dim=_common_kernel_dim(pair),
        generic_rank=generic,
        det_root_count=det_count,
        has_rank1_member=has_rank1,
        simdiag=simdiag_test(pair),
    )


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


# -- symmetric normal form ----------------------------------------------------------


class Unsupported:
    """Marker result: the normal form needs roots outside Q(i, sqrt2)."""

    def __repr__(self):
        return "Unsupported"


UNSUPPORTED = Unsupported()


def _try_sqrt(x: FieldElem) -> Optional[FieldElem]:
    from .field import field_sqrt
    return field_sqrt(x)


def _orthonormalize(vectors: List[List[FieldElem]]) -> Optional[List[List[FieldElem]]]:
    """Gram-Schmidt for the bilinear form v^t w; None if a norm lacks a root."""
    out: List[List[FieldElem]] = []
    for v in vectors:
        w = list(v)
        for u in out:
            coef = sum((a * b for a, b in zip(w, u)), ZERO)
            w = [a - coef * b for a, b in zip(w, u)]
        norm2 = sum((a * a for a in w), ZERO)
        if norm2.is_zero():
            return None
        root = _try_sqrt(norm2)
        if root is None:
            return None
        inv_root = root.inv()
        out.append([a * inv_root for a in w])
    return out


def _eigenvalues_2x2(a: Mat):
    tr = a[0][0] + a[1][1]
    dt = det(a)
    half = FieldElem(Fraction(1, 2))
    disc = tr * tr - FieldElem(4) * dt
    root = _try_sqrt(disc)
    if root is None:
        return None
    return ((tr + root) * half, (tr - root) * half)


def sym_normal_form(a: Mat):
    """Canonical congruence form of a symmetric matrix (n in {2, 3}).

    Returns {"kind": "diagonal" | "nondiagonalizable", "form": F,
    "transform": S} with S^t A S == F and S orthogonal, or UNSUPPORTED when
    the computation needs square roots outside the coefficient field.
    """
    n = len(a)
    if n not in (2, 3) or not _is_symmetric(a):
        raise ValueError("expected a symmetric 2x2 or 3x3 matrix")
    ident = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    if all(a[i][j].is_zero() for i in range(n) for j in range(n) if i != j):
        return {"kind": "diagonal", "form": [list(r) for r in a],
                "transform": ident}
    if n == 2:
        return _sym_normal_form_2(a)
    return _sym_normal_form_3(a)


def _sym_normal_form_2(a: Mat):
    eig = _eigenvalues_2x2(a)
    if eig is None:
        return UNSUPPORTED
    lam1, lam2 = eig
    if not (lam1 - lam2).is_zero():
        vecs = []
        for lam in (lam1, lam2):
            shifted = [[a[0][0] - lam, a[0][1]], [a[1][0], a[1][1] - lam]]
            ker = kernel(shifted)
            vecs.append(ker[0])
        ortho = _orthonormalize(vecs)
        if ortho is None:
            return UNSUPPORTED
        s = transpose(ortho)
        form = mat_mul(transpose(s), mat_mul(a, s))
        return {"kind": "diagonal", "form": form, "transform": s}
    # a single eigenvalue with an off-diagonal entry: A - lam*I = v v^t with
    # v isotropic, and the normal form is [[lam+1, i], [i, lam-1]] = lam*I + u u^t
    lam = lam1
    shifted = [[a[0][0] - lam, a[0][1]], [a[1][0], a[1][1] - lam]]
    v1sq, v2sq = shifted[0][0], shifted[1][1]
    v1 = _try_sqrt(v1sq)
    if v1 is None:
        return UNSUPPORTED
    if v1.is_zero():
        # v = (0, v2) with v isotropic forces v = 0, impossible here
        return UNSUPPORTED
    v = [v1, shifted[0][1] / v1]
    # v is isotropic and nonzero: v = v1*(1, i) or v1*(1, -i).  The rotation
    # [[p, -q], [q, p]] with p^2+q^2=1 scales u=(1, i) by mu=p-qi (any nonzero
    # mu is reachable), and diag(1, -1) swaps the two isotropic lines.
    ratio = v[1] / v[0]
    reflect = (ratio + I).is_zero()
    if not reflect and not (ratio - I).is_zero():
        return UNSUPPORTED
    mu = v[0]
    half = FieldElem(Fraction(1, 2))
    p = (mu + mu.inv()) * half
    q = (mu - mu.inv()) * half * I
    rot = [[p, -q], [q, p]]  # orthogonal, maps u to mu*u
    s = mat_mul([[ONE, ZERO], [ZERO, -ONE]], rot) if reflect else rot
    # s is orthogonal with s*u = v, hence s^t A s = lam*I + u u^t exactly
    form = [[lam + ONE, I], [I, lam - ONE]]
    got = mat_mul(transpose(s), mat_mul(a, s))
    if all((got[i][j] - form[i][j]).is_zero() for i in range(2) for j in range(2)):
        return {"kind": "nondiagonalizable", "form": form, "transform": s}
    return UNSUPPORTED


def _cubic_field_roots(p: List[FieldElem]) -> Optional[List[FieldElem]]:
    """Roots of a monic cubic when one root lies in a small candidate set."""
    candidates = [FieldElem(v) for v in
                  (0, 1, -1, 2, -2, 3, -3, Fraction(1, 2), Fraction(-1, 2))]
    candidates += [I, -I, SQRT2, -SQRT2, I * SQRT2, -(I * SQRT2)]
    half = FieldElem(Fraction(1, 2))
    for cand in candidates:
        val = p[0] + cand * (p[1] + cand * (p[2] + cand * p[3]))
        if val.is_zero():
            # deflate: p(x) = (x - cand) * (x^2 + bx + c)
            b = p[2] + cand
            c = p[1] + cand * b
            disc = b * b - FieldElem(4) * c
            root = _try_sqrt(disc)
            if root is None:
                return None
            return [cand, (-b + root) * half, (-b - root) * half]
    return None


def _sym_normal_form_3(a: Mat):
    p = _charpoly(a)
    lead_inv = p[-1].inv()
    p = [x * lead_inv for x in p]
    roots = _cubic_field_roots(p)
    if roots is None:
        return UNSUPPORTED
    if not _is_diagonalizable(a):
        return UNSUPPORTED  # the 3x3 nondiagonalizable transform is out of scope
    # orthogonal eigenbasis, eigenvalue by eigenvalue
    seen: List[FieldElem] = []
    vecs: List[List[FieldElem]] = []
    order: List[FieldElem] = []
    for lam in roots:
        if any((lam - s).is_zero() for s in seen):
            continue
        seen.append(lam)
        shifted = [[a[i][j] - (lam if i == j else ZERO) for j in range(3)]
                   for i in range(3)]
        for vec in kernel(shifted):
            vecs.append(vec)
            order.append(lam)
    if len(vecs) != 3:
        return UNSUPPORTED
    ortho = _orthonormalize(vecs)
    if ortho is None:
        return UNSUPPORTED
    s = transpose(ortho)
    form = mat_mul(transpose(s), mat_mul(a, s))
    return {"kind": "diagonal", "form": form, "transform": s}


# -- parsing (CLI input) -------------------------------------------------------------


def parse_sym_matrix(rows: Sequence[Sequence[str]]) -> Mat:
    from .field import parse_elem
    mat = [[parse_elem(x) for x in row] for row in rows]
    if len(mat) != 3 or any(len(r) != 3 for r in mat) or not _is_symmetric(mat):
        raise ValueError("expected a symmetric 3x3 matrix of scalars")
    return mat
