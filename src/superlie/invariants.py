"""Isomorphism/degeneration invariants of a Lie superalgebra.

Everything here is a necessary condition for g degenerating to h and is
computed exactly: graded center and derived subalgebra, Gamma-vanishing,
(alpha,beta,gamma)-derivation dimensions, the orbit dimension, and the
maximal trivial graded subalgebra t(g).  Each is read off g's bracket
table, and the linear systems are sparse {column: scalar} rows handed to
`linalg._echelon`: `derived` ranks the stored brackets, the center reads
them and their mirrors, and `_echelon` scales each row to integral form;
the derivations read `algebra.integral_table`, which `invariant_report`
builds once.
Every derivation system, d1 included, is written once, by
`_derivation_images`: the image of each elementary map under the
(alpha,beta,gamma) residual, straight off lists of the stored pairs (and
their mirrors when the tuple needs all ordered pairs).  `abc_derivations`
takes the kernel of the equations they are the columns of, and
`orbit_dim` and `invariant_report` rank them; the report reads (0,1,0)
off the center.  The (1,1,1) images of degree 0 are minus d1's, so the
orbit dimension is rank d1.  t(g) decides the shapes (a|b) from the
largest a + b down: a shape below a found one is found.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .algebra import SuperAlgebra, _mirror, integral_table, pairs
from .field import FieldElem, I, ONE, SQRT2, ZERO
from .groebner import Poly, system_verdict
from .linalg import _echelon, integral, kernel_vectors


def center(g: SuperAlgebra):
    """Graded dimension of the center, with graded bases: for each parity,
    the kernel of ad over the combined basis, as sparse rows (b, k) read off
    each stored pair (a, b) and its mirror (b, a), as `derived` reads them;
    `_echelon` scales the rows to integral form."""
    m = g.m
    # by the parity of u: {(v, k): {u's column: coordinate k of [x_u, x_v]}}
    rows = ({}, {})
    for (a, b), terms in g.consts.items():
        for u, v, uv in ((a, b, terms), (b, a, _mirror(m, a, b, terms))):
            for k, x in uv:
                rows[u >= m].setdefault((v, k), {})[u - m * (u >= m)] = x
    even_basis, odd_basis = (
        kernel_vectors(*_echelon(list(r.values()), True), size)
        for r, size in zip(rows, (m, g.n)))
    return (len(even_basis), len(odd_basis)), (even_basis, odd_basis)


def derived(g: SuperAlgebra) -> Tuple[int, int]:
    """Graded dimension of [g, g]: the rank of the stored brackets, as
    sparse rows.  Each bracket is homogeneous, so the pivots before column
    m are the even part's and the rest the odd part's."""
    _, pivots = _echelon([dict(terms) for terms in g.consts.values()], False)
    even = sum(c < g.m for c in pivots)
    return even, len(pivots) - even


def gamma_is_zero(g: SuperAlgebra) -> bool:
    """No stored odd-odd bracket."""
    return all(a < g.m for a, _ in g.consts)


# -- (alpha,beta,gamma)-derivations -----------------------------------------


def _derivation_images(g: SuperAlgebra, br, alpha, beta, gamma,
                       degree: int) -> list:
    """The images of the elementary maps E: x_j -> x_i of degree `degree`
    (0 or 1) under the (alpha,beta,gamma)-derivation residual

        (x_a, x_b) -> alpha E[x_a,x_b] - beta [E x_a, x_b]
                      - (-1)^(degree*|a|) gamma [x_a, E x_b],

    as sparse {key: coefficient} dicts, zero entries dropped, read off br,
    g's bracket table or a multiple of it (`algebra.integral_table`), with
    (alpha, beta, gamma) scaled by `integral`.  They come in the order of
    the maps within a parity (degree 0) or from even to odd (degree 1),
    then the rest, i row by row, empty images included.

    The keys run over the coordinates of parity |a| + |b| + degree on each
    pair (a, b) of a list: the stored pairs, then the pairs (a, a) of even
    a unless beta = gamma, then the pairs (b, a) of a < b unless
    beta = gamma or alpha = 0 and beta = -gamma.  At (b, a) the residual is
    -(-1)^(|a||b|) times the one at (a, b) with beta and gamma swapped, so
    in those two cases the half pairs have the whole kernel.  At degree 0
    the stored pairs' keys are the `cohomology.cochain_basis_index` slots,
    and the (1,1,1) images are minus d1's, as cochains."""
    if degree not in (0, 1):
        raise ValueError(f"a derivation has degree 0 or 1, got {degree!r}")
    # the residual is homogeneous in (alpha, beta, gamma) and linear in the
    # structure constants, so both are scaled to integral form
    alpha, beta, gamma = integral([FieldElem(x) if isinstance(x, Fraction)
                                   else x for x in (alpha, beta, gamma)])
    m, d = g.m, g.dim
    ordered = pairs(m, g.n)
    if beta != gamma:       # at (a, a), a even: (gamma - beta) [E x_a, x_a]
        ordered += [(a, a) for a in range(m)]
    if not (beta == gamma or alpha == 0 and beta == -gamma):
        ordered += [(b, a) for a in range(d) for b in range(a + 1, d)]
    # first[j], second[j]: the pairs (j, b), (a, j) as (b, base, scale),
    # (a, base, scale), key base + k holding coordinate k on the pair;
    # into[j]: (base, alpha x) for each pair whose bracket has x x_j
    first, second, into = ([[] for _ in range(d)] for _ in range(3))
    s = 0
    for a, b in ordered:
        lo, hi = (m, d) if (a >= m) ^ (b >= m) ^ degree else (0, m)
        if beta:
            first[a].append((b, s - lo, -beta))
        if gamma:
            second[b].append((a, s - lo, gamma if degree and a >= m
                              else -gamma))
        if alpha:
            for k, x in br[a][b]:
                into[k].append((s - lo, alpha * x))
        s += hi - lo
    spans = (range(m), range(m, d))
    images = []
    for p in (0, 1):
        for i in spans[(p + degree) % 2]:
            for j in spans[p]:
                image = {}
                for b, base, c in first[j]:
                    for k, y in br[i][b]:
                        key, z = base + k, c * y
                        image[key] = image[key] + z if key in image else z
                for a, base, c in second[j]:
                    for k, y in br[a][i]:
                        key, z = base + k, c * y
                        image[key] = image[key] + z if key in image else z
                for base, x in into[j]:
                    key = base + i
                    image[key] = image[key] + x if key in image else x
                images.append({key: x for key, x in image.items() if x})
    return images


def abc_derivations(g: SuperAlgebra, alpha, beta, gamma, degree: int):
    """Dimension (with basis) of degree-`degree` (alpha,beta,gamma)-derivations:
    the kernel of the equations whose columns are the `_derivation_images`.
    alpha, beta and gamma may be ints, Fractions or FieldElems."""
    images = _derivation_images(g, integral_table(g), alpha, beta, gamma,
                                degree)
    rows = {}
    for u, image in enumerate(images):
        for key, x in image.items():
            rows.setdefault(key, {})[u] = x
    basis = kernel_vectors(*_echelon(list(rows.values()), True), len(images))
    return len(basis), basis


def orbit_dim(g: SuperAlgebra) -> int:
    """m^2 + n^2 - dim Der_0, Der_0 the (1,1,1)-derivations of degree 0: the
    rank of their images, which are minus d1's, so dim B^2(g,g)_0."""
    images = _derivation_images(g, integral_table(g), 1, 1, 1, 0)
    return len(_echelon(images, False)[1])


# -- maximal trivial graded subalgebra ---------------------------------------


_WITNESS_GRID = [ZERO, ONE, -ONE, I, -I, FieldElem(2), ONE / 2, I / 2,
                 SQRT2, ONE + I]


def _chart(pivots: Sequence[int], total: int, at: int, offset: int):
    """The chart of the subspaces of x_at, ..., x_(at+total-1) with these
    pivot rows: generator c is 1 at row pivots[c] and a fresh variable at
    each later row that is no pivot, variables numbered from offset.
    Returns (generators as {combined basis index: variables}, the next
    free variable)."""
    gens = []
    for p in pivots:
        gen = {at + p: ()}
        for r in range(p + 1, total):
            if r not in pivots:
                gen[at + r] = (offset,)
                offset += 1
        gens.append(gen)
    return gens, offset


def _bracket_polys(br, gens, even: int, nvars: int) -> List[Poly]:
    """Quadratic equations: all brackets among the generators of a chart
    vanish (br is the algebra's bracket table, the first `even` generators
    even).  Every generator coordinate is 1 or one variable, so the product
    of two is a monomial with coefficient 1, and an equation is a sum of
    structure constants over monomials."""
    eqs: List[Poly] = []
    for i1, v1 in enumerate(gens):
        for i2 in range(i1, len(gens)):
            if i1 == i2 < even:  # [x, x] = 0 for even x
                continue
            acc: Dict[int, Poly] = {}
            for a, xs in v1.items():
                for b, ys in gens[i2].items():
                    mono = [0] * nvars
                    for v in xs + ys:
                        mono[v] += 1
                    mono = tuple(mono)
                    for k, cf in br[a][b]:
                        poly = acc.setdefault(k, {})
                        total = poly.get(mono, ZERO) + cf
                        if total:
                            poly[mono] = total
                        else:
                            del poly[mono]
            eqs.extend(acc[k] for k in sorted(acc) if acc[k])
    return eqs


def _poly_eval(p: Poly, point: Sequence[FieldElem]) -> FieldElem:
    total = ZERO
    for mono, cf in p.items():
        term = cf
        for v, expt in enumerate(mono):
            for _ in range(expt):
                term = term * point[v]
        total = total + term
    return total


def _search_witness(eqs: List[Poly], nvars: int) -> Optional[List[FieldElem]]:
    """Small grid search for a common zero (only used to upgrade Unknown)."""
    if nvars > 4:
        return None
    for point in itertools.product(_WITNESS_GRID, repeat=nvars):
        if all(_poly_eval(p, point).is_zero() for p in eqs):
            return list(point)
    return None


def trivial_shape_exists(br, m: int, n: int, a: int,
                         b: int) -> Optional[bool]:
    """Does a trivial graded subalgebra of shape (a|b) exist in the (m|n)
    algebra with bracket table br?  None=unknown."""
    any_unknown = False
    # each choice of pivot rows is one chart of the subspaces of shape (a|b)
    for epiv in itertools.combinations(range(m), a):
        egens, ev = _chart(epiv, m, 0, 0)
        for opiv in itertools.combinations(range(n), b):
            ogens, nvars = _chart(opiv, n, m, ev)
            eqs = _bracket_polys(br, egens + ogens, a, max(nvars, 1))
            if not eqs:
                return True
            verdict = system_verdict(eqs)
            if verdict == "nonempty":
                return True
            if verdict == "unknown":
                if _search_witness(eqs, nvars) is not None:
                    return True
                any_unknown = True
    return None if any_unknown else False


def trivial_sub_max(g: SuperAlgebra) -> Dict:
    """t(g): maximal total dimension of a trivial graded subalgebra.

    Shapes (a|b) are decided from the largest a + b down; a graded subspace
    of a trivial subalgebra is trivial, so a shape below one already found
    (a <= a', b <= b') is found without a search."""
    m, n = g.m, g.n
    br = g.bracket_table()
    profile = []
    undecided = []
    shapes = sorted(((a, b) for a in range(m + 1) for b in range(n + 1)
                     if a + b), key=lambda s: -sum(s))
    for a, b in shapes:
        res = any(a <= a2 and b <= b2 for a2, b2 in profile) or \
            trivial_shape_exists(br, m, n, a, b)
        if res is True:
            profile.append((a, b))
        elif res is None:
            undecided.append(a + b)
    best = max((a + b for a, b in profile), default=0)
    # only honest if no undecided shape could beat the max
    exact: Optional[int] = None if max(undecided, default=0) > best else best
    return {"lower": best, "exact": exact, "graded_profile": sorted(profile)}


# -- the full report -----------------------------------------------------------


ABC_TUPLES = [(1, 1, 1), (0, 1, 0), (0, 1, -1)]


def invariant_report(g: SuperAlgebra, with_trivial: bool = True) -> Dict:
    """Every invariant of g.  The (1,1,1) and (0,1,-1) entries are unknowns
    less the rank of their `_derivation_images`, Der_0 is the (1,1,1)@0
    entry, and (0,1,0)@d counts the parity-d maps into the center."""
    br = integral_table(g)
    z = center(g)[0]
    abc = {}
    for a, b, c in ABC_TUPLES:
        for deg in (0, 1):
            if (a, b, c) == (0, 1, 0):
                dim = g.m * z[deg] + g.n * z[1 - deg]
            else:
                images = _derivation_images(g, br, a, b, c, deg)
                dim = len(images) - len(_echelon(images, False)[1])
            abc[f"({a},{b},{c})@{deg}"] = dim
    d0 = abc["(1,1,1)@0"]
    report = {
        "name": g.name,
        "shape": [g.m, g.n],
        "center": list(z),
        "derived": list(derived(g)),
        "gamma_zero": gamma_is_zero(g),
        "der0_dim": d0,
        "orbit_dim": g.m ** 2 + g.n ** 2 - d0,
        "abc_entries": abc,
    }
    if with_trivial:
        t = trivial_sub_max(g)
        report["trivial_max"] = {"lower": t["lower"], "exact": t["exact"]}
        report["trivial_graded_profile"] = [list(p) for p in t["graded_profile"]]
    return report
