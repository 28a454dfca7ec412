import random
from fractions import Fraction

import pytest

from superlie.field import ONE, ZERO, FieldElem


SEED = 20260823


@pytest.fixture
def rng():
    return random.Random(SEED)


def rand_elem(rng, span: int = 9) -> FieldElem:
    return FieldElem(Fraction(rng.randint(-span, span), rng.randint(1, span)),
                     Fraction(rng.randint(-span, span), rng.randint(1, span)),
                     Fraction(rng.randint(-span, span), rng.randint(1, span)),
                     Fraction(rng.randint(-span, span), rng.randint(1, span)))


def basis_vector(g, idx: int):
    """Graded unit vector (even, odd) for the idx-th basis element of g
    (0-based, odd indices offset by m)."""
    out = [ONE if k == idx else ZERO for k in range(g.dim)]
    return out[:g.m], out[g.m:]


def dense_views(g):
    """(c, rho, gamma) of an algebra as dense tensors: c[i][j] = [e_i, e_j]
    over e_1..e_m, rho[i][j] = [e_i, f_j] over f_1..f_n and
    gamma[i][j] = [f_i, f_j] over e_1..e_m, read through `bracket`."""
    m, d = g.m, g.dim
    vecs = [basis_vector(g, k) for k in range(d)]

    def dense(rows, cols, part):
        return tuple(tuple(tuple(g.bracket(vecs[a], vecs[b])[part])
                           for b in cols) for a in rows)

    ev, od = range(m), range(m, d)
    return dense(ev, ev, 0), dense(ev, od, 1), dense(od, od, 0)


def dense(rows, width: int):
    """Sparse {column: scalar} rows (`linalg._echelon`'s and the exact
    systems' shape) written out over `width` columns, 0 where a row has no
    entry."""
    return [[row.get(c, 0) for c in range(width)] for row in rows]


def rand_gl(size: int, rng, irrational: bool = False):
    """A random invertible matrix: small rationals, or with `irrational`
    small elements of Q(i, sqrt2) with all four coordinates drawn."""
    from superlie.linalg import det
    while True:
        mat = [[rand_elem(rng, 2) if irrational
                else FieldElem(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                for _ in range(size)] for _ in range(size)]
        if not det(mat).is_zero():
            return mat


def table_cases(rng, irrational_dim: int = 4):
    """Every catalog algebra, its ab() and F reductions, a seeded rational
    basis change of each, and a seeded Q(i, sqrt2) basis change of each of
    dimension <= `irrational_dim`: inputs on which a system linear in the
    structure constants must not depend on how they are scaled."""
    from superlie import catalog
    cases = []
    for e in catalog.list_entries():
        g = e.algebra
        cases += [g, g.ab(), g.forget_gamma(),
                  g.apply_basis_change(rand_gl(g.m, rng), rand_gl(g.n, rng))]
        if g.dim <= irrational_dim:
            cases.append(g.apply_basis_change(rand_gl(g.m, rng, True),
                                              rand_gl(g.n, rng, True)))
    return cases
