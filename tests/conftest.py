import random
from fractions import Fraction

import pytest

from superlie.field import FieldElem


SEED = 20260823


@pytest.fixture
def rng():
    return random.Random(SEED)


def rand_elem(rng, span: int = 9) -> FieldElem:
    return FieldElem(Fraction(rng.randint(-span, span), rng.randint(1, span)),
                     Fraction(rng.randint(-span, span), rng.randint(1, span)),
                     Fraction(rng.randint(-span, span), rng.randint(1, span)),
                     Fraction(rng.randint(-span, span), rng.randint(1, span)))


def dense_views(g):
    """(c, rho, gamma) of an algebra as dense tensors: c[i][j] = [e_i, e_j]
    over e_1..e_m, rho[i][j] = [e_i, f_j] over f_1..f_n and
    gamma[i][j] = [f_i, f_j] over e_1..e_m, read through `bracket`."""
    m, d = g.m, g.dim
    vecs = [g.basis_vector(k) for k in range(d)]

    def dense(rows, cols, part):
        return tuple(tuple(tuple(g.bracket(vecs[a], vecs[b])[part])
                           for b in cols) for a in rows)

    ev, od = range(m), range(m, d)
    return dense(ev, ev, 0), dense(ev, od, 1), dense(od, od, 0)
