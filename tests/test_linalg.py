from fractions import Fraction
from math import gcd

import pytest

from superlie import linalg
from superlie.field import I, SQRT2, FieldElem
from superlie.linalg import (SingularMatrix, det, kernel, mat_mul, rank, rref,
                             series_solve, solve, transpose)
from superlie.series import PuiseuxSeries

from conftest import dense, rand_elem

ZERO = FieldElem(0)
ONE = FieldElem(1)


def eye(size):
    return [[ONE if i == j else ZERO for j in range(size)]
            for i in range(size)]


def test_rank_and_kernel_small():
    m = [[ONE, ONE], [ONE, ONE]]
    assert rank(m) == 1
    ker = kernel(m)
    assert len(ker) == 1
    v = ker[0]
    assert (v[0] + v[1]).is_zero()


def test_det_values():
    assert det(eye(3)) == ONE
    assert det([[ONE, ONE], [ONE, ONE]]).is_zero()


def test_det_takes_ints(rng):
    """det of an int matrix, or of one mixing ints and FieldElems, equals
    det of its FieldElem copy."""
    assert det([[1, 2], [3, 4]]) == FieldElem(-2)
    for _ in range(200):
        size = rng.randint(0, 4)
        a = [[rng.randint(-3, 3) for _ in range(size)] for _ in range(size)]
        want = det([[FieldElem(x) for x in row] for row in a])
        mixed = [[FieldElem(x) if rng.random() < 0.5 else x for x in row]
                 for row in a]
        for m in (a, mixed):
            got = det(m)
            assert type(got) is FieldElem and got == want


def test_solve_roundtrip(rng):
    for _ in range(50):
        size = rng.randint(1, 4)
        while True:
            a = [[rand_elem(rng, 4) for _ in range(size)]
                 for _ in range(size)]
            if not det(a).is_zero():
                break
        b = [[rand_elem(rng, 4)] for _ in range(size)]
        x = solve(a, b)
        assert mat_mul(a, x) == b


def test_series_solve_eliminates_unresolved_zeros():
    """A = [[a, t], [1, 0]] has inverse [[0, 1], [1/t, -a/t]].  With a known
    only to O(t), the pivot of column 0 is the exact 1, and a must still be
    eliminated: -a/t is then unknown from t^0 on, not an exact 0."""
    t, one, zero = (PuiseuxSeries.t_power(1), PuiseuxSeries.from_scalar(1),
                    PuiseuxSeries({}))
    identity = [[one, zero], [zero, one]]
    half = FieldElem(1, 2)
    for a, corner in ((PuiseuxSeries({}, Fraction(1)),
                       PuiseuxSeries({}, Fraction(0))),
                      (PuiseuxSeries({1: half}, Fraction(2)),
                       PuiseuxSeries({0: -half}, Fraction(1)))):
        x = series_solve([[a, t], [one, zero]], identity)
        assert x == [[zero, one], [t.inv(), corner]]


def test_rank_kernel_dimension_theorem(rng):
    for _ in range(100):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        a = [[rand_elem(rng, 3) for _ in range(cols)] for _ in range(rows)]
        r = rank(a)
        ker = kernel(a)
        assert r + len(ker) == cols
        for v in ker:
            image = mat_mul(a, transpose([v]))
            assert all(entry.is_zero() for row in image for entry in row)


# -- rref against the dense elimination it replaced ---------------------------


def dense_rref(matrix):
    """Reduced row echelon form that rebuilds every cell of every row it
    reduces: the oracle for `linalg.rref`, which updates only the columns
    where the pivot row is nonzero."""
    rows = [list(r) for r in matrix]
    if not rows:
        return rows, []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for k in range(r, len(rows)):
            if not rows[k][c].is_zero():
                pivot_row = k
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inverse = rows[r][c].inv()
        rows[r] = [x * inverse for x in rows[r]]
        for k in range(len(rows)):
            if k != r and not rows[k][c].is_zero():
                factor = rows[k][c]
                rows[k] = [a - factor * b for a, b in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _entry(rng, density):
    """Zero with probability 1 - density; otherwise a rational multiple of
    1, i, sqrt2 or i*sqrt2, or now and then a full element."""
    if rng.random() >= density:
        return ZERO
    if rng.random() < 0.2:
        return rand_elem(rng, 4)
    coords = [0, 0, 0, 0]
    coords[rng.randrange(4)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                                        rng.randint(1, 3))
    return FieldElem(*coords)


def _matrices(rng):
    """Seeded matrices: empty, 1xk, kx1, wide, tall and square, dense and
    mostly zero, full rank and rank-deficient, some with zero rows and
    columns."""
    out = [[]]
    shapes = [(1, k) for k in range(1, 6)] + [(k, 1) for k in range(1, 6)] + \
        [(2, 9), (3, 7), (7, 3), (9, 2), (4, 6), (6, 4)] + \
        [(k, k) for k in range(2, 7)]
    for rows, cols in shapes:
        for density in (1.0, 0.5, 0.15):
            for _ in range(3):
                a = [[_entry(rng, density) for _ in range(cols)]
                     for _ in range(rows)]
                out.append(a)
                inner = rng.randint(1, max(1, min(rows, cols) - 1))
                left = [[_entry(rng, density) for _ in range(inner)]
                        for _ in range(rows)]
                right = [[_entry(rng, density) for _ in range(cols)]
                         for _ in range(inner)]
                out.append(mat_mul(left, right))   # rank <= inner
                holed = [list(r) for r in a]
                zero_row, zero_col = rng.randrange(rows), rng.randrange(cols)
                holed[zero_row] = [ZERO] * cols
                for r in holed:
                    r[zero_col] = ZERO
                out.append(holed)
    return out + _integral_matrices(rng, shapes)


def _int_entry(rng, density):
    return rng.choice([-2, -1, 1, 1, 2, 3]) if rng.random() < density else 0


def _integral_matrices(rng, shapes):
    """Inputs for the integral path: int matrices (sparse ones with +-1
    pivots among them), int and FieldElem entries mixed in one row, dense
    rational matrices with denominators up to 10^6 and rank-deficient
    products of each kind."""
    out = []
    for rows, cols in shapes + [(8, 8), (10, 7), (7, 12)]:
        for density in (1.0, 0.5, 0.15):
            ints = [[_int_entry(rng, density) for _ in range(cols)]
                    for _ in range(rows)]
            mixed = [[_entry(rng, density) if rng.random() < 0.5
                      else _int_entry(rng, density) for _ in range(cols)]
                     for _ in range(rows)]
            big = [[FieldElem(Fraction(rng.randint(-10 ** 6, 10 ** 6),
                                       rng.randint(1, 10 ** 6)))
                    if rng.random() < density else ZERO
                    for _ in range(cols)] for _ in range(rows)]
            out += [ints, mixed, big]
            inner = rng.randint(1, max(1, min(rows, cols) - 1))
            for entry in (_int_entry, lambda rng, density: FieldElem(
                    Fraction(rng.randint(-10 ** 6, 10 ** 6),
                             rng.randint(1, 10 ** 6)))):
                left = [[entry(rng, density) for _ in range(inner)]
                        for _ in range(rows)]
                right = [[entry(rng, density) for _ in range(cols)]
                         for _ in range(inner)]
                out.append(mat_mul(left, right))   # rank <= inner
    return out


def _fields(matrix):
    """`matrix` with every int entry as a FieldElem, for the oracles."""
    return [[x if isinstance(x, FieldElem) else FieldElem(x) for x in row]
            for row in matrix]


def test_rref_matches_dense_oracle(rng):
    for a in _matrices(rng):
        before = [list(r) for r in a]
        want = dense_rref(_fields(a))
        assert rref(a) == want, a
        assert a == before   # the input is not reduced in place
        # the row echelon form has the pivots of the RREF, and an int
        # matrix or a rational one is eliminated over the ints
        rows, pivots = linalg._echelon([dict(enumerate(r)) for r in a], False)
        rows = dense(rows, len(a[0]) if a else 0)
        assert pivots == want[1], a
        if all(not isinstance(x, FieldElem) or x.is_rational()
               for row in a for x in row):
            assert all(type(x) is int for row in rows for x in row), a


# -- sparse _echelon against the dense elimination it replaced --------------


def echelon_before(matrix, reduced):
    """The dense elimination `linalg._echelon` ran before it took sparse
    rows, kept as its oracle: (rows, pivot_columns) of the rows scaled by
    `integral`, eliminated column by column over the ints when every entry
    is then an int (dividing each row by its content), else over the
    field."""
    ints = all(type(x) is int for row in matrix for x in row)
    rows = [list(row) if ints else linalg.integral(row)
            for row in matrix if any(row)]
    ints = ints or all(type(x) is int for row in rows for x in row)
    pivots = []
    for c in range(len(matrix[0]) if rows else 0):
        r = len(pivots)
        for k in range(r, len(rows)):
            if rows[k][c]:
                break
        else:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        p = rows[r][c]
        a, w = ((p, 1) if p > 0 else (-p, -1)) if ints else (1, ONE / p)
        pivot = rows[r] if w == 1 else [w * x for x in rows[r]]
        if a == 1:
            nonzero = [(j, x) for j, x in enumerate(pivot) if x]
        for row in rows[:r] + rows[r + 1:] if reduced else rows[r + 1:]:
            f = row[c]
            if not f:
                continue
            if a == 1:
                for j, x in nonzero:
                    row[j] -= f * x
                continue
            row[:] = [a * x - f * y for x, y in zip(row, pivot)]
            g = gcd(*row)
            if g > 1:
                row[:] = [x // g for x in row]
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    return rows[:len(pivots)], pivots


def _mixed_pivot_rows(rng, width):
    """Sparse rows over Q(i, sqrt2) whose least entry is an int and whose
    other entries are FieldElems, some of them irrational, so that the
    field path meets an int pivot and an int entry under it."""
    rows = []
    for _ in range(rng.randint(1, width + 2)):
        lead = rng.randrange(width)
        row = {lead: rng.choice([-2, -1, 1, 2, 3])}
        for c in range(lead + 1, width):
            if rng.random() < 0.6:
                row[c] = _entry(rng, 1.0)
        rows.append(row)
    rows.append({width - 1: I + SQRT2})
    return rows


def _sparse_cases(rng):
    """Sparse inputs of every kind `_matrices` draws (int, rational and
    Q(i, sqrt2), mixed in a row), each with some zero entries kept and
    empty rows and all-zero rows added, and rows led by an int pivot with
    FieldElems after it: (rows, width)."""
    out = []
    for a in _matrices(rng):
        if not a:
            out.append(([], 0))
            continue
        rows = [{c: x for c, x in enumerate(row) if x or rng.random() < 0.3}
                for row in a]
        for _ in range(rng.randint(0, 2)):
            rows.insert(rng.randint(0, len(rows)),
                        rng.choice([{}, {0: 0}, {len(a[0]) - 1: ZERO}]))
        out.append((rows, len(a[0])))
    for width in range(1, 8):
        for _ in range(6):
            out.append((_mixed_pivot_rows(rng, width), width))
    return out


def test_sparse_echelon_matches_dense_elimination(rng):
    """`_echelon` on sparse rows finds the pivots of `echelon_before` on the
    same rows written out, reduced or not; each reduced row is a multiple
    of the RREF row at its pivot; rows that are all rational come out as
    ints; and the input dicts are left as they are."""
    for rows, width in _sparse_cases(rng):
        before = [dict(row) for row in rows]
        matrix = dense(rows, width)
        want = dense_rref(_fields(matrix))
        rational = all(type(x) is int or x.is_rational()
                       for row in rows for x in row.values())
        for reduced in (False, True):
            got, pivots = linalg._echelon(rows, reduced)
            assert rows == before, rows
            assert pivots == echelon_before(matrix, reduced)[1] == want[1], \
                rows
            assert all(x for row in got for x in row.values()), rows
            assert [min(row) for row in got] == pivots, rows
            if rational:
                assert all(type(x) is int for row in got
                           for x in row.values()), rows
            if reduced:
                for row, c, rref_row in zip(got, pivots, want[0]):
                    inv = ONE / row[c]
                    assert [row.get(j, 0) * inv for j in range(width)] \
                        == rref_row, rows


def dense_kernel(matrix):
    """The kernel read off `dense_rref`: one vector per free column, 1 at
    it and minus the RREF entry at each pivot; the oracle for `kernel`,
    which reads the reduced `_echelon` form instead."""
    if not matrix:
        return []
    rows, pivots = dense_rref(_fields(matrix))
    basis = []
    for fc in (c for c in range(len(matrix[0])) if c not in pivots):
        vec = [ZERO] * len(matrix[0])
        vec[fc] = ONE
        for row, pc in zip(rows, pivots):
            vec[pc] = -row[fc]
        basis.append(vec)
    return basis


def _kernel_extremes(rng):
    """All-zero matrices (int and FieldElem zeros) and matrices of full
    column rank (random rows over a unit block, and square ones of nonzero
    determinant), whose kernels are everything and nothing."""
    out = []
    for rows, cols in ((1, 1), (1, 4), (4, 1), (3, 3), (2, 6), (6, 2)):
        out += [[[0] * cols for _ in range(rows)],
                [[ZERO] * cols for _ in range(rows)]]
    for cols in range(1, 6):
        for extra in range(3):
            unit = [[int(r == c) for c in range(cols)] for r in range(cols)]
            below = [[_entry(rng, 0.6) for _ in range(cols)]
                     for _ in range(extra)]
            out.append(below + unit)
        square = [[_entry(rng, 1.0) for _ in range(cols)]
                  for _ in range(cols)]
        if not det(square).is_zero():
            out.append(square)
    return out


def test_rref_callers_match_dense_oracle(rng, monkeypatch):
    for a in _matrices(rng) + _kernel_extremes(rng):
        square = bool(a) and len(a) == len(a[0])
        rhs = [[_entry(rng, 0.7) for _ in range(2)] for _ in a]
        want_kernel = dense_kernel(a)
        with monkeypatch.context() as patch:
            patch.setattr(linalg, "rref", lambda m: dense_rref(_fields(m)))
            want_rank = len(linalg.rref(a)[1])
            try:
                want_solve, want_inv = solve(a, rhs), solve(a, eye(len(a)))
            except SingularMatrix:
                want_solve = want_inv = None
        assert (rank(a), kernel(a)) == (want_rank, want_kernel), a
        if not square:
            continue
        if want_inv is None:
            with pytest.raises(SingularMatrix):
                solve(a, rhs)
            assert det(_fields(a)).is_zero()
        else:
            inverse = solve(a, eye(len(a)))
            assert (solve(a, rhs), inverse) == (want_solve, want_inv), a
            assert det(_fields(a)) * det(want_inv) == ONE
