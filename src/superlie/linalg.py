"""Exact linear algebra over Q(i,sqrt2) and over Puiseux series.

Matrices are plain lists of lists.  The field routines (rref, rank, kernel,
solve, det) take ints and FieldElems, mixed, and are exact.  All but det
share one elimination, `_echelon`, on sparse {column: scalar} rows: the
dense routines convert at entry, and `cohomology` and `invariants` build
their systems sparse.  Unless every entry is already an int, `_echelon`
first scales all rows by one `integral` over all their entries, which
leaves the RREF as it is, so a rational matrix is eliminated over the ints
without division (Bareiss's fraction-free step).  A row changes only at
its pivot's nonzero columns, so elimination costs in proportion to the
nonzeros.  `rref` divides each pivot row once at the end;
`kernel_vectors`, and so `kernel`, divides only the entries in the free
columns it reads.  `det` keeps its own elimination over the field.  The
series solver pivots on the entry of smallest leading exponent, which
keeps truncation error under control for witness verification.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, List, Optional, Sequence

from .field import FieldElem, ONE, ZERO
from .series import EXACT_ZERO, InsufficientPrecision

Row = List[FieldElem]


class SingularMatrix(ArithmeticError):
    pass


# -- construction helpers ------------------------------------------------


def zeros(r: int, c: int) -> List[Row]:
    return [[ZERO for _ in range(c)] for _ in range(r)]


def transpose(a: Sequence[Sequence]) -> List[list]:
    return [list(col) for col in zip(*a)] if a else []


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = a[i][0] * b[0][j]
            for k in range(1, inner):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


# -- exact elimination -------------------------------------------------------


def integral(xs) -> list:
    """The scalars `xs` (ints and FieldElems) times the lcm of their
    denominators: ints when all are rational, else FieldElems over q = 1
    mixed with ints."""
    q = lcm(*[x.q for x in xs if type(x) is not int])
    if all(type(x) is int or x.is_rational() for x in xs):
        return [x * q if type(x) is int else x.n0 * (q // x.q) for x in xs]
    return [x * q for x in xs] if q > 1 else list(xs)


def _eliminate(row: dict, pivot: dict, c: int, ints: bool) -> dict:
    """`row` cleared at column c by `pivot`.  For ints, a * row - b * pivot,
    a > 0 and b the pivot's and the row's entries at c over their gcd, less
    its content for a != 1, so entries stay as small as the RREF allows;
    else row - row[c] * (1/pivot[c]) * pivot, over the field."""
    if ints:
        p, x = pivot[c], row[c]
        g = gcd(p, x)
        a, b = (p // g, x // g) if p > 0 else (-p // g, -x // g)
        if a != 1:
            row = {j: a * y for j, y in row.items()}
    else:
        a, b = 1, row[c] * (ONE / pivot[c])
    for j, y in pivot.items():
        z = row.get(j, 0) - b * y
        if z:
            row[j] = z
        else:
            del row[j]
    if a != 1:
        content = gcd(*row.values())
        if content > 1:
            row = {j: y // content for j, y in row.items()}
    return row


def _echelon(rows: Iterable[dict], reduced: bool):
    """Row echelon form of sparse rows ({column: scalar} dicts, left as they
    are), reduced when `reduced`: (rows, pivot_columns ascending), each row
    a multiple of its RREF row in the reduced form.  Unless all entries are
    ints, all rows are scaled by one `integral` over all their entries.  A
    row is inserted at its least column: it is that column's pivot if it
    has none, else it is cleared there and inserted again.  The reduced
    form then clears each pivot row at the later pivots, from the last
    pivot down to the first."""
    rows = [{c: x for c, x in row.items() if x} for row in rows]
    ints = all(type(x) is int for row in rows for x in row.values())
    if not ints:
        flat = integral([x for row in rows for x in row.values()])
        ints = all(type(x) is int for x in flat)
        scaled = iter(flat)
        rows = [{c: next(scaled) for c in row} for row in rows]
    pivots = {}
    for row in rows:
        while row:
            c = min(row)
            if c not in pivots:
                pivots[c] = row
                break
            row = _eliminate(row, pivots[c], c, ints)
    order = sorted(pivots)
    if reduced:
        for c in reversed(order):
            row = pivots[c]
            for j in [j for j in row if j != c and j in pivots]:
                row = _eliminate(row, pivots[j], j, ints)
            pivots[c] = row
    return [pivots[c] for c in order], order


def rref(matrix: Sequence[Row]):
    """Reduced row echelon form; returns (rows, pivot_columns).  Each pivot
    row of the reduced `_echelon` is divided by its pivot once."""
    rows, pivots = _echelon([dict(enumerate(r)) for r in matrix], True)
    width = len(matrix[0]) if matrix else 0
    out = [[ZERO] * width for _ in matrix]
    for vec, row, c in zip(out, rows, pivots):
        inv = ONE / row[c]
        for j, x in row.items():
            vec[j] = x * inv
    return out, pivots


def rank(matrix: Sequence[Row]) -> int:
    return len(_echelon([dict(enumerate(r)) for r in matrix], False)[1])


def kernel_vectors(rows, pivots, width: int,
                   free=None) -> List[List[FieldElem]]:
    """The kernel vectors at the non-pivot columns `free` (all of them when
    None) of a matrix with `width` columns, from its reduced `_echelon`
    form (rows, pivots): 1 at the free column and minus the RREF entry at
    each pivot.  The RREF entry of a row is its entry over its pivot, so
    only the entries in `free` columns are divided, and each row's pivot is
    inverted once."""
    if free is None:
        pivoted = set(pivots)
        free = [c for c in range(width) if c not in pivoted]
    inverses = [None] * len(rows)
    basis = []
    for fc in free:
        vec = [ZERO] * width
        vec[fc] = ONE
        for r, (row, pc) in enumerate(zip(rows, pivots)):
            x = row.get(fc)
            if x:
                if inverses[r] is None:
                    inverses[r] = ONE / row[pc]
                vec[pc] = -(x * inverses[r])
        basis.append(vec)
    return basis


def kernel(matrix: Sequence[Row]) -> List[List[FieldElem]]:
    """Basis of the right null space of `matrix`, one vector per free
    column, read off the reduced `_echelon` form by `kernel_vectors`."""
    if not matrix:
        return []
    rows, pivots = _echelon([dict(enumerate(r)) for r in matrix], True)
    return kernel_vectors(rows, pivots, len(matrix[0]))


def solve(matrix: Sequence[Row], rhs: Sequence[Row]) -> List[Row]:
    """Solve A X = B exactly (A square and invertible)."""
    n = len(matrix)
    if any(len(r) != n for r in matrix):
        raise SingularMatrix("matrix is not square")
    aug = [list(a) + list(b) for a, b in zip(matrix, rhs)]
    rows, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise SingularMatrix("matrix is singular")
    return [row[n:] for row in rows[:n]]


def det(matrix: Sequence[Row]) -> FieldElem:
    n = len(matrix)
    rows = [[x if type(x) is FieldElem else FieldElem(x) for x in r]
            for r in matrix]
    out = ONE
    for c in range(n):
        pivot_row = None
        for k in range(c, n):
            if not rows[k][c].is_zero():
                pivot_row = k
                break
        if pivot_row is None:
            return ZERO
        if pivot_row != c:
            rows[c], rows[pivot_row] = rows[pivot_row], rows[c]
            out = -out
        out = out * rows[c][c]
        inv = rows[c][c].inv()
        for k in range(c + 1, n):
            if not rows[k][c].is_zero():
                factor = rows[k][c] * inv
                rows[k] = [a - factor * b for a, b in zip(rows[k], rows[c])]
    return out


# -- series elimination -----------------------------------------------------


def series_solve(matrix, rhs,
                 precision: Optional[Fraction] = None):
    """Solve A X = B over Puiseux series (A square).

    Pivots on the visible entry of smallest leading exponent; each pivot is
    inverted to `precision` relative orders (the working precision when
    None).  When a pivot column has no visible entry it raises
    SingularMatrix if every candidate is exactly zero, and
    InsufficientPrecision if some candidate is an unresolved zero.
    """
    n = len(matrix)
    width = len(rhs[0]) if rhs else 0
    aug = [list(a) + list(b) for a, b in zip(matrix, rhs)]
    for c in range(n):
        best = None
        best_val = None
        for k in range(c, n):
            entry = aug[k][c]
            if entry.terms:
                v = entry.leading()[0]
                if best_val is None or v < best_val:
                    best, best_val = k, v
        if best is None:
            truncated = any(aug[k][c].precision is not None for k in range(c, n))
            if truncated:
                raise InsufficientPrecision(
                    f"no pivot visible in column {c} at available precision")
            raise SingularMatrix(f"no pivot in column {c}")
        aug[c], aug[best] = aug[best], aug[c]
        pivot_inv = aug[c][c].inv(precision)
        # an exact zero times anything is the exact zero, and subtracting
        # it leaves an entry as it is: those products are skipped
        aug[c] = [EXACT_ZERO if x.is_zero() else x * pivot_inv
                  for x in aug[c]]
        for k in range(n):
            # an unresolved zero is eliminated too: its unknown terms lower
            # the precision of row k instead of being dropped
            if k != c and not aug[k][c].is_zero():
                factor = aug[k][c]
                aug[k] = [a if b.is_zero() else a - factor * b
                          for a, b in zip(aug[k], aug[c])]
    return [row[n:n + width] for row in aug]
