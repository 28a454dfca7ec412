"""Exact linear algebra over Q(i,sqrt2) and over Puiseux series.

Matrices are plain lists of lists.  The field routines (rref, rank, kernel,
solve, det, inv) assume FieldElem entries and are exact.  Rows stay dense,
but `rref` updates a row only at the nonzero columns of the pivot row, so
elimination costs in proportion to the nonzeros.  The series solver
pivots on the entry of smallest leading exponent, which keeps truncation
error under control for witness verification.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence

from .field import FieldElem, ONE, ZERO
from .series import InsufficientPrecision, PuiseuxSeries

Row = List[FieldElem]


class SingularMatrix(ArithmeticError):
    pass


# -- construction helpers ------------------------------------------------


def zeros(r: int, c: int) -> List[Row]:
    return [[ZERO for _ in range(c)] for _ in range(r)]


def identity(n: int) -> List[Row]:
    out = zeros(n, n)
    for k in range(n):
        out[k][k] = ONE
    return out


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


# -- exact field elimination ----------------------------------------------


def rref(matrix: Sequence[Row]):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
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
        pivot = rows[r]
        inv = pivot[c].inv()
        # scale the pivot row and list its nonzeros; columns left of c are
        # already zero in it
        nonzero = []
        for j in range(c, ncols):
            if not pivot[j].is_zero():
                pivot[j] = pivot[j] * inv
                nonzero.append((j, pivot[j]))
        for k in range(len(rows)):
            row = rows[k]
            if k != r and not row[c].is_zero():
                factor = row[c]
                for j, x in nonzero:
                    row[j] = row[j] - factor * x
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def rank(matrix: Sequence[Row]) -> int:
    return len(rref(matrix)[1])


def kernel(matrix: Sequence[Row]) -> List[List[FieldElem]]:
    """Basis of the right null space of `matrix`."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    rows, pivots = rref(matrix)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [ZERO] * ncols
        vec[fc] = ONE
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        basis.append(vec)
    return basis


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
    rows = [list(r) for r in matrix]
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


def inv(matrix: Sequence[Row]) -> List[Row]:
    return solve(matrix, identity(len(matrix)))


# -- series elimination -----------------------------------------------------


_EXACT_ZERO = PuiseuxSeries({})


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
        aug[c] = [_EXACT_ZERO if x.is_zero() else x * pivot_inv
                  for x in aug[c]]
        for k in range(n):
            # an unresolved zero is eliminated too: its unknown terms lower
            # the precision of row k instead of being dropped
            if k != c and not aug[k][c].is_zero():
                factor = aug[k][c]
                aug[k] = [a if b.is_zero() else a - factor * b
                          for a, b in zip(aug[k], aug[c])]
    return [row[n:n + width] for row in aug]
