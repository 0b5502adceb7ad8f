"""Dense exact linear algebra over Q(v,t); matrices are lists of RatFunc rows."""

from __future__ import annotations

from . import ratfield
from .ratfield import RatFunc, ZERO, ONE

Matrix = list


class ShapeError(ValueError):
    """Operands whose sizes (or, for modules, whose data) do not fit together."""


def zeros(rows: int, cols: int) -> Matrix:
    return [[ZERO for _ in range(cols)] for _ in range(rows)]


def identity(n: int) -> Matrix:
    return [[ONE if r == c else ZERO for c in range(n)] for r in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    if a and len(a[0]) != k:
        raise ShapeError("cannot multiply a %dx%d matrix by a %dx%d one" % (n, len(a[0]), k, m))
    out = zeros(n, m)
    for r in range(n):
        arow = a[r]
        orow = out[r]
        for s in range(k):
            x = arow[s]
            if x.is_zero():
                continue
            brow = b[s]
            for c in range(m):
                y = brow[c]
                if not y.is_zero():
                    orow[c] = orow[c] + x * y
    return out


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: Matrix, s: RatFunc) -> Matrix:
    return [[x if x.is_zero() else s * x for x in row] for row in a]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product; row-major, matching left-associated tensor bases."""
    if not a:
        return []
    if not b:
        return [[] for _ in range(len(a))]
    br, bc = len(b), len(b[0])
    out = zeros(len(a) * br, len(a[0]) * bc)
    for i, arow in enumerate(a):
        for j, x in enumerate(arow):
            if x.is_zero():
                continue
            for p in range(br):
                orow = out[i * br + p]
                brow = b[p]
                for q in range(bc):
                    y = brow[q]
                    if not y.is_zero():
                        orow[j * bc + q] = x * y
    return out


def mat_eq(a: Matrix, b: Matrix) -> bool:
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if len(ra) != len(rb):
            return False
        for x, y in zip(ra, rb):
            if not ratfield.eq(x, y):
                return False
    return True


def is_zero_matrix(a: Matrix) -> bool:
    return all(x.is_zero() for row in a for x in row)


class SingularMatrixError(ZeroDivisionError):
    pass


def _poly_rows(a: Matrix) -> list:
    """Clear denominators row by row; rank and row spans are preserved."""
    out = []
    for row in a:
        dens = []
        for e in row:
            if not any(d == e.den for d in dens):
                dens.append(e.den)
        new = []
        for e in row:
            p = e.num
            for d in dens:
                if not (d == e.den):
                    p = p * d
            new.append(p)
        out.append(new)
    return out


def _bareiss(rows: list, pivot_cols: int) -> list:
    """Fraction-free forward elimination in place; returns pivot columns.

    Pivots are searched among the first pivot_cols columns only, but row
    updates span the whole row (so an augmented block is carried along).
    """
    if not rows:
        return []
    width = len(rows[0])
    nrows = len(rows)
    prev = ratfield.LP_ONE
    r = 0
    pivots = []
    for c in range(pivot_cols):
        p = next((i for i in range(r, nrows) if not rows[i][c].is_zero()), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, nrows):
            fi = rows[i][c]
            if fi.is_zero():
                for j in range(c + 1, width):
                    rows[i][j] = ratfield.poly_div_exact(rows[i][j] * piv, prev)
            else:
                for j in range(c + 1, width):
                    rows[i][j] = ratfield.poly_div_exact(
                        rows[i][j] * piv - rows[r][j] * fi, prev
                    )
            rows[i][c] = ratfield.LP_ZERO
        prev = piv
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def rank(a: Matrix) -> int:
    if not a or not a[0]:
        return 0
    rows = _poly_rows(a)
    return len(_bareiss(rows, len(a[0])))


def inverse(a: Matrix) -> Matrix:
    n = len(a)
    if n == 0:
        return []
    aug = [list(row) + irow for row, irow in zip(a, identity(n))]
    rows = _poly_rows(aug)
    pivots = _bareiss(rows, n)
    if len(pivots) != n:
        raise SingularMatrixError("matrix is singular over Q(v,t)")
    # triangular solve kept polynomial: x_i = N_i / (U_ii ... U_nn)
    suffix = [ratfield.LP_ONE] * (n + 1)
    for k in range(n - 1, -1, -1):
        suffix[k] = rows[k][k] * suffix[k + 1]
    out = zeros(n, n)
    nums = [[None] * n for _ in range(n)]
    for k in range(n):
        for i in range(n - 1, -1, -1):
            acc = rows[i][n + k] * suffix[i + 1]
            mid = ratfield.LP_ONE
            for j in range(i + 1, n):
                uij = rows[i][j]
                nj = nums[j][k]
                if not (uij.is_zero() or nj.is_zero()):
                    acc = acc - uij * nj * mid
                mid = mid * rows[j][j]
            nums[i][k] = acc
            out[i][k] = RatFunc(acc, suffix[i])
    return out


def solve(a: Matrix, b: list) -> list:
    """Solve a @ x = b for a square invertible a."""
    ainv = inverse(a)
    return [
        sum((ainv[r][c] * b[c] for c in range(len(b))), ZERO)
        for r in range(len(ainv))
    ]
