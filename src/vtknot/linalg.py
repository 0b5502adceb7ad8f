"""Exact linear algebra over Q(v,t).

`Matrix` is the one operator type: a shape plus the nonzero entries only,
as {row: {col: value}} with both key levels ascending.  A loop over the
entries therefore visits them in the order of a dense row-by-row scan, so
each entry of a product or sum adds its terms in that order and unreduced
values keep one exact form.  `m[r, c]` reads an entry, ZERO when absent.
`kron` is n-ary, an int n standing for the n x n identity; `modules` adds
its cells (`_kron_cells`) term by term into the theta operators.

The Bareiss routines `rank`, `inverse` and `principal_pivots` work on
plain lists of LaurentPoly rows instead, such as a Gram block's numerators
over its one den (RatFunc rows go through `ratfield._clear_dens` first).
They share one row update, `_eliminate`, which makes each new entry with
the fused exact kernel `ratfield.cross_div`: (a*b - c*d)/e with no
polynomial temporaries.

A Gram block's numerators are t-Hermitian: the pairing is symmetric up to
t -> t^-1, and a degree's entries share one den with no t.  That symmetry
is used twice.  `pairing.gram` builds only the upper triangle of a block
and flips it into the lower one (see `pairing`).  Diagonal pivoting keeps
the symmetry at every step, since pivots and previous pivots are then fixed
by the flip, so `principal_pivots` likewise computes only the upper
triangle of each update and flips it into the lower one, about half the
`cross_div` calls.  The symmetry is its precondition, not a test: every
caller passes a Gram block (`quasir`), t-Hermitian by construction.
"""

from __future__ import annotations

from math import prod
from operator import add, sub

from . import ratfield
from .ratfield import RatFunc, ZERO, ONE


class ShapeError(ValueError):
    """Operands whose sizes (or, for modules, whose data) do not fit together."""


class Matrix:
    """A rows x cols matrix over Q(v,t) that stores its nonzero entries only.

    The constructor takes {row: {col: value}}, drops zero values and empty
    rows, and sorts both key levels; treat the result as immutable.
    """

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries=None):
        self.rows, self.cols = rows, cols
        self.entries = {}
        for r in sorted(entries or ()):
            row = entries[r]
            kept = {c: row[c] for c in sorted(row) if not row[c].is_zero()}
            if kept:
                self.entries[r] = kept

    def __getitem__(self, rc) -> RatFunc:
        r, c = rc
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise IndexError("no entry (%d, %d) in a %dx%d matrix" % (r, c, self.rows, self.cols))
        return self.entries.get(r, {}).get(c, ZERO)

    def items(self):
        """(row, col, value) of each nonzero entry, in row-major order."""
        for r, row in self.entries.items():
            for c, x in row.items():
                yield r, c, x


def identity(n: int) -> Matrix:
    return Matrix(n, n, {k: {k: ONE} for k in range(n)})


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise ShapeError("cannot multiply a %dx%d matrix by a %dx%d one"
                         % (a.rows, a.cols, b.rows, b.cols))
    out = {}
    for r, arow in a.entries.items():
        orow = out[r] = {}
        for s, x in arow.items():
            for c, y in b.entries.get(s, {}).items():
                prev = orow.get(c)
                orow[c] = x * y if prev is None else prev + x * y
    return Matrix(a.rows, b.cols, out)


def _entrywise(a: Matrix, b: Matrix, op) -> Matrix:
    if (a.rows, a.cols) != (b.rows, b.cols):
        raise ShapeError("cannot combine a %dx%d matrix with a %dx%d one"
                         % (a.rows, a.cols, b.rows, b.cols))
    out = {r: dict(row) for r, row in a.entries.items()}
    for r, brow in b.entries.items():
        orow = out.setdefault(r, {})
        for c, y in brow.items():
            orow[c] = op(orow.get(c, ZERO), y)
    return Matrix(a.rows, a.cols, out)


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return _entrywise(a, b, add)


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return _entrywise(a, b, sub)


def mat_map(a: Matrix, fn) -> Matrix:
    """fn applied to every nonzero entry; zeros it returns are dropped."""
    out = {r: {c: fn(x) for c, x in row.items()} for r, row in a.entries.items()}
    return Matrix(a.rows, a.cols, out)


def mat_scale(a: Matrix, s: RatFunc) -> Matrix:
    return mat_map(a, lambda x: s * x)


def transpose(a: Matrix) -> Matrix:
    out = {}
    for r, c, x in a.items():
        out.setdefault(c, {})[r] = x
    return Matrix(a.cols, a.rows, out)


def _kron_cells(factors) -> list:
    """(row, col, value) cells of the Kronecker product of factors over
    left-associated tensor bases, in no fixed order.  An int factor n is the
    n x n identity and only moves indices; each value is its factors' entries
    multiplied left to right, and the leading ONE takes no product."""
    cells = [(0, 0, ONE)]
    for f in factors:
        if isinstance(f, int):
            cells = [(r * f + k, c * f + k, x) for r, c, x in cells for k in range(f)]
        else:
            items = list(f.items())
            cells = [(r * f.rows + i, c * f.cols + j, y if x is ONE else x * y)
                     for r, c, x in cells for i, j, y in items]
    return cells


def kron(*factors) -> Matrix:
    """Kronecker product of Matrix factors, an int n standing for the n x n
    identity; row-major, matching left-associated tensor bases."""
    out = {}
    for r, c, x in _kron_cells(factors):
        out.setdefault(r, {})[c] = x
    rows = prod(f if isinstance(f, int) else f.rows for f in factors)
    return Matrix(rows, prod(f if isinstance(f, int) else f.cols for f in factors), out)


def mat_eq(a: Matrix, b: Matrix) -> bool:
    # no zero is stored, so equal matrices store the same positions
    if (a.rows, a.cols) != (b.rows, b.cols) or a.entries.keys() != b.entries.keys():
        return False
    for r, arow in a.entries.items():
        brow = b.entries[r]
        if arow.keys() != brow.keys() or not all(ratfield.eq(x, brow[c]) for c, x in arow.items()):
            return False
    return True


class SingularMatrixError(ZeroDivisionError):
    pass


def _eliminate(rows: list, r: int, c: int, prev, targets, cols, mirror=False) -> None:
    """Fraction-free elimination of column c from rows `targets` by row r.

    Each target row becomes (row * pivot - pivot row * row[c]) / prev on
    `cols`, one `ratfield.cross_div` per entry, where prev is the pivot
    taken before rows[r][c] (LP_ONE for the first, which divides nothing).
    Sylvester's identity makes every division exact, and every entry is a
    LaurentPoly in minimal form, so the update's evaluation order cannot
    change a term.

    With `mirror`, targets and cols are one ascending index list and the
    rows are t-Hermitian: rows[j][i] is rows[i][j] with t -> t^-1.  Then
    piv and prev are fixed by the flip, so the flip of the update at (i, j)
    is the update at (j, i): each row is computed from its diagonal on, and
    every entry below the diagonal is written as the flip of its mirror.
    """
    piv, prow = rows[r][c], rows[r]
    for n, i in enumerate(targets):
        row = rows[i]
        fi = row[c]
        upper = cols[n:] if mirror else cols
        for j in upper:
            row[j] = ratfield.cross_div(row[j], piv, prow[j], fi, prev)
        row[c] = ratfield.LP_ZERO
        if mirror:
            for j in upper[1:]:
                rows[j][i] = ratfield._flip_poly(row[j], 1, -1)


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
        _eliminate(rows, r, c, prev, range(r + 1, nrows), range(c + 1, width))
        prev = rows[r][c]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def principal_pivots(a: list) -> tuple:
    """Greedy nonsingular principal block of a square matrix, in one elimination.

    Index k is taken when the principal block on the indices taken before
    it plus k is nonsingular.  Pivoting on the diagonal only, in index
    order, the entry at (k, k) after elimination by the pivots taken so far
    is that block's determinant up to nonzero row factors (Sylvester's
    identity), so each test costs one look at the diagonal.  Rows and
    columns of rejected indices are eliminated too.

    The rows must be t-Hermitian, G[c][r] = bar_t(G[r][c]), as a Gram
    block's numerators are: each update computes only the upper triangle of
    the open block and flips it into the lower one (see the module docstring).

    The LaurentPoly rows a are left as they are.  Returns (taken, rest):
    the taken indices, ascending, and the eliminated LaurentPoly rows on
    the other indices, their Schur complement up to nonzero row factors, so
    rank(a) == len(taken) + rank(rest).
    """
    rows = [list(row) for row in a]
    taken, open_ = [], list(range(len(a)))
    prev = ratfield.LP_ONE
    for k in range(len(a)):
        if rows[k][k].is_zero():
            continue
        open_.remove(k)
        _eliminate(rows, k, k, prev, open_, open_, mirror=True)
        prev = rows[k][k]
        taken.append(k)
    return taken, [[rows[i][j] for j in open_] for i in open_]


def rank(a: list) -> int:
    if not a or not a[0]:
        return 0
    return len(_bareiss([list(row) for row in a], len(a[0])))


def inverse(a: list, dens: list) -> list:
    """The inverse of the matrix with rows a[r] / dens[r], all LaurentPoly,
    by one fraction-free elimination of [a | diag(dens)] and a polynomial
    back substitution, x_i = N_i / (U_ii ... U_nn).

    Each N_i sums U_ij * U_(i+1)(i+1) ... U_(j-1)(j-1) * N_j over j > i.
    That first factor depends on (i, j) only, and 1 / (U_ii ... U_nn) on i
    only, so both are built once per inverse, not once per column; each
    N_i is accumulated in one term dict.  A Gram block is t-Hermitian (see
    `principal_pivots`), but the augmented block is not, so the elimination
    here is not mirrored.
    """
    n = len(a)
    if n == 0:
        return []
    rows = [list(row) + [dens[r] if c == r else ratfield.LP_ZERO for c in range(n)]
            for r, row in enumerate(a)]
    pivots = _bareiss(rows, n)
    if len(pivots) != n:
        raise SingularMatrixError("matrix is singular over Q(v,t)")
    suffix = [ratfield.LP_ONE] * (n + 1)
    for k in range(n - 1, -1, -1):
        suffix[k] = rows[k][k] * suffix[k + 1]
    coef = [[] for _ in range(n)]
    for i in range(n):
        mid = ratfield.LP_ONE
        for j in range(i + 1, n):
            if j > i + 1:
                mid = mid * rows[j - 1][j - 1]
            if not rows[i][j].is_zero():
                coef[i].append((j, rows[i][j] * mid))
    units = [RatFunc(ratfield.LP_ONE, d) for d in suffix[:n]]
    out = [[None] * n for _ in range(n)]
    nums = [[None] * n for _ in range(n)]
    for k in range(n):
        for i in range(n - 1, -1, -1):
            head = rows[i][n + k]
            terms = [(u, nums[j][k], -1) for j, u in coef[i] if nums[j][k].terms]
            if terms:
                acc = ratfield._sum_products([(head, suffix[i + 1], 1)] + terms)
            else:
                acc = head * suffix[i + 1]
            nums[i][k] = acc
            out[i][k] = ratfield._normal(acc * units[i].num, units[i].den)
    return out
