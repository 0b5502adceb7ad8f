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
`rank` and `principal_pivots` share one row update, `_eliminate`, which
makes each new entry with the fused exact kernel `ratfield.cross_div`:
(a*b - c*d)/e with no polynomial temporaries.

`inverse` runs the same elimination (same pivots, exact division by the
previous pivot) on Python ints: each entry of [rows | diag(dens)], shifted
by a monomial per row and per column so that every minor is a polynomial
(`_frame`; on a Gram block the shifts are the t-conjugation that makes it
t-free), is packed at v = 2^(k span/g), t = 2^k on `ratfield._pack`'s
layout, one int per entry.  Evaluation is a ring map, so the ints are the
images of the polynomial elimination, and the width k, fixed before the
first product from a Hadamard bound on the minors (documented at
`_frame`), makes the images that are decoded readable by
`ratfield._unpack`.  Only the back substitution's results, or the pivots
and the adjugate they are rebuilt from, are decoded: every printed form is
that of the polynomial elimination.

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

from math import gcd, isqrt, lcm, prod
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


def _width(bound: int) -> int:
    """Bits of a digit that holds every int of absolute value <= bound, one
    of them the sign: the one width rule of `inverse`."""
    return bound.bit_length() + 1


def _frame(a: list, dens: list) -> tuple:
    """The frame in which `inverse` packs [a | diag(dens)], n = len(a) >= 2.

    Returns (s, entries, sig, kap, g, hh, tau):
    - s, the lcm of the scales: every exponent below is on its lattice;
    - entries, per row r its nonzero entries as (column, terms, least v
      exponent, least t exponent, largest t exponent, |.|_1), its den
      last, in column n + r;
    - sig and kap, a (v, t) exponent pair per row and per column, such that
      entry (r, c) over v^(sig_r + kap_c) (summed pairwise) has no negative
      exponent, its shifted form;
    - g, the gcd of the shifted v exponents (1 when all are 0);
    - hh_r, the squared bound of row r, and tau_r, its largest shifted t
      exponent.

    Shifts: kap is read along a spanning forest of the nonzero entries,
    rows and columns its nodes: each tree edge (r, c) makes kap_c plus the
    row's provisional shift the least exponent pair of entry (r, c), from
    (0, 0) at one row per connected part.  sig_r is then the least exponent
    pair of row r less kap.  Any shifts keep the inverse exact.  On a Gram
    block, entry (a, c) is t^(s(a) - s(c)) times its value at t = 1 (ROADMAP
    item 13), so every tree edge fixes the t part exactly, each shifted
    entry is t-free and the ints carry v alone; on the Gram blocks of the
    shipped rank-two data the shifted v exponents are all even too, and
    g = 2 halves the digits.

    Bound: hh_r = max(sum_c |a_rc|_1^2, |d_r|_1^2), |.|_1 the sum of the
    absolute coefficients.  On the torus |v| = |t| = 1 a shifted entry is
    at most its |.|_1 in absolute value, so by Hadamard's inequality a minor
    of the shifted [a | diag(dens)] with at most one den column (whose one
    entry d_r is alone in its row) is at most the product of sqrt(hh_r)
    over its rows.  Each of its coefficients is at most its L2 norm on the
    torus (Parseval), so at most that product; and its t exponents lie in
    0 .. the sum of the tau_r over its rows.
    """
    n = len(a)
    s = 1
    for row in (*a, dens):
        for x in row:
            if x.scale != s:
                s = lcm(s, x.scale)
    # per row: (column, terms, least v, least t, largest t, |.|_1) of each
    # nonzero entry, its den last; g collects the spread of each entry's v
    te, g, entries = ratfield._t_exp, 0, []
    for r, row in enumerate(a):
        erow = []
        for c, x in enumerate((*row, dens[r])):
            if not x.terms:
                continue
            t, c = ratfield._terms_at(x, s), c if c < n else n + r
            if len(t) == 1:
                ((lv, lt), co), = t.items()
                erow.append((c, t, lv, lt, lt, abs(co)))
            else:
                lv = min(t)[0]
                g = gcd(g, *[v - lv for v, _ in t])
                erow.append((c, t, lv, min(t, key=te)[1], max(t, key=te)[1],
                             sum(map(abs, t.values()))))
        entries.append(erow)
    # column shifts: kap_c + sig_r = the least exponents of entry (r, c)
    # along a spanning forest of the nonzero entries, rows and columns its
    # nodes (column c as ~c), for some sig that the row minima then replace
    cols = [[] for _ in range(n)]
    for r, erow in enumerate(entries):
        for c, _, lv, lt, _, _ in erow[:-1]:
            cols[c].append((r, lv, lt))
    rsh, kap = [None] * n, [None] * n
    for r0 in range(n):
        if rsh[r0] is None:
            rsh[r0], todo = (0, 0), [r0]
            while todo:
                x = todo.pop()
                if x >= 0:
                    sv, st = rsh[x]
                    for c, _, lv, lt, _, _ in entries[x][:-1]:
                        if kap[c] is None:
                            kap[c] = (lv - sv, lt - st)
                            todo.append(~c)
                else:
                    kv, kt = kap[~x]
                    for r, lv, lt in cols[~x]:
                        if rsh[r] is None:
                            rsh[r] = (lv - kv, lt - kt)
                            todo.append(r)
    kap = [kc or (0, 0) for kc in kap]
    sig, hh, tau = [], [], []
    for erow in entries:
        sv = st = None
        for c, _, lv, lt, _, _ in erow[:-1]:
            kv, kt = kap[c]
            if sv is None or lv - kv < sv:
                sv = lv - kv
            if st is None or lt - kt < st:
                st = lt - kt
        sv, st = sv or 0, st or 0
        sig.append((sv, st))
        *arow, (_, _, dv, dt, dh, dl) = erow
        kap.append((dv - sv, dt - st))
        h2 = tmax = 0
        for c, _, lv, _, ht, l1 in arow:
            kv, kt = kap[c]
            g = gcd(g, lv - sv - kv)
            tmax = max(tmax, ht - st - kt)
            h2 += l1 * l1
        hh.append(max(h2, dl * dl))
        tau.append(max(tmax, dh - dt))
    return s, entries, sig, kap, g or 1, hh, tau


def _int_inverse(rows: list) -> tuple:
    """Fraction-free elimination in place of n x 2n int rows [A | B], and
    the back substitution: (perm, w), perm[j] the input row that ends as
    row j, and w = d A^-1 B, d the last pivot, as
        w_ik = (d U_i(n+k) - sum_(j>i) U_ij w_jk) // U_ii,
    U the eliminated rows.  Pivots are taken as `_bareiss` takes them, and
    each division is exact (Sylvester's identity; d A^-1 is the adjugate
    up to sign).  SingularMatrixError when a column has no pivot.
    """
    n = len(rows)
    perm, prev, width = list(range(n)), 1, 2 * n
    for c in range(n):
        p = next((i for i in range(c, n) if rows[i][c]), None)
        if p is None:
            raise SingularMatrixError("matrix is singular over Q(v,t)")
        rows[c], rows[p] = rows[p], rows[c]
        perm[c], perm[p] = perm[p], perm[c]
        piv, prow = rows[c][c], rows[c]
        for i in range(c + 1, n):
            row = rows[i]
            f = row[c]
            for j in range(c + 1, width):
                row[j] = (row[j] * piv - prow[j] * f) // prev
        prev = piv
    w = [[0] * n for _ in range(n)]
    for i in range(n - 1, -1, -1):
        row, wi = rows[i], w[i]
        for k in range(n):
            acc = prev * row[n + k]
            for j in range(i + 1, n):
                if row[j]:
                    acc -= row[j] * w[j][k]
            wi[k] = acc // row[i]
    return perm, w


def inverse(a: list, dens: list) -> list:
    """The inverse of the matrix with rows a[r] / dens[r], all LaurentPoly,
    by one fraction-free elimination of [a | diag(dens)] over Python ints.

    Entry (i, k) is N_ik / (U_ii ... U_nn), the form that the polynomial
    Bareiss elimination of [a | diag(dens)] (pivots as `_bareiss` takes
    them: the first nonzero entry at or below the diagonal) and its back
    substitution give, U the eliminated rows, with row i's den in normal
    form as the RatFunc constructor makes it.  `theta` prints these forms,
    and a LaurentPoly's form is minimal, so equal values print equal
    bytes.  With the pivots d_j = U_jj and W = d_(n-1) a^-1 diag(dens), a
    minor of [a | diag(dens)] in each entry, N_ik = W_ik d_i ... d_(n-2)
    and U_ii ... U_nn = d_i ... d_(n-1).

    Each entry, shifted into the frame of `_frame` so that every minor is a
    polynomial, is packed at v = 2^(k span/g), t = 2^k (Kronecker
    substitution) on `ratfield._pack`'s layout.  Evaluation is a ring map,
    so the elimination (exact `//` by the previous pivot, by Sylvester's
    identity) and the fraction-free back substitution
        W_ik = (d_(n-1) U_i(n+k) - sum_(j>i) U_ij W_jk) // U_ii
    give the images of the polynomial ones, and a pivot test is exact: a
    nonzero minor whose coefficients fit the digits has a nonzero image.
    k and span are fixed before the first product so that what is decoded
    fits, in one of two ways:
    - rebuild: k from B, the product of the rows' bounds sqrt(hh_r), which
      holds every minor, and span from the sum of the tau_r.  The pivots and
      W are decoded, and N and the row dens rebuilt by LaurentPoly products;
    - direct: k from B times, for j = 1 .. n-1, the product of the j
      largest sqrt(hh_r) (d_j is a minor on j + 1 rows), and span from the
      sum of the tau_r plus, likewise, the sums of the j largest tau_r.
      That holds N and the row dens, which are decoded with no product.
    `_unpack` costs about the square of an int's digits, so direct is taken
    when its width is at most three times the rebuild width: on the Gram
    blocks of sl3, B2, G2 and the affine and hyperbolic rank-two data, it
    was the faster decode at every ratio up to 3.40 (blocks up to 6 x 6)
    and the slower one from 3.45 on.  Each decoded value is shifted back by
    the frame shifts of its rows (in pivot order) and columns.  A 1 x 1
    block has nothing to eliminate and packs nothing.
    """
    n = len(a)
    if n == 0:
        return []
    if n == 1:
        if a[0][0].is_zero():
            raise SingularMatrixError("matrix is singular over Q(v,t)")
        unit = RatFunc(ratfield.LP_ONE, a[0][0])
        return [[ratfield._normal(dens[0] * unit.num, unit.den)]]
    s, entries, sig, kap, g, hh, tau = _frame(a, dens)
    h2, span = prod(hh), sum(tau) + 1
    top_h, top_t = sorted(hh, reverse=True), sorted(tau, reverse=True)
    h2d, spand = h2, span
    for j in range(1, n):
        h2d *= prod(top_h[:j])
        spand += sum(top_t[:j])
    k, kd = _width(isqrt(h2)), _width(isqrt(h2d))
    direct = kd <= 3 * k
    if direct:
        k, span = kd, spand
    pack = ratfield._pack
    rows = []
    for erow, (sv, st) in zip(entries, sig):
        ints = [0] * (2 * n)
        for c, t, *_ in erow:
            kv, kt = kap[c]
            ints[c] = pack(t, sv + kv, st + kt, g, span, k)
        rows.append(ints)
    perm, w = _int_inverse(rows)
    det = rows[n - 1][n - 1]
    # the frame divides d_j by v^od[j] (exponent pairs: the shifts of its
    # rows, in pivot order, and of its columns) and W_ik by
    # v^(od[n-1] - kap_i + kap_(n+k))
    ov = ot = 0
    od = []
    for j in range(n):
        ov += sig[perm[j]][0] + kap[j][0]
        ot += sig[perm[j]][1] + kap[j][1]
        od.append((ov, ot))
    unpack, make, normal = ratfield._unpack_terms, ratfield._make, ratfield._normal
    out = []
    if direct:
        q = 1
    else:
        d = [make(unpack(rows[j][j], k, *od[j], g, span), s) for j in range(n)]
        q = ratfield.LP_ONE
    for i in range(n - 1, -1, -1):
        # q = d_i ... d_(n-2); the row den d_i ... d_(n-1) in normal form, as
        # the RatFunc constructor makes it (the sign of a packed int is its
        # top digit's, the lex-leading coefficient)
        if direct:
            if i < n - 1:
                q *= rows[i][i]
            z = q * det
            sgn = 1 if z > 0 else -1
            den, bv, bt = unpack(sgn * z, k, 0, 0, g, span), 0, 0
        else:
            if i < n - 1:
                q = d[i] * q
            suf = q * d[-1]
            f = s // suf.scale
            sgn = 1 if suf.terms[max(suf.terms)] > 0 else -1
            den, bv, bt = {(x * f, y * f): c * sgn for (x, y), c in suf.terms.items()}, ov, ot
        mv, mt = min(den)[0], min(den, key=ratfield._t_exp)[1]
        if mv or mt:
            den = {(x - mv, y - mt): c for (x, y), c in den.items()}
        den = ratfield.LP_ONE if den == ratfield.LP_ONE.terms else make(den, s)
        bv, bt = bv - mv - kap[i][0], bt - mt - kap[i][1]
        if direct:
            zq = q * sgn
            out.append([normal(make(unpack(z * zq, k, bv + kv, bt + kt, g, span), s), den)
                        for z, (kv, kt) in zip(w[i], kap[n:])])
        else:
            out.append([normal(make(unpack(z * sgn, k, bv + kv, bt + kt, g, span), s) * q, den)
                        for z, (kv, kt) in zip(w[i], kap[n:])])
    out.reverse()
    return out
