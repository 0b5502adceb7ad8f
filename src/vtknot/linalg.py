"""Exact linear algebra over Q(v,t).

`Matrix` is the one operator type: a shape plus the nonzero entries only,
as {row: {col: value}} with both key levels ascending.  A loop over the
entries therefore visits them in the order of a dense row-by-row scan, so
each entry of a product or sum adds its terms in that order and unreduced
values keep one exact form.  `m[r, c]` reads an entry, ZERO when absent.
`kron` is n-ary, an int n standing for the n x n identity; `modules` adds
its cells (`_kron_cells`) term by term into the theta operators.

The Bareiss routines `rank`, `principal_pivots` and `inverse` work on
plain lists of LaurentPoly rows instead, such as a Gram block's numerators
over its one den (RatFunc rows go through `ratfield._clear_dens` first).
`rank` eliminates the polynomials themselves, each new entry made by the
fused exact kernel `ratfield.cross_div`: (a*b - c*d)/e with no polynomial
temporaries.

`principal_pivots` and `inverse` run one elimination, `_int_eliminate`,
on Python ints, with exact division by the previous pivot: each entry of
[rows | diag(dens)], shifted by a monomial per row and per column so that
every minor is a polynomial (`_frame`; on a Gram block the shifts are the
t-conjugation that makes it t-free), is packed at v = 2^(k span/g),
t = 2^k on `ratfield._pack`'s layout, one int per entry (`_forward`).
Evaluation is a ring map, so the ints are the images of the polynomial
elimination, and the width k, fixed before the first product from a
Hadamard bound on the minors (documented at `_frame`), makes each pivot
test exact and the images that are decoded readable by `ratfield._unpack`.
The elimination has one pivot rule: it takes the diagonal in index order
and passes over an index whose entry is zero, which picks a nonsingular
principal block greedily.  `principal_pivots` returns that block and hands
its elimination on to `inverse` of it (`quasir` caches it with the basis,
`suites.annihilator` uses it at once); `inverse` of a matrix on its own
refuses one with a zero leading principal minor.  The den columns are
eliminated only when `inverse` needs them (`_int_solve`), which then
substitutes back and decodes.  Only the back substitution's results, or
the pivots and the adjugate they are rebuilt from, are decoded: every
printed form is that of the polynomial elimination.  Neither routine
reads the t-Hermitian symmetry of a Gram block's numerators.
"""

from __future__ import annotations

from math import gcd, isqrt, lcm, prod
from operator import add, sub
from typing import NamedTuple

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
    """A zero pivot: a singular matrix, or, for `inverse` of a matrix on its
    own, a zero leading principal minor."""


def rank(a: list) -> int:
    """Rank of the LaurentPoly rows a, by fraction-free forward elimination
    of a copy.

    Column c pivots on its first nonzero entry in the rows not yet pivoted,
    swapped up.  Each row below the pivot becomes (row * pivot - pivot row *
    row[c]) / prev on the later columns, one `ratfield.cross_div` per entry,
    where prev is the pivot taken before (LP_ONE for the first, which
    divides nothing).  Sylvester's identity makes every division exact.
    """
    rows = [list(row) for row in a]
    r, prev = 0, ratfield.LP_ONE
    for c in range(len(a[0]) if a else 0):
        p = next((i for i in range(r, len(rows)) if not rows[i][c].is_zero()), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        piv, prow = rows[r][c], rows[r]
        for row in rows[r + 1:]:
            fi = row[c]
            for j in range(c + 1, len(row)):
                row[j] = ratfield.cross_div(row[j], piv, prow[j], fi, prev)
        prev = piv
        r += 1
        if r == len(rows):
            break
    return r


def _width(bound: int) -> int:
    """Bits of a digit that holds every int of absolute value <= bound, one
    of them the sign: the one width rule of `_forward`."""
    return bound.bit_length() + 1


def _frame(a: list, dens: list) -> tuple:
    """The frame in which `_forward` packs [a | diag(dens)], n = len(a) >= 2.

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


class Forward(NamedTuple):
    """[a | diag(dens)] eliminated on packed ints by `_forward`."""

    rows: list  # a's eliminated ints (see `_int_eliminate`), in input order
    dens: list  # the packed dens, one per row
    taken: list  # the indices that took a pivot, ascending
    rest: list  # the indices that took none, ascending
    s: int  # `_frame`'s lattice scale, shifts and v stride
    sig: list
    kap: list
    g: int
    k: int  # the digit width and the t span of the packing
    span: int
    direct: bool  # the decode of `inverse` that k and span hold


def _int_eliminate(rows: list, n: int) -> tuple:
    """Fraction-free forward elimination in place of the n x n int rows A,
    on the diagonal: (taken, rest), the indices that took a pivot and the
    ones that took none, each ascending.

    Index c pivots on (c, c) when that entry is nonzero and is passed over
    otherwise, its row left among the rest.  Each row not yet pivoted
    becomes (row * piv - pivot row * row[c]) // prev, prev the pivot before
    (1 for the first), on the columns not yet pivoted.  The division is
    exact (Sylvester's identity): entry (i, j) is then the minor on the
    taken indices and i by the taken indices and j.  No row moves, and
    column c is left as it is, so each row keeps there the multiplier
    row[c] of step c, which `_int_solve` reads.
    """
    taken, rest, prev = [], list(range(n)), 1
    for c in range(n):
        if not rows[c][c]:
            continue
        rest.remove(c)
        taken.append(c)
        piv, prow = rows[c][c], rows[c]
        for i in rest:
            row = rows[i]
            f = row[c]
            for j in rest:
                row[j] = (row[j] * piv - prow[j] * f) // prev
        prev = piv
    return taken, rest


def _int_solve(rows: list, dens: list, taken: list) -> list:
    """W = d A^-1 diag(dens) for the block of `_int_eliminate`'s rows on
    its taken indices, d the last pivot, as m x m ints: row i and column k
    for the i-th and k-th taken index.

    The den columns first: the same elimination on [A | diag(dens)] makes
    the t-th taken row's den entries, at the den columns of the taken rows
    up to t, from its multipliers row[c_s] and the pivots of the steps s
    before t.  Then the fraction-free back substitution
        W_ik = (d U_i(n+k) - sum_(j>i) U_ij W_jk) // U_ii,
    U the eliminated rows, each division exact (d A^-1 is the adjugate up
    to sign).  The den columns are left to here so that a greedy whose
    block is never inverted (`select_basis` alone) does not make them.
    """
    m = len(taken)
    u = [[0] * m for _ in range(m)]
    for t, r in enumerate(taken):
        u[t][t] = dens[r]
    prev = 1
    for s, c in enumerate(taken):
        piv, prow = rows[c][c], u[s]
        for t in range(s + 1, m):
            row, f = u[t], rows[taken[t]][c]
            for j in range(s + 1):
                row[j] = (row[j] * piv - prow[j] * f) // prev
            row[t] = row[t] * piv // prev
        prev = piv
    w = [None] * m
    for i in range(m - 1, -1, -1):
        c = taken[i]
        row, ui = rows[c], u[i]
        later = [(row[cj], w[j]) for j, cj in enumerate(taken[i + 1:], i + 1) if row[cj]]
        wi = w[i] = [0] * m
        for q in range(m):
            acc = prev * ui[q]
            for x, wj in later:
                acc -= x * wj[q]
            wi[q] = acc // row[c]
    return w


def _forward(a: list, dens: list) -> Forward:
    """[a | diag(dens)], n = len(a) >= 2, packed once in `_frame`'s frame at
    v = 2^(k span/g), t = 2^k (Kronecker substitution) on `ratfield._pack`'s
    layout, and a eliminated by `_int_eliminate`; `_int_solve` eliminates
    the den columns.

    k and span are fixed before the first product, from the bounds of all n
    rows, for one of `inverse`'s two decodes (see there): the rebuild width
    holds every minor; the direct one, wider, also N and the row dens of the
    inverse; direct is taken when its width is at most three times the
    rebuild width.  A minor on some of the rows is at most the product of
    their bounds, each at least 1, so the widths also hold the decodes of a
    principal block that `principal_pivots` chose among the rows.
    """
    n = len(a)
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
    rows, dints = [], []
    for erow, (sv, st) in zip(entries, sig):
        ints = [0] * n
        for c, t, *_ in erow[:-1]:
            kv, kt = kap[c]
            ints[c] = pack(t, sv + kv, st + kt, g, span, k)
        rows.append(ints)
        c, t, *_ = erow[-1]
        kv, kt = kap[c]
        dints.append(pack(t, sv + kv, st + kt, g, span, k))
    return Forward(rows, dints, *_int_eliminate(rows, n), s, sig, kap, g, k, span, direct)


def principal_pivots(a: list, dens: list) -> tuple:
    """Greedy nonsingular principal block of the square matrix with rows
    a[r] / dens[r], all LaurentPoly, in one elimination.

    Index k is taken when the principal block on the indices taken before
    it plus k is nonsingular.  Pivoting on the diagonal only, in index
    order, the entry at (k, k) after elimination by the pivots taken so far
    is that block's determinant (Sylvester's identity), so each test costs
    one look at the diagonal.  Rows and columns of rejected indices are
    eliminated too.  The elimination runs on `_forward`'s ints, and a test
    is exact: the width holds every minor of a, so a nonzero minor has a
    nonzero image.  The rows a are left as they are.

    Returns (taken, rest, forward): the taken indices, ascending; the
    eliminated entries on the other indices, decoded to LaurentPoly rows
    when there are any, their Schur complement times the chosen block's
    determinant, so rank(a) == len(taken) + rank(rest); and the elimination
    itself, for `inverse` of the chosen block over its rows' dens: the
    taken rows carry that block's elimination.  A matrix of fewer than two
    rows packs nothing, and forward is None.
    """
    n = len(a)
    if n < 2:
        if n and not a[0][0].is_zero():
            return [0], [], None
        return [], [list(row) for row in a], None
    forward = _forward(a, dens)
    rows, _, taken, open_, s, sig, kap, g, k, span, _ = forward
    rest = []
    if open_:
        # entry (i, j) is a minor on the taken indices and i by the taken
        # indices and j, so the frame divides it by the shifts of those
        ov = sum(sig[c][0] + kap[c][0] for c in taken)
        ot = sum(sig[c][1] + kap[c][1] for c in taken)
        unpack, make = ratfield._unpack_terms, ratfield._make
        rest = [[make(unpack(rows[i][j], k, ov + sig[i][0] + kap[j][0],
                             ot + sig[i][1] + kap[j][1], g, span), s)
                 if rows[i][j] else ratfield.LP_ZERO for j in open_] for i in open_]
    return taken, rest, forward


def inverse(a: list, dens: list, forward: Forward = None) -> list:
    """The inverse of the matrix with rows a[r] / dens[r], all LaurentPoly,
    by one fraction-free elimination of [a | diag(dens)] over Python ints.

    Entry (i, k) is N_ik / (U_ii ... U_nn), the form that the polynomial
    Bareiss elimination of [a | diag(dens)] on the diagonal and its back
    substitution give, U the eliminated rows, with row i's den in normal
    form as the RatFunc constructor makes it.  `theta` prints these forms,
    and a LaurentPoly's form is minimal, so equal values print equal
    bytes.  With the pivots d_j = U_jj and W = d_(n-1) a^-1 diag(dens), a
    minor of [a | diag(dens)] in each entry, N_ik = W_ik d_i ... d_(n-2)
    and U_ii ... U_nn = d_i ... d_(n-1).

    The elimination of a is `_forward`'s on its packed ints, and a with a
    zero leading principal minor is refused (SingularMatrixError); or, when
    `forward` is given, the one `principal_pivots` ran on a block whose
    taken principal block is a over dens (a itself, or a larger block);
    `_int_solve` eliminates the den columns and substitutes back.  Evaluation is a ring map, so the
    elimination and the fraction-free back substitution
        W_ik = (d_(n-1) U_i(n+k) - sum_(j>i) U_ij W_jk) // U_ii
    give the images of the polynomial ones, and a pivot test is exact: a
    nonzero minor whose coefficients fit the digits has a nonzero image.
    k and span were fixed before the first product so that what is decoded
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
    the frame shifts of its rows and columns.  A 1 x 1 block has nothing to
    eliminate and packs nothing.
    """
    n = len(a)
    if n == 0:
        return []
    if n == 1:
        if a[0][0].is_zero():
            raise SingularMatrixError("matrix is singular over Q(v,t)")
        unit = RatFunc(ratfield.LP_ONE, a[0][0])
        return [[ratfield._normal(dens[0] * unit.num, unit.den)]]
    if forward is None:
        forward = _forward(a, dens)
        if forward.rest:
            raise SingularMatrixError("a leading principal minor is zero over Q(v,t)")
    rows, dints, taken, _, s, sig, kap, g, k, span, direct = forward
    w = _int_solve(rows, dints, taken)
    piv = [rows[c][c] for c in taken]
    det = piv[-1]
    # the frame divides d_j by v^od[j] (exponent pairs: the shifts of the
    # rows and columns of the taken indices up to j) and W_ik by
    # v^(od[n-1] - kap_(c_i) + kap_(den k))
    ov = ot = 0
    od = []
    for c in taken:
        ov += sig[c][0] + kap[c][0]
        ot += sig[c][1] + kap[c][1]
        od.append((ov, ot))
    # output column k is the den of the k-th taken row
    kden = [kap[len(rows) + c] for c in taken]
    unpack, make, normal = ratfield._unpack_terms, ratfield._make, ratfield._normal
    out = []
    if direct:
        q = 1
    else:
        d = [make(unpack(p, k, *od[j], g, span), s) for j, p in enumerate(piv)]
        q = ratfield.LP_ONE
    for i in range(n - 1, -1, -1):
        # q = d_i ... d_(n-2); the row den d_i ... d_(n-1) in normal form, as
        # the RatFunc constructor makes it (the sign of a packed int is its
        # top digit's, the lex-leading coefficient)
        if direct:
            if i < n - 1:
                q *= piv[i]
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
        kv, kt = kap[taken[i]]
        bv, bt = bv - mv - kv, bt - mt - kt
        if direct:
            zq = q * sgn
            out.append([normal(make(unpack(z * zq, k, bv + kv, bt + kt, g, span), s), den)
                        for z, (kv, kt) in zip(w[i], kden)])
        else:
            out.append([normal(make(unpack(z * sgn, k, bv + kv, bt + kt, g, span), s) * q, den)
                        for z, (kv, kt) in zip(w[i], kden)])
    out.reverse()
    return out
