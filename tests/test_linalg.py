"""The sparse operator type against a list-of-lists reference.

The reference keeps every entry, zeros too, and sums each entry's terms in
index order, as a dense row-by-row loop does.  Entries are compared by value
and by printed form: the sparse type must add the same terms in the same
order, so unreduced values come out in the same form.

The Bareiss routines take LaurentPoly rows; RatFunc matrices reach them
through `ratfield._clear_dens`, row by row.  The one-pass basis elimination
takes t-Hermitian rows only, as a Gram block's numerators are; on such
rows it is checked against the greedy choice with one rank per trial
prefix, and (the mirror step) against the full update entry by entry; it
and `rank` must leave their input rows as they are.  The inverse
is checked as an inverse of the RatFunc matrix and, form by form, against
a copy of its first back substitution on [a | 1] cleared row by row, which
fixes the unreduced values `theta` prints.  On t-dependent rows it is
checked in the shape quasir passes, t-Hermitian numerator rows over one
t-free den, by polynomial products only: summing RatFunc products over
its per-row dens swells past usefulness on such input.  The integer
elimination behind `inverse` is checked on examples that take each of its
two decodes, on diagonal blocks that need every bit of their width, and on
a 1 x 1 block, which must pack nothing.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vtknot import cartan as ca
from vtknot import freealg as fa
from vtknot import linalg as la
from vtknot import pairing as pr
from vtknot import ratfield as rf

VALUES = [rf.parse(x) for x in ("0", "1", "-1", "v", "v^(1/2)", "(v + 1)/(v - 1)")]
Z, ONE, X = VALUES[0], VALUES[1], VALUES[-1]


@st.composite
def dense(draw, rows=None, cols=None):
    """A (rows, cols, list of rows) reference matrix of small shape."""
    rows = draw(st.integers(0, 3)) if rows is None else rows
    cols = draw(st.integers(0, 3)) if cols is None else cols
    return rows, cols, [[draw(st.sampled_from(VALUES)) for _ in range(cols)] for _ in range(rows)]


@st.composite
def products(draw):
    n, k, m = (draw(st.integers(0, 3)) for _ in range(3))
    return draw(dense(n, k)), draw(dense(k, m))


@st.composite
def same_shape(draw):
    a = draw(dense())
    return a, draw(dense(a[0], a[1]))


def sparse(ref):
    rows, cols, data = ref
    return la.Matrix(rows, cols, {r: dict(enumerate(row)) for r, row in enumerate(data)})


def assert_matches(got, ref):
    rows, cols, data = ref
    assert (got.rows, got.cols) == (rows, cols)
    assert list(got.entries) == sorted(got.entries)
    for row in got.entries.values():
        assert row and list(row) == sorted(row)
        assert not any(x.is_zero() for x in row.values())
    for r in range(rows):
        for c in range(cols):
            assert rf.eq(got[r, c], data[r][c])
            assert rf.render(got[r, c]) == rf.render(data[r][c])


SETTINGS = settings(max_examples=60, deadline=None)


@SETTINGS
@given(dense())
def test_reads_and_storage_match_the_reference(a):
    m = sparse(a)
    assert_matches(m, a)
    for r, c in ((-1, 0), (0, -1), (a[0], 0), (0, a[1])):
        with pytest.raises(IndexError):
            m[r, c]


@SETTINGS
@given(products())
# terms over (v-1), (v-1), (v-1)^2: only the first two share a denominator,
# so another order of the sum gives another unreduced form
@example(((1, 3, [[X, X, X]]), (3, 1, [[ONE], [ONE], [X]])))
def test_mat_mul_matches_the_reference(pair):
    (n, k, a), (_, m, b) = pair
    want = [
        [sum((a[r][s] * b[s][c] for s in range(k)), rf.ZERO) for c in range(m)]
        for r in range(n)
    ]
    assert_matches(la.mat_mul(sparse(pair[0]), sparse(pair[1])), (n, m, want))


def as_dense(factor):
    """A Kronecker factor's reference matrix: an int n is the n x n identity."""
    if isinstance(factor, int):
        n = factor
        return n, n, [[ONE if r == c else Z for c in range(n)] for r in range(n)]
    return factor


@SETTINGS
@given(st.lists(st.one_of(dense(), st.integers(0, 3)), min_size=1, max_size=3))
@example([2, 3])
@example([(2, 1, [[X], [ONE]]), 2, (1, 2, [[ONE, X]])])
def test_kron_matches_the_reference(factors):
    # the nested two-factor product, left-associated, entry (i, p), (j, q)
    rows, cols, want = 1, 1, [[ONE]]
    for f in factors:
        br, bc, y = as_dense(f)
        want = [
            [want[i][j] * y[p][q] for j in range(cols) for q in range(bc)]
            for i in range(rows) for p in range(br)
        ]
        rows, cols = rows * br, cols * bc
    got = la.kron(*(f if isinstance(f, int) else sparse(f) for f in factors))
    assert_matches(got, (rows, cols, want))


@SETTINGS
@given(same_shape())
def test_add_sub_and_eq_match_the_reference(pair):
    (rows, cols, x), (_, _, y) = pair
    a, b = sparse(pair[0]), sparse(pair[1])
    for build, op in ((la.mat_add, lambda p, q: p + q), (la.mat_sub, lambda p, q: p - q)):
        want = [[op(p, q) for p, q in zip(xr, yr)] for xr, yr in zip(x, y)]
        assert_matches(build(a, b), (rows, cols, want))
    same = all(rf.eq(p, q) for xr, yr in zip(x, y) for p, q in zip(xr, yr))
    assert la.mat_eq(a, b) == same
    assert la.mat_eq(a, a)


@SETTINGS
@given(dense(), st.sampled_from(VALUES))
def test_scale_and_transpose_match_the_reference(a, s):
    rows, cols, x = a
    assert_matches(la.mat_scale(sparse(a), s), (rows, cols, [[s * p for p in row] for row in x]))
    want = [[x[r][c] for r in range(rows)] for c in range(cols)]
    assert_matches(la.transpose(sparse(a)), (cols, rows, want))


@SETTINGS
@given(dense(), dense())
def test_mismatched_shapes_raise(a, b):
    x, y = sparse(a), sparse(b)
    if x.cols != y.rows:
        with pytest.raises(la.ShapeError):
            la.mat_mul(x, y)
    if (x.rows, x.cols) != (y.rows, y.cols):
        for build in (la.mat_add, la.mat_sub):
            with pytest.raises(la.ShapeError):
                build(x, y)
        assert not la.mat_eq(x, y)


def poly_rows(a):
    """RatFunc rows as numerators over each row's den: ranks, principal
    minors up to nonzero factors, and row spans are kept."""
    return [rf._clear_dens(row)[0] for row in a]


def greedy_pivots(a):
    """The index-order greedy choice, one rank per trial prefix."""
    taken = []
    for k in range(len(a)):
        trial = taken + [k]
        if la.rank([[a[i][j] for j in trial] for i in trial]) == len(trial):
            taken.append(k)
    return taken


@st.composite
def square(draw):
    n = draw(st.integers(0, 4))
    return draw(dense(n, n))[2]


def polys(*texts):
    return [rf.parse(x).num for x in texts]


# numerators fixed by t -> t^-1, for the diagonal, and pairs (x, bar_t(x)) above it
T_FIXED = polys("0", "1", "v", "t + t^-1", "v^(1/2) * (t - 2 + t^-1)")
T_ANY = polys("0", "1", "t", "v * t^(1/2)", "v - t^-1", "2 * v * t^2 - t")
P0, P1, PV, PT, PTI = polys("0", "1", "v", "t", "t^-1")


def _t_hermitian(rows):
    """Whether rows[j][i] is rows[i][j] with t -> t^-1, structurally, for all i, j."""
    n = len(rows)
    return all(rows[j][i] == rf._flip_poly(rows[i][j], 1, -1)
               for i in range(n) for j in range(i, n))


@st.composite
def t_hermitian(draw):
    """Numerator rows with a[j][i] = bar_t(a[i][j]), as a Gram block's are."""
    n = draw(st.integers(0, 4))
    a = [[None] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = draw(st.sampled_from(T_FIXED))
        for j in range(i + 1, n):
            x = draw(st.sampled_from(T_ANY))
            a[i][j], a[j][i] = x, rf._flip_poly(x, 1, -1)
    return a


@st.composite
def symmetric(draw):
    """A symmetric square of VALUES, all free of t, as numerators over one
    den: t-Hermitian rows with fractional coefficients and exponents."""
    n = draw(st.integers(0, 4))
    a = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a[i][j] = a[j][i] = draw(st.sampled_from(VALUES))
    nums, _ = rf._clear_dens([x for row in a for x in row])
    return [nums[i * n:(i + 1) * n] for i in range(n)]


# principal_pivots takes t-Hermitian rows only (a Gram block's numerators)
HERMITIAN = st.one_of(symmetric(), t_hermitian())


@settings(max_examples=150, deadline=None)
@given(HERMITIAN)
# no nonsingular principal block, yet rank 2
@example(poly_rows([[Z, ONE], [ONE, Z]]))
# index 1 is the only pivot; the rejected index 0 gains a nonzero Schur entry
@example(poly_rows([[Z, ONE, Z], [ONE, ONE, Z], [Z, Z, Z]]))
def test_principal_pivots_take_the_greedy_indices(rows):
    assert _t_hermitian(rows)
    taken, rest = la.principal_pivots(rows)
    assert taken == greedy_pivots(rows)
    n = len(rows) - len(taken)
    assert len(rest) == n and all(len(row) == n for row in rest)
    assert all(isinstance(x, rf.LaurentPoly) for row in rest for x in row)
    assert len(taken) + la.rank(rest) == la.rank(rows)


# ------------------------------------------------ the t-Hermitian elimination


def full_pivots(a):
    """principal_pivots with the full update on every entry, the reference
    for the mirror step: (taken, the eliminated polynomial rows on the rest)."""
    rows = [list(row) for row in a]
    taken, open_ = [], list(range(len(a)))
    prev = rf.LP_ONE
    for k in range(len(a)):
        if rows[k][k].is_zero():
            continue
        open_.remove(k)
        piv, prow = rows[k][k], rows[k]
        for i in open_:
            fi = rows[i][k]
            for j in open_:
                rows[i][j] = rf.cross_div(rows[i][j], piv, prow[j], fi, prev)
            rows[i][k] = rf.LP_ZERO
        prev = piv
        taken.append(k)
    return taken, [[rows[i][j] for j in open_] for i in open_]


@settings(max_examples=100, deadline=None)
@given(HERMITIAN)
@example([[P0, PT], [PTI, P0]])
@example([[P1, PT, P0], [PTI, P1, P0], [P0, P0, PV]])
def test_t_hermitian_elimination_matches_the_full_update(a):
    assert _t_hermitian(a)
    taken, rest = la.principal_pivots(a)
    assert taken == greedy_pivots(a)
    assert (taken, rest) == full_pivots(a)


@settings(max_examples=100, deadline=None)
@given(HERMITIAN, square().map(poly_rows))
def test_pivots_and_rank_leave_their_input_rows_unchanged(hermitian, rows):
    # quasir reads the inverse's block from the rows it eliminated
    for a, eliminate in ((hermitian, la.principal_pivots), (rows, la.rank)):
        before = [list(row) for row in a]
        eliminate(a)
        assert a == before


def test_mirror_step_halves_the_gram_updates(monkeypatch):
    spec = ca.make_spec(2, [[2, -1], [-1, 2]], [[1, -1], [0, 1]])
    gram, _ = pr.gram(spec, (2, 3), fa.words_of_degree((2, 3)))
    calls = []
    real = rf.cross_div

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(rf, "cross_div", counting)
    # lex, then revlex as quasir orders it; 194 calls each with the full update
    for block in (gram, [row[::-1] for row in reversed(gram)]):
        calls.clear()
        la.principal_pivots(block)
        assert len(calls) == 109


# ------------------------------------------------------------ inverse


def reference_inverse(a):
    """The reference back substitution of the RatFunc matrix a: [a | 1]
    cleared row by row, each column on its own,
    x_i = N_i / (U_ii ... U_nn), products in order with one running mid."""
    n = len(a)
    rows = poly_rows([list(row) + [rf.ONE if c == r else rf.ZERO for c in range(n)]
                      for r, row in enumerate(a)])
    la._bareiss(rows, n)
    suffix = [rf.LP_ONE] * (n + 1)
    for k in range(n - 1, -1, -1):
        suffix[k] = rows[k][k] * suffix[k + 1]
    out = [[None] * n for _ in range(n)]
    nums = [[None] * n for _ in range(n)]
    for k in range(n):
        for i in range(n - 1, -1, -1):
            acc = rows[i][n + k] * suffix[i + 1]
            mid = rf.LP_ONE
            for j in range(i + 1, n):
                uij, nj = rows[i][j], nums[j][k]
                if not (uij.is_zero() or nj.is_zero()):
                    acc = acc - uij * nj * mid
                mid = mid * rows[j][j]
            nums[i][k] = acc
            out[i][k] = rf.RatFunc(acc, suffix[i])
    return out


def cleared_rows(a):
    """(rows, dens): the RatFunc matrix a as numerator rows over row dens."""
    cleared = [rf._clear_dens(row) for row in a]
    return [p for p, _ in cleared], [d for _, d in cleared]


M1, VH = VALUES[2], VALUES[4]
TP, TQ = rf.parse("t + 2 * v * t^-1"), rf.parse("t^2 - v^(1/2) * t^-1")
# the first pivot is the second row's
SWAP = [[Z, ONE], [ONE, Z]]
THREE = [[X, ONE, Z], [ONE, Z, X], [Z, X, ONE]]
# several t-powers in one entry, so no conjugation makes the block t-free
T_POWERS = [[TP, ONE, X], [ONE, TQ, VALUES[3]], [X, VALUES[3], TP]]
# row 0's den has coefficients far above its entries' (|den|_1 = 64)
HEAVY_DEN = [[rf.parse("1 / (v + 1)^6"), Z], [Z, ONE]]
# circulant: row i is the first row turned right i times
SIX_WIDE = [[[X, VALUES[3], ONE, Z, VH, M1][(j - i) % 6] for j in range(6)] for i in range(6)]


@settings(max_examples=150, deadline=None)
@given(square())
@example(SWAP)
@example(THREE)
@example(T_POWERS)
@example(SIX_WIDE)
@example(HEAVY_DEN)
def test_inverse_inverts_and_keeps_the_reference_forms(a):
    n = len(a)
    rows, dens = cleared_rows(a)
    if la.rank(rows) < n:
        with pytest.raises(la.SingularMatrixError):
            la.inverse(rows, dens)
        return
    got = la.inverse(rows, dens)
    m, g = sparse((n, n, a)), sparse((n, n, got))
    assert la.mat_eq(la.mat_mul(g, m), la.identity(n))
    assert la.mat_eq(la.mat_mul(m, g), la.identity(n))
    want = reference_inverse(a)
    for grow, wrow in zip(got, want):
        for x, y in zip(grow, wrow):
            assert (x.num, x.den) == (y.num, y.den)


# the 4x4 t-Hermitian block over v - 1 on which mat_mul(inverse(a), a) ran
# for over 40 s
FOUR = [
    polys("t + t^-1", "0", "2 * v * t^2 - t", "v - t^-1"),
    polys("0", "v^(1/2) * (t - 2 + t^-1)", "v - t^-1", "v - t^-1"),
    polys("2 * v * t^-2 - t^-1", "v - t", "1", "1"),
    polys("v - t", "v - t", "1", "t + t^-1"),
]
T_FREE_DENS = polys("1", "v - 1", "v^2 + 1")


@settings(max_examples=150, deadline=None)
@given(t_hermitian(), st.sampled_from(T_FREE_DENS))
@example(FOUR, T_FREE_DENS[1])
def test_inverse_of_t_hermitian_rows_over_one_den(rows, den):
    # X inverts the matrix rows / den, so sum_j num(X_ij) rows[j][k] is
    # delta_ik d_i den for row i's one den d_i
    n = len(rows)
    if la.rank(rows) < n:
        with pytest.raises(la.SingularMatrixError):
            la.inverse(rows, [den] * n)
        return
    got = la.inverse(rows, [den] * n)
    for i, row in enumerate(got):
        dens = [x.den for x in row if not x.is_zero()]
        assert dens and all(d == dens[0] for d in dens)
        for k in range(n):
            acc = rf.LP_ZERO
            for x, prow in zip(row, rows):
                acc = acc + x.num * prow[k]
            assert acc == (dens[0] * den if i == k else rf.LP_ZERO)


def test_inverse_of_four_over_v_minus_1_inverts_as_ratfunc_matrices():
    # the full RatFunc product, not only the numerator sums checked above
    den = T_FREE_DENS[1]
    a = la.Matrix(4, 4, {i: {j: rf.RatFunc(x, den) for j, x in enumerate(row)}
                         for i, row in enumerate(FOUR)})
    got = sparse((4, 4, la.inverse(FOUR, [den] * 4)))
    assert la.mat_eq(la.mat_mul(got, a), la.identity(4))
    assert la.mat_eq(la.mat_mul(a, got), la.identity(4))


def takes_direct(rows, dens, monkeypatch):
    """Whether `inverse` decodes N and the row dens directly, by its rule:
    when the direct width is at most three times the rebuild width."""
    widths = []
    real = la._width
    monkeypatch.setattr(la, "_width", lambda bound: widths.append(real(bound)) or widths[-1])
    la.inverse(rows, dens)
    monkeypatch.setattr(la, "_width", real)
    rebuild, direct = widths
    return direct <= 3 * rebuild


def test_the_inverse_examples_take_both_decodes(monkeypatch):
    examples = (("swap", SWAP), ("three", THREE), ("t", T_POWERS), ("wide", SIX_WIDE))
    taken = {name: takes_direct(*cleared_rows(a), monkeypatch) for name, a in examples}
    assert taken == {"swap": True, "three": True, "t": True, "wide": False}


@pytest.mark.parametrize("diagonal, direct", [((15, 13), True), ((15, 13, 11, 9, 7, 5), False)])
def test_a_diagonal_block_reaches_the_bound_and_needs_every_bit(monkeypatch, diagonal, direct):
    # over dens 1 each row's bound is its entry, so the rebuild bound is the
    # product of the entries, the determinant, which the rebuild decodes as
    # its last pivot; the direct bound is that times, for j = 1 .. n-1, the
    # product of the j largest entries, which row 0's den (the product of
    # every pivot, c_0 (c_0 c_1) ...) reaches when the entries descend
    n = len(diagonal)
    rows = [[rf.lp_mono(c) if i == j else rf.LP_ZERO for j in range(n)]
            for i, c in enumerate(diagonal)]
    dens = [rf.LP_ONE] * n
    assert takes_direct(rows, dens, monkeypatch) == direct
    want = reference_inverse([[rf.RatFunc(x) for x in row] for row in rows])

    def forms(got):
        return [[(x.num, x.den) for x in row] for row in got]

    assert forms(la.inverse(rows, dens)) == forms(want)
    real = la._width
    monkeypatch.setattr(la, "_width", lambda bound: real(bound) - 1)
    assert forms(la.inverse(rows, dens)) != forms(want)


def test_a_1x1_block_packs_nothing(monkeypatch):
    def refuse(*args):
        raise AssertionError("a 1 x 1 block went through the packed ints")

    for name in ("_pack", "_unpack"):
        monkeypatch.setattr(rf, name, refuse)
    x, den = polys("v^2 * t - 1", "v - v^-1")
    (got,), = la.inverse([[x]], [den])
    assert rf.eq(got, rf.RatFunc(den, x))
    with pytest.raises(la.SingularMatrixError):
        la.inverse([[rf.LP_ZERO]], [den])
