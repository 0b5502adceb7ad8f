"""The sparse operator type against a list-of-lists reference.

The reference keeps every entry, zeros too, and sums each entry's terms in
index order, as a dense row-by-row loop does.  Entries are compared by value
and by printed form: the sparse type must add the same terms in the same
order, so unreduced values come out in the same form.

The one-pass basis elimination is checked against the greedy choice with
one rank per trial prefix.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vtknot import linalg as la
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


@SETTINGS
@given(dense(), dense())
def test_kron_matches_the_reference(a, b):
    (ar, ac, x), (br, bc, y) = a, b
    want = [
        [x[i][j] * y[p][q] for j in range(ac) for q in range(bc)]
        for i in range(ar) for p in range(br)
    ]
    assert_matches(la.kron(sparse(a), sparse(b)), (ar * br, ac * bc, want))


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


@settings(max_examples=150, deadline=None)
@given(square())
# no nonsingular principal block, yet rank 2
@example([[Z, ONE], [ONE, Z]])
# index 1 is the only pivot; the rejected index 0 gains a nonzero Schur entry
@example([[Z, ONE, Z], [ONE, ONE, Z], [Z, Z, Z]])
def test_principal_pivots_take_the_greedy_indices(a):
    taken, rest = la.principal_pivots(a)
    assert taken == greedy_pivots(a)
    n = len(a) - len(taken)
    assert len(rest) == n and all(len(row) == n for row in rest)
    assert len(taken) + la.rank(rest) == la.rank(a)
