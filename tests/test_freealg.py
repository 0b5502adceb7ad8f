"""Twisted free algebra: coproducts, derivations, the bilinear form, relators."""

from hypothesis import given, settings
from hypothesis import strategies as st

from vtknot import cartan as ca
from vtknot import freealg as fa
from vtknot import ratfield as rf

SL2 = ca.make_spec(1, [[2]], [[1]])
SL3 = ca.make_spec(2, [[2, -1], [-1, 2]], [[1, -1], [0, 1]])


def test_coproduct_on_two_letters():
    x = fa.felem((0, 1))
    got = fa.coproduct_r(SL3, x)
    want = {
        ((0, 1), ()): rf.ONE,
        ((0,), (1,)): rf.ONE,
        ((1,), (0,)): rf.parse("v^-1 * t"),
        ((), (0, 1)): rf.ONE,
    }
    assert fa.t_eq(got, want)


def test_coproduct_bar_on_two_letters():
    got = fa.coproduct_r(SL3, fa.felem((0, 1)), -1)
    want = {
        ((0, 1), ()): rf.ONE,
        ((0,), (1,)): rf.ONE,
        ((1,), (0,)): rf.parse("v * t"),
        ((), (0, 1)): rf.ONE,
    }
    assert fa.t_eq(got, want)


def test_deriv_on_repeated_letter():
    x = fa.felem((0, 0))
    want = fa.f_scale(fa.felem((0,)), rf.parse("1 + v^2"))
    assert fa.f_eq(fa.deriv(SL2, 0, x, "l"), want)
    assert fa.f_eq(fa.deriv(SL2, 0, x, "r"), want)
    assert fa.deriv(SL2, 0, fa.felem(()), "l") == {}
    assert fa.f_eq(fa.deriv(SL2, 0, fa.felem((0,)), "l"), fa.felem(()))


def test_form_oracles():
    th = fa.felem((0,))
    gen = rf.parse("1 / (1 - v^-2)")
    assert rf.eq(fa.form(SL2, th, th), gen)
    assert rf.eq(fa.form(SL2, fa.felem(()), fa.felem(())), rf.ONE)
    assert rf.eq(fa.form(SL3, fa.felem((0,)), fa.felem((1,))), rf.ZERO)
    # (theta theta, theta theta) = (1+v^2) t^2 (1-v^-2)^-2
    want = rf.parse("(1 + v^2) * t^2") * gen * gen
    assert rf.eq(fa.form(SL2, fa.felem((0, 0)), fa.felem((0, 0))), want)


def test_serre_element_rank_two():
    s = fa.serre_element(SL3, 0, 1)
    half = rf.inv(rf.qfact(2, 1))
    want = {
        (1, 0, 0): half,
        (0, 1, 0): -rf.parse("t^-2"),
        (0, 0, 1): rf.parse("t^-2") * half,
    }
    assert fa.f_eq(s, want)


def test_serre_elements_span_form_radical_slice():
    for i, j in ((0, 1), (1, 0)):
        s = fa.serre_element(SL3, i, j)
        mu = (2, 1) if i == 0 else (1, 2)
        for w in fa.words_of_degree(mu):
            assert rf.eq(fa.form(SL3, s, fa.felem(w)), rf.ZERO)
            assert rf.eq(fa.form(SL3, fa.felem(w), s), rf.ZERO)


def test_sigma():
    got = fa.sigma(SL3, fa.felem((0, 1)))
    assert fa.f_eq(got, fa.felem((1, 0), rf.T))
    assert fa.f_eq(fa.sigma(SL3, got), fa.felem((0, 1)))


def test_words_of_degree():
    assert fa.words_of_degree((1, 1)) == ((0, 1), (1, 0))
    assert fa.words_of_degree((2, 1)) == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert fa.words_of_degree((0, 0)) == ((),)


_words = st.lists(st.integers(0, 1), min_size=0, max_size=4).map(tuple)
_scalars = st.builds(
    rf.mono,
    st.integers(-2, 2).filter(bool),
    st.integers(-1, 1),
    st.integers(-1, 1),
)


@st.composite
def felems(draw, max_terms=2):
    out = {}
    for _ in range(draw(st.integers(1, max_terms))):
        out = fa.f_add(out, fa.felem(draw(_words), draw(_scalars)))
    return out


def _split_once(x, left):
    """Apply r to one slot of a 2-tensor, yielding a 3-tensor dict."""
    out = {}
    for (a, b), c in x.items():
        inner = fa.coproduct_r(SL3, fa.felem(a if left else b))
        for (p, q), ic in inner.items():
            key = (p, q, b) if left else (a, p, q)
            acc = out.get(key)
            acc = c * ic if acc is None else acc + c * ic
            out[key] = acc
    return out


@settings(max_examples=25, deadline=None)
@given(felems())
def test_coproduct_is_coassociative(x):
    rx = fa.coproduct_r(SL3, x)
    lhs = _split_once(rx, True)
    rhs = _split_once(rx, False)
    for key in set(lhs) | set(rhs):
        assert rf.eq(lhs.get(key, rf.ZERO), rhs.get(key, rf.ZERO))


@settings(max_examples=25, deadline=None)
@given(felems())
def test_rbar_is_flip_of_r(x):
    flipped = {}
    for (a, b), c in fa.coproduct_r(SL3, x).items():
        da, db = fa.deg(SL3, a), fa.deg(SL3, b)
        tw = rf.mono(
            1,
            -ca.dot(SL3, da, db),
            ca.angle(SL3, db, da) - ca.angle(SL3, da, db),
        )
        flipped = fa.t_add(flipped, {(b, a): c * tw})
    assert fa.t_eq(flipped, fa.coproduct_r(SL3, x, -1))


@settings(max_examples=25, deadline=None)
@given(felems())
def test_derivs_extract_coproduct_slices(x):
    rx = fa.coproduct_r(SL3, x)
    for i in range(2):
        right = {}
        left = {}
        for (a, b), c in rx.items():
            if b == (i,):
                right = fa.f_add(right, {a: c})
            if a == (i,):
                left = fa.f_add(left, {b: c})
        assert fa.f_eq(fa.deriv(SL3, i, x, "r"), right)
        assert fa.f_eq(fa.deriv(SL3, i, x, "l"), left)


@settings(max_examples=25, deadline=None)
@given(felems())
def test_sigma_conjugates_coproduct(x):
    # r(sigma(x)) = (sigma (x) sigma)(rho(r(x)))
    lhs = fa.coproduct_r(SL3, fa.sigma(SL3, x))
    rhs = {}
    for (a, b), c in fa.coproduct_r(SL3, x).items():
        da, db = fa.deg(SL3, a), fa.deg(SL3, b)
        tw = rf.mono(1, 0, ca.angle(SL3, db, da) - ca.angle(SL3, da, db))
        sa, sb = fa.sigma(SL3, fa.felem(a)), fa.sigma(SL3, fa.felem(b))
        for wa, ca_ in sb.items():
            for wb, cb_ in sa.items():
                rhs = fa.t_add(rhs, {(wa, wb): c * tw * ca_ * cb_})
    assert fa.t_eq(lhs, rhs)


@settings(max_examples=20, deadline=None)
@given(felems(), felems())
def test_form_is_symmetric(x, y):
    assert rf.eq(fa.form(SL3, x, y), fa.form(SL3, y, x))


@settings(max_examples=25, deadline=None)
@given(felems(), felems())
def test_bar_f(x, y):
    assert fa.f_eq(fa.bar_f(fa.bar_f(x)), x)
    assert fa.f_eq(fa.bar_f(fa.mul(x, y)), fa.mul(fa.bar_f(x), fa.bar_f(y)))
