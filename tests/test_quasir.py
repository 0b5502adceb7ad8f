"""Dual-basis selection and the two descriptions of the quasi-R components."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtknot import cartan as ca
from vtknot import freealg as fa
from vtknot import pairing as pr
from vtknot import quasir as qr
from vtknot import ratfield as rf

SL2 = ca.make_spec(1, [[2]], [[1]])
SL3 = ca.make_spec(2, [[2, -1], [-1, 2]], [[1, -1], [0, 1]])


def test_theta_zero_degree():
    assert qr.theta(SL2, (0,)) == {((), ()): rf.ONE}
    assert qr.theta(SL3, (0, 0)) == {((), ()): rf.ONE}


def test_theta_rank_one():
    got = qr.theta(SL2, (1,))
    assert set(got) == {((0,), (0,))}
    assert rf.eq(got[((0,), (0,))], rf.parse("v^-1 - v"))

    got2 = qr.theta(SL2, (2,))
    want = rf.parse("(v^-1 - v)^2 / (1 + v^2)")
    assert set(got2) == {((0, 0), (0, 0))}
    assert rf.eq(got2[((0, 0), (0, 0))], want)


def test_theta_bar_rank_one():
    got = qr.theta_bar(SL2, (1,))
    assert set(got) == {((0,), (0,))}
    assert rf.eq(got[((0,), (0,))], rf.parse("v - v^-1"))
    # matches the coefficientwise conjugate in rank one
    th = qr.theta(SL2, (1,))
    assert rf.eq(got[((0,), (0,))], rf.bar(th[((0,), (0,))]))


def test_select_basis_rank_two():
    assert qr.select_basis(SL3, (1, 1)) == ((0, 1), (1, 0))
    lex = qr.select_basis(SL3, (2, 1))
    rev = qr.select_basis(SL3, (2, 1), order="revlex")
    assert len(lex) == len(rev) == 2
    assert lex[0] == (0, 0, 1)
    assert rev[0] == (1, 0, 0)
    with pytest.raises(ValueError):
        qr.select_basis(SL3, (1, 1), order="sideways")


def test_dual_elements_pair_as_indicators():
    for mu in ((1, 1), (2, 1), (1, 2)):
        words = qr.select_basis(SL3, mu)
        for a, wa in enumerate(words):
            dual = qr.dual_element(SL3, mu, a)
            for b, wb in enumerate(words):
                got = pr.phi(SL3, dual, fa.felem(wb))
                assert rf.eq(got, rf.ONE if a == b else rf.ZERO)


def test_expand_indicators_and_radical():
    mu = (2, 1)
    words = qr.select_basis(SL3, mu)
    for a, wa in enumerate(words):
        coeffs = qr.expand(SL3, fa.felem(wa), "-")
        for b, wb in enumerate(words):
            assert rf.eq(coeffs[wb], rf.ONE if a == b else rf.ZERO)
        dual = qr.dual_element(SL3, mu, a)
        coeffs_plus = qr.expand(SL3, dual, "+")
        for b, wb in enumerate(words):
            assert rf.eq(coeffs_plus[wb], rf.ONE if a == b else rf.ZERO)

    se = fa.serre_element(SL3, 0, 1)
    for c in qr.expand(SL3, se, "+").values():
        assert rf.eq(c, rf.ZERO)
    sf = fa.serre_element(SL3, 0, 1, "F")
    for c in qr.expand(SL3, sf, "-").values():
        assert rf.eq(c, rf.ZERO)


_scalars = st.builds(
    rf.mono,
    st.integers(-2, 2).filter(bool),
    st.integers(-1, 1),
    st.integers(-1, 1),
)


@st.composite
def homogeneous(draw):
    mu = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
    words = fa.words_of_degree(mu)
    out = {}
    for _ in range(draw(st.integers(1, 2))):
        out = fa.f_add(out, fa.felem(draw(st.sampled_from(words)), draw(_scalars)))
    return mu, out


@settings(max_examples=25, deadline=None)
@given(homogeneous())
def test_expansion_reconstructs_modulo_radical(case):
    mu, x = case
    if not x:
        return
    coeffs = qr.expand(SL3, x, "+")
    rebuilt = {}
    for a, wa in enumerate(qr.select_basis(SL3, mu)):
        rebuilt = fa.f_add(
            rebuilt, fa.f_scale(qr.dual_element(SL3, mu, a), coeffs[wa])
        )
    diff = fa.f_add(rebuilt, fa.f_scale(x, rf.const(-1)))
    for w in fa.words_of_degree(mu):
        assert rf.eq(pr.phi(SL3, diff, fa.felem(w)), rf.ZERO)


@settings(max_examples=25, deadline=None)
@given(homogeneous())
def test_expansion_reconstructs_minus_side(case):
    mu, y = case
    if not y:
        return
    coeffs = qr.expand(SL3, y, "-")
    rebuilt = {}
    for wa in qr.select_basis(SL3, mu):
        rebuilt = fa.f_add(rebuilt, fa.felem(wa, coeffs[wa]))
    diff = fa.f_add(rebuilt, fa.f_scale(y, rf.const(-1)))
    for w in fa.words_of_degree(mu):
        assert rf.eq(pr.phi(SL3, fa.felem(w), diff), rf.ZERO)
