"""Skew pairing of the two halves: base cases, peeling orders, radicals."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from vtknot import cartan as ca
from vtknot import freealg as fa
from vtknot import linalg as la
from vtknot import pairing as pr
from vtknot import ratfield as rf

SL2 = ca.make_spec(1, [[2]], [[1]])
SL3 = ca.make_spec(2, [[2, -1], [-1, 2]], [[1, -1], [0, 1]])
B2 = ca.make_spec(2, [[4, -2], [-2, 2]], [[2, -2], [0, 1]])


def test_generator_pairing():
    for spec in (SL3, B2):
        for i in range(2):
            for j in range(2):
                got = pr.phi(spec, fa.felem((i,)), fa.felem((j,)))
                if i != j:
                    assert rf.eq(got, rf.ZERO)
                else:
                    d = spec.omega[i][i]
                    want = rf.inv(rf.v_pow(-d) - rf.v_pow(d))
                    assert rf.eq(got, want)


def test_two_letter_rank_one():
    got = pr.phi(SL2, fa.felem((0, 0)), fa.felem((0, 0)))
    want = rf.parse("(1 + v^2) / (v^-1 - v)^2")
    assert rf.eq(got, want)


def test_rank_one_gram_product_formula():
    scale = rf.inv(rf.parse("v^-1 - v"))
    want = rf.ONE
    for k in range(1, 5):
        want = want * scale * rf.parse(" + ".join(f"v^{2 * m}" for m in range(k)))
        got = pr.phi(SL2, fa.felem((0,) * k), fa.felem((0,) * k))
        assert rf.eq(got, want)


def test_gram_ranks_rank_two():
    g11 = pr.gram(SL3, (1, 1))
    assert len(g11) == 2 and la.rank(g11) == 2
    g21 = pr.gram(SL3, (2, 1))
    assert len(g21) == 3 and la.rank(g21) == 2


def test_serre_relators_are_radical():
    for i, j in ((0, 1), (1, 0)):
        mu = fa.deg(SL3, next(iter(fa.serre_element(SL3, i, j))))
        se = fa.serre_element(SL3, i, j)
        sf = fa.serre_element(SL3, i, j, "F")
        for w in fa.words_of_degree(mu):
            assert rf.eq(pr.phi(SL3, se, fa.felem(w)), rf.ZERO)
            assert rf.eq(pr.phi(SL3, fa.felem(w), sf), rf.ZERO)


def test_phibar_generator():
    got = pr.phibar(SL2, fa.felem((0,)), fa.felem((0,)))
    assert rf.eq(got, rf.inv(rf.parse("v - v^-1")))


_mu = st.tuples(st.integers(0, 2), st.integers(0, 2))


@st.composite
def word_pairs(draw):
    mu = draw(_mu)
    words = fa.words_of_degree(mu)
    return draw(st.sampled_from(words)), draw(st.sampled_from(words))


def _phi_f_right(ew, fw):
    # (x, y F_i) = (v_i^-1 - v_i)^-1 (deriv(i, x, "r"), y)
    if not fw:
        return rf.ONE if not ew else rf.ZERO
    i, rest = fw[-1], fw[:-1]
    acc = rf.ZERO
    for w, c in fa.deriv(SL3, i, fa.felem(ew), "r").items():
        acc = acc + c * _phi_f_right(w, rest)
    return pr._peel_scale(SL3, i) * acc


def _phi_e_first(ew, fw):
    # (E_i x, y) = (v_i^-1 - v_i)^-1 (x, deriv(i, y, "l", "F"))
    if not ew:
        return rf.ONE if not fw else rf.ZERO
    i, rest = ew[0], ew[1:]
    acc = rf.ZERO
    for w, c in fa.deriv(SL3, i, fa.felem(fw), "l", "F").items():
        acc = acc + c * _phi_e_first(rest, w)
    return pr._peel_scale(SL3, i) * acc


def _phi_e_last(ew, fw):
    # (x E_i, y) = (v_i^-1 - v_i)^-1 (x, deriv(i, y, "r", "F"))
    if not ew:
        return rf.ONE if not fw else rf.ZERO
    i, rest = ew[-1], ew[:-1]
    acc = rf.ZERO
    for w, c in fa.deriv(SL3, i, fa.felem(fw), "r", "F").items():
        acc = acc + c * _phi_e_last(rest, w)
    return pr._peel_scale(SL3, i) * acc


@settings(max_examples=40, deadline=None)
@given(word_pairs())
def test_all_four_peeling_orders_agree(pair):
    ew, fw = pair
    want = pr.phi(SL3, fa.felem(ew), fa.felem(fw))
    assert rf.eq(_phi_f_right(ew, fw), want)
    assert rf.eq(_phi_e_first(ew, fw), want)
    assert rf.eq(_phi_e_last(ew, fw), want)


@settings(max_examples=40, deadline=None)
@given(word_pairs())
def test_sigma_invariance(pair):
    ew, fw = pair
    lhs = pr.phi(SL3, fa.felem(ew), fa.felem(fw))
    rhs = pr.phi(
        SL3, fa.sigma(SL3, fa.felem(ew)), pr.sigma_minus(SL3, fa.felem(fw))
    )
    assert rf.eq(lhs, rhs)


@settings(max_examples=40, deadline=None)
@given(word_pairs())
def test_phibar_reduces_to_phi_with_sigma(pair):
    ew, fw = pair
    nu = fa.deg(SL3, ew)
    lhs = pr.phibar(SL3, fa.felem(ew), fa.felem(fw))
    scale = rf.mono(
        (-1) ** ca.tr(nu),
        -Fraction(ca.dot(SL3, nu, nu), 2) + sum(n * SL3.omega[i][i] for i, n in enumerate(nu)),
        0,
    )
    rhs = scale * pr.phi(SL3, fa.felem(ew), pr.sigma_minus(SL3, fa.felem(fw)))
    assert rf.eq(lhs, rhs)


@st.composite
def split_triples(draw):
    mu = draw(_mu)
    words = fa.words_of_degree(mu)
    ew = draw(st.sampled_from(words))
    y = draw(st.lists(st.integers(0, 1), max_size=2).map(tuple))
    z = draw(st.lists(st.integers(0, 1), max_size=2).map(tuple))
    return ew, y, z


@settings(max_examples=40, deadline=None)
@given(split_triples())
def test_pairing_splits_products_through_coproduct(triple):
    # (x, y z) = sum (x1, y)(x2, z) over r(x) = sum x1 (x) x2
    ew, y, z = triple
    lhs = pr.phi(SL3, fa.felem(ew), fa.felem(y + z))
    rhs = rf.ZERO
    for (x1, x2), c in fa.coproduct_r(SL3, fa.felem(ew)).items():
        a = pr.phi(SL3, fa.felem(x1), fa.felem(y))
        if a.is_zero():
            continue
        b = pr.phi(SL3, fa.felem(x2), fa.felem(z))
        rhs = rhs + c * a * b
    assert rf.eq(lhs, rhs)
