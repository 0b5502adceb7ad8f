"""Skew pairing of the two halves: base cases, peeling orders, radicals."""

import math
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtknot import cartan as ca
from vtknot import configio
from vtknot import freealg as fa
from vtknot import linalg as la
from vtknot import pairing as pr
from vtknot import ratfield as rf

SL2 = ca.make_spec(1, [[2]], [[1]])
SL3 = ca.make_spec(2, [[2, -1], [-1, 2]], [[1, -1], [0, 1]])
B2 = ca.make_spec(2, [[4, -2], [-2, 2]], [[2, -2], [0, 1]])
CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
BENCH_CONFIGS = CONFIGS.parent / "bench" / "configs"


def test_generator_pairing():
    for spec in (SL3, B2):
        for i in range(2):
            for j in range(2):
                got = pr.phi(spec, fa.felem((i,)), fa.felem((j,)))
                if i != j:
                    assert rf.eq(got, rf.ZERO)
                else:
                    d = spec.omega[i][i]
                    want = rf.inv(rf.mono(1, -d) - rf.mono(1, d))
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
    g11, _ = pr.gram(SL3, (1, 1), fa.words_of_degree((1, 1)))
    assert len(g11) == 2 and la.rank(g11) == 2
    g21, _ = pr.gram(SL3, (2, 1), fa.words_of_degree((2, 1)))
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
    # the conjugated pairing of two words is the bar of phi: v -> v^-1 fixes a word
    got = rf.bar(pr.phi(SL2, fa.felem((0,)), fa.felem((0,))))
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


# each of pairing._phi_num's other peeling orders against its RatFunc reference
_REFERENCE_ORDERS = (
    (("r", "F"), _phi_f_right),
    (("l", "E"), _phi_e_first),
    (("r", "E"), _phi_e_last),
)


@settings(max_examples=40, deadline=None)
@given(word_pairs())
def test_all_four_peeling_orders_agree(pair):
    ew, fw = pair
    want = pr.phi(SL3, fa.felem(ew), fa.felem(fw))
    for (end, side), reference in _REFERENCE_ORDERS:
        ref = reference(ew, fw)
        assert rf.eq(ref, want)
        got = rf.RatFunc(pr._phi_num(SL3, ew, fw, end, side), pr._phi_den(SL3, fw))
        assert rf.eq(got, ref), (end, side)


@settings(max_examples=40, deadline=None)
@given(word_pairs())
def test_sigma_invariance(pair):
    ew, fw = pair
    lhs = pr.phi(SL3, fa.felem(ew), fa.felem(fw))
    rhs = pr.phi(
        SL3, fa.sigma(SL3, fa.felem(ew)), fa.sigma(SL3, fa.felem(fw), "F")
    )
    assert rf.eq(lhs, rhs)


@settings(max_examples=40, deadline=None)
@given(word_pairs())
def test_phibar_reduces_to_phi_with_sigma(pair):
    ew, fw = pair
    nu = fa.deg(SL3, ew)
    lhs = rf.bar(pr.phi(SL3, fa.felem(ew), fa.felem(fw)))
    scale = rf.mono(
        (-1) ** ca.tr(nu),
        -Fraction(ca.dot(SL3, nu, nu), 2) + sum(n * SL3.omega[i][i] for i, n in enumerate(nu)),
        0,
    )
    rhs = scale * pr.phi(SL3, fa.felem(ew), fa.sigma(SL3, fa.felem(fw), "F"))
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


# ------------------------------------------------- numerators over one den


def _phi_reference(spec, ew, fw, memo):
    """The RatFunc peeling recursion, multiplying out the den at every step."""
    if (ew, fw) not in memo:
        if fa.deg(spec, ew) != fa.deg(spec, fw):
            val = rf.ZERO
        elif not fw:
            val = rf.ONE
        else:
            i, d = fw[0], spec.omega[fw[0]][fw[0]]
            acc = rf.ZERO
            for w, c in fa.deriv(spec, i, fa.felem(ew), "l").items():
                acc = acc + c * _phi_reference(spec, w, fw[1:], memo)
            val = rf.inv(rf.mono(1, -d, 0) - rf.mono(1, d, 0)) * acc
        memo[ew, fw] = val
    return memo[ew, fw]


@pytest.mark.parametrize("spec, depth", [(SL3, 4), (SL2, 8)], ids=["sl3", "rank1"])
def test_phi_words_keep_the_reference_num_and_den(spec, depth):
    memo = {}
    for n in range(depth + 1):
        # every pair of words of one length, so mismatched degrees too
        words = [w for mu in ca.degrees_of_tr(spec.rank, n) for w in fa.words_of_degree(mu)]
        for ew in words:
            for fw in words:
                got, want = pr._phi_words(spec, ew, fw), _phi_reference(spec, ew, fw, memo)
                assert (got.num, got.den) == (want.num, want.den)
                assert (got.den is rf.LP_ONE) == (want.den is rf.LP_ONE)


# ------------------------------------------------ the form off the pairing


def _form_reference(spec, xw, yw, memo):
    """The form's own recursion: peel the first letter of yw, derive xw."""
    if (xw, yw) not in memo:
        if fa.deg(spec, xw) != fa.deg(spec, yw):
            val = rf.ZERO
        elif not yw:
            val = rf.ONE
        else:
            i, rest = yw[0], yw[1:]
            d = spec.omega[i][i]
            scale = rf.inv(rf.ONE - rf.mono(1, -2 * d, 0))
            tfac = rf.mono(1, 0, 2 * ca.bracket(spec, ca.unit(spec, i), fa.deg(spec, rest)))
            acc = rf.ZERO
            for w, c in fa.deriv(spec, i, fa.felem(xw), "l").items():
                acc = acc + c * _form_reference(spec, w, rest, memo)
            val = scale * tfac * acc
        memo[xw, yw] = val
    return memo[xw, yw]


@pytest.mark.parametrize(
    "path, depth",
    [(CONFIGS / "sl2.cfg", 8), (BENCH_CONFIGS / "rank1_2.cfg", 8), (CONFIGS / "sl3.cfg", 4)],
    ids=["sl2", "rank1_2", "sl3"],
)
def test_form_is_the_pairing_times_a_monomial(path, depth):
    spec = configio.load_config(str(path)).spec
    words = [w for mu in ca.degrees_tr_upto(spec.rank, depth) for w in fa.words_of_degree(mu)]
    memo = {}
    for xw in words:
        for yw in words:
            got = pr.form(spec, fa.felem(xw), fa.felem(yw))
            assert rf.eq(got, _form_reference(spec, xw, yw, memo)), (xw, yw)


# ------------------------------------------- Gram blocks are t-Hermitian


@st.composite
def admissible_specs(draw):
    """Random admissible Cartan data of ranks 1 to 3.

    Each (omega[i][j] + omega[j][i]) is a nonpositive multiple of
    lcm(omega[i][i], omega[j][j]), split at random between the two entries.
    """
    n = draw(st.integers(1, 3))
    diag = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n).filter(
        lambda d: math.gcd(*d) == 1))
    omega = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            s = draw(st.integers(0, 2)) * math.lcm(diag[i], diag[j])
            a = draw(st.integers(0, s))
            omega[i][j], omega[j][i] = -a, a - s
    dot = [[omega[i][j] + omega[j][i] for j in range(n)] for i in range(n)]
    spec = ca.make_spec(n, dot, omega)
    assert ca.validate(spec) == []
    return spec


def _t_hermitian(rows):
    """Whether rows[j][i] is rows[i][j] with t -> t^-1, structurally, for all i, j."""
    n = len(rows)
    return all(rows[j][i] == rf._flip_poly(rows[i][j], 1, -1)
               for i in range(n) for j in range(i, n))


@settings(max_examples=40, deadline=None)
@given(admissible_specs())
def test_gram_blocks_are_structurally_t_hermitian(spec):
    # the precondition of linalg.principal_pivots, read off the
    # ("r", "F") order: gram's ("l", "F") order flips its lower triangle
    for mu in ca.degrees_tr_upto(spec.rank, 3):
        words = fa.words_of_degree(mu)
        rows, den = pr.gram(spec, mu, words)
        right = [[pr._phi_num(spec, ew, fw, "r", "F") for fw in words] for ew in words]
        n = len(rows)
        for r in range(n):
            for c in range(n):
                # every entry of the degree is its numerator over the one den
                got = rf.RatFunc(rows[r][c], den)
                want = pr._phi_words(spec, words[r], words[c])
                assert (got.num, got.den) == (want.num, want.den)
                flipped = rf.bar_t(rf.RatFunc(right[r][c], den))
                mirror = rf.RatFunc(right[c][r], den)
                assert (mirror.num, mirror.den) == (flipped.num, flipped.den)
        assert _t_hermitian(right)
        assert right == rows


@settings(max_examples=25, deadline=None)
@given(admissible_specs())
def test_flipped_numerators_match_an_unflipped_recursion(spec):
    # ("l", "F") takes each entry below a Gram block's diagonal as the flip
    # of its mirror; ("r", "E") peels the other word from the other end
    for mu in ca.degrees_tr_upto(spec.rank, 4):
        words = fa.words_of_degree(mu)
        for ew in words:
            for fw in words:
                assert (pr._phi_num(spec, ew, fw, "l", "F")
                        == pr._phi_num(spec, ew, fw, "r", "E")), (mu, ew, fw)
