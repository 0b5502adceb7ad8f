"""Dual-basis selection and the two descriptions of the quasi-R components."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtknot import cartan as ca
from vtknot import configio
from vtknot import freealg as fa
from vtknot import linalg as la
from vtknot import pairing as pr
from vtknot import quasir as qr
from vtknot import ratfield as rf

from conftest import clear_caches
from test_tangle import CONFIGS, _rj_positive_roots

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


def test_basis_error_without_a_nonsingular_principal_block(monkeypatch):
    # on the two words of degree (1, 1) the Gram block becomes [[0, 1], [1, 0]]:
    # full rank, but neither word pairs with itself
    real, pair = pr._phi_num, ((0, 1), (1, 0))

    def antidiagonal(spec, ew, fw, end, side):
        if ew in pair and fw in pair:
            return rf.LP_ZERO if ew == fw else rf.LP_ONE
        return real(spec, ew, fw, end, side)

    clear_caches()
    monkeypatch.setattr(pr, "_phi_num", antidiagonal)
    try:
        with pytest.raises(qr.BasisError, match="reached rank 0 but the degree has rank 2"):
            qr.select_basis(SL3, (1, 1))
    finally:
        clear_caches()


def _all_word_greedy(spec, mu, order):
    """The greedy on every word of the degree: (words, block, den)."""
    words = list(fa.words_of_degree(mu))
    if order == "revlex":
        words.reverse()
    gram, den = pr.gram(spec, mu, words)
    taken, rest, _ = la.principal_pivots(gram, [den] * len(words))
    assert la.rank(rest) == 0
    block = tuple(tuple(gram[a][c] for c in taken) for a in taken)
    return tuple(words[k] for k in taken), block, den


_REFERENCE_DATA = {
    "A2": SL3,
    "B2": ca.make_spec(2, [[4, -2], [-2, 2]], [[2, -2], [0, 1]]),
    "G2": ca.make_spec(2, [[6, -3], [-3, 2]], [[3, -3], [0, 1]]),
    "A3": ca.make_spec(3, [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
                       [[1, -1, 0], [0, 1, -1], [0, 0, 1]]),
    "A1^(1)": ca.make_spec(2, [[2, -2], [-2, 2]], [[1, -2], [0, 1]]),
    "hyperbolic": ca.make_spec(2, [[2, -3], [-3, 2]], [[1, -2], [-1, 1]]),
}


@pytest.mark.parametrize("spec", _REFERENCE_DATA.values(), ids=_REFERENCE_DATA)
def test_candidate_greedy_matches_the_all_word_greedy(spec):
    # the inverse is compared by value and as text up to 7 basis words, which
    # covers every degree of the finite types; past that (the 8- and 10-word
    # blocks at tr 5 of the last two data, seconds per inverse) by the block
    # and den it is computed from
    assert ca.validate(spec) == []
    for order in ("lex", "revlex"):
        for mu in ca.degrees_tr_upto(spec.rank, 5):
            words, block, den = _all_word_greedy(spec, mu, order)
            assert qr.select_basis(spec, mu, order) == words, (mu, order)
            if len(words) > 7:
                assert qr._selection(spec, mu, order)[:3] == (words, block, den)
                continue
            want = la.inverse(block, [den] * len(words))
            table = qr.theta(spec, mu, order)
            got = [[table.get((wa, wc), rf.ZERO) for wc in words] for wa in words]
            for wrow, grow in zip(want, got):
                for w, g in zip(wrow, grow):
                    assert rf.eq(w, g) and rf.render(w) == rf.render(g), (mu, order)


def test_dual_elements_pair_as_indicators():
    for mu in ((1, 1), (2, 1), (1, 2)):
        words = qr.select_basis(SL3, mu)
        for a, wa in enumerate(words):
            dual = qr.dual_element(SL3, mu, a)
            for b, wb in enumerate(words):
                got = pr.phi(SL3, dual, fa.felem(wb))
                assert rf.eq(got, rf.ONE if a == b else rf.ZERO)


def expand(x, mu, side):
    """Coefficients of x, homogeneous of degree mu, over the lex basis of mu.

    side "+": x in the plus part, coefficients against the dual basis,
        so x = sum coeff_a b*_a modulo the radical.
    side "-": x in the minus part, coefficients against the basis words,
        so x = sum coeff_a b_a modulo the radical.
    """
    words, table = qr.select_basis(SL3, mu, "lex"), qr.theta(SL3, mu, "lex")
    if side == "+":
        return {wa: pr.phi(SL3, x, fa.felem(wa)) for wa in words}
    vals = [pr.phi(SL3, fa.felem(wc), x) for wc in words]
    return {
        wa: sum((table.get((wa, wc), rf.ZERO) * val for wc, val in zip(words, vals)), rf.ZERO)
        for wa in words
    }


def test_expand_indicators_and_radical():
    mu = (2, 1)
    words = qr.select_basis(SL3, mu)
    for a, wa in enumerate(words):
        coeffs = expand(fa.felem(wa), mu, "-")
        for b, wb in enumerate(words):
            assert rf.eq(coeffs[wb], rf.ONE if a == b else rf.ZERO)
        dual = qr.dual_element(SL3, mu, a)
        coeffs_plus = expand(dual, mu, "+")
        for b, wb in enumerate(words):
            assert rf.eq(coeffs_plus[wb], rf.ONE if a == b else rf.ZERO)

    se = fa.serre_element(SL3, 0, 1)
    for c in expand(se, mu, "+").values():
        assert rf.eq(c, rf.ZERO)
    sf = fa.serre_element(SL3, 0, 1, "F")
    for c in expand(sf, mu, "-").values():
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
        fa.accumulate(out, draw(st.sampled_from(words)), draw(_scalars))
    return mu, out


@settings(max_examples=25, deadline=None)
@given(homogeneous())
def test_expansion_reconstructs_modulo_radical(case):
    mu, x = case
    if not x:
        return
    coeffs = expand(x, mu, "+")
    diff = {w: -c for w, c in x.items()}
    for a, wa in enumerate(qr.select_basis(SL3, mu)):
        for w, c in qr.dual_element(SL3, mu, a).items():
            fa.accumulate(diff, w, c * coeffs[wa])
    for w in fa.words_of_degree(mu):
        assert rf.eq(pr.phi(SL3, diff, fa.felem(w)), rf.ZERO)


@settings(max_examples=25, deadline=None)
@given(homogeneous())
def test_expansion_reconstructs_minus_side(case):
    mu, y = case
    if not y:
        return
    coeffs = expand(y, mu, "-")
    diff = {w: -c for w, c in y.items()}
    for wa in qr.select_basis(SL3, mu):
        fa.accumulate(diff, wa, coeffs[wa])
    for w in fa.words_of_degree(mu):
        assert rf.eq(pr.phi(SL3, fa.felem(w), diff), rf.ZERO)


def test_theta_inverts_each_gram_block_once(monkeypatch):
    # theta holds the inverse, dual_element reads its rows, theta_bar reads
    # the table and select_basis the selection: one inverse per (degree, order),
    # and one forward elimination, the greedy's, which the inverse takes on
    real, inverted = la.inverse, []
    real_forward, eliminated = la._forward, []

    def counting(a, dens, forward=None):
        inverted.append(a)
        return real(a, dens, forward)

    def counting_forward(a, dens):
        eliminated.append(a)
        return real_forward(a, dens)

    pairs = [(mu, order) for order in ("lex", "revlex") for mu in ca.degrees_tr_upto(2, 4)]
    clear_caches()
    monkeypatch.setattr(la, "inverse", counting)
    monkeypatch.setattr(la, "_forward", counting_forward)
    try:
        for mu, order in pairs:
            words = qr.select_basis(SL3, mu, order)
            assert words, (mu, order)
            for a in range(len(words)):
                qr.dual_element(SL3, mu, a, order)
            qr.theta_bar(SL3, mu, order)
            qr.theta(SL3, mu, order)
            qr.dual_element(SL3, mu, 0, order)
        blocks = [qr._selection(SL3, mu, order)[1] for mu, order in pairs]
        # a degree of one candidate word packs nothing
        packed = sum(qr._selection(SL3, mu, order)[3] is not None for mu, order in pairs)
    finally:
        clear_caches()
    assert len(inverted) == len(pairs)
    assert all(any(a is b for a in inverted) for b in blocks)
    assert packed and len(eliminated) == packed


@pytest.mark.parametrize("order", ["lex", "revlex"])
def test_dual_element_is_a_row_of_theta(order):
    for mu in ca.degrees_tr_upto(2, 4):
        words, block, den, _ = qr._selection(SL3, mu, order)
        inv = la.inverse(block, [den] * len(words))
        table = qr.theta(SL3, mu, order)
        for a, wa in enumerate(words):
            got = list(qr.dual_element(SL3, mu, a, order).items())
            row = [(wc, c) for (wb, wc), c in table.items() if wb == wa]
            want = [(wc, c) for wc, c in zip(words, inv[a]) if not c.is_zero()]
            assert [w for w, _ in got] == [w for w, _ in row] == [w for w, _ in want]
            for (_, g), (_, r), (_, w) in zip(got, row, want):
                assert g is r and rf.eq(g, w) and rf.render(g) == rf.render(w)


# ------------------------------------------------- Kostant's partition function
#
# U^+ has a PBW basis of ordered monomials in root vectors, one vector per
# positive root counted with multiplicity, and the greedy basis carries the
# rank of its degree: so degree mu has P(mu) basis words, P the number of
# multisets of positive roots that sum to mu.  The roots come from outside
# the code under test: on finite type they are the positive half of the Weyl
# orbit of the simple roots (the Rosso-Jones oracle's walk), on affine A1^(1)
# they are a_0 + n delta and a_1 + n delta (n >= 0) and n delta (n >= 1), all
# of multiplicity one (Kac, *Infinite-dimensional Lie algebras*, ch. 7).

_KOSTANT_BOUND = 6
_KOSTANT_DATA = {
    "sl3": lambda: SL3,
    "B2": lambda: ca.make_spec(2, [[4, -2], [-2, 2]], [[2, -2], [0, 1]]),
    "G2": lambda: ca.make_spec(2, [[6, -3], [-3, 2]], [[3, -3], [0, 1]]),
    "affine_a1": lambda: configio.load_config(str(CONFIGS / "affine_a1.cfg")).spec,
}


def _positive_roots(name, spec):
    if name != "affine_a1":
        return [tuple(map(int, r)) for r in _rj_positive_roots(spec.dot)]
    ns = range(_KOSTANT_BOUND + 1)
    return [(n + 1, n) for n in ns] + [(n, n + 1) for n in ns] + [(n, n) for n in ns if n]


def _kostant(roots, rank, bound):
    """P on every degree with coordinates up to bound: each root may be
    taken any number of times, so the count runs over the box in
    lexicographic order, which puts nu - r before nu."""
    box = list(itertools.product(range(bound + 1), repeat=rank))
    ways = dict.fromkeys(box, 0)
    ways[(0,) * rank] = 1
    for r in roots:
        for nu in box:
            rest = tuple(x - y for x, y in zip(nu, r))
            if min(rest) >= 0:
                ways[nu] += ways[rest]
    return ways


@pytest.mark.parametrize("name", list(_KOSTANT_DATA))
def test_basis_sizes_are_kostants_partition_function(name):
    spec = _KOSTANT_DATA[name]()
    ways = _kostant(_positive_roots(name, spec), spec.rank, _KOSTANT_BOUND)
    for mu, p in ways.items():
        if sum(mu) <= _KOSTANT_BOUND:
            assert len(qr.select_basis(spec, mu)) == p, mu
