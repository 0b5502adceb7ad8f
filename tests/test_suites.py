"""The suites' own checks reject altered theta tables, dual bases, mixed
crossings and peeling orders."""

import pathlib
from collections import Counter

import pytest

from vtknot import cartan as ca
from vtknot import configio as cio
from vtknot import freealg as fa
from vtknot import linalg as la
from vtknot import modules as mo
from vtknot import pairing as pr
from vtknot import quasir as qr
from vtknot import ratfield as rf
from vtknot import suites as su
from vtknot import tangle as tg

from conftest import clear_caches

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"
SL3 = cio.load_config(str(CONFIGS / "sl3.cfg"))
V = rf.mono(1, 1, 0)
CONJ = "conjugated theta is the coefficientwise conjugate"


def _theta_form(spec, table, x, y):
    """Pair a two-sided word table against probe words (x on E, y on F).

    The per-pair sum the suite computed before its two-step probe, kept as
    the reference the probe must agree with.
    """
    acc = rf.ZERO
    for (fw, ew), c in table.items():
        a = pr.phi(spec, fa.felem(x), fa.felem(fw))
        if a.is_zero():
            continue
        acc = acc + c * a * pr.phi(spec, fa.felem(ew), fa.felem(y))
    return acc


def _per_pair_agree(spec, mu, lhs, rhs):
    words = fa.words_of_degree(mu)
    return all(
        rf.eq(_theta_form(spec, lhs, x, y), _theta_form(spec, rhs, x, y))
        for x in words
        for y in words
    )


def _one_coefficient_times_v(table):
    key = min(table)
    return {**table, key: table[key] * V}


def test_probe_reports_one_wrong_theta_bar_coefficient(monkeypatch):
    real = qr.theta_bar

    def altered(spec, mu, order="lex"):
        table = real(spec, mu, order)
        return _one_coefficient_times_v(table) if mu == (2, 1) else table

    monkeypatch.setattr(qr, "theta_bar", altered)
    report = dict(su.run_suite("quasiR", SL3, 3))
    assert report[CONJ] is False


def test_probe_agrees_with_the_per_pair_sum():
    spec = SL3.spec
    for mu in ca.degrees_tr_upto(spec.rank, 4):
        if ca.tr(mu) == 0:
            continue
        bar_table = {k: rf.bar(c) for k, c in qr.theta(spec, mu).items()}
        cases = (
            (qr.theta_bar(spec, mu), bar_table, True),
            (_one_coefficient_times_v(qr.theta_bar(spec, mu)), bar_table, False),
            (qr.theta(spec, mu, "lex"), qr.theta(spec, mu, "revlex"), True),
        )
        for lhs, rhs, want in cases:
            assert _per_pair_agree(spec, mu, lhs, rhs) is want, mu
            assert su._theta_tables_agree(spec, mu, lhs, rhs) is want, mu
        # the probe's values themselves are the per-pair sums
        words = fa.words_of_degree(mu)
        table = cases[1][0]
        for x, row in zip(words, su._theta_rows(spec, mu, table)):
            for y, got in zip(words, row, strict=True):
                assert rf.eq(got, _theta_form(spec, table, x, y)), (mu, x, y)


W = (0, 1)  # the word E_1 E_2 (F_1 F_2 on side F)


@pytest.mark.parametrize("side", ["E", "F"])
def test_dual_bases_expand_the_coproduct(side):
    m = SL3.module
    assert su._expands_coproduct(m, mo.tensor(m, m), W, "lex", side, {})


# the degree-(1, 1) terms act by F_1 F_2 = 0 on the natural module, so on
# side F scaling that degree's duals changes nothing there
@pytest.mark.parametrize("side", ["E", "F"])
@pytest.mark.parametrize("scaled", [(1, 0), (0, 1)])
def test_expansion_rejects_scaled_dual_elements(monkeypatch, side, scaled):
    m = SL3.module
    mm = mo.tensor(m, m)
    real = qr.dual_element

    def wrong(spec, mu, a, order="lex"):
        x = real(spec, mu, a, order)
        return {w: c * V for w, c in x.items()} if mu == scaled else x

    monkeypatch.setattr(qr, "dual_element", wrong)
    assert not su._expands_coproduct(m, mm, W, "lex", side, {})


@pytest.mark.parametrize("side", ["E", "F"])
def test_expansion_rejects_swapped_k_and_k_prime(monkeypatch, side):
    m = SL3.module
    # the tensor module reads act_K too: build it before the swap
    mm = mo.tensor(m, m)
    real = mo.act_K
    monkeypatch.setattr(mo, "act_K", lambda m, mu, vsign=1: real(m, mu, -vsign))
    assert not su._expands_coproduct(m, mm, W, "lex", side, {})


def _failed(report):
    return [name for name, ok in report if not ok]


def test_mixed_crossing_check_rejects_a_scaled_mixed_crossing(monkeypatch):
    # a crossing between two different modules, here m and its dual, times v
    real = mo.rmat

    def scaled(a, b):
        x = real(a, b)
        return x if a is b else la.mat_scale(x, V)

    clear_caches()
    monkeypatch.setattr(mo, "rmat", scaled)
    try:
        failed = _failed(su.suite_rmatrix(SL3, 4))
    finally:
        clear_caches()
    assert failed == ["mixed crossing matches its cup and cap form"]


def test_peeling_check_rejects_one_wrong_order(monkeypatch):
    real = pr._phi_num

    def wrong(spec, ew, fw, end, side):
        x = real(spec, ew, fw, end, side)
        return x * V.num if (end, side) == ("r", "E") else x

    clear_caches()
    monkeypatch.setattr(pr, "_phi_num", wrong)
    try:
        failed = _failed(su.suite_pairing(SL3, 3))
    finally:
        clear_caches()
    assert failed == ["all four peeling orders agree"]


def test_forms_suite_reads_word_tables_only(monkeypatch):
    # every forms line reads the per-word tables, never their linear extensions
    def refuse(*args, **kwargs):
        raise AssertionError("the forms suite extended a word table to an element")

    for name in ("coproduct_r", "deriv", "sigma"):
        monkeypatch.setattr(fa, name, refuse)
    assert _failed(su.suite_forms(SL3, 3)) == []


def test_gram_symmetry_check_rejects_one_t_asymmetric_entry(monkeypatch):
    # phi(E_0, F_0) times t in every peeling order: the orders still agree,
    # and at depth 1 no other entry is built from it, so only the symmetry fails
    real, t = pr._phi_num, rf.mono(1, 0, 1).num

    def asymmetric(spec, ew, fw, end, side):
        x = real(spec, ew, fw, end, side)
        return x * t if ew == fw == (0,) else x

    assert _failed(su.suite_pairing(SL3, 1)) == []
    clear_caches()
    monkeypatch.setattr(pr, "_phi_num", asymmetric)
    try:
        failed = _failed(su.suite_pairing(SL3, 1))
    finally:
        clear_caches()
    assert failed == ["gram matrices are symmetric up to inverting t"]


SPLIT = "pairing splits products through the coproduct"
COASSOC = "coproduct is coassociative"


def _with(monkeypatch, module, name, fake, run):
    """The failed lines of run() with module.name replaced by fake(real),
    every cache emptied before and after."""
    real = getattr(module, name)
    clear_caches()
    monkeypatch.setattr(module, name, fake(real))
    try:
        return run()
    finally:
        monkeypatch.setattr(module, name, real)
        clear_caches()


def _scale_term(factor):
    """A `_word_coproduct` whose E_0 (x) E_1 term of r(E_0 E_1) is times
    factor; the longer words' coproducts are built from it."""
    def fake(real):
        def scaled(spec, word, vsign):
            x = real(spec, word, vsign)
            if word == (0, 1) and vsign == 1:
                x = {**x, ((0,), (1,)): x[(0,), (1,)] * factor}
            return x
        return scaled
    return fake


def test_split_and_coassociativity_reject_a_scaled_coproduct_term(monkeypatch):
    fake = _scale_term(rf.mono(2))
    assert _with(monkeypatch, fa, "_word_coproduct", fake,
                 lambda: _failed(su.suite_pairing(SL3, 3))) == [SPLIT]
    assert COASSOC in _with(monkeypatch, fa, "_word_coproduct", fake,
                            lambda: _failed(su.suite_forms(SL3, 3)))


def test_split_rejects_a_coproduct_coefficient_that_is_not_laurent(monkeypatch):
    # times 1/2, a den of 2 over the same numerator: the numerator sums
    # alone would agree, so only the Laurent premise catches it.  At depth 2
    # no longer word's coproduct is built from the altered one
    fake = _scale_term(rf.inv(rf.mono(2)))
    assert _with(monkeypatch, fa, "_word_coproduct", fake,
                 lambda: _failed(su.suite_pairing(SL3, 2))) == [SPLIT]


def test_split_rejects_a_den_that_is_not_multiplicative(monkeypatch):
    # each F-word of two or more letters pairs over twice its den; the
    # numerators, and so every other line, do not change
    def fake(real):
        return lambda spec, fw: real(spec, fw) * rf.lp_mono(2) if len(fw) == 2 else real(spec, fw)

    assert _with(monkeypatch, pr, "_phi_den", fake,
                 lambda: _failed(su.suite_pairing(SL3, 3))) == [SPLIT]


def test_expansion_rejects_one_scaled_theta_coefficient(monkeypatch):
    # the dual elements of degree (1, 1) are rows of theta: the memo of
    # (element, action) pairs that the suite's expansions share carries it
    def fake(real):
        def scaled(spec, mu, order="lex"):
            table = real(spec, mu, order)
            return _one_coefficient_times_v(table) if mu == (1, 1) else table
        return scaled

    failed = _with(monkeypatch, qr, "theta", fake, lambda: _failed(su.suite_quasiR(SL3, 3)))
    assert "dual bases expand the coproduct" in failed


def test_form_symmetry_rejects_one_value_times_t(monkeypatch):
    def fake(real):
        def scaled(spec, xw, yw):
            x = real(spec, xw, yw)
            return x * rf.mono(1, 0, 1) if (xw, yw) == ((0, 1), (1, 0)) else x
        return scaled

    assert _with(monkeypatch, pr, "_form_words", fake,
                 lambda: _failed(su.suite_forms(SL3, 3))) == ["bilinear form is symmetric"]


def test_quasiR_suite_builds_each_dual_action_once(monkeypatch):
    # each (side, degree, basis element) action is built once per suite run,
    # however many words' expansions read it
    real, seen = mo.act_elem, []

    def recording(m, x, side):
        seen.append(side)
        return real(m, x, side)

    monkeypatch.setattr(mo, "act_elem", recording)
    assert _failed(su.suite_quasiR(SL3, 3)) == []
    per_side = sum(len(qr.select_basis(SL3.spec, mu)) for mu in ca.degrees_tr_upto(2, 3))
    assert Counter(seen) == {"E": per_side, "F": per_side}


# Each line that reads a per-word table reports a wrong entry of it.  A
# t-power is left alone by the conjugation v -> v^-1, and a pair (a, b) with
# b a palindrome appears in the conjugation line only as (a, b) on both sides.
INVARIANCE = "pairing is invariant under reversal"
CONJ_PAIRING = "conjugate pairing factors through reversal"
FLIP = "conjugated coproduct is the twisted flip"
SLICES = "derivations extract coproduct slices"
REVERSAL = "reversal conjugates the coproduct"
T = rf.mono(1, 0, 1)


def test_invariance_rejects_one_reversed_pair_times_t(monkeypatch):
    # (E_0 E_0 E_1, F_0 F_1 F_0) is the reversal of (E_1 E_0 E_0, F_0 F_1 F_0)
    def fake(real):
        def scaled(spec, ew, fw):
            x = real(spec, ew, fw)
            return x * T if (ew, fw) == ((0, 0, 1), (0, 1, 0)) else x
        return scaled

    assert not pr._phi_words(SL3.spec, (0, 0, 1), (0, 1, 0)).is_zero()
    assert _with(monkeypatch, pr, "_phi_words", fake,
                 lambda: _failed(su.suite_pairing(SL3, 3))) == [INVARIANCE]


def test_conjugation_rejects_a_scale_times_v(monkeypatch):
    def fake(real):
        return lambda spec, mu: real(spec, mu) * V

    assert _with(monkeypatch, qr, "conj_scale", fake,
                 lambda: _failed(su.suite_pairing(SL3, 3))) == [CONJ_PAIRING]


def test_flip_rejects_one_scaled_rbar_term(monkeypatch):
    def fake(real):
        def scaled(spec, word, vsign):
            x = real(spec, word, vsign)
            if word == (0, 1) and vsign == -1:
                x = {**x, ((0,), (1,)): x[(0,), (1,)] * V}
            return x
        return scaled

    assert _with(monkeypatch, fa, "_word_coproduct", fake,
                 lambda: _failed(su.suite_forms(SL3, 3))) == [FLIP]


def test_slices_reject_one_scaled_derivation_coefficient(monkeypatch):
    # the right derivations only: the pairing the form reads peels from the left
    def fake(real):
        def scaled(spec, i, word, end, side):
            x = real(spec, i, word, end, side)
            if (i, word, end, side) == (1, (0, 1), "r", "E"):
                x = {**x, (0,): x[(0,)] * V}
            return x
        return scaled

    assert _with(monkeypatch, fa, "_deriv_word", fake,
                 lambda: _failed(su.suite_forms(SL3, 3))) == [SLICES]


def test_reversal_rejects_one_word_with_a_wrong_t_power(monkeypatch):
    # one word only: t^len(w) on every word would cancel between the sides
    def fake(real):
        def shifted(spec, word, side="E"):
            rev, tw = real(spec, word, side)
            return rev, (tw * T if (word, side) == ((0, 1), "E") else tw)
        return shifted

    assert _with(monkeypatch, fa, "_sigma_word", fake,
                 lambda: _failed(su.suite_forms(SL3, 3))) == [REVERSAL]


# ------------------------------------------- lines that must be able to fail

LADDER = "theta solves the coproduct ladder degree by degree"
THETA_INVERTS = "theta and its conjugate invert each other"
CANCEL = "crossing and its inverse cancel"


def _scaled_at(mu):
    """A theta table maker whose one coefficient of degree mu is times v."""
    def fake(real):
        def scaled(spec, nu, order="lex"):
            table = real(spec, nu, order)
            return _one_coefficient_times_v(table) if nu == mu else table
        return scaled
    return fake


def test_ladder_rejects_one_scaled_theta_coefficient(monkeypatch):
    # degree (1, 0) acts on the natural module; the scaled term keeps the
    # weight, so the E/F slices fail
    failed = _with(monkeypatch, qr, "theta", _scaled_at((1, 0)),
                   lambda: _failed(su.suite_quasiR(SL3, 2)))
    assert LADDER in failed


def test_ladder_rejects_an_operator_off_the_weight_grading(monkeypatch):
    # E and F act by zero, so every E/F slice holds whatever theta is; an
    # operator that swaps the weights 1/2 and -1/2 on slot 1 fails K (x) K
    zero = (la.Matrix(2, 2),)
    m = mo.make_module(mo.RANK1, ("a", "b"), ((1,), (-1,)), zero, zero, 2)
    assert su._ladder_holds(m, 0, "lex", [(1,)])
    swap = la.kron(la.Matrix(2, 2, {0: {1: rf.ONE}, 1: {0: rf.ONE}}), 2)
    monkeypatch.setattr(mo, "_theta_op", lambda mods, s, l, table, order, degrees:
                        swap if degrees == [(1,)] else la.Matrix(4, 4))
    assert not su._ladder_holds(m, 0, "lex", [(1,)])


def test_theta_inverse_line_rejects_one_scaled_conjugate_coefficient(monkeypatch):
    failed = _with(monkeypatch, qr, "theta_bar", _scaled_at((1, 0)),
                   lambda: _failed(su.suite_quasiR(SL3, 2)))
    assert THETA_INVERTS in failed


def test_crossing_inverse_line_rejects_one_scaled_entry(monkeypatch):
    def fake(real):
        def scaled(a, b):
            x = real(a, b)
            rows = {r: dict(row) for r, row in x.entries.items()}
            r = min(rows)
            c = min(rows[r])
            rows[r][c] = rows[r][c] * V
            return la.Matrix(x.rows, x.cols, rows)
        return scaled

    failed = _with(monkeypatch, mo, "rmat_inv", fake, lambda: _failed(su.suite_rmatrix(SL3, 4)))
    assert CANCEL in failed


def test_annihilator_is_none_below_the_least_degree():
    # the normalized sl2 crossing satisfies a quadratic and no linear relation
    m = cio.load_config(str(CONFIGS / "sl2.cfg")).module
    x = tg.functor_T(tg.parse("xp"), m)
    assert su.annihilator(x, 1) is None
    assert len(su.annihilator(x, 2)) == 2


def test_tangles_with_different_boundaries_are_not_equal():
    # up and dn both evaluate to the 2x2 identity on sl2
    m = cio.load_config(str(CONFIGS / "sl2.cfg")).module
    up, dn = tg.parse("up"), tg.parse("dn")
    assert la.mat_eq(tg.functor_T(up, m), tg.functor_T(dn, m))
    assert not su.tangles_equal(up, dn, m)
    assert su.tangles_equal(up, up, m)
