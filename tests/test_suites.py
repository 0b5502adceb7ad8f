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
    assert su._expands_coproduct(m, mo.tensor(m, m), W, "lex", side)


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
    assert not su._expands_coproduct(m, mm, W, "lex", side)


@pytest.mark.parametrize("side", ["E", "F"])
def test_expansion_rejects_swapped_k_and_k_prime(monkeypatch, side):
    m = SL3.module
    # the tensor module reads act_K too: build it before the swap
    mm = mo.tensor(m, m)
    real = mo.act_K
    monkeypatch.setattr(mo, "act_K", lambda m, mu, vsign=1: real(m, mu, -vsign))
    assert not su._expands_coproduct(m, mm, W, "lex", side)


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


def test_forms_suite_builds_each_coproduct_once(monkeypatch):
    # each word's r(x) is built in suite_forms and handed to the checks that
    # read it; every element reaches the straight coproduct at most once
    real, seen = fa.coproduct_r, []

    def recording(spec, x, vsign=1):
        seen.append((x, vsign))  # keeps x alive, so the ids below stay distinct
        return real(spec, x, vsign)

    monkeypatch.setattr(fa, "coproduct_r", recording)
    assert _failed(su.suite_forms(SL3, 3)) == []
    straight = Counter(id(x) for x, vsign in seen if vsign == 1)
    # _rbar_is_flip takes r-bar once per word, of the element suite_forms built
    rbar = [x for x, vsign in seen if vsign == -1]
    assert len(rbar) == sum(len(fa.words_of_degree(mu)) for mu in ca.degrees_tr_upto(2, 3))
    assert all(straight[id(x)] == 1 for x in rbar)
    assert max(straight.values()) == 1


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
