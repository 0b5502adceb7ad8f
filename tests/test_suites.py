"""The suites' own checks reject altered theta tables, dual bases, mixed
crossings and peeling orders."""

import pathlib

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


# the cached functions themselves, as the tests patch their module attributes
_CROSSING_CACHES = (mo.rmat, mo.rmat_inv, tg._generator)
_PAIRING_CACHES = (pr._phi_num, pr._phi_words)


def _clear(caches):
    for cached in caches:
        cached.cache_clear()


def test_mixed_crossing_check_rejects_a_scaled_mixed_crossing(monkeypatch):
    # a crossing between two different modules, here m and its dual, times v
    real = mo.rmat

    def scaled(a, b):
        x = real(a, b)
        return x if a is b else la.mat_scale(x, V)

    _clear(_CROSSING_CACHES)
    monkeypatch.setattr(mo, "rmat", scaled)
    try:
        failed = _failed(su.suite_rmatrix(SL3, 4))
    finally:
        _clear(_CROSSING_CACHES)
    assert failed == ["mixed crossing matches its cup and cap form"]


def test_peeling_check_rejects_one_wrong_order(monkeypatch):
    real = pr._phi_num

    def wrong(spec, ew, fw, end, side):
        x = real(spec, ew, fw, end, side)
        return x * V.num if (end, side) == ("r", "E") else x

    _clear(_PAIRING_CACHES)
    monkeypatch.setattr(pr, "_phi_num", wrong)
    try:
        failed = _failed(su.suite_pairing(SL3, 3))
    finally:
        _clear(_PAIRING_CACHES)
    assert failed == ["all four peeling orders agree"]
