"""End-to-end gate: every layer checked together on the shipped data.

All equalities are exact (ratfield.eq through the suites); nothing here
carries a tolerance.  The two shipped configurations plus the
three-dimensional rank-one module cover rank one and rank two.
"""

import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtknot import cli
from vtknot import configio as cio
from vtknot import freealg as fa
from vtknot import linalg as la
from vtknot import modules as mo
from vtknot import pairing as pr
from vtknot import ratfield as rf
from vtknot import suites as su
from vtknot import tangle as tg

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"

SL2 = cio.load_config(str(CONFIGS / "sl2.cfg"))
SL3 = cio.load_config(str(CONFIGS / "sl3.cfg"))
RANK1_3DIM = cio.RunConfig(SL2.spec, mo.rank1_simple(2), "lex")


def _assert_suite(name, cfg, depth=4):
    failed = [cname for cname, ok in su.run_suite(name, cfg, depth) if not ok]
    assert not failed, failed


# ------------------------------------------------- free algebra and pairing


def test_free_algebra_identities_hold():
    _assert_suite("forms", SL2)
    _assert_suite("forms", SL3)


def test_pairing_identities_hold():
    _assert_suite("pairing", SL2)
    _assert_suite("pairing", SL3)


def test_braid_relator_drops_gram_rank():
    # at 2a1 + a2 the three words span a plane, not all of the weight space
    gram, _ = pr.gram(SL3.spec, (2, 1), fa.words_of_degree((2, 1)))
    assert len(gram) == 3
    assert la.rank(gram) == 2


# ------------------------------------------------------------ quasi R and R


def test_quasi_r_identities_hold():
    _assert_suite("quasiR", RANK1_3DIM)
    _assert_suite("quasiR", SL3)


def test_crossing_identities_hold():
    _assert_suite("rmatrix", SL2)
    _assert_suite("rmatrix", RANK1_3DIM)
    _assert_suite("rmatrix", SL3)


def test_braid_relation_on_every_module_triple():
    two = mo.rank1_simple(1)
    three = mo.rank1_simple(2)
    for a in (two, three):
        for b in (two, three):
            for c in (two, three):
                assert su.ybe_holds(a, b, c)
    nat = SL3.module
    assert su.ybe_holds(nat, nat, nat)


# ------------------------------------------------------------ tangle moves


def test_tangle_moves_hold():
    _assert_suite("tangle-relations", SL2)
    _assert_suite("tangle-relations", SL3)


def _random_row(rng, boundary, maxw):
    row = []
    out = []
    i = 0
    n = len(boundary)
    while i < n or not row:
        room = len(out) + (n - i) + 2 <= maxw
        if (room and rng.random() < 0.25) or (i >= n and not row):
            g = rng.choice(("coev", "coqtr"))
            row.append(g)
            out.extend(tg.BOUNDARY[g][1])
            if i >= n:
                break
            continue
        if i >= n:
            break
        pair = tuple(boundary[i:i + 2])
        choices = ["up" if boundary[i] == "+" else "dn"]
        if pair == ("-", "+"):
            choices.append("ev")
        if pair == ("+", "-"):
            choices.append("qtr")
        if pair == ("+", "+"):
            choices.extend(("xp", "xm"))
        g = rng.choice(choices)
        row.append(g)
        src, tgt = tg.BOUNDARY[g]
        i += len(src)
        out.extend(tgt)
    return tuple(row), tuple(out)


def _random_word(rng, source, maxw):
    rows = []
    boundary = tuple(source)
    for _ in range(rng.randint(1, 4)):
        row, boundary = _random_row(rng, boundary, maxw)
        rows.append(row)
    return tg.word(rows)


def _random_source(rng, maxw):
    return tuple(rng.choice("+-") for _ in range(rng.randrange(maxw - 1)))


def _strictness_holds(rng, m, maxw, count):
    # composition against a fresh partner, tensor against the previous word
    prev = None
    for _ in range(count):
        b = _random_word(rng, _random_source(rng, maxw), maxw)
        a = _random_word(rng, b.target, maxw)
        tb = tg.functor_T(b, m)
        got = tg.functor_T(tg.compose(a, b), m)
        if not la.mat_eq(got, la.mat_mul(tg.functor_T(a, m), tb)):
            return False
        if prev is not None:
            pw, pm = prev
            pair = tg.functor_T(tg.tensorw(pw, b), m)
            if not la.mat_eq(pair, la.kron(pm, tb)):
                return False
        prev = (b, tb)
    return True


def test_functor_is_strict_on_random_words():
    rng = random.Random(97)
    assert _strictness_holds(rng, SL2.module, 4, 50)
    assert _strictness_holds(rng, SL3.module, 3, 50)


# ------------------------------------------------------------- invariants


def _t_free_laurent(val):
    p = rf.reduce_poly(val)
    return len(p.den.terms) == 1 and all(e.t_exp == 0 for e, _ in p.num.fraction_terms())


def test_unknot_and_single_crossings_agree():
    m = SL2.module
    want = tg.invariant("unknot", m)
    assert rf.eq(want, rf.parse("v + v^-1"))
    assert rf.eq(tg.invariant(tg.parse("xp"), m), want)
    assert rf.eq(tg.invariant(tg.parse("xm"), m), want)


def test_trefoil_detects_chirality():
    m = SL2.module
    tref = tg.invariant("trefoil", m)
    mirror = tg.invariant(tg.parse("xm ; xm ; xm"), m)
    assert not rf.eq(tref, rf.parse("v + v^-1"))
    assert rf.eq(mirror, rf.bar(tref))
    assert not rf.eq(mirror, tref)


def test_figure_eight_is_amphichiral():
    val = tg.invariant("figure8", SL2.module)
    assert rf.eq(val, rf.bar(val))


def test_rank_one_invariants_carry_no_t():
    for name in sorted(tg.BUILTINS):
        assert _t_free_laurent(tg.invariant(name, SL2.module)), name


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), st.sampled_from(("xp", "xm"))),
                min_size=1, max_size=6))
def test_sl3_braid_closures_are_t_free(letters):
    # the sl3 crossing carries t^(+-1/3), but only as a diagonal twist of its
    # t = 1 value, so closures do not see t (Reshetikhin's twist theorem)
    rows = [("up",) * k + (g,) + ("up",) * (1 - k) for k, g in letters]
    assert _t_free_laurent(tg.invariant(tg.word(rows), SL3.module))


# ------------------------------------------------------- quadratic relation


def _monomial_roots(alpha, beta):
    roots = []
    for sign in (1, -1):
        for num in range(-8, 9):
            r = rf.mono(sign, Fraction(num, 2), 0)
            if rf.eq(r * r, alpha * r + beta):
                roots.append(r)
    return roots


def test_normalized_crossing_has_quadratic_minimal_polynomial():
    m = SL2.module
    b = tg.functor_T(tg.parse("xp"), m)
    rel = su.annihilator(b, 2)
    assert rel is not None
    beta, alpha = rel  # b^2 = beta + alpha b
    scalar = la.mat_scale(la.identity(b.rows), b[0, 0])
    assert not la.mat_eq(b, scalar)  # degree exactly two
    roots = _monomial_roots(alpha, beta)
    print(
        "minimal polynomial: x^2 - (%s) x - (%s); roots: %s"
        % (
            rf.render(rf.reduce_poly(alpha)),
            rf.render(rf.reduce_poly(beta)),
            ", ".join(rf.render(r) for r in roots) or "not monomial",
        )
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_crossing_annihilator_has_the_casimir_eigenvalues(n):
    # on the (n+1)-dimensional simple the normalized crossing has one
    # eigenvalue per summand of the tensor square, (-1)^k v^(n + k(2n+1-k))
    # for k = 0..n (the sl2 Casimir values of Kirby-Melvin 1991, v = q^-1),
    # so its least annihilator is the product of the (x - root)
    m = mo.rank1_simple(n)
    coeffs = su.annihilator(tg.functor_T(tg.parse("xp"), m), n + 1)
    assert coeffs is not None and len(coeffs) == n + 1
    poly = [rf.ONE]  # coefficients of prod (x - root), lowest degree first
    for k in range(n + 1):
        root = rf.mono((-1) ** k, n + k * (2 * n + 1 - k), 0)
        poly = [a - root * b for a, b in zip([rf.ZERO] + poly, poly + [rf.ZERO])]
    # x^(n+1) = sum_k coeffs[k] x^k
    assert all(rf.eq(c, -p) for c, p in zip(coeffs, poly[:-1]))


# ------------------------------------------------------------- determinism


def test_verify_report_is_byte_identical(capsys):
    argv = ["verify", "--config", str(CONFIGS / "sl2.cfg"), "--suite", "all"]
    first_rc = cli.main(list(argv))
    first = capsys.readouterr()
    second_rc = cli.main(list(argv))
    second = capsys.readouterr()
    assert first_rc == second_rc == 0
    assert first.out == second.out
    assert first.err == second.err
