"""Weight modules: actions, duals, evaluation maps, and the crossing matrix."""

from fractions import Fraction

import pathlib

import pytest

from vtknot import cartan as ca
from vtknot import configio as cio
from vtknot import linalg as la
from vtknot import modules as mo
from vtknot import ratfield as rf
from vtknot import tangle as tg

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"

SL3 = ca.make_spec(2, [[2, -1], [-1, 2]], [[1, -1], [0, 1]])

M1 = mo.rank1_simple(1)
M2 = mo.rank1_simple(2)


def sl3_natural():
    dim = 3
    e1 = la.zeros(dim, dim)
    e2 = la.zeros(dim, dim)
    f1 = la.zeros(dim, dim)
    f2 = la.zeros(dim, dim)
    e1[0][1] = rf.ONE
    e2[1][2] = rf.ONE
    f1[1][0] = rf.parse("t^(1/3)")
    f2[2][1] = rf.parse("t^(1/3)")
    return mo.make_module(
        SL3,
        ["x1", "x2", "x3"],
        [("2/3", "1/3"), ("-1/3", "1/3"), ("-1/3", "-2/3")],
        [e1, e2],
        [f1, f2],
    )


def test_rank1_simple_structure():
    assert M1.labels == ("w0", "w1")
    assert M1.weights == ((Fraction(1, 2),), (Fraction(-1, 2),))
    assert rf.eq(M1.act_E[0][0][1], rf.ONE)
    assert rf.eq(M1.act_F[0][1][0], rf.ONE)
    # string coefficients a_k = [k][n-k+1]
    assert rf.eq(M2.act_E[0][0][1], rf.parse("v + v^-1"))
    assert rf.eq(M2.act_E[0][1][2], rf.parse("v + v^-1"))
    assert mo.validate_module(M1) == []
    assert mo.validate_module(M2) == []


def test_validate_module_reports_failures():
    bad = mo.make_module(M1.spec, M1.labels, M1.weights, M1.act_F, M1.act_E)
    fails = mo.validate_module(bad)
    assert "E_1 breaks the weight grading at entry (2, 1)" in fails
    assert "F_1 breaks the weight grading at entry (1, 2)" in fails
    assert "commutator of E_1 with F_1 is wrong" in fails


def test_k_actions_are_brace_eigenvalues():
    got = mo.act_K(M1, (1,))
    assert rf.eq(got[0][0], rf.parse("v"))
    assert rf.eq(got[1][1], rf.parse("v^-1"))
    assert rf.eq(got[0][1], rf.ZERO)
    nat = sl3_natural()
    a1 = ca.unit(SL3, 0)
    for k in range(nat.dim):
        assert rf.eq(mo.act_K(nat, a1)[k][k], ca.brace(SL3, a1, nat.weights[k]))
        assert rf.eq(
            mo.act_Kp(nat, a1)[k][k], rf.bar(ca.brace(SL3, a1, nat.weights[k]))
        )


def test_commutator_matches_kappa():
    for m in (M2, sl3_natural()):
        spec = m.spec
        for i in range(spec.rank):
            comm = la.mat_sub(
                la.mat_mul(m.act_E[i], m.act_F[i]),
                la.mat_mul(m.act_F[i], m.act_E[i]),
            )
            for k in range(m.dim):
                assert rf.eq(comm[k][k], mo.kappa(spec, i, m.weights[k]))


def test_qdim_oracles():
    assert rf.eq(mo.qdim(M1), rf.parse("v + v^-1"))
    assert rf.eq(mo.qdim(M2), rf.parse("v^2 + 1 + v^-2"))
    assert rf.eq(mo.qdim(mo.trivial(M1.spec)), rf.ONE)
    assert rf.eq(mo.qdim(sl3_natural()), rf.parse("v^2 + 1 + v^-2"))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_rank1_qdim_is_quantum_count(n):
    m = mo.rank1_simple(n)
    want = rf.ZERO
    for k in range(n + 1):
        want = want + rf.mono(1, n - 2 * k, 0)
    assert rf.eq(mo.qdim(m), want)
    assert mo.validate_module(m) == []


def test_tensor_and_dual_bookkeeping():
    mm = mo.tensor(M1, M2)
    assert mm.dim == 6
    assert mm.labels[1] == "(w0,w1)"
    assert mm.weights[0] == ca.weight_add(M1.weights[0], M2.weights[0])
    d = mo.dual(M1)
    assert d.labels == ("w0*", "w1*")
    assert d.weights == ((Fraction(-1, 2),), (Fraction(1, 2),))
    assert mo.validate_module(mm) == []
    assert mo.validate_module(d) == []


def test_four_maps_are_module_maps():
    for m in (M1, M2, sl3_natural()):
        d = mo.dual(m)
        triv = mo.trivial(m.spec)
        assert mo.is_module_map(mo.tensor(d, m), triv, mo.ev_map(m))
        assert mo.is_module_map(mo.tensor(m, d), triv, mo.qtr_map(m))
        assert mo.is_module_map(triv, mo.tensor(d, m), mo.coev_map(m))
        assert mo.is_module_map(triv, mo.tensor(m, d), mo.coqtr_map(m))


def test_quantum_trace_of_coquantum_trace_is_qdim():
    for m in (M1, M2, sl3_natural()):
        loop = la.mat_mul(mo.qtr_map(m), mo.coqtr_map(m))
        assert rf.eq(loop[0][0], mo.qdim(m))


def test_crossing_oracles_rank1():
    r = mo.rmat(M1, M1)
    assert rf.eq(r[0][0], rf.mono(1, Fraction(-1, 2), 0))
    for k in range(1, 4):
        assert rf.eq(r[k][0], rf.ZERO)
    # normalized crossing satisfies T^2 = (v - v^3) T + v^4
    t = la.mat_scale(r, rf.mono(1, Fraction(3, 2), 0))
    lhs = la.mat_mul(t, t)
    rhs = la.mat_add(
        la.mat_scale(t, rf.parse("v - v^3")),
        la.mat_scale(la.identity(4), rf.parse("v^4")),
    )
    assert la.mat_eq(lhs, rhs)


def test_crossing_is_invertible_module_map():
    for m in (M2, sl3_natural()):
        mm = mo.tensor(m, m)
        r = mo.rmat(m, m)
        rinv = mo.rmat_inv(m, m)
        ident = la.identity(mm.dim)
        assert la.mat_eq(la.mat_mul(r, rinv), ident)
        assert la.mat_eq(la.mat_mul(rinv, r), ident)
        assert mo.is_module_map(mm, mm, r)


def test_theta_conjugate_inverts_on_modules():
    for m in (M2, sl3_natural()):
        ident = la.identity(m.dim * m.dim)
        th = mo.theta_mat(m, m)
        tb = mo.theta_bar_mat(m, m)
        assert la.mat_eq(la.mat_mul(th, tb), ident)
        assert la.mat_eq(la.mat_mul(tb, th), ident)


def test_theta_intertwines_coproducts():
    for m in (M2, sl3_natural()):
        th = mo.theta_mat(m, m)
        for i in range(m.spec.rank):
            for build in (mo.coprod_E, mo.coprod_F):
                straight = build(m, m, i)
                conjd = build(m, m, i, bar=True)
                assert la.mat_eq(
                    la.mat_mul(straight, th), la.mat_mul(th, conjd)
                )


def test_highest_weight():
    assert mo.highest_weight(M2) == (Fraction(1),)
    assert mo.highest_weight(sl3_natural()) == (Fraction(2, 3), Fraction(1, 3))
    z = la.zeros(2, 2)
    incomparable = mo.make_module(SL3, ["a", "b"], [(1, 0), (0, 1)], [z, z], [z, z])
    with pytest.raises(ValueError):
        mo.highest_weight(incomparable)


def test_sl3_natural_validates():
    nat = sl3_natural()
    assert mo.validate_module(nat) == []
    comm = la.mat_sub(
        la.mat_mul(nat.act_E[0], nat.act_F[0]),
        la.mat_mul(nat.act_F[0], nat.act_E[0]),
    )
    assert rf.eq(comm[0][0], rf.parse("t^(1/3)"))


def test_revlex_basis_gives_the_same_crossings_and_invariants(tmp_path):
    lex_path = CONFIGS / "sl3.cfg"
    rev_path = tmp_path / "sl3_revlex.cfg"
    rev_path.write_text(
        lex_path.read_text().replace(
            "file:sl3_natural.mod", "file:%s" % (CONFIGS / "sl3_natural.mod")
        )
        + "basis_order = revlex\n"
    )
    lex = cio.load_config(str(lex_path))
    rev = cio.load_config(str(rev_path))
    assert (lex.basis_order, rev.basis_order) == ("lex", "revlex")
    for build in (mo.rmat, mo.rmat_inv):
        a = build(lex.module, lex.module, lex.basis_order)
        b = build(rev.module, rev.module, rev.basis_order)
        assert len(a) == len(b) == 9
        for ra, rb in zip(a, b):
            assert all(rf.eq(x, y) for x, y in zip(ra, rb))
    for name in ("trefoil", "figure8"):
        assert rf.eq(
            tg.invariant(name, lex.module, lex.basis_order),
            tg.invariant(name, rev.module, rev.basis_order),
        )
