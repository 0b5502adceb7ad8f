"""Weight modules: actions, duals, evaluation maps, and the crossing matrix."""

import functools
import itertools
import os
import pathlib
import subprocess
import sys
from fractions import Fraction
from math import prod

import pytest

from vtknot import cartan as ca
from vtknot import cli
from vtknot import configio as cio
from vtknot import freealg as fa
from vtknot import linalg as la
from vtknot import modules as mo
from vtknot import quasir as qr
from vtknot import ratfield as rf
from vtknot import suites as su
from vtknot import tangle as tg

from conftest import clear_caches

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"

SL3 = ca.make_spec(2, [[2, -1], [-1, 2]], [[1, -1], [0, 1]])

M1 = mo.rank1_simple(1)
M2 = mo.rank1_simple(2)


def sl3_natural():
    dim = 3
    e1 = la.Matrix(dim, dim, {0: {1: rf.ONE}})
    e2 = la.Matrix(dim, dim, {1: {2: rf.ONE}})
    f1 = la.Matrix(dim, dim, {1: {0: rf.parse("t^(1/3)")}})
    f2 = la.Matrix(dim, dim, {2: {1: rf.parse("t^(1/3)")}})
    return mo.make_module(
        SL3,
        ["x1", "x2", "x3"],
        [(2, 1), (-1, 1), (-1, -2)],
        [e1, e2],
        [f1, f2],
        3,
    )


def test_rank1_simple_structure():
    assert M1.labels == ("w0", "w1")
    # the weights 1/2 and -1/2, as numerators over den 2
    assert (M1.weights, M1.den) == (((1,), (-1,)), 2)
    assert rf.eq(M1.act_E[0][0, 1], rf.ONE)
    assert rf.eq(M1.act_F[0][1, 0], rf.ONE)
    # string coefficients a_k = [k][n-k+1]
    assert rf.eq(M2.act_E[0][0, 1], rf.parse("v + v^-1"))
    assert rf.eq(M2.act_E[0][1, 2], rf.parse("v + v^-1"))
    # the E entries are stored in lowest terms
    assert rf.render(M1.act_E[0][0, 1]) == "1"
    assert all(x.den == rf.LP_ONE for _, _, x in mo.rank1_simple(3).act_E[0].items())
    assert mo.validate_module(M1) == []
    assert mo.validate_module(M2) == []


def test_validate_module_reports_failures():
    bad = mo.make_module(M1.spec, M1.labels, M1.weights, M1.act_F, M1.act_E, M1.den)
    fails = mo.validate_module(bad)
    assert "E_1 breaks the weight grading at entry (2, 1)" in fails
    assert "F_1 breaks the weight grading at entry (1, 2)" in fails
    # the commutator is not checked for generators that break the grading
    assert "commutator of E_1 with F_1 is wrong" not in fails
    wrong = mo.make_module(M1.spec, M1.labels, M1.weights, M1.act_E,
                           (la.mat_scale(M1.act_F[0], rf.parse("2")),), M1.den)
    assert mo.validate_module(wrong) == ["commutator of E_1 with F_1 is wrong"]


def test_validate_module_reports_each_fault_once_in_order():
    nat = sl3_natural()
    bad = mo.make_module(nat.spec, nat.labels, nat.weights, nat.act_F, nat.act_E, nat.den)
    assert mo.validate_module(bad) == [
        "E_1 breaks the weight grading at entry (2, 1)",
        "F_1 breaks the weight grading at entry (1, 2)",
        "E_2 breaks the weight grading at entry (3, 2)",
        "F_2 breaks the weight grading at entry (2, 3)",
    ]


def test_validate_module_reports_a_mixed_commutator():
    # nat (x) nat with F_2's entry (x1,x3) <- (x1,x2) doubled: [E_1, F_2], which
    # must vanish, no longer does, and neither does [E_2, F_2] nor F's Serre
    # relators; each pair's entries are summed in one table, with no matrices
    nn = mo.tensor(sl3_natural(), sl3_natural())
    rows = {r: dict(row) for r, row in nn.act_F[1].entries.items()}
    rows[2][1] = rows[2][1] * rf.mono(2)
    f2 = la.Matrix(nn.dim, nn.dim, rows)
    bad = mo.make_module(nn.spec, nn.labels, nn.weights, nn.act_E, (nn.act_F[0], f2), nn.den)
    assert mo.validate_module(nn) == []
    assert mo.validate_module(bad) == [
        "commutator of E_1 with F_2 is wrong",
        "commutator of E_2 with F_2 is wrong",
        "higher braid relation fails on the F side for (1, 2)",
        "higher braid relation fails on the F side for (2, 1)",
    ]


def test_k_actions_are_brace_eigenvalues():
    got = mo.act_K(M1, (1,))
    assert rf.eq(got[0, 0], rf.parse("v"))
    assert rf.eq(got[1, 1], rf.parse("v^-1"))
    assert rf.eq(got[0, 1], rf.ZERO)
    nat = sl3_natural()
    a1 = ca.unit(SL3, 0)
    for k in range(nat.dim):
        assert rf.eq(mo.act_K(nat, a1)[k, k], ca.brace(SL3, a1, nat.weights[k], nat.den))
        assert rf.eq(
            mo.act_K(nat, a1, -1)[k, k], rf.bar(ca.brace(SL3, a1, nat.weights[k], nat.den))
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
                assert rf.eq(comm[k, k], mo.kappa(spec, i, m.weights[k], m.den))


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
    # both factors have den 2, so the weights add as numerators
    assert mm.den == 2 and mm.weights[0] == ca.weight_add(M1.weights[0], M2.weights[0])
    d = mo.dual(M1)
    assert d.labels == ("w0*", "w1*")
    assert (d.weights, d.den) == (((-1,), (1,)), 2)
    assert mo.validate_module(mm) == []
    assert mo.validate_module(d) == []


def test_four_maps_are_module_maps():
    for m in (M1, M2, sl3_natural()):
        d = mo.dual(m)
        triv = mo.trivial(m.spec)
        assert mo.is_module_map(mo.tensor(d, m), triv, mo.cup_cap(m, "ev"))
        assert mo.is_module_map(mo.tensor(m, d), triv, mo.cup_cap(m, "qtr"))
        assert mo.is_module_map(triv, mo.tensor(d, m), mo.cup_cap(m, "coev"))
        assert mo.is_module_map(triv, mo.tensor(m, d), mo.cup_cap(m, "coqtr"))


def _one_entry_times_v(mat):
    rows = {r: dict(row) for r, row in mat.entries.items()}
    r = min(rows)
    c = min(rows[r])
    rows[r][c] = rows[r][c] * rf.V
    return la.Matrix(mat.rows, mat.cols, rows)


def test_module_map_check_rejects_maps_that_break_an_action():
    # a crossing with one entry times v keeps the weight grading but not the
    # actions; so does coev with weight 1 on every k (the coqtr column), the
    # cup a wrong cup_cap would build
    for m in (M1, M2, sl3_natural()):
        mm = mo.tensor(m, m)
        r = mo.rmat(m, m)
        assert mo.is_module_map(mm, mm, r)
        assert not mo.is_module_map(mm, mm, _one_entry_times_v(r))
        assert not mo.is_module_map(mo.trivial(m.spec), mo.tensor(mo.dual(m), m),
                                    mo.cup_cap(m, "coqtr"))


def test_module_map_check_rejects_a_map_between_weights():
    # one-dimensional modules of weights 1 and 0, E and F zero on both: the
    # identity commutes with every action but does not keep the weight
    zero = (la.Matrix(1, 1),)
    one = mo.make_module(mo.RANK1, ("x",), ((2,),), zero, zero, 2)
    assert mo.is_module_map(one, one, la.identity(1))
    assert not mo.is_module_map(one, mo.trivial(mo.RANK1), la.identity(1))


def test_non_integral_weight_is_refused_before_the_commutator():
    # <w, a_1^v> = 2/3 on rank one; the commutator, which kappa needs an
    # integral <w, a_i^v> for, is not checked
    zero = (la.Matrix(2, 2),)
    m = mo.make_module(mo.RANK1, ("a", "b"), ((1,), (0,)), zero, zero, 3)
    assert mo.validate_module(m) == ["weight 1 has a non-integral <w, a_1^v> = 2/3"]
    # on B2 the weight (0, 1/2) has <w, a_1^v> = -1/2, and <w, a_2^v> = 1
    # outside a one-dimensional module
    zero = (la.Matrix(1, 1),) * 2
    m = mo.make_module(B2, ("x",), ((0, 1),), zero, zero, 2)
    assert mo.validate_module(m) == [
        "weight 1 has a non-integral <w, a_1^v> = -1/2",
        "weight 1 has |<w, a_1^v>| > dim - 1 = 0",
        "weight 1 has |<w, a_2^v>| > dim - 1 = 0",
    ]


def test_quantum_trace_of_coquantum_trace_is_qdim():
    for m in (M1, M2, sl3_natural()):
        loop = la.mat_mul(mo.cup_cap(m, "qtr"), mo.cup_cap(m, "coqtr"))
        assert rf.eq(loop[0, 0], mo.qdim(m))


def test_crossing_oracles_rank1():
    r = mo.rmat(M1, M1)
    assert rf.eq(r[0, 0], rf.mono(1, Fraction(-1, 2), 0))
    for k in range(1, 4):
        assert rf.eq(r[k, 0], rf.ZERO)
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
            for side in "EF":
                straight = mo.coprod(m, m, i, side)
                conjd = mo.coprod(m, m, i, side, bar=True)
                assert la.mat_eq(
                    la.mat_mul(straight, th), la.mat_mul(th, conjd)
                )


def test_highest_weight():
    # (1,) over 1 and (2/3, 1/3), as numerators over each module's den
    assert (mo.highest_weight(M2), M2.den) == ((2,), 2)
    nat = sl3_natural()
    assert (mo.highest_weight(nat), nat.den) == ((2, 1), 3)
    z = la.Matrix(2, 2)
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
    assert rf.eq(comm[0, 0], rf.parse("t^(1/3)"))


def test_revlex_basis_gives_the_same_crossings_and_invariants(tmp_path, capsys):
    # theta is the canonical element of the pairing, so its revlex tables act
    # as the lex ones do; this is why the crossings ignore basis_order
    m = sl3_natural()
    for a in (m, mo.dual(m)):
        for b in (m, mo.dual(m)):
            assert la.mat_eq(mo._theta_op([a, b], 0, 1, qr.theta, "revlex"), mo.theta_mat(a, b))
            assert la.mat_eq(
                mo._theta_op([a, b], 0, 1, qr.theta_bar, "revlex"), mo.theta_bar_mat(a, b)
            )
    lex_path = CONFIGS / "sl3.cfg"
    rev_path = tmp_path / "sl3_revlex.cfg"
    rev_path.write_text(
        lex_path.read_text().replace(
            "file:sl3_natural.mod", "file:%s" % (CONFIGS / "sl3_natural.mod")
        )
        + "basis_order = revlex\n"
    )
    assert cio.load_config(str(rev_path)).basis_order == "revlex"
    printed = []
    for path in (lex_path, rev_path):
        for argv in (["rmatrix"], ["invariant", "--tangle", "trefoil"],
                     ["invariant", "--tangle", "figure8"]):
            assert cli.main([argv[0], "--config", str(path)] + argv[1:]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]


def test_each_crossing_is_built_once_per_pair_of_modules():
    cfg = cio.load_config(str(CONFIGS / "sl3.cfg"))
    m = cfg.module
    assert mo.dual(m) is mo.dual(m)
    before = mo.rmat.cache_info().misses
    assert all(ok for _, ok in su.run_suite("all", cfg, 2))
    # (m, m), (m, m*), (m*, m) and (m*, m*), each built once
    assert mo.rmat.cache_info().misses - before == 4


def _dense_rmat(a, b):
    f = mo._diag(ca.f(a.spec, wb, wa, a.den * b.den) for wb in b.weights for wa in a.weights)
    return la.mat_mul(mo.theta_mat(b, a), la.mat_mul(f, mo.perm(a, b)))


def _dense_rmat_inv(a, b):
    brace = mo._diag(
        ca.brace(a.spec, wb, wa, a.den * b.den) for wb in b.weights for wa in a.weights
    )
    return la.mat_mul(mo.perm(b, a), la.mat_mul(brace, mo.theta_bar_mat(b, a)))


_PAIRS = {
    "sl2": lambda: (M1, M1),
    "rank1:2": lambda: (M2, M2),
    "sl3": lambda: (sl3_natural(), sl3_natural()),
    "rank1:2 and its dual": lambda: (M2, mo.dual(M2)),
    "sl3 and its dual": lambda: (sl3_natural(), mo.dual(sl3_natural())),
}


@pytest.mark.parametrize("pair", sorted(_PAIRS))
def test_crossing_by_index_matches_dense_products(pair):
    a, b = _PAIRS[pair]()
    assert la.mat_eq(mo.rmat(a, b), _dense_rmat(a, b))
    assert la.mat_eq(mo.rmat_inv(a, b), _dense_rmat_inv(a, b))


@pytest.mark.parametrize(
    "m", [M2, mo.rank1_simple(3), sl3_natural()], ids=["rank1:2", "rank1:3", "sl3"]
)
def test_crossing_entries_are_laurent(m):
    for build in (mo.rmat, mo.rmat_inv):
        for _, _, x in build(m, m).items():
            assert x.is_zero() or len(x.den.terms) == 1, rf.render(x)


_SHAPE_CASES = """\
from vtknot import cartan as ca, linalg as la, modules as mo, ratfield as rf
sl3 = ca.make_spec(2, [[2, -1], [-1, 2]], [[1, -1], [0, 1]])
m1 = mo.rank1_simple(1)
cases = {
    "mat_mul": lambda: la.mat_mul(la.identity(2), la.identity(3)),
    "make_module weights": lambda: mo.make_module(
        mo.RANK1, ("a", "b"), [(0,)], (la.Matrix(1, 1),), (la.Matrix(1, 1),)),
    "make_module actions": lambda: mo.make_module(mo.RANK1, ("a",), [(0,)], (), ()),
    "make_module action size": lambda: mo.make_module(
        mo.RANK1, ("a",), [(0,)], (la.Matrix(2, 2),), (la.Matrix(1, 1),)),
    "mat_add": lambda: la.mat_add(la.identity(2), la.identity(3)),
    "rank1_simple size": lambda: mo.rank1_simple(-1),
    "tensor": lambda: mo.tensor(m1, mo.trivial(sl3)),
}
for name, build in cases.items():
    try:
        build()
    except la.ShapeError:
        continue
    raise SystemExit("no ShapeError from " + name)
print("ok")
"""


def test_shape_errors_survive_optimized_mode():
    # asserts vanish under -O; the named error must not
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _SHAPE_CASES],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(CONFIGS.parent / "src")},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "ok\n", "")
    assert issubclass(la.ShapeError, ValueError)


# The per-term sums the module operators were first written as: each word's
# action a product from the identity, each theta or element term a Matrix
# of its own (Kronecker product, scaled, added).  The operators must keep
# these exact (num, den) forms, which every printed crossing entry rests on.
def _left_to_right(m, word, side):
    mats = m.act_E if side == "E" else m.act_F
    out = la.identity(m.dim)
    for i in word:
        out = la.mat_mul(out, mats[i])
    return out


def _theta_op_by_terms(mods, s, l, table, order):
    spec = mods[0].spec
    size = prod(m.dim for m in mods)
    out = la.Matrix(size, size)
    for nu in [(0,) * spec.rank] + mo.theta_degrees(mods[s], mods[l]):
        if not any(nu):
            out = la.mat_add(out, la.identity(size))
            continue
        for (fw, ew), coeff in table(spec, nu, order).items():
            mats = [
                _left_to_right(m, fw, "F") if k == s else _left_to_right(m, ew, "E") if k == l
                else la.identity(m.dim)
                for k, m in enumerate(mods)
            ]
            if not (mats[s].entries and mats[l].entries):
                continue
            term = mats[0]
            for x in mats[1:]:
                term = la.kron(term, x)
            out = la.mat_add(out, la.mat_scale(term, coeff))
    return out


def _act_elem_by_terms(m, x, side):
    out = la.Matrix(m.dim, m.dim)
    for word, coeff in x.items():
        out = la.mat_add(out, la.mat_scale(_left_to_right(m, word, side), coeff))
    return out


def _assert_same_forms(got, want):
    assert (got.rows, got.cols) == (want.rows, want.cols)
    assert [(r, c) for r, c, _ in got.items()] == [(r, c) for r, c, _ in want.items()]
    for (r, c, x), (_, _, y) in zip(got.items(), want.items()):
        assert x.num == y.num and x.den == y.den, (r, c, rf.render(x), rf.render(y))


_FORM_MODULES = {
    "sl2": lambda: (cio.load_config(str(CONFIGS / "sl2.cfg")).module, "lex"),
    "rank1:3": lambda: (mo.rank1_simple(3), "lex"),
    "sl3": lambda: (sl3_natural(), "lex"),
    "sl3_revlex": lambda: (sl3_natural(), "revlex"),
}


@pytest.mark.parametrize("name", sorted(_FORM_MODULES))
def test_operators_keep_the_per_term_forms(name):
    m, order = _FORM_MODULES[name]()
    spec = m.spec
    d, mm = mo.dual(m), mo.tensor(m, m)
    placements = [
        ([m, m], 0, 1), ([m, d], 0, 1), ([d, m], 0, 1), ([mm, m], 1, 0),
        ([m, m, m], 2, 0), ([m, m, m], 2, 1), ([m, m, m], 0, 1),
    ]
    for table in (qr.theta, qr.theta_bar):
        for mods, s, l in placements:
            _assert_same_forms(
                mo._theta_op(mods, s, l, table, order), _theta_op_by_terms(mods, s, l, table, order)
            )
    elements = [
        (fa.serre_element(spec, i, j, side), side)
        for i in range(spec.rank) for j in range(spec.rank) if i != j for side in "EF"
    ]
    for mu in ca.degrees_tr_upto(spec.rank, 3):
        for a in range(len(qr.select_basis(spec, mu, order))):
            elements += [(qr.dual_element(spec, mu, a, order), side) for side in "EF"]
    for target in (m, d, mm):
        for x, side in elements:
            _assert_same_forms(mo.act_elem(target, x, side), _act_elem_by_terms(target, x, side))


def test_theta_op_on_three_slots_is_the_nested_kron():
    # one term, coeff * F_fw on slot s (x) E_ew on slot l, on factors of three
    # sizes, against the two-factor Kronecker product nested to the left
    mods = [M1, M2, mo.rank1_simple(3)]
    coeff = rf.parse("v + t^-1")
    fw, ew = (0,), (0,)

    def table(spec, nu, order):
        return {(fw, ew): coeff}

    for s, l in itertools.permutations(range(3), 2):
        mats = [mo.act_word(m, fw, "F") if k == s else mo.act_word(m, ew, "E") if k == l
                else la.identity(m.dim) for k, m in enumerate(mods)]
        want = la.mat_scale(la.kron(la.kron(mats[0], mats[1]), mats[2]), coeff)
        assert want.entries
        _assert_same_forms(mo._theta_op(mods, s, l, table, degrees=[(1,)]), want)


def _kappa_by_division(spec, i, mu, den):
    a = ca.dot(spec, ca.unit(spec, i), mu, den)
    d = ca.d_i(spec, i)
    num = (rf.mono(1, a, 0) - rf.mono(1, -a, 0)) * ca.c(spec, i, mu, den)
    return num / (rf.mono(1, d, 0) - rf.mono(1, -d, 0))


B2 = ca.make_spec(2, [[4, -2], [-2, 2]], [[2, -2], [0, 1]])


def test_kappa_is_the_quantum_integer_on_the_lattice():
    assert ca.validate(B2) == []
    # weights as numerators over a den: (a/3, b/3), n/2 and, on B2, (a/2, b/2);
    # kappa is defined where <mu, a_i^v> is an integer, as validate_module
    # checks at load
    cases = [(SL3, (a, b), 3) for a in range(-6, 7) for b in range(-6, 7)]
    cases += [(mo.RANK1, (n,), 2) for n in range(-6, 7)]
    cases += [(B2, (a, b), 2) for a in range(-4, 5) for b in range(-4, 5)]
    lattice = 0
    for spec, mu, den in cases:
        for i in range(spec.rank):
            n = Fraction(ca.dot(spec, ca.unit(spec, i), mu, den), ca.d_i(spec, i))
            if n.denominator != 1:
                continue
            got = mo.kappa(spec, i, mu, den)
            assert rf.eq(got, _kappa_by_division(spec, i, mu, den)), (spec, i, mu)
            # the lattice divides nothing
            assert got.den == rf.LP_ONE, (spec, i, mu)
            lattice += 1
            if n == 0:
                assert got.is_zero()
    assert lattice


@pytest.mark.parametrize("m", [sl3_natural(), mo.rank1_simple(3)], ids=["sl3", "rank1:3"])
def test_word_actions_are_left_to_right_products(m):
    for n in range(5):
        for word in itertools.product(range(m.spec.rank), repeat=n):
            for side in "EF":
                _assert_same_forms(mo.act_word(m, word, side), _left_to_right(m, word, side))


def test_inverse_crossing_builds_no_new_f_word(monkeypatch):
    # record the misses of a fresh act_word cache; its recursion goes through
    # the module attribute, so every prefix is recorded too
    built = []
    body = mo.act_word.__wrapped__

    def recording(m, word, side):
        built.append((word, side))
        return body(m, word, side)

    monkeypatch.setattr(mo, "act_word", functools.lru_cache(maxsize=None)(recording))
    m = sl3_natural()
    mo.rmat(m, m)
    f_words = [w for w, side in built if side == "F"]
    assert f_words and len(set(f_words)) == len(f_words)
    mo.rmat_inv(m, m)
    assert [w for w, side in built if side == "F"] == f_words


def test_module_check_and_crossings_make_no_fraction(monkeypatch):
    # module weights are int numerators over one den, and the Serre relators
    # carry Gaussian binomials, so a cold sl3 load and crossing build make no
    # Fraction, build no q-factorial and divide no RatFunc
    m = cio.load_config(str(CONFIGS / "sl3.cfg")).module
    made = []
    real_new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        made.append(args)
        return real_new(cls, *args, **kwargs)

    divided = []
    watched = {rf.qfact.__code__, rf.RatFunc.__truediv__.__code__}

    def watch(frame, event, arg):
        if event == "call" and frame.f_code in watched:
            divided.append(frame.f_code.co_name)

    for step in (
        lambda: mo.validate_module(m),
        lambda: tg._generator("xp", m),
        lambda: tg._generator("xm", m),
    ):
        clear_caches()
        with monkeypatch.context() as patch:
            patch.setattr(Fraction, "__new__", counted_new)
            sys.setprofile(watch)
            try:
                step()
            finally:
                sys.setprofile(None)
        assert made == [] and divided == []
    # the counters see what they count
    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", counted_new)
        sys.setprofile(watch)
        try:
            rf.qfact(2, Fraction(1, 2)) / rf.V
        finally:
            sys.setprofile(None)
    assert made and divided == ["qfact", "__truediv__"]
