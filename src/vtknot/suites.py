"""Named identity suites behind the verify command.

Each suite function takes a loaded run configuration and a truncation depth
and returns an ordered list of (check name, passed) pairs.  Enumeration is
always over deterministic word/degree orders so repeated runs print the same
report byte for byte.
"""

from __future__ import annotations

from fractions import Fraction

from . import cartan as ca
from . import freealg as fa
from . import linalg as la
from . import modules as mo
from . import pairing as pr
from . import quasir as qr
from . import ratfield as rf
from . import tangle as tg

ZERO = rf.ZERO
ONE = rf.ONE


def _all_words(spec, depth):
    for mu in ca.degrees_tr_upto(spec.rank, depth):
        for w in fa.words_of_degree(mu):
            yield mu, w


# ---------------------------------------------------------------- forms

def _split_once(spec, x, left):
    """Apply the twisted coproduct to one slot of a 2-tensor."""
    out = {}
    for (a, b), c in x.items():
        inner = fa.coproduct_r(spec, fa.felem(a if left else b))
        for (p, q), ic in inner.items():
            key = (p, q, b) if left else (a, p, q)
            acc = out.get(key)
            out[key] = c * ic if acc is None else acc + c * ic
    return out


def _tensor3_eq(lhs, rhs):
    for key in set(lhs) | set(rhs):
        if not rf.eq(lhs.get(key, ZERO), rhs.get(key, ZERO)):
            return False
    return True


def _rbar_is_flip(spec, x):
    flipped = {}
    for (a, b), c in fa.coproduct_r(spec, x).items():
        da, db = fa.deg(spec, a), fa.deg(spec, b)
        tw = rf.mono(
            1, -ca.dot(spec, da, db), ca.angle(spec, db, da) - ca.angle(spec, da, db)
        )
        flipped = fa.t_add(flipped, {(b, a): c * tw})
    return fa.t_eq(flipped, fa.coproduct_r(spec, x, -1))


def _derivs_are_slices(spec, x):
    rx = fa.coproduct_r(spec, x)
    for i in range(spec.rank):
        right = {}
        left = {}
        for (a, b), c in rx.items():
            if b == (i,):
                right = fa.f_add(right, {a: c})
            if a == (i,):
                left = fa.f_add(left, {b: c})
        if not fa.f_eq(fa.deriv(spec, i, x, "r"), right):
            return False
        if not fa.f_eq(fa.deriv(spec, i, x, "l"), left):
            return False
    return True


def _sigma_conjugates(spec, x):
    lhs = fa.coproduct_r(spec, fa.sigma(spec, x))
    rhs = {}
    for (a, b), c in fa.coproduct_r(spec, x).items():
        da, db = fa.deg(spec, a), fa.deg(spec, b)
        tw = rf.mono(1, 0, ca.angle(spec, db, da) - ca.angle(spec, da, db))
        sa, sb = fa.sigma(spec, fa.felem(a)), fa.sigma(spec, fa.felem(b))
        for wa, cca in sb.items():
            for wb, ccb in sa.items():
                rhs = fa.t_add(rhs, {(wa, wb): c * tw * cca * ccb})
    return fa.t_eq(lhs, rhs)


def suite_forms(cfg, depth):
    spec = cfg.spec
    coassoc = flip = slices = conj = True
    for _, w in _all_words(spec, depth):
        x = fa.felem(w)
        rx = fa.coproduct_r(spec, x)
        coassoc = coassoc and _tensor3_eq(
            _split_once(spec, rx, True), _split_once(spec, rx, False)
        )
        flip = flip and _rbar_is_flip(spec, x)
        slices = slices and _derivs_are_slices(spec, x)
        conj = conj and _sigma_conjugates(spec, x)
    sym = True
    for mu in ca.degrees_tr_upto(spec.rank, depth):
        for wx in fa.words_of_degree(mu):
            for wy in fa.words_of_degree(mu):
                sym = sym and rf.eq(
                    fa.form(spec, fa.felem(wx), fa.felem(wy)),
                    fa.form(spec, fa.felem(wy), fa.felem(wx)),
                )
    out = [
        ("coproduct is coassociative", coassoc),
        ("conjugated coproduct is the twisted flip", flip),
        ("derivations extract coproduct slices", slices),
        ("reversal conjugates the coproduct", conj),
        ("bilinear form is symmetric", sym),
    ]
    if spec.rank >= 2:
        rad = True
        for i in range(spec.rank):
            for j in range(spec.rank):
                if i == j or spec.dot[i][j] == 0:
                    continue
                se = fa.serre_element(spec, i, j)
                mu = fa.deg(spec, next(iter(se)))
                for w in fa.words_of_degree(mu):
                    rad = rad and rf.eq(fa.form(spec, se, fa.felem(w)), ZERO)
        out.append(("braid relators sit in the form radical", rad))
    return out


# -------------------------------------------------------------- pairing

def _phi_peel(spec, ew, fw, end, side):
    """phi by peeling the `end` letter of the `side` word and deriving the other."""
    if side == "F":
        peeled, other, other_side = fw, ew, "E"
    else:
        peeled, other, other_side = ew, fw, "F"
    if not peeled:
        return ONE if not other else ZERO
    i, rest = (peeled[-1], peeled[:-1]) if end == "r" else (peeled[0], peeled[1:])
    acc = ZERO
    for w, c in fa.deriv(spec, i, fa.felem(other), end, other_side).items():
        if side == "F":
            acc = acc + c * _phi_peel(spec, w, rest, end, side)
        else:
            acc = acc + c * _phi_peel(spec, rest, w, end, side)
    return pr._peel_scale(spec, i) * acc


def _conj_scale(spec, nu):
    return rf.mono(
        (-1) ** ca.tr(nu),
        -Fraction(ca.dot(spec, nu, nu), 2)
        + sum(n * spec.omega[i][i] for i, n in enumerate(nu)),
        0,
    )


def suite_pairing(cfg, depth):
    spec = cfg.spec
    peel = invariance = conj = split = gram_sym = True
    for mu in ca.degrees_tr_upto(spec.rank, depth):
        words = fa.words_of_degree(mu)
        g = pr.gram(spec, mu)
        for r in range(len(words)):
            for c in range(len(words)):
                gram_sym = gram_sym and rf.eq(g[r][c], rf.bar_t(g[c][r]))
        for ew in words:
            for fw in words:
                want = pr.phi(spec, fa.felem(ew), fa.felem(fw))
                peel = peel and all(
                    rf.eq(_phi_peel(spec, ew, fw, end, side), want)
                    for end, side in (("r", "F"), ("l", "E"), ("r", "E"))
                )
                invariance = invariance and rf.eq(
                    want,
                    pr.phi(
                        spec,
                        fa.sigma(spec, fa.felem(ew)),
                        pr.sigma_minus(spec, fa.felem(fw)),
                    ),
                )
                conj = conj and rf.eq(
                    pr.phibar(spec, fa.felem(ew), fa.felem(fw)),
                    _conj_scale(spec, mu)
                    * pr.phi(spec, fa.felem(ew), pr.sigma_minus(spec, fa.felem(fw))),
                )
        # (x, y z) = sum over r(x) of (x1, y)(x2, z)
        for ew in words:
            for nu in ca.degrees_below(mu):
                rest = ca.deg_sub(mu, nu)
                for y in fa.words_of_degree(nu):
                    for z in fa.words_of_degree(rest):
                        lhs = pr.phi(spec, fa.felem(ew), fa.felem(y + z))
                        rhs = ZERO
                        for (x1, x2), c in fa.coproduct_r(spec, fa.felem(ew)).items():
                            a = pr.phi(spec, fa.felem(x1), fa.felem(y))
                            if a.is_zero():
                                continue
                            rhs = rhs + c * a * pr.phi(spec, fa.felem(x2), fa.felem(z))
                        split = split and rf.eq(lhs, rhs)
    return [
        ("all four peeling orders agree", peel),
        ("pairing is invariant under reversal", invariance),
        ("conjugate pairing factors through reversal", conj),
        ("pairing splits products through the coproduct", split),
        ("gram matrices are symmetric up to inverting t", gram_sym),
    ]


# --------------------------------------------------------------- quasiR

def _theta_form(spec, table, x, y):
    """Pair a two-sided word table against probe words (x on E, y on F)."""
    acc = ZERO
    for (fw, ew), c in table.items():
        a = pr.phi(spec, fa.felem(x), fa.felem(fw))
        if a.is_zero():
            continue
        acc = acc + c * a * pr.phi(spec, fa.felem(ew), fa.felem(y))
    return acc


def _theta_tables_agree(spec, mu, lhs, rhs):
    for x in fa.words_of_degree(mu):
        for y in fa.words_of_degree(mu):
            if not rf.eq(_theta_form(spec, lhs, x, y), _theta_form(spec, rhs, x, y)):
                return False
    return True


def _ladder_holds(m, mu, i, order):
    """Per-degree slices of the defining relations for theta on m (x) m."""
    spec = m.spec
    dim = m.dim
    th = mo._theta_op([m, m], 0, 1, qr.theta, order, [mu])
    down = tuple(x - y for x, y in zip(mu, ca.unit(spec, i)))
    th_down = mo._theta_op([m, m], 0, 1, qr.theta, order, [down])
    ei = m.act_E[i]
    fi = m.act_F[i]
    ki = mo.act_K(m, ca.unit(spec, i))
    kpi = mo.act_Kp(m, ca.unit(spec, i))
    ident = la.identity(dim)
    checks = []
    for u in (ki, kpi):
        kk = la.kron(u, u)
        checks.append(la.mat_eq(la.mat_mul(kk, th), la.mat_mul(th, kk)))
    lhs = la.mat_add(
        la.mat_mul(la.kron(ei, ident), th), la.mat_mul(la.kron(ki, ei), th_down)
    )
    rhs = la.mat_add(
        la.mat_mul(th, la.kron(ei, ident)), la.mat_mul(th_down, la.kron(kpi, ei))
    )
    checks.append(la.mat_eq(lhs, rhs))
    lhs = la.mat_add(
        la.mat_mul(la.kron(ident, fi), th), la.mat_mul(la.kron(fi, kpi), th_down)
    )
    rhs = la.mat_add(
        la.mat_mul(th, la.kron(ident, fi)), la.mat_mul(th_down, la.kron(fi, ki))
    )
    checks.append(la.mat_eq(lhs, rhs))
    return all(checks)


def _delta_plus_holds(m, mm, w, order):
    spec = m.spec
    lam = fa.deg(spec, w)
    lhs = mo.act_word(mm, w, "E")
    rhs = la.zeros(mm.dim, mm.dim)
    for mu in ca.degrees_below(lam):
        nu = ca.deg_sub(lam, mu)
        try:
            basis_mu = qr.select_basis(spec, mu, order)
            basis_nu = qr.select_basis(spec, nu, order)
        except qr.BasisError:
            return False
        for bi, b in enumerate(basis_mu):
            for pi, bp in enumerate(basis_nu):
                coeff = pr.phi(
                    spec, fa.felem(w), fa.mul(fa.felem(bp), fa.felem(b))
                )
                if coeff.is_zero():
                    continue
                slot1 = la.mat_mul(
                    mo.act_elem(m, qr.dual_element(spec, nu, pi, order), "E"),
                    mo.act_K(m, mu),
                )
                slot2 = mo.act_elem(m, qr.dual_element(spec, mu, bi, order), "E")
                rhs = la.mat_add(rhs, la.mat_scale(la.kron(slot1, slot2), coeff))
    return la.mat_eq(lhs, rhs)


def _delta_minus_holds(m, mm, w, order):
    spec = m.spec
    lam = fa.deg(spec, w)
    lhs = mo.act_word(mm, w, "F")
    rhs = la.zeros(mm.dim, mm.dim)
    for mu in ca.degrees_below(lam):
        nu = ca.deg_sub(lam, mu)
        try:
            basis_mu = qr.select_basis(spec, mu, order)
            basis_nu = qr.select_basis(spec, nu, order)
        except qr.BasisError:
            return False
        for bi, b in enumerate(basis_mu):
            for pi, bp in enumerate(basis_nu):
                coeff = pr.phi(
                    spec,
                    fa.mul(
                        qr.dual_element(spec, nu, pi, order),
                        qr.dual_element(spec, mu, bi, order),
                    ),
                    fa.felem(w),
                )
                if coeff.is_zero():
                    continue
                slot1 = mo.act_elem(m, fa.felem(b), "F")
                slot2 = la.mat_mul(
                    mo.act_elem(m, fa.felem(bp), "F"), mo.act_Kp(m, mu)
                )
                rhs = la.mat_add(rhs, la.mat_scale(la.kron(slot1, slot2), coeff))
    return la.mat_eq(lhs, rhs)


def suite_quasiR(cfg, depth):
    spec = cfg.spec
    m = cfg.module
    order = cfg.basis_order
    dual_pair = ladder = conj_matches = order_free = True
    for mu in ca.degrees_tr_upto(spec.rank, depth):
        if ca.tr(mu) == 0:
            continue
        words = qr.select_basis(spec, mu, order)
        for ai, wa in enumerate(words):
            de = qr.dual_element(spec, mu, ai, order)
            for bi, wb in enumerate(words):
                got = pr.phi(spec, de, fa.felem(wb))
                dual_pair = dual_pair and rf.eq(got, ONE if ai == bi else ZERO)
        for i in range(spec.rank):
            ladder = ladder and _ladder_holds(m, mu, i, order)
        bar_table = {k: rf.bar(v) for k, v in qr.theta(spec, mu, order).items()}
        conj_matches = conj_matches and _theta_tables_agree(
            spec, mu, qr.theta_bar(spec, mu, order), bar_table
        )
        order_free = order_free and _theta_tables_agree(
            spec, mu, qr.theta(spec, mu, "lex"), qr.theta(spec, mu, "revlex")
        )
    mm = mo.tensor(m, m)
    th = mo.theta_mat(m, m, order)
    tb = mo.theta_bar_mat(m, m, order)
    intertwines = True
    for i in range(spec.rank):
        for straight, conjd in (
            (mm.act_E[i], mo.coprod_E(m, m, i, True)),
            (mm.act_F[i], mo.coprod_F(m, m, i, True)),
        ):
            intertwines = intertwines and la.mat_eq(
                la.mat_mul(straight, th), la.mat_mul(th, conjd)
            )
    ident = la.identity(mm.dim)
    inverts = la.mat_eq(la.mat_mul(th, tb), ident) and la.mat_eq(
        la.mat_mul(tb, th), ident
    )
    delta = True
    for mu in ca.degrees_tr_upto(spec.rank, min(depth, 3)):
        for w in fa.words_of_degree(mu):
            delta = delta and _delta_plus_holds(m, mm, w, order)
            delta = delta and _delta_minus_holds(m, mm, w, order)
    return [
        ("dual bases pair to indicator values", dual_pair),
        ("theta solves the coproduct ladder degree by degree", ladder),
        ("conjugated theta is the coefficientwise conjugate", conj_matches),
        ("basis order does not change theta", order_free),
        ("theta intertwines the straight and conjugated coproducts", intertwines),
        ("theta and its conjugate invert each other", inverts),
        ("dual bases expand the coproduct", delta),
    ]


# -------------------------------------------------------------- rmatrix

def _cap_slide_holds(m, order):
    d = m.dim
    dual = mo.dual(m)
    qtr = mo.qtr_map(m)
    outer = la.mat_mul(qtr, la.kron(la.kron(la.identity(d), qtr), la.identity(d)))
    lhs = la.mat_mul(outer, la.kron(la.identity(d * d), mo.rmat(dual, dual, order)))
    rhs = la.mat_mul(outer, la.kron(mo.rmat(m, m, order), la.identity(d * d)))
    return la.mat_eq(lhs, rhs)


def _mixed_crossings(m, order):
    d = m.dim
    dual = mo.dual(m)
    id_m = la.identity(d)
    id_d = la.identity(dual.dim)
    rpm = la.mat_mul(
        la.kron(la.identity(d * d), mo.qtr_map(m)),
        la.mat_mul(
            la.kron(id_d, la.kron(mo.rmat_inv(m, m, order), id_d)),
            la.kron(la.kron(mo.coev_map(m), id_m), id_d),
        ),
    )
    rmp = la.mat_mul(
        la.kron(la.kron(mo.ev_map(m), id_m), id_d),
        la.mat_mul(
            la.kron(id_d, la.kron(mo.rmat(m, m, order), id_d)),
            la.kron(la.identity(d * d), mo.coqtr_map(m)),
        ),
    )
    return rpm, rmp


def _ftilde_slots(mods, s, l):
    spec = mods[0].spec
    entries = []
    for w0 in mods[0].weights:
        for w1 in mods[1].weights:
            for w2 in mods[2].weights:
                triple = (w0, w1, w2)
                entries.append(ca.f(spec, triple[s], triple[l]))
    return mo._diag(entries)


def _transport_holds(m, order):
    """Coproduct across the first two slots assembles iterated twists."""
    spec = m.spec
    mods = [m, m, m]
    f31 = _ftilde_slots(mods, 2, 0)
    f32 = _ftilde_slots(mods, 2, 1)
    size = m.dim ** 3
    lhs_head = la.identity(size)
    pair = mo.tensor(m, m)
    degs = sorted(mo._raising_degrees(pair) & mo._raising_degrees(m))
    for mu in degs:
        words = qr.select_basis(spec, mu, order)
        for ai, wa in enumerate(words):
            mat12 = mo.act_elem(pair, qr.dual_element(spec, mu, ai, order), "E")
            mat3 = mo.act_word(m, wa, "F")
            if la.is_zero_matrix(mat3):
                continue
            lhs_head = la.mat_add(lhs_head, la.kron(mat12, mat3))
    lhs = la.mat_mul(lhs_head, la.mat_mul(f31, f32))
    rhs = la.mat_mul(
        la.mat_mul(mo._theta_op(mods, 2, 0, qr.theta, order), f31),
        la.mat_mul(mo._theta_op(mods, 2, 1, qr.theta, order), f32),
    )
    return la.mat_eq(lhs, rhs)


def _weight_factor_commutes(m, order):
    mods = [m, m, m]
    f31 = _ftilde_slots(mods, 2, 0)
    f32 = _ftilde_slots(mods, 2, 1)
    th12 = mo._theta_op(mods, 0, 1, qr.theta, order)
    ff = la.mat_mul(f31, f32)
    return la.mat_eq(la.mat_mul(ff, th12), la.mat_mul(th12, ff))


def _classical_matches(m, order):
    """Rank-one crossing at t = 1 against the one-parameter closed form."""
    spec = m.spec
    d = m.dim
    at1 = lambda x: rf.specialize(x, {"t": 1})
    e1 = [[at1(x) for x in row] for row in m.act_E[0]]
    f1 = [[at1(x) for x in row] for row in m.act_F[0]]
    vdiff = rf.parse("v - v^-1")
    theta_cl = la.identity(d * d)
    fk, ek = la.identity(d), la.identity(d)
    power = ONE
    k = 0
    while True:
        k += 1
        fk = la.mat_mul(fk, f1)
        ek = la.mat_mul(ek, e1)
        if la.is_zero_matrix(fk) or la.is_zero_matrix(ek):
            break
        power = power * vdiff
        ck = rf.mono((-1) ** k, Fraction(-k * (k - 1), 2), 0) * power / at1(
            rf.qfact(k, 1)
        )
        theta_cl = la.mat_add(theta_cl, la.mat_scale(la.kron(fk, ek), ck))
    diag = mo._diag(
        rf.mono(1, -ca.dot(spec, wa, wb), 0)
        for wa in m.weights
        for wb in m.weights
    )
    want = la.mat_mul(theta_cl, la.mat_mul(diag, mo.perm(m, m)))
    got = mo.rmat(m, m, order)
    for r in range(d * d):
        for c in range(d * d):
            if not rf.eq(at1(got[r][c]), want[r][c]):
                return False
    return True


def quadratic_relation(mat):
    """Exact alpha, beta with mat^2 = alpha mat + beta id, or None."""
    n = len(mat)
    sq = la.mat_mul(mat, mat)
    alpha = None
    for r in range(n):
        for c in range(n):
            if r != c and not mat[r][c].is_zero():
                alpha = sq[r][c] / mat[r][c]
                break
        if alpha is not None:
            break
    if alpha is None:
        diag = [mat[r][r] for r in range(n)]
        alpha = ZERO
        for r in range(n):
            for s in range(r + 1, n):
                if not rf.eq(diag[r], diag[s]):
                    alpha = (sq[r][r] - sq[s][s]) / (diag[r] - diag[s])
                    break
            else:
                continue
            break
    beta = sq[0][0] - alpha * mat[0][0]
    want = la.mat_add(la.mat_scale(mat, alpha), la.mat_scale(la.identity(n), beta))
    if la.mat_eq(sq, want):
        return alpha, beta
    return None


def annihilator(mat, maxdeg):
    """Coefficients c with mat^d = sum_k c[k] mat^k for the least d, or None."""
    n = len(mat)
    powers = [la.identity(n)]
    for _ in range(maxdeg):
        # unreduced products snowball across powers; exact division tames them
        nxt = la.mat_mul(powers[-1], mat)
        powers.append([[rf.reduce_poly(x) for x in row] for row in nxt])
    coords = [(r, c) for r in range(n) for c in range(n)]
    for d in range(1, maxdeg + 1):
        picked = []
        for rc in coords:
            rows = [[powers[k][r][c] for k in range(d)] for r, c in picked + [rc]]
            if la.rank(rows) == len(rows):
                picked.append(rc)
                if len(picked) == d:
                    break
        if len(picked) < d:
            continue
        a = [[powers[k][r][c] for k in range(d)] for r, c in picked]
        b = [powers[d][r][c] for r, c in picked]
        coeffs = la.solve(a, b)
        residue = powers[d]
        for k in range(d):
            residue = la.mat_sub(residue, la.mat_scale(powers[k], coeffs[k]))
        if la.is_zero_matrix(residue):
            return coeffs
    return None


def suite_rmatrix(cfg, depth):
    m = cfg.module
    order = cfg.basis_order
    dual = mo.dual(m)
    mm = mo.tensor(m, m)
    rr = mo.rmat(m, m, order)
    rinv = mo.rmat_inv(m, m, order)
    ident = la.identity(mm.dim)
    cancel = la.mat_eq(la.mat_mul(rr, rinv), ident) and la.mat_eq(
        la.mat_mul(rinv, rr), ident
    )
    rpm, rmp = _mixed_crossings(m, order)
    md = mo.tensor(m, dual)
    dm = mo.tensor(dual, m)
    mixed_match = la.mat_eq(rpm, mo.rmat(m, dual, order))
    mixed_cancel = la.mat_eq(
        la.mat_mul(rmp, rpm), la.identity(md.dim)
    ) and la.mat_eq(la.mat_mul(rpm, rmp), la.identity(dm.dim))
    out = [
        ("crossing is a module map", mo.is_module_map(mm, mm, rr)),
        ("crossing and its inverse cancel", cancel),
        ("zigzag identities hold", _all_hold(_CURLS, m, order)),
        ("crossing slides across a cap", _cap_slide_holds(m, order)),
        ("full twist through a cup gives the framing unit", _all_hold(_KINKS, m, order)),
        ("mixed crossing matches its cup and cap form", mixed_match),
        ("mixed crossings compose to the identity", mixed_cancel),
        ("coproduct transport assembles iterated twists", _transport_holds(m, order)),
        ("weight factors commute with the twist", _weight_factor_commutes(m, order)),
    ]
    # degree bounded by the number of tensor-square summands, not by mm.dim
    ann = annihilator(la.mat_scale(rr, rf.inv(tg.crossing_unit(m))), m.dim + 1)
    out.append(
        ("normalized crossing satisfies a short polynomial relation",
         ann is not None and len(ann) < mm.dim)
    )
    if cfg.spec.rank == 1:
        out.append(
            ("crossing at t = 1 matches the one-parameter form", _classical_matches(m, order))
        )
    return out


# ------------------------------------------------------------------ ybe

def ybe_holds(m1, m2, m3, order="lex"):
    id1 = la.identity(m1.dim)
    id2 = la.identity(m2.dim)
    id3 = la.identity(m3.dim)
    lhs = la.mat_mul(
        la.kron(mo.rmat(m2, m3, order), id1),
        la.mat_mul(
            la.kron(id2, mo.rmat(m1, m3, order)),
            la.kron(mo.rmat(m1, m2, order), id3),
        ),
    )
    rhs = la.mat_mul(
        la.kron(id3, mo.rmat(m1, m2, order)),
        la.mat_mul(
            la.kron(mo.rmat(m1, m3, order), id2),
            la.kron(id1, mo.rmat(m2, m3, order)),
        ),
    )
    return la.mat_eq(lhs, rhs)


def suite_ybe(cfg, depth):
    m = cfg.module
    order = cfg.basis_order
    dual = mo.dual(m)
    plain = ybe_holds(m, m, m, order)
    mixed = (
        ybe_holds(dual, m, m, order)
        and ybe_holds(m, dual, m, order)
        and ybe_holds(m, m, dual, order)
    )
    return [
        ("braid relation on three module strands", plain),
        ("braid relation with one dual strand", mixed),
    ]


# ------------------------------------------------------- tangle moves

_SLIDE_LHS = (
    "coev * dn * dn ; dn * coev * up * dn * dn ; dn * dn * %s * dn * dn ; "
    "dn * dn * up * qtr * dn ; dn * dn * qtr"
)
_SLIDE_RHS = (
    "dn * dn * coqtr ; dn * dn * up * coqtr * dn ; dn * dn * %s * dn * dn ; "
    "dn * ev * up * dn * dn ; ev * dn * dn"
)
_ROT_Y = "coev * up * dn ; dn * xp * dn ; dn * up * qtr"
_ROT_T = "dn * up * coqtr ; dn * xm * dn ; ev * up * dn"

# (name, lhs, rhs) word pairs; the rmatrix suite reuses the curls and kinks
_CURLS = (
    ("left curl straightens on an upward strand", "up * coev ; qtr * up", "up"),
    ("right curl straightens on an upward strand", "coqtr * up ; up * ev", "up"),
    ("left curl straightens on a downward strand", "dn * coqtr ; ev * dn", "dn"),
    ("right curl straightens on a downward strand", "coev * dn ; dn * qtr", "dn"),
)
_MOVES = (
    ("positive crossing slides around a clasp", _SLIDE_LHS % "xp", _SLIDE_RHS % "xp"),
    ("negative crossing slides around a clasp", _SLIDE_LHS % "xm", _SLIDE_RHS % "xm"),
    ("opposite crossings cancel, positive on top", "xm ; xp", "up * up"),
    ("opposite crossings cancel, negative on top", "xp ; xm", "up * up"),
    ("braid move holds", "xp * up ; up * xp ; xp * up", "up * xp ; xp * up ; up * xp"),
)
_KINKS = (
    ("positive kink vanishes", tg.KINK % "xp", "up"),
    ("negative kink vanishes", tg.KINK % "xm", "up"),
)
_ROTATIONS = (
    ("rotation round trip is the identity, one way", _ROT_Y + " ; " + _ROT_T, "up * dn"),
    ("rotation round trip is the identity, other way", _ROT_T + " ; " + _ROT_Y, "dn * up"),
)


def tangles_equal(a, b, m, order="lex"):
    if a.source != b.source or a.target != b.target:
        return False
    return la.mat_eq(tg.functor_T(a, m, order), tg.functor_T(b, m, order))


def _all_hold(table, m, order):
    return all(tangles_equal(tg.parse(a), tg.parse(b), m, order) for _, a, b in table)


def suite_tangle_relations(cfg, depth):
    m = cfg.module
    order = cfg.basis_order
    return [
        (name, tangles_equal(tg.parse(a), tg.parse(b), m, order))
        for name, a, b in _CURLS + _MOVES + _KINKS + _ROTATIONS
    ]


# ------------------------------------------------------------- registry

SUITES = (
    ("forms", suite_forms),
    ("pairing", suite_pairing),
    ("quasiR", suite_quasiR),
    ("rmatrix", suite_rmatrix),
    ("ybe", suite_ybe),
    ("tangle-relations", suite_tangle_relations),
)

SUITE_NAMES = tuple(name for name, _ in SUITES) + ("all",)


def run_suite(name, cfg, depth=4):
    if name == "all":
        out = []
        for sub, func in SUITES:
            out.extend(("%s: %s" % (sub, cname), ok) for cname, ok in func(cfg, depth))
        return out
    for sub, func in SUITES:
        if sub == name:
            return func(cfg, depth)
    raise ValueError("unknown suite %r" % name)
