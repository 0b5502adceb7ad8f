"""Named identity suites behind the verify command.

Each suite function takes a loaded run configuration and a truncation depth
and returns an ordered list of (check name, passed) pairs.  Enumeration is
always over deterministic word/degree orders so repeated runs print the same
report byte for byte.  One check, `_inverse_pair`, tests that two operators
invert each other, theta and its conjugate, and the crossing and its
inverse, by one product: for square matrices over a field a b = 1 implies
b a = 1.  `annihilator` clears each coordinate's powers once per degree.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

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


def _inverse_pair(a, b):
    """Whether the square matrices a and b of one size invert each other.

    Checks a b = 1 only: over the field Q(v, t) a square matrix with a
    right inverse is invertible, so b a = 1 follows.
    """
    return la.mat_eq(la.mat_mul(a, b), la.identity(a.rows))


# ---------------------------------------------------------------- forms

def _split_once(spec, x, left):
    """Apply the twisted coproduct to one slot of a 2-tensor."""
    out = {}
    for (a, b), c in x.items():
        for (p, q), ic in fa._word_coproduct(spec, a if left else b, 1).items():
            fa.accumulate(out, (p, q, b) if left else (a, p, q), c * ic)
    return out


def _rbar_is_flip(spec, wx, rx):
    flipped = {}
    for (a, b), c in rx.items():
        da, db = fa.deg(spec, a), fa.deg(spec, b)
        tw = ca.twist(spec, da, db, -1)
        fa.accumulate(flipped, (b, a), c * tw)
    return fa.f_eq(flipped, fa._word_coproduct(spec, wx, -1))


def _derivs_are_slices(spec, wx, rx):
    for i in range(spec.rank):
        right = {}
        left = {}
        for (a, b), c in rx.items():
            if b == (i,):
                fa.accumulate(right, a, c)
            if a == (i,):
                fa.accumulate(left, b, c)
        if not fa.f_eq(fa._deriv_word(spec, i, wx, "r", "E"), right):
            return False
        if not fa.f_eq(fa._deriv_word(spec, i, wx, "l", "E"), left):
            return False
    return True


def _sigma_conjugates(spec, wx, rx):
    rev, tw = fa._sigma_word(spec, wx)
    lhs = {k: tw * c for k, c in fa._word_coproduct(spec, rev, 1).items()}
    rhs = {}
    for (a, b), c in rx.items():
        (ra, ta), (rb, tb) = fa._sigma_word(spec, a), fa._sigma_word(spec, b)
        twist = ca.twist(spec, fa.deg(spec, a), fa.deg(spec, b), 0)
        fa.accumulate(rhs, (rb, ra), c * twist * tb * ta)
    return fa.f_eq(lhs, rhs)


def suite_forms(cfg, depth):
    spec = cfg.spec
    coassoc = flip = slices = conj = sym = True
    for mu in ca.degrees_tr_upto(spec.rank, depth):
        words = fa.words_of_degree(mu)
        for wx in words:
            rx = fa._word_coproduct(spec, wx, 1)
            coassoc = coassoc and fa.f_eq(
                _split_once(spec, rx, True), _split_once(spec, rx, False)
            )
            flip = flip and _rbar_is_flip(spec, wx, rx)
            slices = slices and _derivs_are_slices(spec, wx, rx)
            conj = conj and _sigma_conjugates(spec, wx, rx)
            # each unordered word pair once: (wy, wx) is the same comparison
            for wy in words:
                if wy > wx:
                    sym = sym and rf.eq(
                        pr._form_words(spec, wx, wy), pr._form_words(spec, wy, wx)
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
                # the relator's degree has tr n + 1; deeper ones are left out
                if i == j or spec.dot[i][j] == 0 or fa.serre_power(spec, i, j) >= depth:
                    continue
                se = fa.serre_element(spec, i, j)
                mu = fa.deg(spec, next(iter(se)))
                for w in fa.words_of_degree(mu):
                    rad = rad and rf.eq(pr.form(spec, se, fa.felem(w)), ZERO)
        out.append(("braid relators sit in the form radical", rad))
    return out


# -------------------------------------------------------------- pairing
# Two checks compare sums that repeat their inner parts, and each sum is
# regrouped so that every inner part is made once.  The values compared, and
# so the checks, stay the same.
# - The split line: (x, y z) = sum over r(x) of c (x1, y)(x2, z).  Only the
#   terms with deg x1 = deg y pair, so r(x) is grouped by that degree, and
#   inner[x1][z] = sum over x2 of c (x2, z) is made once per x1, then summed
#   as (x1, y) inner[x1][z] over x1 for each y.  The sums run on
#   `pairing._phi_num` numerators.  (x1, y) is over den(y), (x2, z) over
#   den(z) and (x, y z) over den(y z).  So when den(y z) = den(y) den(z) and
#   every c is Laurent, the numerators are equal exactly when the values are.
#   The line checks both premises itself and fails when either does not hold.
# - The quasiR probe: two theta tables {(F-word, E-word): c} of one degree are
#   compared by pairing each with every probe pair (x, y) of the degree, in
#   two steps: half[ew] = sum_fw phi(x, fw) c(fw, ew) once per x, then
#   sum_ew half[ew] phi(ew, y).  That is the per-pair sum of c phi(x, fw)
#   phi(ew, y), at N n^2 + N^2 n products, not N^2 n^2, for N words in the
#   degree and n in the table.

def _dot(pairs):
    """The sum of a * b over the LaurentPoly pairs (a, b)."""
    acc = rf.LP_ZERO
    for a, b in pairs:
        if a.terms and b.terms:
            acc = acc + a * b
    return acc


def _splits_through_coproduct(spec, ew, splits):
    """Whether phi(E_ew, F_y F_z) is the coproduct sum on numerators for
    every split (nu, ys, zs) of the degree, y in ys of degree nu and z in zs."""
    num = lambda e, f: pr._phi_num(spec, e, f, "l", "F")
    by_deg = {}
    for (x1, x2), c in fa._word_coproduct(spec, ew, 1).items():
        if c.den != rf.LP_ONE:
            return False
        by_deg.setdefault(fa.deg(spec, x1), {}).setdefault(x1, []).append((x2, c.num))
    for nu, ys, zs in splits:
        inner = [(x1, [_dot((c, num(x2, z)) for x2, c in tail) for z in zs])
                 for x1, tail in by_deg.get(nu, {}).items()]
        for y in ys:
            left = [(num(x1, y), row) for x1, row in inner]
            for k, z in enumerate(zs):
                if num(ew, y + z) != _dot((a, row[k]) for a, row in left):
                    return False
    return True


def suite_pairing(cfg, depth):
    spec = cfg.spec
    peel = invariance = conj = split = gram_sym = True
    for mu in ca.degrees_tr_upto(spec.rank, depth):
        words = fa.words_of_degree(mu)
        rows, _ = pr.gram(spec, mu, words)
        # theta eliminates candidate words only: the basis must carry the rank of all of them
        qr.require_full_rank(len(qr.select_basis(spec, mu, cfg.basis_order)), la.rank(rows))
        # reversal takes a word to one word times a t-power, and the
        # conjugation v -> v^-1 fixes a word, so both lines read word tables
        unscale = rf.inv(qr.conj_scale(spec, mu))
        # the symmetry, principal_pivots' precondition, is read off ("r", "F"):
        # gram's ("l", "F") order makes its lower triangle as the flip of the
        # upper one.  Every entry is over the one den, which has no t, so each
        # numerator is compared with the t-flip of its mirror's
        for r, ew in enumerate(words):
            er, te = fa._sigma_word(spec, ew)
            for c, fw in enumerate(words):
                gram_sym = gram_sym and pr._phi_num(spec, ew, fw, "r", "F") == rf._flip_poly(
                    pr._phi_num(spec, fw, ew, "r", "F"), 1, -1)
                # every order is a numerator over the one den of rows[r][c]
                peel = peel and all(
                    pr._phi_num(spec, ew, fw, end, side) == rows[r][c]
                    for end, side in (("r", "F"), ("l", "E"), ("r", "E"))
                )
                fr, tf = fa._sigma_word(spec, fw, "F")
                want = pr._phi_words(spec, ew, fw)
                invariance = invariance and rf.eq(want, te * tf * pr._phi_words(spec, er, fr))
                conj = conj and rf.eq(rf.bar(want), unscale * tf * pr._phi_words(spec, ew, fr))
        # the split line compares numerators, so it checks the den premise
        # first: F_y F_z pairs over the product of the dens of F_y and F_z
        splits = [(nu, fa.words_of_degree(nu), fa.words_of_degree(ca.deg_sub(mu, nu)))
                  for nu in ca.degrees_below(mu)]
        split = split and all(
            pr._phi_den(spec, y + z) == pr._phi_den(spec, y) * pr._phi_den(spec, z)
            for _, ys, zs in splits for y in ys for z in zs
        )
        for ew in words:
            split = split and _splits_through_coproduct(spec, ew, splits)
    return [
        ("all four peeling orders agree", peel),
        ("pairing is invariant under reversal", invariance),
        ("conjugate pairing factors through reversal", conj),
        ("pairing splits products through the coproduct", split),
        ("gram matrices are symmetric up to inverting t", gram_sym),
    ]


# --------------------------------------------------------------- quasiR
# The theta probe is regrouped as the pairing section's comment says.

def _theta_rows(spec, mu, table):
    """Per probe word x, the pairings of a theta table with x and each y."""
    words = fa.words_of_degree(mu)
    for x in words:
        half = {}
        for (fw, ew), c in table.items():
            a = pr._phi_words(spec, x, fw)
            if not a.is_zero():
                fa.accumulate(half, ew, a * c)
        yield [fa.bilinear(pr._phi_words, spec, half, fa.felem(y)) for y in words]


def _theta_tables_agree(spec, mu, lhs, rhs):
    return all(
        rf.eq(a, b)
        for ra, rb in zip(_theta_rows(spec, mu, lhs), _theta_rows(spec, mu, rhs))
        for a, b in zip(ra, rb)
    )


def _ladder_holds(m, i, order, degrees):
    """Per-degree slices of the defining relations for theta on m (x) m at
    generator i; the Kronecker products do not depend on the degree."""
    ei, fi = m.act_E[i], m.act_F[i]
    ki = mo.act_K(m, ca.unit(m.spec, i))
    kpi = mo.act_K(m, ca.unit(m.spec, i), -1)
    kks = [la.kron(ki, ki), la.kron(kpi, kpi)]
    # the term the straight and conjugated coproducts share, then the rest of each
    sides = [
        (la.kron(ei, m.dim), la.kron(ki, ei), la.kron(kpi, ei)),
        (la.kron(m.dim, fi), la.kron(fi, kpi), la.kron(fi, ki)),
    ]
    for mu in degrees:
        th = mo._theta_op([m, m], 0, 1, qr.theta, order, [mu])
        down = tuple(x - y for x, y in zip(mu, ca.unit(m.spec, i)))
        th_down = mo._theta_op([m, m], 0, 1, qr.theta, order, [down])
        if not all(la.mat_eq(la.mat_mul(kk, th), la.mat_mul(th, kk)) for kk in kks):
            return False
        for same, straight, conjd in sides:
            lhs = la.mat_add(la.mat_mul(same, th), la.mat_mul(straight, th_down))
            rhs = la.mat_add(la.mat_mul(th, same), la.mat_mul(th_down, conjd))
            if not la.mat_eq(lhs, rhs):
                return False
    return True


def _expands_coproduct(m, mm, w, order, side, terms):
    """The coproduct of the E-word (side "E") or F-word w on m (x) m in dual bases.

    Side "E": the basis words pair with w, the dual elements act, and K_mu
    sits on slot 1.  Side "F": the roles swap, and K'_mu sits on slot 2.
    `terms` keeps each degree's (element paired with w, its partner's action)
    pairs per side across the calls of one suite run.
    """
    spec = m.spec
    lam = fa.deg(spec, w)
    # step reverses the pairing's arguments and the two slots on side F
    step = 1 if side == "E" else -1
    for mu in ca.degrees_below(lam):
        if (side, mu) not in terms:
            words = [fa.felem(b) for b in qr.select_basis(spec, mu, order)]
            duals = [qr.dual_element(spec, mu, k, order) for k in range(len(words))]
            paired, acting = (words, duals)[::step]
            terms[side, mu] = [(x, mo.act_elem(m, y, side)) for x, y in zip(paired, acting)]
    rhs = {}  # every term's Kronecker product added into one entry table
    for mu in ca.degrees_below(lam):
        k = mo.act_K(m, mu, step)
        partners = [(bp, la.mat_mul(bpmat, k)) for bp, bpmat in terms[side, ca.deg_sub(lam, mu)]]
        for b, bmat in terms[side, mu]:
            for bp, bpk in partners:
                coeff = pr.phi(spec, *(fa.felem(w), fa.mul(bp, b))[::step])
                if not coeff.is_zero():
                    mo._add_terms(rhs, coeff, la._kron_cells((bpk, bmat)[::step]))
    return la.mat_eq(mo.act_word(mm, w, side), la.Matrix(mm.dim, mm.dim, rhs))


def suite_quasiR(cfg, depth):
    spec = cfg.spec
    m = cfg.module
    order = cfg.basis_order
    dual_pair = conj_matches = order_free = True
    degrees = [mu for mu in ca.degrees_tr_upto(spec.rank, depth) if ca.tr(mu)]
    for mu in degrees:
        words = qr.select_basis(spec, mu, order)
        for ai, wa in enumerate(words):
            de = qr.dual_element(spec, mu, ai, order)
            for bi, wb in enumerate(words):
                got = pr.phi(spec, de, fa.felem(wb))
                dual_pair = dual_pair and rf.eq(got, ONE if ai == bi else ZERO)
        bar_table = {k: rf.bar(v) for k, v in qr.theta(spec, mu, order).items()}
        conj_matches = conj_matches and _theta_tables_agree(
            spec, mu, qr.theta_bar(spec, mu, order), bar_table
        )
        order_free = order_free and _theta_tables_agree(
            spec, mu, qr.theta(spec, mu, "lex"), qr.theta(spec, mu, "revlex")
        )
    ladder = all(_ladder_holds(m, i, order, degrees) for i in range(spec.rank))
    mm = mo.tensor(m, m)
    th = mo._theta_op([m, m], 0, 1, qr.theta, order)
    tb = mo._theta_op([m, m], 0, 1, qr.theta_bar, order)
    intertwines = True
    for i in range(spec.rank):
        for side, straight in zip("EF", (mm.act_E[i], mm.act_F[i])):
            conjd = mo.coprod(m, m, i, side, True)
            intertwines = intertwines and la.mat_eq(la.mat_mul(straight, th), la.mat_mul(th, conjd))
    inverts = _inverse_pair(th, tb)
    delta = True
    terms = {}
    for mu in ca.degrees_tr_upto(spec.rank, min(depth, 3)):
        for w in fa.words_of_degree(mu):
            for side in ("E", "F"):
                delta = delta and _expands_coproduct(m, mm, w, order, side, terms)
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

def _cap_slide_holds(m, dual, rr):
    d = m.dim
    qtr = mo.cup_cap(m, "qtr")
    outer = la.mat_mul(qtr, la.kron(d, qtr, d))
    lhs = la.mat_mul(outer, la.kron(d * d, mo.rmat(dual, dual)))
    rhs = la.mat_mul(outer, la.kron(rr, d * d))
    return la.mat_eq(lhs, rhs)


def _ftilde_slots(m, s, l):
    """The diagonal weight factor f(w_s, w_l) of slots s and l on m (x) m (x) m."""
    den = m.den * m.den
    return mo._diag(ca.f(m.spec, ws[s], ws[l], den) for ws in product(m.weights, repeat=3))


def _transport_holds(m, mm, f31, f32):
    """Coproduct across the first two slots assembles iterated twists; mm is
    the tensor square m (x) m."""
    mods = [m, m, m]
    # theta with F on the third strand and E on the tensor square of the first two
    lhs_head = mo._theta_op([mm, m], 1, 0, qr.theta)
    lhs = la.mat_mul(lhs_head, la.mat_mul(f31, f32))
    rhs = la.mat_mul(
        la.mat_mul(mo._theta_op(mods, 2, 0, qr.theta), f31),
        la.mat_mul(mo._theta_op(mods, 2, 1, qr.theta), f32),
    )
    return la.mat_eq(lhs, rhs)


def _weight_factor_commutes(m, f31, f32):
    th12 = mo._theta_op([m, m, m], 0, 1, qr.theta)
    ff = la.mat_mul(f31, f32)
    return la.mat_eq(la.mat_mul(ff, th12), la.mat_mul(th12, ff))


def _classical_matches(m, rr):
    """Rank-one crossing at t = 1 against the one-parameter closed form."""
    spec = m.spec
    d = m.dim
    at1 = lambda x: rf.specialize(x, {"t": 1})
    e1 = la.mat_map(m.act_E[0], at1)
    f1 = la.mat_map(m.act_F[0], at1)
    vdiff = rf.parse("v - v^-1")
    theta_cl = la.identity(d * d)
    fk, ek = la.identity(d), la.identity(d)
    power = ONE
    k = 0
    while True:
        k += 1
        fk = la.mat_mul(fk, f1)
        ek = la.mat_mul(ek, e1)
        if not (fk.entries and ek.entries):
            break
        power = power * vdiff
        ck = rf.mono((-1) ** k, Fraction(-k * (k - 1), 2), 0) * power / at1(
            rf.qfact(k, 1)
        )
        theta_cl = la.mat_add(theta_cl, la.mat_scale(la.kron(fk, ek), ck))
    diag = mo._diag(
        rf.mono(1, -ca.dot(spec, wa, wb, m.den * m.den), 0)
        for wa in m.weights
        for wb in m.weights
    )
    want = la.mat_mul(theta_cl, la.mat_mul(diag, mo.perm(m, m)))
    return la.mat_eq(la.mat_map(rr, at1), want)


def annihilator(mat, maxdeg):
    """Coefficients c with mat^d = sum_k c[k] mat^k for the least d, or None."""
    powers = [la.identity(mat.rows)]
    # unreduced values snowball across powers and into the residue below;
    # exact division of each power entry and each coefficient tames them
    for _ in range(maxdeg):
        powers.append(la.mat_map(la.mat_mul(powers[-1], mat), rf.reduce_poly))
    # a position where every power is zero can never be picked
    coords = sorted({(r, c) for p in powers for r, c, _ in p.items()})
    for d in range(1, maxdeg + 1):
        # each coordinate's first d powers over one den, cleared once
        cleared, picked = {}, []
        for rc in coords:
            cleared[rc] = rf._clear_dens([powers[k][rc] for k in range(d)])
            rows = [cleared[x][0] for x in picked + [rc]]
            if la.rank(rows) == len(rows):
                picked.append(rc)
                if len(picked) == d:
                    break
        # d coordinates are always picked: were P^0..P^(d-1) dependent, a
        # smaller d would have returned
        a, dens = zip(*(cleared[rc] for rc in picked))
        b = [powers[d][r, c] for r, c in picked]
        coeffs = [rf.reduce_poly(sum((x * y for x, y in zip(row, b)), ZERO))
                  for row in la.inverse(a, dens)]
        residue = powers[d]
        for k in range(d):
            residue = la.mat_sub(residue, la.mat_scale(powers[k], coeffs[k]))
        if not residue.entries:
            return coeffs
    return None


def suite_rmatrix(cfg, depth):
    m = cfg.module
    dual = mo.dual(m)
    mm = mo.tensor(m, m)
    rr = mo.rmat(m, m)
    rinv = mo.rmat_inv(m, m)
    f31, f32 = _ftilde_slots(m, 2, 0), _ftilde_slots(m, 2, 1)
    cancel = _inverse_pair(rr, rinv)
    # the functor scales xm by the crossing unit
    mixed_match = la.mat_eq(
        tg.functor_T(tg.parse(_ROT_Y % "xm"), m),
        la.mat_scale(mo.rmat(m, dual), tg.crossing_unit(m)),
    )
    out = [
        ("crossing is a module map", mo.is_module_map(mm, mm, rr)),
        ("crossing and its inverse cancel", cancel),
        ("zigzag identities hold", _all_hold(_CURLS, m)),
        ("crossing slides across a cap", _cap_slide_holds(m, dual, rr)),
        ("full twist through a cup gives the framing unit", _all_hold(_KINKS, m)),
        ("mixed crossing matches its cup and cap form", mixed_match),
        ("mixed crossings compose to the identity", _all_hold(_MIXED, m)),
        ("coproduct transport assembles iterated twists", _transport_holds(m, mm, f31, f32)),
        ("weight factors commute with the twist", _weight_factor_commutes(m, f31, f32)),
    ]
    # the summands of M (x) M are indexed by weights of M, at most dim M of them
    ann = annihilator(tg.functor_T(tg.parse("xp"), m), m.dim)
    out.append(
        ("normalized crossing satisfies a short polynomial relation",
         ann is not None and len(ann) <= m.dim)
    )
    if cfg.spec.rank == 1:
        out.append(
            ("crossing at t = 1 matches the one-parameter form", _classical_matches(m, rr))
        )
    return out


# ------------------------------------------------------------------ ybe

def ybe_holds(m1, m2, m3):
    """R12 R13 R23 = R23 R13 R12 on m1 (x) m2 (x) m3."""
    r12, r13, r23 = (mo.rmat(a, b) for a, b in ((m1, m2), (m1, m3), (m2, m3)))
    d1, d2, d3 = m1.dim, m2.dim, m3.dim
    lhs = la.mat_mul(la.kron(r23, d1), la.mat_mul(la.kron(d2, r13), la.kron(r12, d3)))
    rhs = la.mat_mul(la.kron(d3, r12), la.mat_mul(la.kron(r13, d2), la.kron(d1, r23)))
    return la.mat_eq(lhs, rhs)


def suite_ybe(cfg, depth):
    m = cfg.module
    dual = mo.dual(m)
    plain = ybe_holds(m, m, m)
    mixed = ybe_holds(dual, m, m) and ybe_holds(m, dual, m) and ybe_holds(m, m, dual)
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
# a crossing rotated by cups and caps: _ROT_Y is up dn -> dn up, _ROT_T dn up -> up dn
_ROT_Y = "coev * up * dn ; dn * %s * dn ; dn * up * qtr"
_ROT_T = "dn * up * coqtr ; dn * %s * dn ; ev * up * dn"

# (name, lhs, rhs) word pairs; the rmatrix suite reuses the curls and kinks
# and checks _MIXED, the rotations with the crossings swapped
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
    ("rotation round trip is the identity, one way",
     _ROT_Y % "xp" + " ; " + _ROT_T % "xm", "up * dn"),
    ("rotation round trip is the identity, other way",
     _ROT_T % "xm" + " ; " + _ROT_Y % "xp", "dn * up"),
)
_MIXED = (
    ("mixed crossings cancel, one way", _ROT_Y % "xm" + " ; " + _ROT_T % "xp", "up * dn"),
    ("mixed crossings cancel, other way", _ROT_T % "xp" + " ; " + _ROT_Y % "xm", "dn * up"),
)


def tangles_equal(a, b, m):
    """Whether a and b share their boundary and their value on m."""
    if a.source != b.source or a.target != b.target:
        return False
    return la.mat_eq(tg.functor_T(a, m), tg.functor_T(b, m))


def _all_hold(table, m):
    return all(tangles_equal(tg.parse(a), tg.parse(b), m) for _, a, b in table)


def suite_tangle_relations(cfg, depth):
    return [
        (name, tangles_equal(tg.parse(a), tg.parse(b), cfg.module))
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
