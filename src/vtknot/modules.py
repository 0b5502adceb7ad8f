"""Finite-dimensional weight modules and the operators built on them.

A module is stored as plain matrix data: `act_E[i][r][c]` is the coefficient
of `basis[r]` in `E_i . basis[c]`, and likewise for `act_F`.  Everything else
(tensor products, duals, evaluation and trace maps, the braiding) is derived
from that data, so a module loaded from a file and a module built in code go
through identical paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import prod

from . import cartan as ca
from . import linalg as la
from . import quasir
from . import ratfield as rf
from .ratfield import ONE, RatFunc, ZERO


@dataclass(frozen=True, eq=False)
class WeightModule:
    spec: ca.CartanSpec
    labels: tuple
    weights: tuple
    act_E: tuple
    act_F: tuple

    @property
    def dim(self) -> int:
        return len(self.labels)


def make_module(spec, labels, weights, act_E, act_F) -> WeightModule:
    labels = tuple(str(x) for x in labels)
    weights = tuple(ca.weight(w) for w in weights)
    assert len(weights) == len(labels)
    assert len(act_E) == spec.rank and len(act_F) == spec.rank
    return WeightModule(
        spec,
        labels,
        weights,
        tuple([list(row) for row in m] for m in act_E),
        tuple([list(row) for row in m] for m in act_F),
    )


def keig(spec: ca.CartanSpec, mu, lam) -> RatFunc:
    """Eigenvalue of K_mu on a vector of weight lam."""
    return ca.brace(spec, mu, lam)


def kpeig(spec: ca.CartanSpec, mu, lam) -> RatFunc:
    """Eigenvalue of K'_mu: the v-power flips sign, the t-power does not."""
    return rf.mono(1, -ca.dot(spec, mu, lam), ca.angle(spec, lam, mu) - ca.angle(spec, mu, lam))


def _diag(values) -> la.Matrix:
    vals = list(values)
    n = len(vals)
    out = la.zeros(n, n)
    for k in range(n):
        out[k][k] = vals[k]
    return out


def act_K(m: WeightModule, mu) -> la.Matrix:
    return _diag(keig(m.spec, mu, w) for w in m.weights)


def act_Kp(m: WeightModule, mu) -> la.Matrix:
    return _diag(kpeig(m.spec, mu, w) for w in m.weights)


def act_word(m: WeightModule, word, side: str) -> la.Matrix:
    mats = m.act_E if side == "E" else m.act_F
    out = la.identity(m.dim)
    for i in word:
        out = la.mat_mul(out, mats[i])
    return out


def act_elem(m: WeightModule, x, side: str) -> la.Matrix:
    out = la.zeros(m.dim, m.dim)
    for word, coeff in x.items():
        out = la.mat_add(out, la.mat_scale(act_word(m, word, side), coeff))
    return out


def kappa(spec: ca.CartanSpec, i: int, mu) -> RatFunc:
    """(v^(i.mu) - v^(-i.mu)) c_{i,mu} / (v_i - v_i^-1)."""
    e = ca.unit(spec, i)
    a = ca.dot(spec, e, mu)
    d = ca.d_i(spec, i)
    num = (rf.mono(1, a, 0) - rf.mono(1, -a, 0)) * ca.c(spec, i, mu)
    return num / (rf.mono(1, d, 0) - rf.mono(1, -d, 0))


def validate_module(m: WeightModule) -> list:
    """Relation checks; returns a list of failure descriptions."""
    spec = m.spec
    failures = []
    for i in range(spec.rank):
        e = ca.unit(spec, i)
        for mats, shift, tag in ((m.act_E, e, "E"), (m.act_F, ca.weight_neg(e), "F")):
            for r in range(m.dim):
                for c in range(m.dim):
                    if mats[i][r][c].is_zero():
                        continue
                    if m.weights[r] != ca.weight_add(m.weights[c], shift):
                        failures.append(
                            "%s_%d breaks the weight grading at entry (%d, %d)" % (tag, i + 1, r + 1, c + 1)
                        )
    for i in range(spec.rank):
        for j in range(spec.rank):
            lhs = la.mat_sub(
                la.mat_mul(m.act_E[i], m.act_F[j]), la.mat_mul(m.act_F[j], m.act_E[i])
            )
            if i == j:
                rhs = _diag(kappa(spec, i, w) for w in m.weights)
            else:
                rhs = la.zeros(m.dim, m.dim)
            if not la.mat_eq(lhs, rhs):
                failures.append("commutator of E_%d with F_%d is wrong" % (i + 1, j + 1))
    from . import freealg

    for i in range(spec.rank):
        for j in range(spec.rank):
            if i == j:
                continue
            for side in ("E", "F"):
                if not la.is_zero_matrix(act_elem(m, freealg.serre_element(spec, i, j, side), side)):
                    failures.append(
                        "higher braid relation fails on the %s side for (%d, %d)" % (side, i + 1, j + 1)
                    )
    seen = set()
    return [x for x in failures if not (x in seen or seen.add(x))]


def trivial(spec: ca.CartanSpec) -> WeightModule:
    z = [[ZERO]]
    return make_module(
        spec, ("1",), (tuple(0 for _ in range(spec.rank)),),
        tuple(z for _ in range(spec.rank)), tuple(z for _ in range(spec.rank)),
    )


RANK1 = ca.make_spec(1, [[2]], [[1]])


def rank1_simple(n: int, spec: ca.CartanSpec = RANK1) -> WeightModule:
    """Simple highest-weight module with n+1 basis vectors over a rank-one datum.

    F walks down the string, E comes back with coefficients a_k fixed by the
    commutator relation; the recursion must close with a_{n+1} = 0.
    """
    assert spec.rank == 1 and n >= 0
    lam = ca.weight((Fraction(n, 2),))
    weights = [ca.weight_sub(lam, (k,)) for k in range(n + 1)]
    acoef = [ZERO]
    for k in range(1, n + 2):
        acoef.append(acoef[k - 1] + kappa(spec, 0, ca.weight_sub(lam, (k - 1,))))
    assert acoef[n + 1].is_zero()
    aE = la.zeros(n + 1, n + 1)
    aF = la.zeros(n + 1, n + 1)
    for k in range(n):
        aF[k + 1][k] = ONE
        aE[k][k + 1] = acoef[k + 1]
    return make_module(spec, tuple("w%d" % k for k in range(n + 1)), weights, (aE,), (aF,))


def coprod_E(a: WeightModule, b: WeightModule, i: int, bar: bool = False) -> la.Matrix:
    spec = a.spec
    e = ca.unit(spec, i)
    eig = kpeig if bar else keig
    kdiag = _diag(eig(spec, e, w) for w in a.weights)
    return la.mat_add(
        la.kron(a.act_E[i], la.identity(b.dim)), la.kron(kdiag, b.act_E[i])
    )


def coprod_F(a: WeightModule, b: WeightModule, i: int, bar: bool = False) -> la.Matrix:
    spec = a.spec
    e = ca.unit(spec, i)
    eig = keig if bar else kpeig
    kdiag = _diag(eig(spec, e, w) for w in b.weights)
    return la.mat_add(
        la.kron(la.identity(a.dim), b.act_F[i]), la.kron(a.act_F[i], kdiag)
    )


def tensor(a: WeightModule, b: WeightModule) -> WeightModule:
    assert a.spec is b.spec or a.spec == b.spec
    spec = a.spec
    labels = tuple("(%s,%s)" % (x, y) for x in a.labels for y in b.labels)
    weights = tuple(ca.weight_add(wa, wb) for wa in a.weights for wb in b.weights)
    act_E = tuple(coprod_E(a, b, i) for i in range(spec.rank))
    act_F = tuple(coprod_F(a, b, i) for i in range(spec.rank))
    return make_module(spec, labels, weights, act_E, act_F)


def dual(m: WeightModule) -> WeightModule:
    """Left dual: u acts through the antipode, transposed."""
    spec = m.spec
    dE, dF = [], []
    for i in range(spec.rank):
        e = ca.unit(spec, i)
        kinv = _diag(rf.inv(keig(spec, e, w)) for w in m.weights)
        kpinv = _diag(rf.inv(kpeig(spec, e, w)) for w in m.weights)
        sE = la.mat_scale(la.mat_mul(kinv, m.act_E[i]), -ONE)
        sF = la.mat_scale(la.mat_mul(m.act_F[i], kpinv), -ONE)
        dE.append(la.transpose(sE))
        dF.append(la.transpose(sF))
    return make_module(
        spec,
        tuple(x + "*" for x in m.labels),
        tuple(ca.weight_neg(w) for w in m.weights),
        tuple(dE),
        tuple(dF),
    )


def _v2(spec: ca.CartanSpec, w) -> RatFunc:
    return ca.v_deg(spec, w) * ca.v_deg(spec, w)


def ev_map(m: WeightModule) -> la.Matrix:
    """dual(M) (x) M -> trivial, w* (x) w' -> w*(w')."""
    out = la.zeros(1, m.dim * m.dim)
    for k in range(m.dim):
        out[0][k * m.dim + k] = ONE
    return out


def qtr_map(m: WeightModule) -> la.Matrix:
    """M (x) dual(M) -> trivial, with the v^2_{-|w|} twist."""
    out = la.zeros(1, m.dim * m.dim)
    for k in range(m.dim):
        out[0][k * m.dim + k] = _v2(m.spec, ca.weight_neg(m.weights[k]))
    return out


def coev_map(m: WeightModule) -> la.Matrix:
    """trivial -> dual(M) (x) M, 1 -> sum v^2_{|w|} w* (x) w."""
    out = la.zeros(m.dim * m.dim, 1)
    for k in range(m.dim):
        out[k * m.dim + k][0] = _v2(m.spec, m.weights[k])
    return out


def coqtr_map(m: WeightModule) -> la.Matrix:
    """trivial -> M (x) dual(M), 1 -> sum w (x) w*."""
    out = la.zeros(m.dim * m.dim, 1)
    for k in range(m.dim):
        out[k * m.dim + k][0] = ONE
    return out


def qdim(m: WeightModule) -> RatFunc:
    out = ZERO
    for w in m.weights:
        out = out + _v2(m.spec, ca.weight_neg(w))
    return out


def ftilde(a: WeightModule, b: WeightModule) -> la.Matrix:
    return _diag(ca.f(a.spec, wa, wb) for wa in a.weights for wb in b.weights)


def ftilde_inv(a: WeightModule, b: WeightModule) -> la.Matrix:
    return _diag(ca.brace(a.spec, wa, wb) for wa in a.weights for wb in b.weights)


def perm(a: WeightModule, b: WeightModule) -> la.Matrix:
    """Flip a (x) b -> b (x) a."""
    out = la.zeros(a.dim * b.dim, a.dim * b.dim)
    for c1 in range(a.dim):
        for c2 in range(b.dim):
            out[c2 * a.dim + c1][c1 * b.dim + c2] = ONE
    return out


def _raising_degrees(m: WeightModule) -> set:
    out = set()
    for wr in m.weights:
        for wc in m.weights:
            d = ca.weight_sub(wr, wc)
            if any(d) and all(x >= 0 and x.denominator == 1 for x in d):
                out.add(tuple(int(x) for x in d))
    return out


def theta_degrees(a: WeightModule, b: WeightModule) -> list:
    """Degrees that can act nontrivially on a (x) b, lowering in the first slot."""
    return sorted(_raising_degrees(a) & _raising_degrees(b))


def _theta_op(mods, s: int, l: int, table, order: str, degrees=None) -> la.Matrix:
    """Sum of coeff * F_fw on slot s (x) E_ew on slot l over a theta table.

    mods lists the tensor factors; the other slots carry the identity.  The
    degrees default to 0 and every degree that can act on slots s and l;
    degree 0 contributes the identity and negative degrees contribute zero.
    """
    spec = mods[0].spec
    size = prod(m.dim for m in mods)
    if degrees is None:
        degrees = [(0,) * spec.rank] + theta_degrees(mods[s], mods[l])
    out = la.zeros(size, size)
    for nu in degrees:
        if any(x < 0 for x in nu):
            continue
        if not any(nu):
            out = la.mat_add(out, la.identity(size))
            continue
        for (fw, ew), coeff in table(spec, nu, order).items():
            mats = [
                act_word(m, fw, "F") if k == s else act_word(m, ew, "E") if k == l
                else la.identity(m.dim)
                for k, m in enumerate(mods)
            ]
            if la.is_zero_matrix(mats[s]) or la.is_zero_matrix(mats[l]):
                continue
            term = mats[0]
            for x in mats[1:]:
                term = la.kron(term, x)
            out = la.mat_add(out, la.mat_scale(term, coeff))
    return out


def theta_mat(a: WeightModule, b: WeightModule, order: str = "lex") -> la.Matrix:
    return _theta_op([a, b], 0, 1, quasir.theta, order)


def theta_bar_mat(a: WeightModule, b: WeightModule, order: str = "lex") -> la.Matrix:
    return _theta_op([a, b], 0, 1, quasir.theta_bar, order)


def rmat(a: WeightModule, b: WeightModule, order: str = "lex") -> la.Matrix:
    """Braiding a (x) b -> b (x) a: flip, then the weight factor, then theta."""
    return la.mat_mul(
        theta_mat(b, a, order), la.mat_mul(ftilde(b, a), perm(a, b))
    )


def rmat_inv(a: WeightModule, b: WeightModule, order: str = "lex") -> la.Matrix:
    """Inverse braiding b (x) a -> a (x) b, via the conjugated theta."""
    return la.mat_mul(
        perm(b, a), la.mat_mul(ftilde_inv(b, a), theta_bar_mat(b, a, order))
    )


def highest_weight(m: WeightModule):
    tops = []
    for lam in set(m.weights):
        if all(
            all(x >= 0 for x in ca.weight_sub(lam, mu)) for mu in m.weights
        ):
            tops.append(lam)
    if len(tops) != 1:
        raise ValueError("module has no unique maximal weight")
    return tops[0]


def is_module_map(dom: WeightModule, cod: WeightModule, mat: la.Matrix) -> bool:
    for r in range(cod.dim):
        for c in range(dom.dim):
            if not mat[r][c].is_zero() and cod.weights[r] != dom.weights[c]:
                return False
    for i in range(dom.spec.rank):
        for side in ("act_E", "act_F"):
            du = getattr(dom, side)[i]
            cu = getattr(cod, side)[i]
            if not la.mat_eq(la.mat_mul(mat, du), la.mat_mul(cu, mat)):
                return False
    return True
