"""Finite-dimensional weight modules and the operators built on them.

A module is stored as sparse matrix data: `act_E[i]` is a dim x dim
`linalg.Matrix` whose entry `[r, c]` is the coefficient of `basis[r]` in
`E_i . basis[c]`, and likewise for `act_F`.  Weights sit on the integer
lattice: `weights[k]` is a tuple of int numerators over the module's one
`den`, so the grading check, raising degrees, highest weight and the twist
monomials compute on ints (see `cartan`).  Everything else (tensor
products, duals, evaluation and trace maps, the braiding) is derived from
that data as `linalg.Matrix` operators, so a module loaded from a file and a
module built in code go through identical paths.

Per-module quantities are cached per module object (`WeightModule` hashes
by identity): a word's action is built once from its prefix's, one product
per distinct word, and the theta operators, the Serre check and the suites
share those matrices.  `_theta_op` and `act_elem` add each term's entries
(a theta term's are `linalg._kron_cells`) into one {row: {col: value}}
table, then build one `Matrix`; each entry sums its terms in table order.
`validate_module` refuses a weight whose <w, a_i^v> is not an integer, so
`kappa` always writes the quantum integer on the exponent lattice, and is
cached by its arguments.  `validate_module` adds E_i F_j - F_j E_i -
delta_ij diag(kappa) entry by entry into one table, with no matrix product.
`rank1_simple(n)` is built over RANK1, the one admissible rank-one datum.
`pair_labels` names the basis of a tensor product, for `tensor` and for the
`rmatrix` dump, which needs no coproduct actions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm, prod

from . import cartan as ca
from . import freealg
from . import linalg as la
from . import quasir
from . import ratfield as rf
from .ratfield import ONE, RatFunc, ZERO


@dataclass(frozen=True, eq=False)
class WeightModule:
    spec: ca.CartanSpec
    labels: tuple
    weights: tuple  # int numerators over den
    act_E: tuple
    act_F: tuple
    den: int

    @property
    def dim(self) -> int:
        return len(self.labels)


def make_module(spec, labels, weights, act_E, act_F, den: int = 1) -> WeightModule:
    labels = tuple(str(x) for x in labels)
    weights = tuple(tuple(w) for w in weights)
    if len(weights) != len(labels):
        raise la.ShapeError("%d weights for %d basis vectors" % (len(weights), len(labels)))
    act_E, act_F = tuple(act_E), tuple(act_F)
    if len(act_E) != spec.rank or len(act_F) != spec.rank:
        raise la.ShapeError("need one E and one F action per index of a rank-%d datum" % spec.rank)
    n = len(labels)
    if any((x.rows, x.cols) != (n, n) for x in act_E + act_F):
        raise la.ShapeError("every action must be a %dx%d matrix" % (n, n))
    return WeightModule(spec, labels, weights, act_E, act_F, den)


def _diag(values) -> la.Matrix:
    vals = list(values)
    return la.Matrix(len(vals), len(vals), {k: {k: x} for k, x in enumerate(vals)})


def act_K(m: WeightModule, mu, vsign: int = 1) -> la.Matrix:
    """K_mu on m for vsign = 1, K'_mu for vsign = -1: the v-power flips sign,
    the t-power does not."""
    return _diag(ca.twist(m.spec, mu, w, vsign, m.den) for w in m.weights)


@lru_cache(maxsize=None)
def act_word(m: WeightModule, word: tuple, side: str) -> la.Matrix:
    """The word's letters applied left to right: its prefix's action times
    the last letter's, so each distinct word is one product per module."""
    if not word:
        return la.identity(m.dim)
    mats = m.act_E if side == "E" else m.act_F
    return la.mat_mul(act_word(m, word[:-1], side), mats[word[-1]])


def _add_terms(out: dict, coeff: RatFunc, cells) -> None:
    """out[r][c] += coeff * x for each (r, c, x) of cells, in place."""
    for r, c, x in cells:
        row = out.get(r)
        if row is None:
            row = out[r] = {}
        prev = row.get(c)
        row[c] = coeff * x if prev is None else prev + coeff * x


def act_elem(m: WeightModule, x, side: str) -> la.Matrix:
    out = {}
    for word, coeff in x.items():
        _add_terms(out, coeff, act_word(m, word, side).items())
    return la.Matrix(m.dim, m.dim, out)


@lru_cache(maxsize=None)
def kappa(spec: ca.CartanSpec, i: int, mu: tuple, den: int = 1) -> RatFunc:
    """(v^(i.mu) - v^(-i.mu)) c_{i,mu} / (v_i - v_i^-1) for the weight mu over den.

    Precondition: n = <mu, a_i^v> = (i.mu)/d_i is an integer, as on every
    weight that `validate_module` lets through.  The value is then the
    quantum integer [n] in v_i = v^d_i times c_{i,mu}, written on the lattice
    with no division.  Cached, so `rank1_simple` and `validate_module` share
    each value.
    """
    d = ca.d_i(spec, i)
    n = ca.dot(spec, ca.unit(spec, i), mu, den) // d
    sign, n = (1, n) if n >= 0 else (-1, -n)
    qint = {(d * (n - 1 - 2 * k), 0): sign for k in range(n)}
    return RatFunc(rf._raw(qint, 1)) * ca.c(spec, i, mu, den)


def validate_module(m: WeightModule) -> list:
    """Relation checks; returns a list of failure descriptions.

    The commutator of E_i with F_j is checked only when both pass the
    grading check, and [E_i, F_i] only when every weight has an integral
    <w, a_i^v> with |<w, a_i^v>| <= dim - 1.  A non-integral one cannot pass
    that commutator: along an a_i-string c_{i,mu} is constant and the
    exponents +-(a - 2 d_i k) never meet, so the trace of [E_i, F_i] over
    the string is not 0.  Each a_i-string of a finite-dimensional module
    over generic v is shorter than dim, so no quantum integer [n] longer
    than the module is ever written out.  For the same reason the
    Serre relator of (i, j) is checked only when its power n = 1 - <a_ij>
    of theta_i is below 2 dim - 1: from there on each of its terms holds a
    power of E_i (or F_i) of at least dim, which is zero once the grading
    check holds, and a module that fails that check is refused anyway.
    """
    spec = m.spec
    failures = []
    broken = set()
    for i in range(spec.rank):
        e = tuple(x * m.den for x in ca.unit(spec, i))
        for mats, shift, tag in ((m.act_E, e, "E"), (m.act_F, ca.weight_neg(e), "F")):
            for r, c, _ in mats[i].items():
                if m.weights[r] != ca.weight_add(m.weights[c], shift):
                    broken.add((tag, i))
                    failures.append(
                        "%s_%d breaks the weight grading at entry (%d, %d)" % (tag, i + 1, r + 1, c + 1)
                    )
    for i in range(spec.rank):
        # <w, a_i^v> = (a_i.w) / (d_i den) is the n of the quantum integer [n]
        # that kappa writes out: it must be an integer, of size below dim
        q = ca.d_i(spec, i) * m.den
        for k, w in enumerate(m.weights):
            a = ca.dot(spec, ca.unit(spec, i), w)
            if a % q:
                broken.add(("K", i))
                g = gcd(a, q)
                failures.append("weight %d has a non-integral <w, a_%d^v> = %d/%d"
                                % (k + 1, i + 1, a // g, q // g))
            if abs(a) > (m.dim - 1) * q:
                broken.add(("K", i))
                failures.append("weight %d has |<w, a_%d^v>| > dim - 1 = %d" % (k + 1, i + 1, m.dim - 1))
    for i in range(spec.rank):
        for j in range(spec.rank):
            if ("E", i) in broken or ("F", j) in broken or (i == j and ("K", i) in broken):
                continue
            # E_i F_j - F_j E_i - delta_ij diag(kappa), entry by entry in one table
            out = {}
            for a, b, neg in ((m.act_E[i], m.act_F[j], False), (m.act_F[j], m.act_E[i], True)):
                for r, k, x in a.items():
                    _add_terms(out, -x if neg else x, ((r, c, y) for c, y in b.entries.get(k, {}).items()))
            if i == j:
                _add_terms(out, ONE, ((k, k, -kappa(spec, i, w, m.den)) for k, w in enumerate(m.weights)))
            if any(not x.is_zero() for row in out.values() for x in row.values()):
                failures.append("commutator of E_%d with F_%d is wrong" % (i + 1, j + 1))
    for i in range(spec.rank):
        for j in range(spec.rank):
            if i == j or freealg.serre_power(spec, i, j) >= 2 * m.dim - 1:
                continue
            for side in ("E", "F"):
                if act_elem(m, freealg.serre_element(spec, i, j, side), side).entries:
                    failures.append(
                        "higher braid relation fails on the %s side for (%d, %d)" % (side, i + 1, j + 1)
                    )
    return failures


def trivial(spec: ca.CartanSpec) -> WeightModule:
    zs = (la.Matrix(1, 1),) * spec.rank
    return make_module(spec, ("1",), ((0,) * spec.rank,), zs, zs)


RANK1 = ca.make_spec(1, [[2]], [[1]])


def rank1_simple(n: int) -> WeightModule:
    """Simple highest-weight module with n+1 basis vectors over RANK1.

    RANK1 is the one rank-one datum that `cartan.validate` admits: Omega_11 > 0
    and a diagonal of gcd 1 force Omega = [1].  F walks down the string, E
    comes back with coefficients a_k = [n] + [n - 2] + ... + [n - 2k + 2]
    fixed by the commutator relation; the string closes, a_{n+1} = 0, since
    [-x] = -[x].
    """
    if n < 0:
        raise la.ShapeError("rank1_simple needs n >= 0")
    # the weights n/2 - k, over den 2; each kappa is a quantum integer, so
    # the E coefficients are Laurent
    weights = [(n - 2 * k,) for k in range(n + 1)]
    acoef = [ZERO]
    for k in range(1, n + 1):
        acoef.append(acoef[k - 1] + kappa(RANK1, 0, weights[k - 1], 2))
    aE = la.Matrix(n + 1, n + 1, {k: {k + 1: acoef[k + 1]} for k in range(n)})
    aF = la.Matrix(n + 1, n + 1, {k + 1: {k: ONE} for k in range(n)})
    return make_module(RANK1, tuple("w%d" % k for k in range(n + 1)), weights, (aE,), (aF,), 2)


def coprod(a: WeightModule, b: WeightModule, i: int, side: str, bar: bool = False) -> la.Matrix:
    """Delta(E_i) = E_i (x) 1 + K_i (x) E_i for side "E", Delta(F_i) =
    1 (x) F_i + F_i (x) K'_i for side "F", on a (x) b; bar swaps K and K'."""
    e = ca.unit(a.spec, i)
    if side == "E":
        return la.mat_add(la.kron(a.act_E[i], b.dim), la.kron(act_K(a, e, -1 if bar else 1), b.act_E[i]))
    return la.mat_add(la.kron(a.dim, b.act_F[i]), la.kron(a.act_F[i], act_K(b, e, 1 if bar else -1)))


def pair_labels(a: WeightModule, b: WeightModule) -> tuple:
    """The basis labels of a (x) b, "(x,y)" in row-major order."""
    return tuple("(%s,%s)" % (x, y) for x in a.labels for y in b.labels)


def tensor(a: WeightModule, b: WeightModule) -> WeightModule:
    if a.spec != b.spec:
        raise la.ShapeError("tensor factors over different Cartan data")
    spec = a.spec
    labels = pair_labels(a, b)
    den = lcm(a.den, b.den)
    sa, sb = den // a.den, den // b.den
    weights = tuple(ca.weight_add([x * sa for x in wa], [y * sb for y in wb])
                    for wa in a.weights for wb in b.weights)
    act_E, act_F = (tuple(coprod(a, b, i, side) for i in range(spec.rank)) for side in "EF")
    return make_module(spec, labels, weights, act_E, act_F, den)


@lru_cache(maxsize=None)
def dual(m: WeightModule) -> WeightModule:
    """Left dual: u acts through the antipode, transposed; one object per m."""
    spec = m.spec
    dE, dF = [], []
    for i in range(spec.rank):
        e = ca.unit(spec, i)
        # the inverse of twist(e, w, s) is twist(w, e, -s)
        kinv = _diag(ca.twist(spec, w, e, -1, m.den) for w in m.weights)
        kpinv = _diag(ca.twist(spec, w, e, 1, m.den) for w in m.weights)
        sE = la.mat_scale(la.mat_mul(kinv, m.act_E[i]), -ONE)
        sF = la.mat_scale(la.mat_mul(m.act_F[i], kpinv), -ONE)
        dE.append(la.transpose(sE))
        dF.append(la.transpose(sF))
    labels = tuple(x + "*" for x in m.labels)
    weights = tuple(ca.weight_neg(w) for w in m.weights)
    return make_module(spec, labels, weights, tuple(dE), tuple(dF), m.den)


def _v2(m: WeightModule, w) -> RatFunc:
    return ca.v_deg(m.spec, w, m.den) * ca.v_deg(m.spec, w, m.den)


def cup_cap(m: WeightModule, g: str) -> la.Matrix:
    """The cap ("ev", "qtr") or cup ("coev", "coqtr") g of the tangle functor.

    Each pairs basis vector k with its dual at entry k*dim + k: by 1 on ev,
    dual(M) (x) M -> trivial, and on coqtr, trivial -> M (x) dual(M); by
    v^2_{-|w|} on qtr and by v^2_{|w|} on coev.  A cap is a row, a cup a column.
    """
    sign = {"ev": 0, "coqtr": 0, "qtr": -1, "coev": 1}[g]
    cells = {k * m.dim + k: _v2(m, [sign * x for x in w]) for k, w in enumerate(m.weights)}
    if g in ("ev", "qtr"):
        return la.Matrix(1, m.dim * m.dim, {0: cells})
    return la.Matrix(m.dim * m.dim, 1, {j: {0: x} for j, x in cells.items()})


def qdim(m: WeightModule) -> RatFunc:
    out = ZERO
    for w in m.weights:
        out = out + _v2(m, ca.weight_neg(w))
    return out


def perm(a: WeightModule, b: WeightModule) -> la.Matrix:
    """Flip a (x) b -> b (x) a."""
    n = a.dim * b.dim
    return la.Matrix(n, n, {
        c2 * a.dim + c1: {c1 * b.dim + c2: ONE} for c1 in range(a.dim) for c2 in range(b.dim)
    })


@lru_cache(maxsize=None)
def _raising_degrees(m: WeightModule) -> frozenset:
    out = set()
    for wr in m.weights:
        for wc in m.weights:
            d = ca.weight_sub(wr, wc)
            if any(d) and all(x >= 0 and not x % m.den for x in d):
                out.add(tuple(x // m.den for x in d))
    return frozenset(out)


def theta_degrees(a: WeightModule, b: WeightModule) -> list:
    """Degrees that can act nontrivially on a (x) b, lowering in the first slot."""
    return sorted(_raising_degrees(a) & _raising_degrees(b))


def _theta_op(mods, s: int, l: int, table, order: str = "lex", degrees=None) -> la.Matrix:
    """Sum of coeff * F_fw on slot s (x) E_ew on slot l over a theta table.

    mods lists the tensor factors; the other slots carry the identity.  The
    degrees default to 0 and every degree that can act on slots s and l;
    degree 0 contributes the identity and negative degrees contribute zero.
    """
    spec = mods[0].spec
    size = prod(m.dim for m in mods)
    if degrees is None:
        degrees = [(0,) * spec.rank] + theta_degrees(mods[s], mods[l])
    out = {}
    for nu in degrees:
        if any(x < 0 for x in nu):
            continue
        if not any(nu):
            _add_terms(out, ONE, ((k, k, ONE) for k in range(size)))
            continue
        for (fw, ew), coeff in table(spec, nu, order).items():
            fmat, emat = act_word(mods[s], fw, "F"), act_word(mods[l], ew, "E")
            if not (fmat.entries and emat.entries):
                continue
            factors = [fmat if k == s else emat if k == l else m.dim for k, m in enumerate(mods)]
            _add_terms(out, coeff, la._kron_cells(factors))
    return la.Matrix(size, size, out)


# theta is the canonical element of the pairing, whatever dual bases write it,
# so the operators and crossings below all use quasir's default basis order
def theta_mat(a: WeightModule, b: WeightModule) -> la.Matrix:
    return _theta_op([a, b], 0, 1, quasir.theta)


def theta_bar_mat(a: WeightModule, b: WeightModule) -> la.Matrix:
    return _theta_op([a, b], 0, 1, quasir.theta_bar)


# cached per module object, as WeightModule is eq=False and hashes by identity
@lru_cache(maxsize=None)
def rmat(a: WeightModule, b: WeightModule) -> la.Matrix:
    """Braiding a (x) b -> b (x) a: flip, then the weight factor, then theta.

    The flip and the diagonal weight factor only move and scale columns of
    theta_mat(b, a): for c1 < a.dim and c2 < b.dim, column c1*b.dim + c2 of
    the result is column c2*a.dim + c1 of theta times f(w_b[c2], w_a[c1]).
    Each nonzero entry goes through reduce_poly once, here.
    """
    th = theta_mat(b, a)
    move = {
        c2 * a.dim + c1: (c1 * b.dim + c2, ca.f(a.spec, wb, wa, a.den * b.den))
        for c1, wa in enumerate(a.weights) for c2, wb in enumerate(b.weights)
    }
    out = {}
    for r, i, x in th.items():
        j, s = move[i]
        out.setdefault(r, {})[j] = rf.reduce_poly(x * s)
    return la.Matrix(th.rows, th.cols, out)


@lru_cache(maxsize=None)
def rmat_inv(a: WeightModule, b: WeightModule) -> la.Matrix:
    """Inverse braiding b (x) a -> a (x) b, via the conjugated theta.

    Row c1*b.dim + c2 of the result is row c2*a.dim + c1 of
    theta_bar_mat(b, a) times brace(w_b[c2], w_a[c1]); each nonzero entry
    goes through reduce_poly once, here.
    """
    tb = theta_bar_mat(b, a)
    out = {}
    for c1, wa in enumerate(a.weights):
        for c2, wb in enumerate(b.weights):
            s = ca.brace(a.spec, wb, wa, a.den * b.den)
            row = tb.entries.get(c2 * a.dim + c1, {})
            out[c1 * b.dim + c2] = {c: rf.reduce_poly(s * x) for c, x in row.items()}
    return la.Matrix(tb.rows, tb.cols, out)


class HighestWeightError(ValueError):
    """The module's weights have no single maximum, so no crossing unit."""


def highest_weight(m: WeightModule):
    """The unique maximal weight, as int numerators over m.den."""
    tops = []
    for lam in set(m.weights):
        if all(
            all(x >= 0 for x in ca.weight_sub(lam, mu)) for mu in m.weights
        ):
            tops.append(lam)
    if len(tops) != 1:
        raise HighestWeightError("module has no unique maximal weight")
    return tops[0]


def is_module_map(dom: WeightModule, cod: WeightModule, mat: la.Matrix) -> bool:
    if any([x * dom.den for x in cod.weights[r]] != [y * cod.den for y in dom.weights[c]]
           for r, c, _ in mat.items()):
        return False
    for i in range(dom.spec.rank):
        for side in ("act_E", "act_F"):
            du = getattr(dom, side)[i]
            cu = getattr(cod, side)[i]
            if not la.mat_eq(la.mat_mul(mat, du), la.mat_mul(cu, mat)):
                return False
    return True
