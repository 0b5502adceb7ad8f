"""Oriented tangle words: a small DSL, boundary typing, and evaluation.

Words are rows of generators listed bottom to top; a row is a horizontal
tensor of generators.  Each generator has a fixed boundary type and
adjacent rows must match.  `parse` is the one reader of outside text: it
refuses an unknown or empty generator with its row and slot.  `word` only
types rows of known generators, which `parse`, `compose` and `tensorw` pass
it, and refuses a row that does not feed the next.
Evaluation sends a word to a sparse `linalg.Matrix` over Q(v,t): each cup,
cap or crossing acts on its own strands of the operator built so far, so no
row-wide Kronecker product is ever formed.  The operator is kept as
numerators over one den, packed: one Python int per (entry, t-power), the
entry's v-polynomial at that t-power evaluated at v = 2^K (Kronecker
substitution), so a product is one int product and a sum one int sum.  K
holds a bound on every coefficient, and on every sum of a block's diagonal
entries, fixed before the first product; ints are unpacked into term dicts
by `ratfield._unpack`, the balanced-digit codec that ratfield's packed
products also read back with.  A crossing's table is the R-matrix's with the
curl scalar's monomial folded into its numerators, so no scaled copy of the
R-matrix is built.

`invariant` evaluates no cup or cap.  The closure of an (n, n) tangle L
joins each top end to its bottom end by nested caps and cups, which weight
the basis vector e of V^(x)n by qw(wt e) = v_deg(-wt e)^2, so its value is
the quantum trace sum_e qw(wt e) T(L)_ee (Reshetikhin-Turaev, CMP 127,
1990).  T(L) is a module map, and for a weight nu with
n = <nu, a_i^v> < 0 the power E_i^(-n) maps the weight space V_nu
bijectively onto V_{s_i nu}; it commutes with T(L), so the trace of T(L)
on a weight space depends only on the Weyl orbit of its weight (the
W-invariance of characters: Jantzen, *Lectures on Quantum Groups*, ch. 5).
Hence

    invariant = sum over dominant mu of tr(T(L) | V_mu) * S(mu),

S(mu) the sum of qw(nu) over the distinct weights nu of V^(x)n whose
dominant representative is mu.  Any one representative per orbit gives the
same value; `_dominant` picks the dominant one.  `functor_T` evaluates only
the columns of dominant weight and returns one trace per weight space: its
diagonal packed ints summed per t-slot and unpacked once, which `invariant`
weights by S(mu).
The framing check is the crossing table's partial quantum trace, read from
the weights too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, lcm, prod
from operator import add, mul

from . import cartan as ca
from . import linalg as la
from . import modules as mo
from . import ratfield as rf
from .ratfield import LP_ONE, LP_ZERO

BOUNDARY = {
    "up": (("+",), ("+",)),
    "dn": (("-",), ("-",)),
    "ev": (("-", "+"), ()),
    "qtr": (("+", "-"), ()),
    "coev": ((), ("-", "+")),
    "coqtr": ((), ("+", "-")),
    "xp": (("+", "+"), ("+", "+")),
    "xm": (("+", "+"), ("+", "+")),
}

BUILTINS = {
    "unknot": "up",
    "hopf": "xp ; xp",
    "trefoil": "xp ; xp ; xp",
    "figure8": "xp * up ; up * xm ; xp * up ; up * xm",
}


class TangleError(ValueError):
    pass


class FramingError(ValueError):
    """The twist does not act on the module by one scalar, as on a reducible
    module: crossing_unit cannot normalize the framing, so closures of
    isotopic diagrams would get different values."""


# a curl on one upward strand; normalized, it is the identity exactly when the
# twist acts by crossing_unit, the one scalar the crossings are divided by
KINK = "up * coqtr ; %s * dn ; up * qtr"


@dataclass(frozen=True)
class TangleWord:
    rows: tuple
    source: tuple
    target: tuple


def _sig(seq) -> str:
    return "(" + ",".join(seq) + ")"


def _row_boundary(row):
    src, tgt = (), ()
    for g in row:
        s, t = BOUNDARY[g]
        src += s
        tgt += t
    return src, tgt


def word(rows) -> TangleWord:
    """Type nonempty rows of known generators: each row's source must be the
    target of the row below; the word runs from the first row's source to
    the last row's target."""
    rows = tuple(tuple(r) for r in rows)
    src, prev = _row_boundary(rows[0])
    for k in range(1, len(rows)):
        s, t = _row_boundary(rows[k])
        if s != prev:
            raise TangleError(
                "type error: row %d target %s does not feed row %d source %s"
                % (k, _sig(prev), k + 1, _sig(s))
            )
        prev = t
    return TangleWord(rows, src, prev)


def parse(text: str) -> TangleWord:
    rows = []
    for rk, chunk in enumerate(text.split(";")):
        row = []
        for sk, tok in enumerate(chunk.split("*")):
            tok = tok.strip()
            if tok not in BOUNDARY:
                raise TangleError(
                    "unknown generator %r at row %d, slot %d" % (tok, rk + 1, sk + 1)
                )
            row.append(tok)
        rows.append(row)
    return word(rows)


def compose(a: TangleWord, b: TangleWord) -> TangleWord:
    """a after b: b's rows sit below a's."""
    if a.source != b.target:
        raise TangleError(
            "cannot compose: upper source %s differs from lower target %s"
            % (_sig(a.source), _sig(b.target))
        )
    return word(b.rows + a.rows)


def _id_row(sig):
    return tuple("up" if s == "+" else "dn" for s in sig)


def tensorw(a: TangleWord, b: TangleWord) -> TangleWord:
    """Horizontal concatenation; the shorter word is padded on top with
    identity rows on its target boundary."""
    n = max(len(a.rows), len(b.rows))
    ra = list(a.rows) + [_id_row(a.target)] * (n - len(a.rows))
    rb = list(b.rows) + [_id_row(b.target)] * (n - len(b.rows))
    return word([tuple(x) + tuple(y) for x, y in zip(ra, rb)])


@lru_cache(maxsize=None)
def crossing_unit(m: mo.WeightModule) -> rf.RatFunc:
    """f(lam,lam) v^2_{-lam} for the highest weight lam; the curl scalar."""
    lam = mo.highest_weight(m)
    vd = ca.v_deg(m.spec, ca.weight_neg(lam), m.den)
    return ca.f(m.spec, lam, lam, m.den * m.den) * vd * vd


@lru_cache(maxsize=None)
def _generator(g: str, m: mo.WeightModule) -> tuple:
    """One cup, cap or crossing on the strands it occupies, as a table.

    Returns (cols, den, shape), built once per module and shared by every
    caller, so read-only: cols maps each column to its nonzero entries as
    [(row, num)], and the entry is num/den.  den is the product of the
    entries' distinct dens, LP_ONE when all are Laurent.  A crossing is
    `modules.rmat` (xp) or `rmat_inv` (xm) divided by `crossing_unit`, a
    monomial over LP_ONE: its dens are cleared as they are and each num is
    multiplied by the unit's num, with no scaled copy of the matrix.  shape
    is (scale, l1, vmin, vstep, tmin, tspan): on the lattice of scale, the
    lcm of the nums' scales, their least v and t exponents, the gcd of every
    v exponent's distance from vmin (0 for one exponent) and the t-span; l1
    is the largest sum over a row of its coefficients' absolute values.
    """
    if g == "xp":
        mat, unit = mo.rmat(m, m), rf.inv(crossing_unit(m)).num
    elif g == "xm":
        mat, unit = mo.rmat_inv(m, m), crossing_unit(m).num
    else:
        mat, unit = mo.cup_cap(m, g), LP_ONE
    entries = list(mat.items())
    nums, den = rf._clear_dens([x for _, _, x in entries])
    nums = [p * unit for p in nums]
    cols, l1 = {}, {}
    for (r, c, _), p in zip(entries, nums):
        cols.setdefault(c, []).append((r, p))
        l1[r] = l1.get(r, 0) + sum(map(abs, p.terms.values()))
    s = lcm(*(p.scale for p in nums))
    keys = set()
    for p in nums:
        keys.update(rf._terms_at(p, s))
    va, tb = (set(x) for x in zip(*keys))
    vmin, tmin = min(va), min(tb)
    shape = (s, max(l1.values()), vmin, gcd(*(a - vmin for a in va)), tmin, max(tb) - tmin)
    return cols, den, shape


def _layout(shapes, terms: int = 1) -> tuple:
    """(k, scale, voff, vstep, toff, width) of the packed state for
    generators of these shapes, one per application, read back as sums of
    up to terms entries.

    On the lattice of scale, the lcm of their scales, each entry of the
    state is a sum of products of one num per application, so its v
    exponents are voff, the sum of the v minima, plus multiples of vstep,
    the gcd of the steps, and its t exponents toff plus a t-slot below
    width.  Its coefficients are at most the product of the l1, and a sum
    of terms entries' at most terms times that, so balanced base-2^k digits
    hold them when k is that bound's bits plus one sign bit.
    """
    scales, l1s, vmins, vsteps, tmins, tspans = list(zip(*shapes)) or [()] * 6
    scale = lcm(*scales)
    f = [scale // x for x in scales]
    k = (terms * prod(l1s)).bit_length() + 1
    vstep = gcd(*map(mul, f, vsteps)) or 1
    width = sum(map(mul, f, tspans)) + 1
    voff, toff = sum(map(mul, f, vmins)), sum(map(mul, f, tmins))
    return k, scale, voff, vstep, toff, width


def _apply(offsets, acc, ds, dt, blo):
    """Apply a generator (dt x ds) to its strands of acc.

    acc maps the key (hi*ds + r)*blo + lo of each nonzero (entry, t-power)
    to its packed int, lo holding the strands right of the generator and
    the t-slot; offsets maps each column r to [(r' * blo + slot, x)] for the
    generator's entries (r', slot, x) of that column, and x * y is added at
    (hi*dt + r')*blo + lo + slot.
    """
    block = ds * blo
    out = {}
    get = out.get
    for key, y in acc.items():
        hi, rest = divmod(key, block)
        mid, lo = divmod(rest, blo)
        base = hi * dt * blo + lo
        for off, x in offsets.get(mid, ()):
            j = base + off
            out[j] = get(j, 0) + x * y
    return {j: z for j, z in out.items() if z}


def functor_T(w: TangleWord, m: mo.WeightModule, blocks=None):
    """Evaluate the word on the module: + strands carry m, - strands dual(m).

    Returns the full `linalg.Matrix` by default.  With blocks, a list of
    disjoint lists of source basis vectors (`invariant` passes weight
    spaces), it returns instead each block's trace, the sum of the diagonal
    entries (e, e) over e in the block, as one RatFunc per block, and starts
    from the blocks' columns only.  The functor is strict monoidal, so each
    generator of a row acts on its own strands only and up/dn do nothing.
    Each generator's table comes from the cached `_generator` and is packed
    once per call, on the word's `_layout`, and its offsets once per strand
    position.  The operator from
    the source boundary is kept as packed ints keyed by
    (row * cols + col) * width + t-slot, so the source boundary and the
    t-slot are one more block to the right of every generator.  A block's
    diagonal ints are summed per t-slot, which the layout's digits hold, and
    unpacked once.  All entries share one den, the product of the applied
    generators' dens, and become RatFuncs only when unpacked.
    """
    d = m.dim
    applied = [g for row in w.rows for g in row if g not in ("up", "dn")]
    gens = {g: _generator(g, m) for g in applied}
    size = 1 if blocks is None else max(map(len, blocks), default=1)
    k, scale, voff, vstep, toff, width = _layout([gens[g][2] for g in applied], size)
    tables = {}
    for g, (cols, _, (s, _, vmin, _, tmin, _)) in gens.items():
        vmin, tmin = vmin * (scale // s), tmin * (scale // s)
        tables[g] = table = {}
        for c, col in cols.items():
            table[c] = packed = []
            for r, p in col:
                ints = {}
                for (a, b), x in rf._terms_at(p, scale).items():
                    ints[b - tmin] = ints.get(b - tmin, 0) + (x << k * ((a - vmin) // vstep))
                packed += [(r, slot, z) for slot, z in ints.items()]
    ncols = d ** len(w.source)
    starts = range(ncols) if blocks is None else [e for block in blocks for e in block]
    acc = {(c * ncols + c) * width: 1 for c in starts}
    offsets = {}
    for row in w.rows:
        lo = len(_row_boundary(row)[0])
        for g in row:
            s, t = (len(x) for x in BOUNDARY[g])
            lo -= s
            if g in ("up", "dn"):
                continue
            blo = d ** lo * ncols * width
            offs = offsets.get((g, lo))
            if offs is None:
                offs = offsets[g, lo] = {c: [(r * blo + slot, x) for r, slot, x in col]
                                         for c, col in tables[g].items()}
            acc = _apply(offs, acc, d ** s, d ** t, blo)
    den = prod((gens[g][1] for g in applied), start=LP_ONE)

    def value(slots):
        terms = {}
        for slot, z in slots.items():
            for i, x in enumerate(rf._unpack(z, k)):
                if x:
                    terms[voff + i * vstep, toff + slot] = x
        return rf.RatFunc(rf._make(terms, scale), den)

    if blocks is not None:
        sums = [{} for _ in blocks]
        owner = {e * ncols + e: slots for block, slots in zip(blocks, sums) for e in block}
        for key, z in acc.items():
            idx, slot = divmod(key, width)
            slots = owner.get(idx)
            if slots is not None:
                slots[slot] = slots.get(slot, 0) + z
        return [value(slots) for slots in sums]
    out = {}
    for key, z in acc.items():
        idx, slot = divmod(key, width)
        r, c = divmod(idx, ncols)
        out.setdefault(r, {}).setdefault(c, {})[slot] = z
    out = {r: {c: value(slots) for c, slots in row.items()} for r, row in out.items()}
    return la.Matrix(d ** len(w.target), ncols, out)


def _closed_strands(w: TangleWord) -> int:
    """n for a square all-plus word on n strands, the words with a closure."""
    n = len(w.source)
    if n == 0 or w.source != w.target or any(s != "+" for s in w.source):
        raise TangleError("closure needs a square all-plus boundary, got %s -> %s"
                          % (_sig(w.source), _sig(w.target)))
    return n


def _framing_holds(x: str, m: mo.WeightModule) -> bool:
    """True when the kink `KINK % x` evaluates to the identity.

    The kink is the crossing's partial quantum trace over its second strand:
    the cap qtr is diagonal with qtr(j) = v_deg(-w_j)^2 and the cup coqtr is
    1 on every j, so its (r, c) entry is sum_j qtr(j) X[(r, j), (c, j)].  On
    the crossing table's numerators that sum must be delta_rc times its den.
    """
    d = m.dim
    cols, den, _ = _generator(x, m)
    q = [mo._v2(m, ca.weight_neg(w)).num for w in m.weights]
    trace = {}
    for c, col in cols.items():
        c1, j = divmod(c, d)
        for r, p in col:
            r1, i = divmod(r, d)
            if i == j:
                trace[r1, c1] = trace.get((r1, c1), LP_ZERO) + q[j] * p
    return all(trace.get((r, c), LP_ZERO) == (den if r == c else LP_ZERO)
               for r in range(d) for c in range(d))


def _dominant(spec: ca.CartanSpec, nu, weights) -> tuple:
    """The dominant weight in nu's Weyl orbit, nu an int numerator tuple.

    While some (a_i.nu) is negative, nu becomes s_i(nu) = nu - <nu, a_i^v> a_i,
    which adds a positive multiple of a_i.  On the weights of a module that
    passes `modules.validate_module` every a_i-string is symmetric, so each
    step stays in weights, which is finite: the walk ends.
    """
    nu = list(nu)
    while True:
        for i, row in enumerate(spec.dot):
            a = sum(map(mul, row, nu))
            if a < 0:
                break
        else:
            return tuple(nu)
        nu[i] -= a // ca.d_i(spec, i)
        if tuple(nu) not in weights:
            raise ValueError("the module's weights are not Weyl-symmetric")


def invariant(w, m: mo.WeightModule) -> rf.RatFunc:
    """Framing-normalized invariant of the closure of w on m.

    The weighted trace of the module docstring: `functor_T` returns the
    trace of each weight space of dominant weight, as blocks of basis
    vectors, and each trace is weighted by S(mu).  The word is checked
    before the module: TangleError for a word with no closure, then
    FramingError when the twist is not one scalar on m, checked by
    `_framing_holds` on the crossing the word uses.
    """
    if isinstance(w, str):
        w = parse(BUILTINS.get(w.strip(), w))
    n = _closed_strands(w)
    used = {g for row in w.rows for g in row}
    x = "xm" if "xm" in used and "xp" not in used else "xp"
    if not _framing_holds(x, m):
        raise FramingError(
            "the twist does not act on the module by one scalar (is it reducible?), "
            "so its values would depend on the framing"
        )
    # the basis vectors of V^(x)n by weight, strand 0 the most significant digit
    d, spaces = m.dim, {(0,) * m.spec.rank: [0]}
    for _ in range(n):
        grown = {}
        for nu, idx in spaces.items():
            for j, wj in enumerate(m.weights):
                grown.setdefault(tuple(map(add, nu, wj)), []).extend(e * d + j for e in idx)
        spaces = grown
    # qw(nu) = v_deg(-nu)^2 is v to the -2 sum_i d_i nu_i, over m.den
    ds = [ca.d_i(m.spec, i) for i in range(m.spec.rank)]
    orbit = {}
    for nu in spaces:
        terms = orbit.setdefault(_dominant(m.spec, nu, spaces), {})
        a = -2 * sum(map(mul, ds, nu))
        terms[a, 0] = terms.get((a, 0), 0) + 1
    traces = functor_T(w, m, [spaces[mu] for mu in orbit])
    total = rf.ZERO
    for trace, terms in zip(traces, orbit.values()):
        total = total + trace * rf.RatFunc(rf._make(terms, m.den))
    return total
