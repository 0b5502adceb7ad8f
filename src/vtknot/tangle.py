"""Oriented tangle words: a small DSL, boundary typing, and evaluation.

Words are rows of generators listed bottom to top; a row is a horizontal
tensor of generators.  Each generator has a fixed boundary type and adjacent
rows must match.  Evaluation sends a word to a sparse `linalg.Matrix` over
Q(v,t): each cup, cap or crossing acts on its own strands of the operator
built so far, so no row-wide Kronecker product is ever formed.  The operator
is kept as numerators over one den: every value is a term dict
{(a, b): coeff} for the sum of coeff * v^(a/s) * t^(b/s), with one lattice
scale s for the whole evaluation, the lcm of the used generators' scales.
Each product goes straight into its output entry's dict through ratfield's
one product loop; scalars are built only for the returned matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import lcm

from . import cartan as ca
from . import linalg as la
from . import modules as mo
from . import ratfield as rf
from .ratfield import LP_ONE

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
    rows = tuple(tuple(r) for r in rows)
    if not rows or not all(rows):
        raise TangleError("empty tangle word")
    for row in rows:
        for g in row:
            if g not in BOUNDARY:
                raise TangleError("unknown generator %r" % (g,))
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

    Returns (cols, den), built once per module and shared by every caller,
    so read-only: cols maps each column to its nonzero entries as
    [(row, num)], and the entry is num/den.  den is the product of the
    entries' distinct dens, LP_ONE when all are Laurent.
    """
    if g == "xp":
        mat = la.mat_scale(mo.rmat(m, m), rf.inv(crossing_unit(m)))
    elif g == "xm":
        mat = la.mat_scale(mo.rmat_inv(m, m), crossing_unit(m))
    else:
        maps = {"ev": mo.ev_map, "qtr": mo.qtr_map, "coev": mo.coev_map, "coqtr": mo.coqtr_map}
        mat = maps[g](m)
    entries = list(mat.items())
    nums, den = rf._clear_dens([x for _, _, x in entries])
    cols = {}
    for (r, c, _), p in zip(entries, nums):
        cols.setdefault(c, []).append((r, p))
    return cols, den


def _apply(cols, acc, ds, dt, dlo):
    """Apply a generator's table cols (dt x ds) to its strands of acc.

    acc maps the index k = (hi*ds + r)*dlo + lo of each nonzero entry to its
    term dict, on the table's lattice; k becomes (hi*dt + r')*dlo + lo for
    every entry (r', x) of column r, and x * y is added into that entry.
    The strands left (hi) and right (lo) of the generator are untouched.
    """
    add = rf._add_products
    out = {}
    block = ds * dlo
    for k, y in acc.items():
        hi, rest = divmod(k, block)
        mid, lo = divmod(rest, dlo)
        hi *= dt
        for r, x in cols.get(mid, ()):
            j = (hi + r) * dlo + lo
            num = out.get(j)
            if num is None:
                num = out[j] = {}
            add(num, x, y)
    return {j: num for j, num in out.items() if num}


def functor_T(w: TangleWord, m: mo.WeightModule) -> la.Matrix:
    """Evaluate the word on the module: + strands carry m, - strands dual(m).

    The functor is strict monoidal, so each generator of a row acts on its
    own strands only and up/dn do nothing.  Each generator's table comes
    from the cached `_generator`; once per call its numerators go onto one
    lattice, the lcm of their scales.  The operator from the source
    boundary is kept as the term dicts of its nonzero entries, keyed by
    row * cols + col, so the source boundary is one more block of strands
    to the right of every generator.  All share one den, the product of the
    applied generators' dens, and become RatFuncs only in the returned
    matrix.
    """
    d = m.dim
    gens = {g: _generator(g, m) for row in w.rows for g in row if g not in ("up", "dn")}
    scale = lcm(*(p.scale for cols, _ in gens.values() for col in cols.values() for _, p in col))
    tables = {
        g: {c: [(r, rf._terms_at(p, scale)) for r, p in col] for c, col in cols.items()}
        for g, (cols, _) in gens.items()
    }
    ncols = d ** len(w.source)
    den = LP_ONE
    acc = {c * ncols + c: {(0, 0): 1} for c in range(ncols)}
    for row in w.rows:
        lo = len(_row_boundary(row)[0])
        for g in row:
            s, t = (len(x) for x in BOUNDARY[g])
            lo -= s
            if g in ("up", "dn"):
                continue
            acc = _apply(tables[g], acc, d ** s, d ** t, d ** lo * ncols)
            den = den * gens[g][1]
    out = {}
    for k, num in acc.items():
        r, c = divmod(k, ncols)
        out.setdefault(r, {})[c] = rf.RatFunc(rf._make(num, scale), den)
    return la.Matrix(d ** len(w.target), ncols, out)


def closure(w: TangleWord) -> TangleWord:
    """Join matching ends of a square all-plus word, caps above, cups below."""
    n = len(w.source)
    if n == 0 or w.source != w.target or any(s != "+" for s in w.source):
        raise TangleError("closure needs a square all-plus boundary, got %s -> %s"
                          % (_sig(w.source), _sig(w.target)))
    # bottom to top: nested cups, the word beside n downward strands, nested caps
    rows = [("up",) * k + ("coqtr",) + ("dn",) * k for k in range(n)]
    rows += [row + ("dn",) * n for row in w.rows]
    rows += [("up",) * k + ("qtr",) + ("dn",) * k for k in reversed(range(n))]
    return word(rows)


def invariant(w, m: mo.WeightModule) -> rf.RatFunc:
    """Framing-normalized invariant of the closure of w on m.

    Raises FramingError when the twist is not one scalar on m.  The check
    evaluates a kink with the crossing the word uses, cached for the closure.
    """
    if isinstance(w, str):
        w = parse(BUILTINS.get(w.strip(), w))
    used = {g for row in w.rows for g in row}
    x = "xm" if "xm" in used and "xp" not in used else "xp"
    if not la.mat_eq(functor_T(parse(KINK % x), m), la.identity(m.dim)):
        raise FramingError(
            "the twist does not act on the module by one scalar (is it reducible?), "
            "so its values would depend on the framing"
        )
    return functor_T(closure(w), m)[0, 0]
