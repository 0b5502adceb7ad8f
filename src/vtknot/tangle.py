"""Oriented tangle words: a small DSL, boundary typing, and evaluation.

Words are rows of generators listed bottom to top; a row is a horizontal
tensor of generators.  Each generator has a fixed boundary type and adjacent
rows must match.  Evaluation sends a word to a matrix over Q(v,t): each
cup, cap or crossing acts on its own strands of a sparse operator, so no
row-wide Kronecker product is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cartan as ca
from . import linalg as la
from . import modules as mo
from . import ratfield as rf
from .ratfield import ONE

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


def crossing_unit(m: mo.WeightModule) -> rf.RatFunc:
    """f(lam,lam) v^2_{-lam} for the highest weight lam; the curl scalar."""
    lam = mo.highest_weight(m)
    vd = ca.v_deg(m.spec, ca.weight_neg(lam))
    return ca.f(m.spec, lam, lam) * vd * vd


def _generator(g: str, m: mo.WeightModule, order: str) -> la.Matrix:
    """Matrix of one cup, cap or crossing on the strands it occupies."""
    if g == "xp":
        return la.mat_scale(mo.rmat(m, m, order), rf.inv(crossing_unit(m)))
    if g == "xm":
        return la.mat_scale(mo.rmat_inv(m, m, order), crossing_unit(m))
    maps = {"ev": mo.ev_map, "qtr": mo.qtr_map, "coev": mo.coev_map, "coqtr": mo.coqtr_map}
    return maps[g](m)


def _apply(gen, acc, ds, dt, dlo):
    """Apply gen, a dt x ds matrix, to one generator's strands of acc's rows.

    Row index (hi*ds + r)*dlo + lo becomes (hi*dt + r')*dlo + lo for every
    nonzero gen[r'][r]: the strands left (hi) and right (lo) of the generator
    are untouched.
    """
    out = {}
    for r, arow in acc.items():
        hi, rest = divmod(r, ds * dlo)
        mid, lo = divmod(rest, dlo)
        for r2 in range(dt):
            x = gen[r2][mid]
            if x.is_zero():
                continue
            orow = out.setdefault((hi * dt + r2) * dlo + lo, {})
            for c, y in arow.items():
                prev = orow.get(c)
                orow[c] = x * y if prev is None else prev + x * y
    out = {r: {c: v for c, v in orow.items() if not v.is_zero()} for r, orow in out.items()}
    return {r: orow for r, orow in out.items() if orow}


def functor_T(w: TangleWord, m: mo.WeightModule, order: str = "lex", gens=None) -> la.Matrix:
    """Evaluate the word on the module: + strands carry m, - strands dual(m).

    The functor is strict monoidal, so each generator of a row acts on its
    own strands only and up/dn do nothing.  The operator from the source
    boundary is kept as a sparse {row: {col: value}} map.  gens holds the
    generator matrices already built for (m, order) and gains those the
    word adds, so evaluations that share it build each generator once.
    """
    d = m.dim
    if gens is None:
        gens = {}
    acc = {c: {c: ONE} for c in range(d ** len(w.source))}
    for row in w.rows:
        lo = len(_row_boundary(row)[0])
        for g in row:
            s, t = (len(x) for x in BOUNDARY[g])
            lo -= s
            if g in ("up", "dn"):
                continue
            if g not in gens:
                gens[g] = _generator(g, m, order)
            acc = _apply(gens[g], acc, d ** s, d ** t, d ** lo)
    out = la.zeros(d ** len(w.target), d ** len(w.source))
    for r, arow in acc.items():
        for c, x in arow.items():
            out[r][c] = x
    return out


def closure(w: TangleWord) -> TangleWord:
    """Join matching ends of a square all-plus word, caps above, cups below."""
    n = len(w.source)
    if n == 0 or w.source != w.target or any(s != "+" for s in w.source):
        raise TangleError("closure needs a square all-plus boundary, got %s -> %s"
                          % (_sig(w.source), _sig(w.target)))
    cup = word([("coqtr",)])
    cap = word([("qtr",)])
    for k in range(2, n + 1):
        ring = ("up",) * (k - 1) + ("coqtr",) + ("dn",) * (k - 1)
        cup = compose(word([ring]), cup)
        ring = ("up",) * (k - 1) + ("qtr",) + ("dn",) * (k - 1)
        cap = compose(cap, word([ring]))
    mid = tensorw(w, word([("dn",) * n]))
    return compose(cap, compose(mid, cup))


def invariant(w, m: mo.WeightModule, order: str = "lex") -> rf.RatFunc:
    """Framing-normalized invariant of the closure of w on m.

    Raises FramingError when the twist is not one scalar on m.  The check
    evaluates a kink with the crossing the word uses, built once for both.
    """
    if isinstance(w, str):
        w = parse(BUILTINS.get(w.strip(), w))
    used = {g for row in w.rows for g in row}
    x = "xm" if "xm" in used and "xp" not in used else "xp"
    gens = {}
    if not la.mat_eq(functor_T(parse(KINK % x), m, order, gens), la.identity(m.dim)):
        raise FramingError(
            "the twist does not act on the module by one scalar (is it reducible?), "
            "so its values would depend on the framing"
        )
    return functor_T(closure(w), m, order, gens)[0][0]
