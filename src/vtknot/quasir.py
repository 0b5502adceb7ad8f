"""Quasi-R-matrix from dual bases of the skew pairing.

For each degree mu a monomial basis is chosen greedily (in lex or revlex word
order) so that its Gram block under phi is invertible and carries the full
rank of the degree.  Word k joins the basis when the block on the words
chosen before it plus word k is nonsingular.  One fraction-free elimination
of a Gram block, pivoting on the diagonal in word order
(`linalg.principal_pivots`), makes each such test one diagonal entry.

The greedy runs on candidate words only.  The words it keeps are the
nonincreasing products of good Lyndon words (Leclerc, "Dual canonical
bases, quantum shuffles and q-characters", Math. Z. 2004; Kharchenko,
Algebra and Logic 1999, covers diagonal braidings like U_{v,t}), where
letters compare in reverse order for lex and in natural order for revlex.
The good Lyndon words of a degree are its chosen words that are Lyndon,
none unless the degree is a root (`cartan.is_root`, Kac's reflection test).
A candidate of degree mu is a word whose Chen-Fox-Lyndon factors
(`freealg.lyndon_factors`) are all good Lyndon words of lower degree, or a
Lyndon word of degree mu when mu is a root.  `_selection` keeps the
candidates of `freealg.words_of_degree(mu)` in its ascending order, and
reads the chosen words of each factor's degree from its own cache.  Every
chosen word is a candidate, and when the greedy tests one it has chosen the
same words as it would on the full list, so the chosen words, their block
and its inverse are the same.  What the elimination leaves on the other
candidates is their Schur complement up to nonzero row factors, so its rank
is what the chosen words miss: when it is not zero `BasisError` is raised.
That the chosen words carry the rank of every word of the degree is checked
by `verify --suite pairing`, which builds the all-word Gram blocks anyway
(`require_full_rank`, the same error).  With G[a][c] = phi(E_{w_a}, F_{w_c})
and C = G^-1, the dual elements b*_a = sum_c C[a][c] E_{w_c} satisfy
(b*_a, F_{w_b}) = delta.  So theta holds the inverse, theta[(w_a, w_c)] =
C[a][c], and `dual_element` reads its row a.  `_selection` is cached apart,
so lower degrees and `select_basis` pick bases without inverting.

    theta(mu)     = sum_a  w_a (x) b*_a          as {(fword, eword): coeff}
    theta_bar(mu) = (-1)^tr(mu) v^(mu.mu/2) v_(-mu) sum_a w_a (x) sigma(b*_a)

Everything is represented at word level; degrees in the pairing radical act
by zero on weight modules, which is where equality of the two descriptions
is meaningful.

`pairing.gram` gives each block on the candidates, in the greedy's order, as
LaurentPoly numerators over the one den, with no t, that its entries share;
the inverse takes the den back as its right-hand block diag(den).  The
pairing is symmetric up to t -> t^-1, so the numerators are t-Hermitian in
any word order: the elimination computes only half of each update (see
`linalg`).  `linalg.inverse` inverts the chosen block by one elimination
over Python ints, the block at v = 2^K: entry (a, c) is t^(s(a) - s(c))
times its value at t = 1 (ROADMAP item 13), so its per-row and per-column
shifts take t out and the ints carry v alone.  It prints the forms of the
polynomial elimination, byte for byte.
"""

from __future__ import annotations

from functools import lru_cache

from . import cartan, freealg, linalg, pairing
from .ratfield import RatFunc


class BasisError(RuntimeError):
    pass


def require_full_rank(kept: int, full: int) -> None:
    """BasisError unless the greedy's `kept` words carry the `full` rank."""
    if full != kept:
        raise BasisError(f"greedy principal blocks reached rank {kept} but the degree has rank {full}")


@lru_cache(maxsize=None)
def _selection(spec: cartan.CartanSpec, mu: cartan.Degree, order: str):
    """(words, block, den): the greedy basis of degree mu and its Gram block
    as numerators over den, both in the greedy's word order."""
    if order not in ("lex", "revlex"):
        raise ValueError(f"unknown basis order {order!r}")
    root = cartan.is_root(spec, mu)

    def good(f):
        nu = freealg.deg(spec, f)
        return cartan.is_root(spec, nu) and f in _selection(spec, nu, order)[0]

    words = []
    for w in freealg.words_of_degree(mu):
        factors = freealg.lyndon_factors(w, order == "lex")
        if root if len(factors) == 1 else all(map(good, factors)):
            words.append(w)
    if order == "revlex":
        words.reverse()
    gram, den = pairing.gram(spec, mu, words)
    taken, rest = linalg.principal_pivots(gram)
    require_full_rank(len(taken), len(taken) + linalg.rank(rest))
    block = tuple(tuple(gram[a][c] for c in taken) for a in taken)
    return tuple(words[k] for k in taken), block, den


def select_basis(spec: cartan.CartanSpec, mu: cartan.Degree, order: str = "lex") -> tuple:
    return _selection(spec, mu, order)[0]


@lru_cache(maxsize=None)
def theta(spec: cartan.CartanSpec, mu: cartan.Degree, order: str = "lex") -> dict:
    """Component of the quasi-R-matrix in degree mu: F-side slot first, the
    inverse of the Gram block with zeros left out."""
    words, block, den = _selection(spec, mu, order)
    out = {}
    for wa, row in zip(words, linalg.inverse(block, [den] * len(words))):
        for wc, coeff in zip(words, row):
            if not coeff.is_zero():
                out[(wa, wc)] = coeff
    return out


def conj_scale(spec: cartan.CartanSpec, mu: cartan.Degree) -> RatFunc:
    """The scale (-1)^tr(mu) v^(mu.mu/2 - sum n_i d_i) of theta_bar(mu)."""
    v2 = cartan.dot(spec, mu, mu) - 2 * sum(n * spec.omega[i][i] for i, n in enumerate(mu))
    scale = cartan._mono(v2, 0, 2)
    return -scale if cartan.tr(mu) % 2 else scale


def theta_bar(spec: cartan.CartanSpec, mu: cartan.Degree, order: str = "lex") -> dict:
    """Closed form of the conjugated component, via the sigma-twisted duals."""
    scale = conj_scale(spec, mu)
    out = {}
    # sigma reverses words, a bijection, so no two entries share a key
    for (wa, wc), coeff in theta(spec, mu, order).items():
        rev, tw = freealg._sigma_word(spec, wc)
        out[(wa, rev)] = scale * coeff * tw
    return out


def dual_element(spec: cartan.CartanSpec, mu: cartan.Degree, a: int, order: str = "lex") -> freealg.FElem:
    """The a-th dual basis element b*_a as a plus-side combination of words:
    row a of the theta table."""
    wa = select_basis(spec, mu, order)[a]
    return {wc: coeff for (wb, wc), coeff in theta(spec, mu, order).items() if wb == wa}
