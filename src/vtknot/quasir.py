"""Quasi-R-matrix from dual bases of the skew pairing.

For each degree mu a monomial basis is chosen greedily (in lex or revlex word
order) so that its Gram block under phi is invertible and carries the full
rank of the degree.  Word k joins the basis when the block on the words
chosen before it plus word k is nonsingular.  One fraction-free elimination
of the degree's Gram block, pivoting on the diagonal in word order
(`linalg.principal_pivots`), makes each such test one diagonal entry.  What
the elimination leaves on the other words is their Schur complement up to
nonzero row factors, so its rank is what the chosen words miss: when it is
not zero the degree has no complete greedy basis and `BasisError` is raised.
With G[a][c] = phi(E_{w_a}, F_{w_c}) and C = G^-1, the dual elements
b*_a = sum_c C[a][c] E_{w_c} satisfy (b*_a, F_{w_b}) = delta.

    theta(mu)     = sum_a  w_a (x) b*_a          as {(fword, eword): coeff}
    theta_bar(mu) = (-1)^tr(mu) v^(mu.mu/2) v_(-mu) sum_a w_a (x) sigma(b*_a)

Everything is represented at word level; degrees in the pairing radical act
by zero on weight modules, which is where equality of the two descriptions
is meaningful.

`pairing.gram` gives each block as LaurentPoly numerators over the one
den, with no t, that its entries share; the inverse takes the den back as
its right-hand block diag(den).  The pairing is symmetric up to t -> t^-1,
so the numerators are t-Hermitian, and so is their revlex reversal: the
elimination computes only half of each update (see `linalg`).
"""

from __future__ import annotations

from functools import lru_cache

from . import cartan, freealg, linalg, pairing
from .ratfield import RatFunc


class BasisError(RuntimeError):
    pass


@lru_cache(maxsize=None)
def _basis_data(spec: cartan.CartanSpec, mu: cartan.Degree, order: str):
    if order not in ("lex", "revlex"):
        raise ValueError(f"unknown basis order {order!r}")
    words = list(freealg.words_of_degree(mu))
    gram, den = pairing.gram(spec, mu)
    if order == "revlex":
        words.reverse()
        gram = [row[::-1] for row in reversed(gram)]
    taken, rest = linalg.principal_pivots(gram)
    chosen = [words[k] for k in taken]
    full_rank = len(chosen) + linalg.rank(rest)
    if full_rank != len(chosen):
        raise BasisError(
            f"greedy principal blocks reached rank {len(chosen)}"
            f" but the degree has rank {full_rank}"
        )
    block = [[gram[a][c] for c in taken] for a in taken]
    return tuple(chosen), linalg.inverse(block, [den] * len(taken))


def select_basis(spec: cartan.CartanSpec, mu: cartan.Degree, order: str = "lex") -> tuple:
    return _basis_data(spec, mu, order)[0]


@lru_cache(maxsize=None)
def theta(spec: cartan.CartanSpec, mu: cartan.Degree, order: str = "lex") -> dict:
    """Component of the quasi-R-matrix in degree mu: F-side slot first."""
    words, ginv = _basis_data(spec, mu, order)
    out = {}
    for a, wa in enumerate(words):
        for c, wc in enumerate(words):
            coeff = ginv[a][c]
            if not coeff.is_zero():
                out[(wa, wc)] = coeff
    return out


def conj_scale(spec: cartan.CartanSpec, mu: cartan.Degree) -> RatFunc:
    """The scale (-1)^tr(mu) v^(mu.mu/2 - sum n_i d_i) of theta_bar(mu)."""
    v2 = cartan.dot(spec, mu, mu) - 2 * sum(n * spec.omega[i][i] for i, n in enumerate(mu))
    scale = cartan._mono(v2, 0, 2)
    return -scale if cartan.tr(mu) % 2 else scale


@lru_cache(maxsize=None)
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
    """The a-th dual basis element b*_a as a plus-side combination of words."""
    words, ginv = _basis_data(spec, mu, order)
    out = {}
    for wc, coeff in zip(words, ginv[a]):
        freealg.accumulate(out, wc, coeff)
    return out
