"""Quasi-R-matrix from dual bases of the skew pairing.

For each degree mu a monomial basis is chosen greedily (in lex or revlex word
order) so that its Gram block under phi is invertible and carries the full
rank of the degree.  With G[a][c] = phi(E_{w_a}, F_{w_c}) and C = G^-1, the
dual elements b*_a = sum_c C[a][c] E_{w_c} satisfy (b*_a, F_{w_b}) = delta.

    theta(mu)     = sum_a  w_a (x) b*_a          as {(fword, eword): coeff}
    theta_bar(mu) = (-1)^tr(mu) v^(mu.mu/2) v_(-mu) sum_a w_a (x) sigma(b*_a)

Everything is represented at word level; degrees in the pairing radical act
by zero on weight modules, which is where equality of the two descriptions
is meaningful.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import cartan, freealg, linalg, pairing
from .ratfield import ZERO, mono


class BasisError(RuntimeError):
    pass


@lru_cache(maxsize=None)
def _basis_data(spec: cartan.CartanSpec, mu: cartan.Degree, order: str):
    if order not in ("lex", "revlex"):
        raise ValueError(f"unknown basis order {order!r}")
    words = list(freealg.words_of_degree(mu))
    if order == "revlex":
        words.reverse()
    chosen = []
    for w in words:
        trial = chosen + [w]
        g = [[pairing._phi_words(spec, ew, fw) for fw in trial] for ew in trial]
        if linalg.rank(g) == len(trial):
            chosen.append(w)
    full_rank = linalg.rank(pairing.gram(spec, mu))
    if full_rank != len(chosen):
        raise BasisError(
            f"greedy principal blocks reached rank {len(chosen)}"
            f" but the degree has rank {full_rank}"
        )
    g = [[pairing._phi_words(spec, ew, fw) for fw in chosen] for ew in chosen]
    ginv = linalg.inverse(g) if chosen else []
    return tuple(chosen), g, ginv


def select_basis(spec: cartan.CartanSpec, mu: cartan.Degree, order: str = "lex") -> tuple:
    return _basis_data(spec, mu, order)[0]


@lru_cache(maxsize=None)
def theta(spec: cartan.CartanSpec, mu: cartan.Degree, order: str = "lex") -> dict:
    """Component of the quasi-R-matrix in degree mu: F-side slot first."""
    words, _, ginv = _basis_data(spec, mu, order)
    out = {}
    for a, wa in enumerate(words):
        for c, wc in enumerate(words):
            coeff = ginv[a][c]
            if not coeff.is_zero():
                out[(wa, wc)] = coeff
    return out


@lru_cache(maxsize=None)
def theta_bar(spec: cartan.CartanSpec, mu: cartan.Degree, order: str = "lex") -> dict:
    """Closed form of the conjugated component, via the sigma-twisted duals."""
    scale = mono(
        (-1) ** cartan.tr(mu),
        Fraction(cartan.dot(spec, mu, mu), 2)
        - sum(n * spec.omega[i][i] for i, n in enumerate(mu)),
        0,
    )
    out = {}
    # sigma reverses words, a bijection, so no two entries share a key
    for (wa, wc), coeff in theta(spec, mu, order).items():
        rev, tw = freealg._sigma_word(spec, wc)
        out[(wa, rev)] = scale * coeff * tw
    return out


def _homogeneous_degree(spec: cartan.CartanSpec, x: freealg.FElem) -> cartan.Degree:
    degrees = {freealg.deg(spec, w) for w in x}
    if len(degrees) != 1:
        raise ValueError("element is not homogeneous")
    return degrees.pop()


def expand(spec: cartan.CartanSpec, x: freealg.FElem, side: str, order: str = "lex") -> dict:
    """Coefficients of a homogeneous element over the selected degree basis.

    side "+": x in the plus part, coefficients against the dual basis,
        so x = sum coeff_a b*_a modulo the radical.
    side "-": x in the minus part, coefficients against the basis words,
        so x = sum coeff_a b_a modulo the radical.
    """
    if not x:
        return {}
    mu = _homogeneous_degree(spec, x)
    words, _, ginv = _basis_data(spec, mu, order)
    out = {}
    if side == "+":
        for a, wa in enumerate(words):
            out[wa] = pairing.phi(spec, x, freealg.felem(wa))
    elif side == "-":
        for a, wa in enumerate(words):
            acc = ZERO
            for c, wc in enumerate(words):
                val = pairing.phi(spec, freealg.felem(wc), x)
                if not val.is_zero():
                    acc = acc + ginv[a][c] * val
            out[wa] = acc
    else:
        raise ValueError(f"side must be '+' or '-', got {side!r}")
    return out


def dual_element(spec: cartan.CartanSpec, mu: cartan.Degree, a: int, order: str = "lex") -> freealg.FElem:
    """The a-th dual basis element b*_a as a plus-side combination of words."""
    words, _, ginv = _basis_data(spec, mu, order)
    out = {}
    for c, wc in enumerate(words):
        if not ginv[a][c].is_zero():
            out = freealg.f_add(out, {wc: ginv[a][c]})
    return out
