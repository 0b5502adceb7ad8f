"""Skew pairing between the positive and negative halves.

E-words and F-words are both plain index tuples; which side a dict lives on
is determined by the function applied to it.  The pairing phi is computed by
peeling the first F-letter:

    (x, F_i y) = (v_i^-1 - v_i)^-1 (ir(x), y)

with (1,1) = 1 and degree mismatch pairing to zero, where ir is
freealg.deriv(spec, i, x, "l").  The same derivation peels the other end
(end "r") or acts on F-words (side "F"), which gives three alternative
peeling orders; the tests check all four agree.
"""

from __future__ import annotations

from functools import lru_cache

from . import cartan, freealg, linalg
from .ratfield import ONE, ZERO, RatFunc, bar as rf_bar, bar_t, inv, mono


def _peel_scale(spec: cartan.CartanSpec, i: int) -> RatFunc:
    d = spec.omega[i][i]
    return inv(mono(1, -d, 0) - mono(1, d, 0))


@lru_cache(maxsize=None)
def _phi_words(spec: cartan.CartanSpec, ew, fw) -> RatFunc:
    if freealg.deg(spec, ew) != freealg.deg(spec, fw):
        return ZERO
    if not fw:
        return ONE
    i, rest = fw[0], fw[1:]
    acc = ZERO
    for w, c in freealg._deriv_word(spec, i, ew, "l", "E").items():
        val = _phi_words(spec, w, rest)
        if not val.is_zero():
            acc = acc + c * val
    return _peel_scale(spec, i) * acc


def phi(spec: cartan.CartanSpec, x: freealg.FElem, y: freealg.FElem) -> RatFunc:
    """Pairing of an E-side element with an F-side element."""
    out = ZERO
    for ew, cx in x.items():
        for fw, cy in y.items():
            val = _phi_words(spec, ew, fw)
            if not val.is_zero():
                out = out + cx * cy * val
    return out


def phibar(spec: cartan.CartanSpec, x: freealg.FElem, y: freealg.FElem) -> RatFunc:
    """Conjugated pairing: bar of phi on the barred arguments."""
    return rf_bar(phi(spec, freealg.bar_f(x), freealg.bar_f(y)))


def sigma_minus(spec: cartan.CartanSpec, y: freealg.FElem) -> freealg.FElem:
    """F-side word reversal; t-power opposite to the E-side sigma."""
    out = {}
    for w, c in y.items():
        rev, tw = freealg._sigma_word(spec, w)
        out = freealg.f_add(out, {rev: c * bar_t(tw)})
    return out


def gram(spec: cartan.CartanSpec, mu: cartan.Degree) -> linalg.Matrix:
    """phi on all word pairs of one degree, rows and columns in word order."""
    words = freealg.words_of_degree(mu)
    return [
        [_phi_words(spec, ew, fw) for fw in words]
        for ew in words
    ]
