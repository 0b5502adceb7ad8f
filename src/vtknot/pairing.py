"""Skew pairing between the positive and negative halves.

E-words and F-words are both plain index tuples; which side a dict lives on
is determined by the function applied to it.  The pairing phi is computed by
peeling one letter off either end of either word, e.g. the first F-letter:

    (x, F_i y) = (v_i^-1 - v_i)^-1 (ir(x), y)

with (1,1) = 1 and degree mismatch pairing to zero, where ir is the
per-word derivation table freealg._deriv_word(spec, i, x, "l", "E").  The
same derivation peels the other end (end "r") or acts on F-words (side
"F"): `_phi_num(spec, ew, fw, end, side)` is one recursion for all four
orders, which the pairing suite checks agree.

The derivation coefficients are Laurent, so phi(E_w, F_fw) has one den for
every E-word w: the product of the peel dens (v_i^2 - 1 up to a monomial) of
the letters of fw, in every order, as the peeled and the derived word have
the same letters.  The recursion runs on LaurentPoly numerators over that
den (`_phi_num`, `_phi_den`) and never multiplies a den out again.  Every
caller passes all five arguments (`gram` and `_phi_words` "l", "F"), since
`lru_cache` would key a defaulted call apart from a full one.

The pairing is symmetric up to t -> t^-1: phi(E_a, F_b) is phi(E_b, F_a)
with t inverted (Jantzen, *Lectures on Quantum Groups*, ch. 6-8).  Both
words of a nonzero pair have the same letters, so they share the den, and
the den has no t.  The ("l", "F") order, the one `gram` and `_phi_words`
read, therefore recurses only for ew <= fw and returns the t-flip of the
mirrored numerator otherwise: each Gram block makes one derivation sum per
unordered word pair.  The other three orders keep the full recursion, so
they stay an independent check of the flipped entries.
`_phi_words` pairs them into the RatFunc the constructor would give, and
`phi` extends that table bilinearly through `freealg.bilinear`.  `gram`
gives the block on some words of one degree, in the order given, as the
numerators over the one den that all the words of the degree share.

The pairing suite checks the reversal and conjugation identities on
`_phi_words` itself.  On one word the anti-automorphism is one word times a
t-power, `freealg._sigma_word(spec, w, side)` with the power inverted on
F-words, and v -> v^-1 fixes a word, so the conjugated pairing of two words
is the bar of their phi.

The bilinear form on words is phi times a monomial: peeling F_i scales it by
(1-v_i^-2)^-1 t^(2<i,|rest|>) where phi takes (v_i^-1 - v_i)^-1, so `form`
gives form(x, y) = phi(x, y) prod_k (-v_(y_k)) t^(2<y_k, |y_(k+1)...|>).
"""

from __future__ import annotations

from functools import lru_cache

from . import cartan, freealg
from .ratfield import LP_ONE, LP_ZERO, LaurentPoly, RatFunc, _flip_poly, _normal, inv, mono


@lru_cache(maxsize=None)
def _peel_scale(spec: cartan.CartanSpec, i: int) -> RatFunc:
    d = spec.omega[i][i]
    return inv(mono(1, -d, 0) - mono(1, d, 0))


@lru_cache(maxsize=None)
def _phi_den(spec: cartan.CartanSpec, fw) -> LaurentPoly:
    """The one den of phi(E_w, F_fw) for every E-word w: the peel dens' product."""
    if not fw:
        return LP_ONE
    return _peel_scale(spec, fw[0]).den * _phi_den(spec, fw[1:])


@lru_cache(maxsize=None)
def _phi_num(spec: cartan.CartanSpec, ew, fw, end: str, side: str) -> LaurentPoly:
    """Numerator of phi(E_ew, F_fw) over _phi_den(spec, fw), by peeling the
    `end` letter ("l" or "r") of the `side` word ("E" or "F") and deriving
    the other word; ("l", "F") below the diagonal is the flip of its mirror."""
    if freealg.deg(spec, ew) != freealg.deg(spec, fw):
        return LP_ZERO
    if not fw:
        return LP_ONE
    if ew > fw and end == "l" and side == "F":
        return _flip_poly(_phi_num(spec, fw, ew, "l", "F"), 1, -1)
    peeled, other, other_side = (fw, ew, "E") if side == "F" else (ew, fw, "F")
    i, rest = (peeled[-1], peeled[:-1]) if end == "r" else (peeled[0], peeled[1:])
    acc = LP_ZERO
    for w, c in freealg._deriv_word(spec, i, other, end, other_side).items():
        val = _phi_num(spec, *((w, rest) if side == "F" else (rest, w)), end, side)
        if val.terms:
            acc = acc + c.num * val
    return _peel_scale(spec, i).num * acc


@lru_cache(maxsize=None)
def _phi_words(spec: cartan.CartanSpec, ew, fw) -> RatFunc:
    return _normal(_phi_num(spec, ew, fw, "l", "F"), _phi_den(spec, fw))


def phi(spec: cartan.CartanSpec, x: freealg.FElem, y: freealg.FElem) -> RatFunc:
    """Pairing of an E-side element with an F-side element."""
    return freealg.bilinear(_phi_words, spec, x, y)


@lru_cache(maxsize=None)
def _form_words(spec: cartan.CartanSpec, xw, yw) -> RatFunc:
    t = sum(cartan.bracket(spec, cartan.unit(spec, i), freealg.deg(spec, yw[k + 1:]))
            for k, i in enumerate(yw))
    v = sum(spec.omega[i][i] for i in yw)
    return _phi_words(spec, xw, yw) * mono((-1) ** len(yw), v, 2 * t)


def form(spec: cartan.CartanSpec, x: freealg.FElem, y: freealg.FElem) -> RatFunc:
    """Bilinear form with (1,1)=1, (theta_i,theta_j)=delta_ij/(1-v_i^-2)."""
    return freealg.bilinear(_form_words, spec, x, y)


def gram(spec: cartan.CartanSpec, mu: cartan.Degree, words) -> tuple:
    """(rows, den): phi on all pairs of the given words of degree mu, rows
    and columns in their order, as LaurentPoly numerators over the degree's
    one den."""
    rows = [[_phi_num(spec, ew, fw, "l", "F") for fw in words] for ew in words]
    return rows, _phi_den(spec, sum(((i,) * n for i, n in enumerate(mu)), ()))
