"""Free algebra on positive generators with the twisted tensor-square structure.

Elements are plain dicts word -> coefficient, where a word is a tuple of
0-based generator indices; tensors are dicts (word, word) -> coefficient.
Zero coefficients are never stored.

The coproduct r is the algebra map F -> F (x) F for the twisted product

    (x1 (x) x2)(y1 (x) y2)
        = v^(|y1|.|x2|) t^(<|y1|,|x2|> - <|x2|,|y1|>) x1 y1 (x) x2 y2

sending each generator to theta_i (x) 1 + 1 (x) theta_i; rbar is coproduct_r
with vsign = -1, the same recipe with the v-twist inverted.  deriv gives the
letter derivations: on E-words it extracts the single-letter components of r
from the right ("r") or left ("l") tensor slot, and on F-words (side "F") it
gives their mirror images with the t-twist inverted.  All four follow one
letter recursion; the tests check the E-side ones against r directly.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from . import cartan
from .ratfield import ONE, ZERO, RatFunc, bar as rf_bar, eq as rf_eq, inv, mono, qfact

Word = tuple
FElem = dict
FTensor = dict


def felem(word, coeff: RatFunc = ONE) -> FElem:
    return {} if coeff.is_zero() else {tuple(word): coeff}


def f_add(a: FElem, b: FElem) -> FElem:
    out = dict(a)
    for w, c in b.items():
        acc = out.get(w)
        acc = c if acc is None else acc + c
        if acc.is_zero():
            out.pop(w, None)
        else:
            out[w] = acc
    return out


def f_scale(a: FElem, c: RatFunc) -> FElem:
    if c.is_zero():
        return {}
    return {w: x * c for w, x in a.items()}


def f_eq(a: FElem, b: FElem) -> bool:
    for w in set(a) | set(b):
        if not rf_eq(a.get(w, ZERO), b.get(w, ZERO)):
            return False
    return True


def deg(spec: cartan.CartanSpec, word: Word) -> cartan.Degree:
    counts = [0] * spec.rank
    for i in word:
        counts[i] += 1
    return tuple(counts)


def mul(a: FElem, b: FElem) -> FElem:
    """Concatenation product, bilinear; no twist inside a single factor."""
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            w = wa + wb
            c = ca * cb
            acc = out.get(w)
            acc = c if acc is None else acc + c
            if acc.is_zero():
                out.pop(w, None)
            else:
                out[w] = acc
    return out


def _tensor_accumulate(out: FTensor, key, c: RatFunc):
    acc = out.get(key)
    acc = c if acc is None else acc + c
    if acc.is_zero():
        out.pop(key, None)
    else:
        out[key] = acc


def t_add(a: FTensor, b: FTensor) -> FTensor:
    out = dict(a)
    for key, c in b.items():
        _tensor_accumulate(out, key, c)
    return out


def t_eq(a: FTensor, b: FTensor) -> bool:
    for key in set(a) | set(b):
        if not rf_eq(a.get(key, ZERO), b.get(key, ZERO)):
            return False
    return True


def _tensor_mul(spec: cartan.CartanSpec, a: FTensor, b: FTensor, vsign: int) -> FTensor:
    out = {}
    for (x1, x2), ca in a.items():
        dx2 = deg(spec, x2)
        for (y1, y2), cb in b.items():
            dy1 = deg(spec, y1)
            tw = mono(
                1,
                vsign * cartan.dot(spec, dy1, dx2),
                cartan.angle(spec, dy1, dx2) - cartan.angle(spec, dx2, dy1),
            )
            _tensor_accumulate(out, (x1 + y1, x2 + y2), ca * cb * tw)
    return out


@lru_cache(maxsize=None)
def _word_coproduct(spec: cartan.CartanSpec, word: Word, vsign: int) -> FTensor:
    if not word:
        return {((), ()): ONE}
    head = _word_coproduct(spec, word[:-1], vsign)
    i = word[-1]
    gen = {((i,), ()): ONE, ((), (i,)): ONE}
    return _tensor_mul(spec, head, gen, vsign)


def coproduct_r(spec: cartan.CartanSpec, x: FElem, vsign: int = 1) -> FTensor:
    """The coproduct r; vsign = -1 inverts the v-twist and gives rbar."""
    out = {}
    for w, c in x.items():
        for key, tc in _word_coproduct(spec, w, vsign).items():
            _tensor_accumulate(out, key, tc * c)
    return out


@lru_cache(maxsize=None)
def _deriv_word(spec: cartan.CartanSpec, i: int, word: Word, end: str, side: str) -> FElem:
    # r_i(w' theta_j) = v^(i.j) t^(<j,i>-<i,j>) r_i(w') theta_j + delta_ij w'
    # ir(theta_j w'') = delta_ij w'' + v^(i.j) t^(<i,j>-<j,i>) theta_j ir(w'')
    # and on F-words the t-twist is inverted
    if not word:
        return {}
    right = end == "r"
    j, rest = (word[-1], word[:-1]) if right else (word[0], word[1:])
    ei, ej = cartan.unit(spec, i), cartan.unit(spec, j)
    tw = cartan.brace(spec, ei, ej) if right == (side == "E") else cartan.brace(spec, ej, ei)
    sub = _deriv_word(spec, i, rest, end, side)
    out = {(w + (j,) if right else (j,) + w): c * tw for w, c in sub.items()}
    if j == i:
        out = f_add(out, {rest: ONE})
    return out


def deriv(spec: cartan.CartanSpec, i: int, x: FElem, end: str, side: str = "E") -> FElem:
    """Letter derivation r_i (end "r") or ir (end "l"); side "F" for F-words."""
    out = {}
    for w, c in x.items():
        out = f_add(out, f_scale(_deriv_word(spec, i, w, end, side), c))
    return out


@lru_cache(maxsize=None)
def _sigma_word(spec: cartan.CartanSpec, word: Word):
    e = 0
    for a in range(len(word)):
        for b in range(a + 1, len(word)):
            e += spec.omega[word[b]][word[a]] - spec.omega[word[a]][word[b]]
    return word[::-1], mono(1, 0, e)


def sigma(spec: cartan.CartanSpec, x: FElem) -> FElem:
    """Anti-automorphism fixing generators: reverses words up to a t-power."""
    out = {}
    for w, c in x.items():
        rev, tw = _sigma_word(spec, w)
        out = f_add(out, {rev: c * tw})
    return out


def bar_f(x: FElem) -> FElem:
    """Coefficientwise v -> v^-1; words are bar-fixed."""
    return {w: rf_bar(c) for w, c in x.items()}


@lru_cache(maxsize=None)
def _form_words(spec: cartan.CartanSpec, xw: Word, yw: Word) -> RatFunc:
    if deg(spec, xw) != deg(spec, yw):
        return ZERO
    if not yw:
        return ONE
    i, rest = yw[0], yw[1:]
    d = spec.omega[i][i]
    scale = inv(ONE - mono(1, -2 * d, 0))
    nu_rest = deg(spec, rest)
    tfac = mono(1, 0, 2 * cartan.bracket(spec, cartan.unit(spec, i), nu_rest))
    acc = ZERO
    for w, c in _deriv_word(spec, i, xw, "l", "E").items():
        acc = acc + c * _form_words(spec, w, rest)
    return scale * tfac * acc


def form(spec: cartan.CartanSpec, x: FElem, y: FElem) -> RatFunc:
    """Bilinear form with (1,1)=1, (theta_i,theta_j)=delta_ij/(1-v_i^-2)."""
    out = ZERO
    for xw, cx in x.items():
        for yw, cy in y.items():
            val = _form_words(spec, xw, yw)
            if not val.is_zero():
                out = out + cx * cy * val
    return out


def serre_element(spec: cartan.CartanSpec, i: int, j: int, side: str = "E") -> FElem:
    """Quantum Serre relator in degree (1-<a_ij>) alpha_i + alpha_j; i != j.

    The negative side ("F") has the same coefficients with the divided
    powers of theta_i on the two sides of theta_j swapped.
    """
    if i == j:
        raise ValueError("serre element needs distinct indices")
    o = spec.omega
    n = 1 - Fraction(spec.dot[i][j], o[i][i])
    if n.denominator != 1 or n < 1:
        raise ValueError("inadmissible pair for a serre element")
    n = int(n)
    d = o[i][i]
    out = {}
    for p in range(n + 1):
        pp = n - p
        texp = -p * (pp * o[i][i] - o[i][j] + o[j][i])
        coeff = mono((-1) ** p, 0, texp) / (qfact(p, d) * qfact(pp, d))
        left, right = (p, pp) if side == "E" else (pp, p)
        out = f_add(out, {(i,) * left + (j,) + (i,) * right: coeff})
    return out


@lru_cache(maxsize=None)
def words_of_degree(mu: cartan.Degree) -> tuple:
    """All words of the given degree, lexicographically ascending."""
    if not any(mu):
        return ((),)
    out = []
    for i, m in enumerate(mu):
        if m:
            sub = tuple(x - (1 if k == i else 0) for k, x in enumerate(mu))
            out.extend((i,) + w for w in words_of_degree(sub))
    return tuple(out)
