"""Free algebra on positive generators with the twisted tensor-square structure.

Elements are plain dicts word -> coefficient, where a word is a tuple of
0-based generator indices; tensors are dicts (word, word) -> coefficient.
Zero coefficients are never stored.  Both kinds are word-keyed sparse
combinations and share one set of helpers: `accumulate` adds one term in
place, `f_eq` compares two combinations, `_linear` extends a per-word table
to a linear map (`mul`, `coproduct_r`, `deriv` and `sigma`), and `bilinear`
extends a word-pair table to a bilinear map (`pairing.phi` and
`pairing.form`).  The pairing, the quasi-R-matrix and the verify suites read
the cached per-word tables (`_word_coproduct`, `_deriv_word`, `_sigma_word`)
themselves; the linear maps serve callers that hold elements.
Callers hand `accumulate` only dicts they built themselves, never one an
`lru_cache` returned.

The coproduct r is the algebra map F -> F (x) F for the twisted product

    (x1 (x) x2)(y1 (x) y2)
        = v^(|y1|.|x2|) t^(<|y1|,|x2|> - <|x2|,|y1|>) x1 y1 (x) x2 y2

sending each generator to theta_i (x) 1 + 1 (x) theta_i; rbar is coproduct_r
with vsign = -1, the same recipe with the v-twist inverted.  deriv gives the
letter derivations: on E-words it extracts the single-letter components of r
from the right ("r") or left ("l") tensor slot, and on F-words (side "F") it
gives their mirror images with the t-twist inverted.  All four follow one
letter recursion; the tests check the E-side ones against r directly.  The
same `side` argument picks the mirror of `sigma` and `serre_element`.

The word combinatorics are `words_of_degree` and `lyndon_factors`; which
words are candidates for a dual basis is decided in `quasir`.
"""

from __future__ import annotations

from functools import lru_cache

from . import cartan
from .ratfield import ONE, ZERO, RatFunc, _raw, eq as rf_eq, mono

Word = tuple
FElem = dict
FTensor = dict


def felem(word, coeff: RatFunc = ONE) -> FElem:
    return {} if coeff.is_zero() else {tuple(word): coeff}


def accumulate(out: dict, key, c: RatFunc) -> None:
    """Add c to out[key] in place, dropping the key when the sum is zero."""
    acc = out.get(key)
    acc = c if acc is None else acc + c
    if acc.is_zero():
        out.pop(key, None)
    else:
        out[key] = acc


def f_eq(a: dict, b: dict) -> bool:
    for key in set(a) | set(b):
        if not rf_eq(a.get(key, ZERO), b.get(key, ZERO)):
            return False
    return True


def deg(spec: cartan.CartanSpec, word: Word) -> cartan.Degree:
    counts = [0] * spec.rank
    for i in word:
        counts[i] += 1
    return tuple(counts)


def mul(a: FElem, b: FElem) -> FElem:
    """Concatenation product, bilinear; no twist inside a single factor."""
    return _linear(lambda wa: ((wa + wb, cb) for wb, cb in b.items()), a)


@lru_cache(maxsize=None)
def _word_coproduct(spec: cartan.CartanSpec, word: Word, vsign: int) -> FTensor:
    """r(word) = r(head) (theta_i (x) 1 + 1 (x) theta_i), word = head i: each
    term x1 (x) x2 of r(head) gives x1 i (x) x2, twisted by (|x2|, alpha_i),
    and x1 (x) x2 i, whose twist by (|x2|, 0) is 1."""
    if not word:
        return {((), ()): ONE}
    head, i = word[:-1], word[-1]
    ei = cartan.unit(spec, i)
    out = {}
    for (x1, x2), c in _word_coproduct(spec, head, vsign).items():
        accumulate(out, (x1 + (i,), x2), c * cartan.twist(spec, deg(spec, x2), ei, vsign))
        accumulate(out, (x1, x2 + (i,)), c)
    return out


def _linear(table, x: FElem) -> dict:
    """The linear extension of a per-word table to the element x: the sum of
    tc * c * key over the terms c * w of x and the pairs (key, tc) of table(w)."""
    out = {}
    for w, c in x.items():
        for key, tc in table(w):
            accumulate(out, key, tc * c)
    return out


def coproduct_r(spec: cartan.CartanSpec, x: FElem, vsign: int = 1) -> FTensor:
    """The coproduct r; vsign = -1 inverts the v-twist and gives rbar."""
    return _linear(lambda w: _word_coproduct(spec, w, vsign).items(), x)


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
        accumulate(out, rest, ONE)
    return out


def deriv(spec: cartan.CartanSpec, i: int, x: FElem, end: str, side: str = "E") -> FElem:
    """Letter derivation r_i (end "r") or ir (end "l"); side "F" for F-words."""
    return _linear(lambda w: _deriv_word(spec, i, w, end, side).items(), x)


@lru_cache(maxsize=None)
def _sigma_word(spec: cartan.CartanSpec, word: Word, side: str = "E"):
    e = 0
    for a in range(len(word)):
        for b in range(a + 1, len(word)):
            e += spec.omega[word[b]][word[a]] - spec.omega[word[a]][word[b]]
    return word[::-1], mono(1, 0, e if side == "E" else -e)


def sigma(spec: cartan.CartanSpec, x: FElem, side: str = "E") -> FElem:
    """Anti-automorphism fixing generators: reverses words up to a t-power.

    On F-words (side "F") the t-power is inverted.
    """
    return _linear(lambda w: (_sigma_word(spec, w, side),), x)


def bilinear(table, spec: cartan.CartanSpec, x: dict, y: dict) -> RatFunc:
    """Sum of cx * cy * table(spec, xw, yw) over the words of x and y."""
    out = ZERO
    for xw, cx in x.items():
        for yw, cy in y.items():
            val = table(spec, xw, yw)
            if not val.is_zero():
                out = out + cx * cy * val
    return out


def serre_power(spec: cartan.CartanSpec, i: int, j: int) -> int:
    """The power n = 1 - <a_ij> of theta_i in the Serre relator of (i, j)."""
    if i == j:
        raise ValueError("serre element needs distinct indices")
    n, frac = divmod(-spec.dot[i][j], spec.omega[i][i])
    if frac or n < 0:
        raise ValueError("inadmissible pair for a serre element")
    return n + 1


def serre_element(spec: cartan.CartanSpec, i: int, j: int, side: str = "E") -> FElem:
    """Quantum Serre relator in degree (1-<a_ij>) alpha_i + alpha_j; i != j.

    Written times [n]_{v_i}! (`ratfield.qfact`), so the coefficient of
    theta_i^p theta_j theta_i^(n-p) is (-1)^p t^(p(<i,j> - <j,i>)) times the
    Gaussian binomial [n choose p] in v_i, and nothing is divided; callers
    only test for zero.  The negative side ("F") swaps the powers of theta_i
    on the two sides of theta_j.
    """
    o = spec.omega
    n = serre_power(spec, i, j)
    # prod_r (1 + v_i^(2r-n+1) z) = sum_p [n choose p] z^p, as {(p, v-exponent): coeff}
    row = {(0, 0): 1}
    for r in range(n):
        for (p, e), c in list(row.items()):
            key = (p + 1, e + o[i][i] * (2 * r - n + 1))
            row[key] = row.get(key, 0) + c
    out = {}
    for (p, e), c in row.items():
        left, right = (p, n - p) if side == "E" else (n - p, p)
        terms = out.setdefault((i,) * left + (j,) + (i,) * right, {})
        terms[(e, p * (o[i][j] - o[j][i]))] = (-1) ** p * c
    return {w: RatFunc(_raw(terms, 1)) for w, terms in out.items()}


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


def lyndon_factors(word: Word, reverse: bool = False) -> tuple:
    """The Chen-Fox-Lyndon factors of word, by Duval's algorithm: the one
    nonincreasing sequence of Lyndon words whose product is word.  With
    `reverse`, letters compare in reverse order."""
    s = [-a for a in word] if reverse else word
    out, i, n = [], 0, len(word)
    while i < n:
        j, k = i + 1, i
        while j < n and s[k] <= s[j]:
            k = i if s[k] < s[j] else k + 1
            j += 1
        while i <= k:
            out.append(tuple(word[i:i + j - k]))
            i += j - k
    return tuple(out)
