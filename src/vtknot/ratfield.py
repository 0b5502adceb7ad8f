"""Exact arithmetic in the field Q(v,t) with rational exponents of v and t.

Conventions:
    ExpPair     a (v_exp, t_exp) pair of exact rationals
    LaurentPoly finite map ExpPair -> nonzero rational coefficient
    RatFunc     num/den with den nonzero; fractions are NOT gcd-reduced,
                equality is by cross-multiplication

All coefficients and exponents are fractions.Fraction; no floats anywhere.
The involutions bar (v -> v^-1) and bar_t (t -> t^-1) are one exponent flip
with different signs.
Rendering grammar (also accepted back by parse): terms `c * v^(p/q) * t^(r/s)`
joined by ` + ` / ` - `, exponent 1 and coefficient 1 elided, integer
exponents printed bare (`v^-2`), fractional ones in parens (`v^(1/2)`).
Term order is descending by (v_exp, t_exp).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple


class ExpPair(NamedTuple):
    v_exp: Fraction
    t_exp: Fraction


_ZERO_EXP = ExpPair(Fraction(0), Fraction(0))


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class LaurentPoly:
    """Laurent polynomial in v, t with rational exponents; immutable by convention."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        cleaned = {}
        if terms:
            for key, coeff in terms.items():
                if coeff == 0:
                    continue
                if not isinstance(key, ExpPair):
                    key = ExpPair(_frac(key[0]), _frac(key[1]))
                cleaned[key] = _frac(coeff)
        self.terms = cleaned

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            acc = out.get(key)
            if acc is None:
                out[key] = coeff
            else:
                acc = acc + coeff
                if acc == 0:
                    del out[key]
                else:
                    out[key] = acc
        res = LaurentPoly.__new__(LaurentPoly)
        res.terms = out
        return res

    def __neg__(self) -> "LaurentPoly":
        res = LaurentPoly.__new__(LaurentPoly)
        res.terms = {key: -coeff for key, coeff in self.terms.items()}
        return res

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        out = {}
        for (av, at), ac in self.terms.items():
            for (bv, bt), bc in other.terms.items():
                key = ExpPair(av + bv, at + bt)
                acc = out.get(key)
                if acc is None:
                    out[key] = ac * bc
                else:
                    acc = acc + ac * bc
                    if acc == 0:
                        del out[key]
                    else:
                        out[key] = acc
        res = LaurentPoly.__new__(LaurentPoly)
        res.terms = out
        return res

    def scale(self, q: Fraction) -> "LaurentPoly":
        if q == 0:
            return LP_ZERO
        res = LaurentPoly.__new__(LaurentPoly)
        res.terms = {key: coeff * q for key, coeff in self.terms.items()}
        return res

    def shift(self, dv: Fraction, dt: Fraction) -> "LaurentPoly":
        res = LaurentPoly.__new__(LaurentPoly)
        res.terms = {
            ExpPair(key.v_exp + dv, key.t_exp + dt): coeff
            for key, coeff in self.terms.items()
        }
        return res

    def __repr__(self):
        return f"LaurentPoly({render_poly(self)})"


def lp_mono(coeff=1, v_exp=0, t_exp=0) -> LaurentPoly:
    return LaurentPoly({ExpPair(_frac(v_exp), _frac(t_exp)): _frac(coeff)})


LP_ZERO = LaurentPoly()
LP_ONE = lp_mono(1)


class RatFunc:
    """Element of Q(v,t) as num/den; monomial denominators fold into num."""

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = LP_ONE):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if len(den.terms) == 1:
            # exact monomial division, no gcd machinery needed
            (dv, dt), dc = next(iter(den.terms.items()))
            if dv or dt or dc != 1:
                num = num.shift(-dv, -dt).scale(Fraction(1) / dc)
            den = LP_ONE
        elif num.is_zero():
            den = LP_ONE
        else:
            # pull out the denominator's monomial content and lead coefficient
            minv = min(k.v_exp for k in den.terms)
            mint = min(k.t_exp for k in den.terms)
            lead = den.terms[max(den.terms)]
            if minv or mint or lead != 1:
                den = den.shift(-minv, -mint).scale(Fraction(1) / lead)
                num = num.shift(-minv, -mint).scale(Fraction(1) / lead)
        self.num = num
        self.den = den

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: "RatFunc") -> "RatFunc":
        if self.den.terms == other.den.terms:
            return RatFunc(self.num + other.num, self.den)
        return RatFunc(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> "RatFunc":
        res = RatFunc.__new__(RatFunc)
        res.num = -self.num
        res.den = self.den
        return res

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        return RatFunc(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RatFunc") -> "RatFunc":
        if other.num.is_zero():
            raise ZeroDivisionError("division by zero in Q(v,t)")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __eq__(self, other) -> bool:
        return isinstance(other, RatFunc) and eq(self, other)

    def __hash__(self):
        raise TypeError("RatFunc is not hashable (equality is cross-multiplication)")

    def __repr__(self):
        return f"RatFunc({render(self)})"


ZERO = RatFunc(LP_ZERO)
ONE = RatFunc(LP_ONE)


def mono(coeff=1, v_exp=0, t_exp=0) -> RatFunc:
    return RatFunc(lp_mono(coeff, v_exp, t_exp))


def const(q) -> RatFunc:
    return RatFunc(lp_mono(q))


def v_pow(e) -> RatFunc:
    return mono(1, e, 0)


def t_pow(e) -> RatFunc:
    return mono(1, 0, e)


V = v_pow(1)
T = t_pow(1)


def inv(a: RatFunc) -> RatFunc:
    if a.num.is_zero():
        raise ZeroDivisionError("inverse of zero in Q(v,t)")
    return RatFunc(a.den, a.num)


def eq(a: RatFunc, b: RatFunc) -> bool:
    """Authoritative equality: a.num*b.den == b.num*a.den as LaurentPoly."""
    if a.den.terms == b.den.terms:
        return a.num.terms == b.num.terms
    return (a.num * b.den).terms == (b.num * a.den).terms


def _flip(a: RatFunc, v_sign: int, t_sign: int) -> RatFunc:
    """Multiply every v exponent by v_sign and every t exponent by t_sign."""
    num, den = LaurentPoly.__new__(LaurentPoly), LaurentPoly.__new__(LaurentPoly)
    for res, p in ((num, a.num), (den, a.den)):
        res.terms = {
            ExpPair(v_sign * key.v_exp, t_sign * key.t_exp): coeff
            for key, coeff in p.terms.items()
        }
    return RatFunc(num, den)


def bar(a: RatFunc) -> RatFunc:
    """The Q-algebra involution v -> v^-1, t -> t."""
    return _flip(a, -1, 1)


def poly_div_exact(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Quotient a/b when b divides a exactly; raises ValueError otherwise.

    Works by cancelling the lex-leading term of the remainder; terminates
    because quotient exponents live on a finite lattice box when the
    division is exact, and the leading exponent drops below that box when
    it is not.
    """
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero():
        return LP_ZERO
    if len(b.terms) == 1:
        (bv, bt), bc = next(iter(b.terms.items()))
        return a.shift(-bv, -bt).scale(Fraction(1) / bc)
    eb = max(b.terms)
    cb = b.terms[eb]
    # exact quotients have all exponents >= lexmin(a)-lexmin(b) in both the
    # (v,t) and the (t,v) orders; an inexact division violates one of them
    la, lb = min(a.terms), min(b.terms)
    bound = (la.v_exp - lb.v_exp, la.t_exp - lb.t_exp)
    ra = min(a.terms, key=lambda k: (k.t_exp, k.v_exp))
    rb = min(b.terms, key=lambda k: (k.t_exp, k.v_exp))
    rbound = (ra.t_exp - rb.t_exp, ra.v_exp - rb.v_exp)
    rem = dict(a.terms)
    quot = {}
    while rem:
        er = max(rem)
        qe = ExpPair(er.v_exp - eb.v_exp, er.t_exp - eb.t_exp)
        if (qe.v_exp, qe.t_exp) < bound or (qe.t_exp, qe.v_exp) < rbound:
            raise ValueError("polynomial division is not exact")
        qc = rem[er] / cb
        quot[qe] = qc
        for ke, kc in b.terms.items():
            key = ExpPair(qe.v_exp + ke.v_exp, qe.t_exp + ke.t_exp)
            acc = rem.get(key, Fraction(0)) - qc * kc
            if acc == 0:
                rem.pop(key, None)
            else:
                rem[key] = acc
    res = LaurentPoly.__new__(LaurentPoly)
    res.terms = quot
    return res


def reduce_poly(a: RatFunc) -> RatFunc:
    """Divide out the denominator when it is exact; otherwise return a as is."""
    if len(a.den.terms) == 1:
        return a
    try:
        return RatFunc(poly_div_exact(a.num, a.den))
    except ValueError:
        return a


def is_laurent(a: RatFunc) -> bool:
    """Whether a equals a Laurent polynomial in v and t."""
    return len(reduce_poly(a).den.terms) == 1


def bar_t(a: RatFunc) -> RatFunc:
    """The involution t -> t^-1, v fixed."""
    return _flip(a, 1, -1)


class SpecializeError(ValueError):
    pass


def _rat_pow(base: Fraction, exp: Fraction) -> Fraction:
    """base**exp as an exact rational; error when the root is irrational."""
    if exp == 0:
        return Fraction(1)
    if base == 0:
        if exp > 0:
            return Fraction(0)
        raise SpecializeError("zero raised to a negative power")
    if exp < 0:
        base, exp = Fraction(1) / base, -exp
    root = exp.denominator
    if root > 1:
        if base < 0:
            raise SpecializeError(f"no rational {root}-th root of {base}")

        def iroot(n: int) -> int:
            lo, hi = 0, max(n, 1)
            while lo < hi:
                mid = (lo + hi) // 2
                if mid**root < n:
                    lo = mid + 1
                else:
                    hi = mid
            if lo**root != n:
                raise SpecializeError(f"no rational {root}-th root of {base}")
            return lo

        base = Fraction(iroot(base.numerator), iroot(base.denominator))
    return base**exp.numerator


def _specialize_poly(p: LaurentPoly, assign: dict) -> LaurentPoly:
    out = {}
    for key, coeff in p.terms.items():
        c = coeff
        ve, te = key.v_exp, key.t_exp
        if "v" in assign:
            c *= _rat_pow(assign["v"], ve)
            ve = Fraction(0)
        if "t" in assign:
            c *= _rat_pow(assign["t"], te)
            te = Fraction(0)
        k = ExpPair(ve, te)
        acc = out.get(k, Fraction(0)) + c
        if acc == 0:
            out.pop(k, None)
        else:
            out[k] = acc
    res = LaurentPoly.__new__(LaurentPoly)
    res.terms = out
    return res


def specialize(a: RatFunc, assignments: dict) -> RatFunc:
    """Substitute exact rationals for v and/or t (partial map allowed)."""
    assign = {name: _frac(val) for name, val in assignments.items()}
    for name in assign:
        if name not in ("v", "t"):
            raise SpecializeError(f"unknown variable {name!r}")
    den = _specialize_poly(a.den, assign)
    if den.is_zero():
        raise SpecializeError("denominator vanishes under the given assignment")
    return RatFunc(_specialize_poly(a.num, assign), den)


def qint(n: int, d) -> RatFunc:
    """Quantum integer [n] in v_i = v^d, t_i = t^d: t_i^(n-1) * sum v_i^(n-1-2k)."""
    if n < 0:
        raise ValueError("quantum integer needs n >= 0")
    d = _frac(d)
    terms = {}
    for k in range(n):
        terms[ExpPair(d * (n - 1 - 2 * k), d * (n - 1))] = Fraction(1)
    return RatFunc(LaurentPoly(terms))


def qfact(n: int, d) -> RatFunc:
    out = ONE
    for m in range(1, n + 1):
        out = out * qint(m, d)
    return out


def _render_exp(name: str, e: Fraction) -> str:
    if e == 1:
        return name
    if e.denominator == 1:
        return f"{name}^{e}"
    return f"{name}^({e})"


def render_poly(p: LaurentPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for key in sorted(p.terms, reverse=True):
        coeff = p.terms[key]
        factors = []
        if key.v_exp:
            factors.append(_render_exp("v", key.v_exp))
        if key.t_exp:
            factors.append(_render_exp("t", key.t_exp))
        mag = abs(coeff)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        body = " * ".join(factors)
        if not parts:
            parts.append(body if coeff > 0 else "-" + body)
        else:
            parts.append((" + " if coeff > 0 else " - ") + body)
    return "".join(parts)


def render(a: RatFunc) -> str:
    if a.den == LP_ONE:
        return render_poly(a.num)
    return f"({render_poly(a.num)}) / ({render_poly(a.den)})"


class ParseError(ValueError):
    pass


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            tokens.append(("num", text[i:j], i))
            i = j
        elif ch in "vt":
            tokens.append(("var", ch, i))
            i += 1
        elif ch in "+-*/^()":
            tokens.append((ch, ch, i))
            i += 1
        else:
            raise ParseError(f"unexpected character {ch!r} at position {i}")
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos][0]

    def take(self, kind=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r} at position {tok[2]}, got {tok[1]!r}")
        self.pos += 1
        return tok

    def expression(self) -> RatFunc:
        if self.peek() == "-":
            self.take()
            out = -self.term()
        else:
            out = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()[0]
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def term(self) -> RatFunc:
        out = self.factor()
        while self.peek() in ("*", "/"):
            op = self.take()[0]
            rhs = self.factor()
            out = out * rhs if op == "*" else out / rhs
        return out

    def factor(self) -> RatFunc:
        if self.peek() == "-":
            self.take()
            return -self.factor()
        kind, value, pos = self.take()
        if kind == "num":
            base = const(int(value))
        elif kind == "var":
            base = V if value == "v" else T
        elif kind == "(":
            base = self.expression()
            self.take(")")
        else:
            raise ParseError(f"unexpected token {value!r} at position {pos}")
        if self.peek() == "^":
            self.take()
            e = self.exponent()
            if kind == "var":
                return v_pow(e) if value == "v" else t_pow(e)
            out = ONE
            if e.denominator != 1:
                raise ParseError("fractional exponents only on v and t")
            n = int(e)
            for _ in range(abs(n)):
                out = out * base
            return inv(out) if n < 0 else out
        return base

    def exponent(self) -> Fraction:
        # only parenthesized exponents may carry a /-separated denominator,
        # so that `x^2 / y` divides the power rather than the exponent
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        if self.peek() == "(":
            self.take()
            e = self.signed_rational()
            self.take(")")
            return sign * e
        return sign * Fraction(int(self.take("num")[1]))

    def signed_rational(self) -> Fraction:
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        numer = int(self.take("num")[1])
        if self.peek() == "/":
            self.take()
            denom = int(self.take("num")[1])
            return sign * Fraction(numer, denom)
        return sign * Fraction(numer)


def parse(text: str) -> RatFunc:
    """Parse the rendering grammar (and general +,-,*,/,^ expressions over v,t)."""
    parser = _Parser(text)
    out = parser.expression()
    parser.take("end")
    return out
