"""Exact arithmetic in the field Q(v,t) with rational exponents of v and t.

Conventions:
    LaurentPoly sum of c * v^(a/scale) * t^(b/scale): `terms` maps int pairs
                (a, b) to nonzero coefficients and `scale` is one positive
                int per polynomial, the least common denominator of its
                exponents.  The form is minimal (scale and all exponents
                have gcd 1; zero has scale 1), so structural == and hash
                are value equality: v^(1/2) * v^(-1/2) equals LP_ONE.
                Coefficients are int when integral, fractions.Fraction
                otherwise; the numeric tower keeps == and hash consistent.
    RatFunc     num/den with den nonzero; fractions are NOT gcd-reduced,
                equality is by cross-multiplication
    ExpPair     a (v_exp, t_exp) pair of Fractions, the form the edges see:
                the LaurentPoly constructor takes {(v_exp, t_exp): rational}
                maps (parse and lp_mono go through it), and
                LaurentPoly.fraction_terms() yields (ExpPair, Fraction)
                pairs (specialize and any caller that reads exponents)

Sums, products, shifts and exact division work on the int lattice, with
Fraction arithmetic only for non-integral coefficients; operands of different
scales are rescaled once to their lcm.  No floats anywhere.
The involutions bar (v -> v^-1) and bar_t (t -> t^-1) are one exponent flip
with different signs.
Rendering grammar (also accepted back by parse): terms `c * v^(p/q) * t^(r/s)`
joined by ` + ` / ` - `, exponent 1 and coefficient 1 elided, integer
exponents printed bare (`v^-2`), fractional ones in parens (`v^(1/2)`).
Term order is descending by (v_exp, t_exp).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple


class ExpPair(NamedTuple):
    v_exp: Fraction
    t_exp: Fraction


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _coeff(c):
    """An integral Fraction as an int; any other coefficient unchanged."""
    if type(c) is Fraction and c.denominator == 1:
        return c.numerator
    return c


def _div(a, b):
    """Exact quotient of two coefficients, an int when it is integral."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        if not r:
            return q
    return _coeff(Fraction(a) / b)


def _raw(terms: dict, scale: int) -> "LaurentPoly":
    res = LaurentPoly.__new__(LaurentPoly)
    res.terms = terms
    res.scale = scale
    return res


def _make(terms: dict, scale: int) -> "LaurentPoly":
    """Wrap fresh nonzero terms, reducing scale and coefficients to minimal form."""
    if scale != 1:
        g = scale
        for a, b in terms:
            g = gcd(g, a, b)
            if g == 1:
                break
        if g != 1:
            terms = {(a // g, b // g): c for (a, b), c in terms.items()}
            scale //= g
    for c in terms.values():
        if type(c) is not int:
            terms = {k: _coeff(c) for k, c in terms.items()}
            break
    return _raw(terms, scale)


def _terms_at(p: "LaurentPoly", scale: int) -> dict:
    """p's terms over a multiple of its scale."""
    if p.scale == scale:
        return p.terms
    f = scale // p.scale
    return {(a * f, b * f): c for (a, b), c in p.terms.items()}


def _shift_mul(p: "LaurentPoly", dv: int, dt: int, scale: int, q=1) -> "LaurentPoly":
    """q * v^(dv/scale) * t^(dt/scale) * p."""
    s = lcm(p.scale, scale)
    f, g = s // p.scale, s // scale
    dv, dt = dv * g, dt * g
    return _make({(a * f + dv, b * f + dt): c * q for (a, b), c in p.terms.items()}, s)


class LaurentPoly:
    """Laurent polynomial in v, t with rational exponents; immutable by convention."""

    __slots__ = ("terms", "scale")

    def __init__(self, terms=None):
        """From a map of (v_exp, t_exp) pairs of rationals to rational coefficients."""
        rows = [
            (_frac(ve), _frac(te), _frac(c))
            for (ve, te), c in (terms or {}).items()
            if c != 0
        ]
        # the lcm of reduced denominators is already the minimal scale
        s = lcm(*(x.denominator for ve, te, _ in rows for x in (ve, te)))
        self.terms = {(int(ve * s), int(te * s)): _coeff(c) for ve, te, c in rows}
        self.scale = s

    def fraction_terms(self):
        """Yield (ExpPair, Fraction) for every term: the view for the edges."""
        s = self.scale
        for (a, b), c in self.terms.items():
            yield ExpPair(Fraction(a, s), Fraction(b, s)), Fraction(c)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.scale == other.scale
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.scale, frozenset(self.terms.items())))

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        s = self.scale
        if s == other.scale:
            out, add = dict(self.terms), other.terms
        else:
            s = lcm(s, other.scale)
            out, add = dict(_terms_at(self, s)), _terms_at(other, s)
        for key, coeff in add.items():
            acc = out.get(key)
            if acc is None:
                out[key] = coeff
            else:
                acc += coeff
                if acc:
                    out[key] = acc
                else:
                    del out[key]
        return _make(out, s)

    def __neg__(self) -> "LaurentPoly":
        return _raw({key: -coeff for key, coeff in self.terms.items()}, self.scale)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        s = self.scale
        if s == other.scale:
            left, right = self.terms, other.terms
        else:
            s = lcm(s, other.scale)
            left, right = _terms_at(self, s), _terms_at(other, s)
        out = {}
        get = out.get
        for (av, at), ac in left.items():
            for (bv, bt), bc in right.items():
                key = (av + bv, at + bt)
                acc = get(key)
                if acc is None:
                    out[key] = ac * bc
                else:
                    acc += ac * bc
                    if acc:
                        out[key] = acc
                    else:
                        del out[key]
        return _make(out, s)

    def shift(self, dv, dt) -> "LaurentPoly":
        """self * v^dv * t^dt for rational dv, dt."""
        dv, dt = _frac(dv), _frac(dt)
        s = lcm(dv.denominator, dt.denominator)
        return _shift_mul(self, int(dv * s), int(dt * s), s)

    def __repr__(self):
        return f"LaurentPoly({render_poly(self)})"


def lp_mono(coeff=1, v_exp=0, t_exp=0) -> LaurentPoly:
    return LaurentPoly({(v_exp, t_exp): coeff})


LP_ZERO = LaurentPoly()
LP_ONE = lp_mono(1)


class RatFunc:
    """Element of Q(v,t) as num/den; monomial denominators fold into num.

    Every Laurent value therefore carries the shared LP_ONE as its den, which
    is what the fast paths of + and * test for.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = LP_ONE):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        terms = den.terms
        if len(terms) == 1:
            # exact monomial division, no gcd machinery needed
            (dv, dt), dc = next(iter(terms.items()))
            if dv or dt or dc != 1:
                num = _shift_mul(num, -dv, -dt, den.scale, _div(1, dc))
            den = LP_ONE
        elif num.is_zero():
            den = LP_ONE
        else:
            # pull out the denominator's monomial content and lead coefficient
            minv = min(a for a, _ in terms)
            mint = min(b for _, b in terms)
            lead = terms[max(terms)]
            if minv or mint or lead != 1:
                q = _div(1, lead)
                num = _shift_mul(num, -minv, -mint, den.scale, q)
                den = _shift_mul(den, -minv, -mint, den.scale, q)
        self.num = num
        self.den = den

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: "RatFunc") -> "RatFunc":
        if self.den is LP_ONE and other.den is LP_ONE:
            # Laurent fast path: nothing to normalize
            res = RatFunc.__new__(RatFunc)
            res.num = self.num + other.num
            res.den = LP_ONE
            return res
        if self.den == other.den:
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
        if self.den is LP_ONE and other.den is LP_ONE:
            res = RatFunc.__new__(RatFunc)
            res.num = self.num * other.num
            res.den = LP_ONE
            return res
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
    if a.den == b.den:
        return a.num == b.num
    return a.num * b.den == b.num * a.den


def _flip(a: RatFunc, v_sign: int, t_sign: int) -> RatFunc:
    """Multiply every v exponent by v_sign and every t exponent by t_sign."""
    num, den = (
        _raw({(v_sign * x, t_sign * y): c for (x, y), c in p.terms.items()}, p.scale)
        for p in (a.num, a.den)
    )
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
        return _shift_mul(a, -bv, -bt, b.scale, _div(1, bc))
    s = lcm(a.scale, b.scale)
    ta, tb = _terms_at(a, s), _terms_at(b, s)
    ebv, ebt = eb = max(tb)
    cb = tb[eb]
    # exact quotients have all exponents >= lexmin(a)-lexmin(b) in both the
    # (v,t) and the (t,v) orders; an inexact division violates one of them
    la, lb = min(ta), min(tb)
    bound = (la[0] - lb[0], la[1] - lb[1])
    ra = min(ta, key=lambda k: (k[1], k[0]))
    rb = min(tb, key=lambda k: (k[1], k[0]))
    rbound = (ra[1] - rb[1], ra[0] - rb[0])
    rem = dict(ta)
    quot = {}
    while rem:
        er = max(rem)
        qv, qt = er[0] - ebv, er[1] - ebt
        if (qv, qt) < bound or (qt, qv) < rbound:
            raise ValueError("polynomial division is not exact")
        qc = _div(rem[er], cb)
        quot[(qv, qt)] = qc
        for (kv, kt), kc in tb.items():
            key = (qv + kv, qt + kt)
            acc = rem.get(key, 0) - qc * kc
            if acc:
                rem[key] = acc
            else:
                rem.pop(key, None)
    return _make(quot, s)


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
    for (ve, te), c in p.fraction_terms():
        if "v" in assign:
            c *= _rat_pow(assign["v"], ve)
            ve = 0
        if "t" in assign:
            c *= _rat_pow(assign["t"], te)
            te = 0
        out[ve, te] = out.get((ve, te), 0) + c
    return LaurentPoly(out)


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
    a = d.numerator
    terms = {(a * (n - 1 - 2 * k), a * (n - 1)): 1 for k in range(n)}
    return RatFunc(_make(terms, d.denominator))


def qfact(n: int, d) -> RatFunc:
    out = ONE
    for m in range(1, n + 1):
        out = out * qint(m, d)
    return out


def _render_exp(name: str, e: int, scale: int) -> str:
    g = gcd(e, scale)
    e, scale = e // g, scale // g
    if scale != 1:
        return f"{name}^({e}/{scale})"
    return name if e == 1 else f"{name}^{e}"


def render_poly(p: LaurentPoly) -> str:
    if p.is_zero():
        return "0"
    parts = []
    for (a, b), coeff in sorted(p.terms.items(), reverse=True):
        factors = []
        if a:
            factors.append(_render_exp("v", a, p.scale))
        if b:
            factors.append(_render_exp("t", b, p.scale))
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
