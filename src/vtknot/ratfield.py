"""Exact arithmetic in the field Q(v,t) with rational exponents of v and t.

Conventions:
    LaurentPoly sum of c * v^(a/scale) * t^(b/scale): `terms` maps int pairs
                (a, b) to nonzero int coefficients (the only coefficient
                type) and `scale` is one positive int per polynomial, the
                least common denominator of its exponents.  The form is
                minimal (scale and all exponents have gcd 1; zero has scale
                1), so structural == and hash are value equality:
                v^(1/2) * v^(-1/2) equals LP_ONE.
    RatFunc     num/den with den nonzero; fractions are NOT gcd-reduced,
                equality is by cross-multiplication.  The den is normal: the
                shared LP_ONE, or a polynomial other than 1 with least v and
                t exponents 0 and a positive lex-lead coefficient, so a
                rational constant stays in the den (1/2 is 1 over 2); a zero
                value has den LP_ONE.  The constructor shifts, fixes the sign
                and maps a den equal to 1 to LP_ONE: it divides nothing, so
                it is multiplicative, and a product of normal dens is normal
                (LP_ONE only when both are).  +, - and * build their results
                with `_normal`, which skips it; only the constructor (and so
                /, inv and the flips) pays the normalizing pass.  Values are
                immutable, so a sum with a zero operand and a product with
                ONE return the other operand.
    ExpPair     a (v_exp, t_exp) pair of Fractions, the form the edges see:
                the LaurentPoly constructor takes {(v_exp, t_exp): integer}
                maps and refuses other coefficients (specialize and the
                reference tests go through it), and fraction_terms() yields
                (ExpPair, Fraction) pairs (specialize and exponent readers)

lp_mono (and so mono, V and T) writes its one term straight onto the
lattice: int exponents take scale 1 and make no Fraction.  Sums, products,
shifts and exact division work on the int lattice; operands of different
scales are rescaled once to their lcm.  A LaurentPoly product with a
monomial factor is one shift of the other factor (that factor itself when
the monomial is LP_ONE, which lp_mono(1) returns); only two polynomials of
two or more terms go through the loop over term pairs.  cross_div(a, b, c,
d, e) is the fused fraction-free update (a*b - c*d)/e of `linalg.rank` and
`linalg.principal_pivots`: both products accumulate in one term dict and the
result is divided once, with no intermediate polynomial.  That loop,
`_add_products`, is ratfield's one product-accumulate loop: it takes term
dicts already on one lattice, so the pair product, `cross_div` and the
remainder update of `poly_div_exact` rescale their operands first and share
it.  The tangle functor and `linalg.inverse` do not: they compute on packed
ints, with no term dicts until the end.
Below LARGE_PAIRS term pairs a product is that loop (`_pair_mul`); from
there on it goes through `_large_mul`, an lru_cache keyed by the operand
values, which makes each one once: as one big-int product
(`_packed_product`, Kronecker substitution), or by the loop when it has
more digits than pairs; `*` passes the operands in one order, so q * p
after p * q is a memo hit.  `_packed_product` and `linalg.inverse` put
their term dicts on one layout, `_pack` (and read them back with
`_unpack_terms`), and every packing reads its ints back with one codec,
`_unpack`: balanced base-2^k digits of any width k.
No floats anywhere.
The involutions bar (v -> v^-1) and bar_t (t -> t^-1) are one exponent flip
with different signs (`_flip_poly`, which `pairing` and `linalg` also use to
mirror a t-Hermitian Gram block and its elimination).
`poly_div_exact` divides over the integers and raises ValueError on a
coefficient remainder: Bareiss divisions (`cross_div`) are integral by
Sylvester's identity, and `reduce_poly` divides by a primitive polynomial.
Integer content is divided out only where values leave the pipeline:
`reduce_poly` divides the den's primitive part out of its num, leaving the
content as a constant den, and `render` divides num and den by the gcd of
all their coefficients.
Rendering grammar (also accepted back by parse): terms `c * v^(p/q) * t^(r/s)`
joined by ` + ` / ` - `, exponent 1 and coefficient 1 elided, integer
exponents printed bare (`v^-2`), fractional ones in parens (`v^(1/2)`).
Term order is descending by (v_exp, t_exp).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm, prod
from operator import itemgetter
from typing import NamedTuple


class ExpPair(NamedTuple):
    v_exp: Fraction
    t_exp: Fraction


def _frac(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def _raw(terms: dict, scale: int) -> "LaurentPoly":
    res = LaurentPoly.__new__(LaurentPoly)
    res.terms = terms
    res.scale = scale
    return res


def _make(terms: dict, scale: int) -> "LaurentPoly":
    """Wrap fresh nonzero terms, reducing the scale to minimal form."""
    if scale != 1:
        g = scale
        for a, b in terms:
            g = gcd(g, a, b)
            if g == 1:
                break
        if g != 1:
            terms = {(a // g, b // g): c for (a, b), c in terms.items()}
            scale //= g
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


def _mono_mul(p: "LaurentPoly", m: "LaurentPoly") -> "LaurentPoly":
    """p * m for a monomial m: p itself when m is one, else one shift."""
    ((dv, dt), c), = m.terms.items()
    if not (dv or dt) and c == 1:
        return p
    return _shift_mul(p, dv, dt, m.scale, c)


def _add_products(out: dict, left: dict, right: dict, sign: int = 1) -> None:
    """Add sign * left * right into out; all three are term dicts on one lattice.

    ratfield's one product-accumulate loop: `_pair_mul`, `cross_div` and
    `poly_div_exact`'s remainder update put their operands on the lattice
    first.  The tangle functor and `linalg.inverse` multiply packed ints
    instead.
    """
    get = out.get
    for (av, at), ac in left.items():
        ac *= sign
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


def _pair_mul(p: "LaurentPoly", q: "LaurentPoly") -> "LaurentPoly":
    """p * q summed over every pair of terms."""
    s = lcm(p.scale, q.scale)
    out = {}
    _add_products(out, _terms_at(p, s), _terms_at(q, s))
    return _make(out, s)


# Products of this many term pairs or more go through `_large_mul`: packing
# took 1.65x the pair loop's time at 32-63 pairs, 1.1x at 64-127, 0.7x at
# 128-255 and 0.33x past that (identity suites), and with the memo 32 to 96
# gave equal times.
LARGE_PAIRS = 64


def _unpack(z: int, k: int) -> list:
    """The balanced base-2^k digits d_i of z = sum d_i 2^(k i), least first.

    Needs -2^(k-1) <= d_i < 2^(k-1).  Each digit is the low k bits of what
    is left, read as a signed number; a negative one borrows 1 from the rest.
    The one codec of the package: `_packed_product` and the tangle functor
    read their packed ints back with it.
    """
    mask, half, full = (1 << k) - 1, 1 << (k - 1), 1 << k
    out = []
    while z:
        d = z & mask
        z >>= k
        if d >= half:
            d -= full
            z += 1
        out.append(d)
    return out


def _pack(terms: dict, a0: int, b0: int, g: int, span: int, k: int) -> int:
    """The terms at v = 2^(k span / g), t = 2^k, over v^a0 t^b0: term (a, b)
    is digit (a - a0)/g * span + (b - b0), the coefficient of 2^(k i) for
    digit i.  The layout of `_packed_product` and `linalg.inverse`; it
    needs every a - a0 a multiple of g and 0 <= b - b0 < span."""
    z = 0
    for (a, b), c in terms.items():
        z += c << k * ((a - a0) // g * span + b - b0)
    return z


def _unpack_terms(z: int, k: int, a0: int, b0: int, g: int, span: int) -> dict:
    """The term dict that `_pack` with these arguments packs into z."""
    out = {}
    for i, d in enumerate(_unpack(z, k)):
        if d:
            out[a0 + i // span * g, b0 + i % span] = d
    return out


def _packed_product(x: dict, y: dict):
    """x * y as one big-int product, or None for the pair loop when it has
    more digits than term pairs.

    Both factors go onto `_pack`'s layout, g the v-stride and span the
    product's t-span plus one.  The bound min(|x|_1 |y|_inf, |x|_inf |y|_1)
    holds every coefficient of the product, so k is its bits plus one sign
    bit, the rule of the tangle functor's layout, and `_unpack` reads the
    digits back at any width.
    """
    (xa, xb), (ya, yb) = zip(*x), zip(*y)
    xa0, xb0, ya0, yb0 = min(xa), min(xb), min(ya), min(yb)
    g = gcd(*(a - xa0 for a in xa), *(a - ya0 for a in ya)) or 1
    span = max(xb) - xb0 + max(yb) - yb0 + 1
    if (max(xa) - xa0 + max(ya) - ya0) // g * span + span > len(x) * len(y):
        return None
    nx, ny = [abs(c) for c in x.values()], [abs(c) for c in y.values()]
    k = min(sum(nx) * max(ny), max(nx) * sum(ny)).bit_length() + 1
    z = _pack(x, xa0, xb0, g, span, k) * _pack(y, ya0, yb0, g, span, k)
    return _unpack_terms(z, k, xa0 + ya0, xb0 + yb0, g, span)


# a benchmark op makes at most 105 distinct large products; the sl3 quasiR
# suite at depth 5 makes 1,722 and keeps 96 % of its hits at this size
@lru_cache(maxsize=1024)
def _large_mul(p: "LaurentPoly", q: "LaurentPoly") -> "LaurentPoly":
    """p * q by `_packed_product`, or by `_pair_mul` when the packed
    product would have more digits than term pairs."""
    s = lcm(p.scale, q.scale)
    terms = _packed_product(_terms_at(p, s), _terms_at(q, s))
    return _pair_mul(p, q) if terms is None else _make(terms, s)


class LaurentPoly:
    """Laurent polynomial in v, t with rational exponents; immutable by convention."""

    __slots__ = ("terms", "scale")

    def __init__(self, terms=None):
        """From {(v_exp, t_exp) rationals: integral coefficient}; ValueError on others."""
        rows = [
            (_frac(ve), _frac(te), _frac(c))
            for (ve, te), c in (terms or {}).items()
            if c != 0
        ]
        if any(c.denominator != 1 for _, _, c in rows):
            raise ValueError("LaurentPoly coefficients are integers")
        # the lcm of reduced denominators is already the minimal scale
        s = lcm(*(x.denominator for ve, te, _ in rows for x in (ve, te)))
        self.terms = {(int(ve * s), int(te * s)): c.numerator for ve, te, c in rows}
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
        # values are immutable, so a unit factor hands back the other one and
        # a monomial factor is one shift, with no pair loop
        if other is LP_ONE:
            return self
        if self is LP_ONE:
            return other
        if len(other.terms) == 1:
            return _mono_mul(self, other)
        if len(self.terms) == 1:
            return _mono_mul(other, self)
        n, m = len(self.terms), len(other.terms)
        if n * m >= LARGE_PAIRS:
            # one memo key per unordered pair: the shorter operand first, ties by hash
            if n > m or (n == m and hash(self) > hash(other)):
                return _large_mul(other, self)
            return _large_mul(self, other)
        return _pair_mul(self, other)

    def __repr__(self):
        return f"LaurentPoly({render_poly(self)})"


LP_ONE = _raw({(0, 0): 1}, 1)


def lp_mono(coeff=1, v_exp=0, t_exp=0) -> LaurentPoly:
    """int coeff * v^v_exp * t^t_exp, written straight onto the lattice.

    The result is the constructor's: int exponents take scale 1, rational
    ones the lcm of their denominators, and a zero coeff gives zero.
    """
    if not coeff:
        return _raw({}, 1)
    if type(v_exp) is int and type(t_exp) is int:
        if coeff == 1 and not (v_exp or t_exp):
            return LP_ONE
        return _raw({(v_exp, t_exp): coeff}, 1)
    ve, te = _frac(v_exp), _frac(t_exp)
    s = lcm(ve.denominator, te.denominator)
    key = (ve.numerator * (s // ve.denominator), te.numerator * (s // te.denominator))
    return _raw({key: coeff}, s)


LP_ZERO = LaurentPoly()


class RatFunc:
    """Element of Q(v,t) as num/den; monomial denominators fold into num.

    Every Laurent value therefore carries the shared LP_ONE as its den, which
    is what the fast paths of + and * test for.  The constructor puts any
    other den in normal form (see the module docstring).
    """

    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = LP_ONE):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        terms = den.terms
        if num.is_zero():
            den = LP_ONE
        elif den is not LP_ONE:
            # move the den's least monomial into num and its lead's sign onto both
            minv = min(a for a, _ in terms)
            mint = min(b for _, b in terms)
            sign = -1 if terms[max(terms)] < 0 else 1
            if minv or mint or sign < 0:
                num = _shift_mul(num, -minv, -mint, den.scale, sign)
                den = _shift_mul(den, -minv, -mint, den.scale, sign)
            if den == LP_ONE:
                den = LP_ONE
        self.num = num
        self.den = den

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other: "RatFunc") -> "RatFunc":
        # values are immutable, so a zero operand can hand back the other one
        if not other.num.terms:
            return self
        if not self.num.terms:
            return other
        if self.den is other.den or self.den == other.den:
            # one den (LP_ONE for two Laurent values): nothing to cross-multiply
            return _normal(self.num + other.num, self.den)
        return _normal(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __neg__(self) -> "RatFunc":
        return _normal(-self.num, self.den)

    def __sub__(self, other: "RatFunc") -> "RatFunc":
        return self + (-other)

    def __mul__(self, other: "RatFunc") -> "RatFunc":
        a, b = self.num, other.num
        if self.den is LP_ONE:
            if a is LP_ONE:
                return other
            if other.den is LP_ONE:
                if b is LP_ONE:
                    return self
                return _normal(a * b, LP_ONE)
        elif b is LP_ONE and other.den is LP_ONE:
            return self
        return _normal(a * b, self.den * other.den)

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


def _normal(num: LaurentPoly, den: LaurentPoly) -> RatFunc:
    """num/den for a normal den, which the constructor would leave as it is."""
    if not num.terms:
        return ZERO
    res = RatFunc.__new__(RatFunc)
    res.num = num
    res.den = den
    return res


def _clear_dens(values) -> tuple:
    """(nums, den): the values as numerators over den, the product of their
    distinct dens; each num is its value's numerator times the other dens.
    Laurent values alone are their nums over LP_ONE at once."""
    if all(e.den is LP_ONE for e in values):
        return [e.num for e in values], LP_ONE
    dens = []
    for e in values:
        if not any(d == e.den for d in dens):
            dens.append(e.den)
    nums = [prod((d for d in dens if not (d == e.den)), start=e.num) for e in values]
    return nums, prod(dens, start=LP_ONE)


def mono(coeff=1, v_exp=0, t_exp=0) -> RatFunc:
    return RatFunc(lp_mono(coeff, v_exp, t_exp))


V = mono(1, 1)
T = mono(1, 0, 1)


def inv(a: RatFunc) -> RatFunc:
    if a.num.is_zero():
        raise ZeroDivisionError("inverse of zero in Q(v,t)")
    return RatFunc(a.den, a.num)


def eq(a: RatFunc, b: RatFunc) -> bool:
    """Authoritative equality: a.num*b.den == b.num*a.den as LaurentPoly."""
    if a.den == b.den:
        return a.num == b.num
    return a.num * b.den == b.num * a.den


def _flip_poly(p: LaurentPoly, v_sign: int, t_sign: int) -> LaurentPoly:
    """Multiply every v exponent by v_sign and every t exponent by t_sign.

    A sign flip keeps the form minimal, so the result is one dict pass.
    """
    return _raw({(v_sign * x, t_sign * y): c for (x, y), c in p.terms.items()}, p.scale)


def _flip(a: RatFunc, v_sign: int, t_sign: int) -> RatFunc:
    """`_flip_poly` on num and den."""
    return RatFunc(_flip_poly(a.num, v_sign, t_sign), _flip_poly(a.den, v_sign, t_sign))


def bar(a: RatFunc) -> RatFunc:
    """The Q-algebra involution v -> v^-1, t -> t."""
    return _flip(a, -1, 1)


def poly_div_exact(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Quotient a/b when b divides a over the integers; raises ValueError
    otherwise, a coefficient quotient with a remainder included.

    A unit monomial b is one shift.  Otherwise this cancels the lex-leading
    term of the remainder; it terminates because quotient exponents live on
    a finite lattice box when the division is exact, and the leading
    exponent drops below that box when it is not.
    """
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero():
        return LP_ZERO
    (bv, bt), bc = next(iter(b.terms.items()))
    if len(b.terms) == 1 and bc in (1, -1):
        return _shift_mul(a, -bv, -bt, b.scale, bc)  # a unit bc is 1 / bc
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
        qc, r = divmod(rem[er], cb)
        if r or (qv, qt) < bound or (qt, qv) < rbound:
            raise ValueError("polynomial division is not exact")
        quot[(qv, qt)] = qc
        _add_products(rem, {(qv, qt): qc}, tb, -1)
    return _make(quot, s)


def cross_div(a: LaurentPoly, b: LaurentPoly, c: LaurentPoly, d: LaurentPoly,
              e: LaurentPoly) -> LaurentPoly:
    """(a*b - c*d) / e, exact; raises ValueError when e does not divide.

    The fraction-free (Bareiss) update.  Both products go into one term
    dict over the lcm of the four scales, with no product, negation or sum
    polynomial in between, and the result is divided once, not at all when
    e is LP_ONE.
    """
    s = lcm(a.scale, b.scale, c.scale, d.scale)
    out = {}
    _add_products(out, _terms_at(a, s), _terms_at(b, s))
    _add_products(out, _terms_at(c, s), _terms_at(d, s), -1)
    num = _make(out, s)
    return num if e is LP_ONE else poly_div_exact(num, e)


_t_exp = itemgetter(1)


def _refutes_division(a: LaurentPoly, b: LaurentPoly) -> bool:
    """True when b, a primitive normal den, certainly does not divide a != 0.

    Two tests, each far cheaper than a long division that fails:
    - spans: an exact quotient q has span(a) = span(b) + span(q) in v and
      in t, so a span of a shorter than b's refutes;
    - one value: b is primitive, so by Gauss's lemma q has int coefficients
      as a has.  With a' = a / (v^a0 t^b0), a0 and b0 its least exponents
      (b's are 0), a' = b q', q' = q / (v^a0 t^b0), and all three are
      polynomials with int coefficients in x = v^(1/scale) and
      y = t^(1/scale).  So at x = 2, y = 3 the value of b divides that of
      a', or both are 0.
    """
    s = lcm(a.scale, b.scale)
    ta, tb = _terms_at(a, s), _terms_at(b, s)
    a0 = min(ta)[0]
    if max(ta)[0] - a0 < max(tb)[0]:
        return True
    b0 = min(ta, key=_t_exp)[1]
    if max(ta, key=_t_exp)[1] - b0 < max(tb, key=_t_exp)[1]:
        return True
    at = sum((c * 3 ** (t - b0)) << (v - a0) for (v, t), c in ta.items())
    bt = sum((c * 3 ** t) << v for (v, t), c in tb.items())
    return at % bt != 0 if bt else at != 0


def reduce_poly(a: RatFunc) -> RatFunc:
    """Divide the den's primitive part (den over its content) out of the num
    when it divides, leaving the content as a constant den (by Gauss's lemma
    the quotient is integral); else return a.  `_refutes_division` turns
    most inexact cases away before the division."""
    den, content = a.den, gcd(*a.den.terms.values())
    prim = den if content == 1 else _raw({k: c // content for k, c in den.terms.items()}, den.scale)
    if len(prim.terms) == 1 or _refutes_division(a.num, prim):
        return a
    try:
        return _normal(poly_div_exact(a.num, prim), lp_mono(content))
    except ValueError:
        return a


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


def _specialize_poly(p: LaurentPoly, assign: dict) -> tuple:
    """(q, n) for p under the assignment = q / n, with q integral and n > 0."""
    out = {}
    for (ve, te), c in p.fraction_terms():
        if "v" in assign:
            c *= _rat_pow(assign["v"], ve)
            ve = 0
        if "t" in assign:
            c *= _rat_pow(assign["t"], te)
            te = 0
        out[ve, te] = out.get((ve, te), 0) + c
    n = lcm(*(c.denominator for c in out.values()))
    return LaurentPoly({k: c * n for k, c in out.items()}), n


def specialize(a: RatFunc, assignments: dict) -> RatFunc:
    """Substitute exact rationals for v and/or t (partial map allowed);
    with num -> p / m and den -> q / n the value is (p n) / (q m)."""
    assign = {name: _frac(val) for name, val in assignments.items()}
    for name in assign:
        if name not in ("v", "t"):
            raise SpecializeError(f"unknown variable {name!r}")
    den, n = _specialize_poly(a.den, assign)
    if den.is_zero():
        raise SpecializeError("denominator vanishes under the given assignment")
    num, m = _specialize_poly(a.num, assign)
    return RatFunc(num * lp_mono(n), den * lp_mono(m))


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
    """p in the rendering grammar.  On scale 1 an exponent is printed as it
    is stored; only a finer lattice reduces each e/scale by a gcd."""
    terms = p.terms
    if not terms:
        return "0"
    s = p.scale
    out = []
    for key in sorted(terms, reverse=True):
        a, b = key
        coeff = terms[key]
        if s == 1:
            fv = "" if not a else "v" if a == 1 else f"v^{a}"
            ft = "" if not b else "t" if b == 1 else f"t^{b}"
        else:
            fv = _render_exp("v", a, s) if a else ""
            ft = _render_exp("t", b, s) if b else ""
        body = f"{fv} * {ft}" if fv and ft else fv or ft
        if coeff < 0:
            coeff = -coeff
            sign = " - "
        else:
            sign = " + "
        if coeff != 1:
            body = str(coeff) + " * " + body if body else str(coeff)
        elif not body:
            body = "1"
        out.append(sign + body)
    # every term carries its sign as a binary operator; the first one's is unary
    text = "".join(out)
    return text[3:] if text[1] == "+" else "-" + text[3:]


def render(a: RatFunc) -> str:
    """a in the rendering grammar, over the gcd of all coefficients if the den's is > 1."""
    num, den = a.num, a.den
    g = gcd(*den.terms.values())
    if g > 1:
        g = gcd(g, *num.terms.values())
        num, den = (_raw({k: c // g for k, c in p.terms.items()}, p.scale) for p in (num, den))
    if den == LP_ONE:
        return render_poly(num)
    return f"({render_poly(num)}) / ({render_poly(den)})"


class ParseError(ValueError):
    pass


def _tokenize(text: str):
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif "0" <= ch <= "9":
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            try:
                tokens.append(("num", int(text[i:j]), i))
            except ValueError:  # more digits than int() converts
                raise ParseError(f"number too long at position {i}") from None
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
            op, _, pos = self.take()
            rhs = self.factor()
            if op == "/" and rhs.is_zero():
                raise ParseError(f"division by zero at position {pos}")
            out = out * rhs if op == "*" else out / rhs
        return out

    def factor(self) -> RatFunc:
        if self.peek() == "-":
            self.take()
            return -self.factor()
        kind, value, pos = self.take()
        if kind == "num":
            base = mono(value)
        elif kind == "var":
            base = V if value == "v" else T
        elif kind == "(":
            base = self.expression()
            self.take(")")
        else:
            raise ParseError(f"unexpected token {value!r} at position {pos}")
        if self.peek() == "^":
            pos = self.take()[2]
            n, d = self.exponent()
            if kind == "var":
                # straight onto the lattice: v^(n/d) is the term (n, 0) over scale d
                return RatFunc(_raw({(n, 0) if value == "v" else (0, n): 1}, d) if n else LP_ONE)
            out = ONE
            if d != 1:
                raise ParseError("fractional exponents only on v and t")
            for _ in range(abs(n)):
                out = out * base
            if n < 0 and out.is_zero():
                raise ParseError(f"zero raised to a negative power at position {pos}")
            return inv(out) if n < 0 else out
        return base

    def exponent(self) -> tuple:
        """(n, d) in lowest terms, d > 0; only a parenthesized exponent takes
        a `/d`, so that `x^2 / y` divides the power, not the exponent."""
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        if self.peek() == "(":
            self.take()
            n, d = self.rational()
            self.take(")")
        else:
            n, d = self.take("num")[1], 1
        g = gcd(n, d)
        return sign * n // g, d // g

    def rational(self) -> tuple:
        """(p, q), q > 0, for `[-]p[/q]` with p and q digit strings: the
        grammar `render` writes fractional exponents in."""
        sign = 1
        if self.peek() == "-":
            self.take()
            sign = -1
        numer, denom = self.take("num")[1], 1
        if self.peek() == "/":
            self.take()
            _, denom, pos = self.take("num")
            if not denom:
                raise ParseError(f"zero denominator at position {pos}")
        return sign * numer, denom


def parse(text: str) -> RatFunc:
    """Parse the rendering grammar (and general +,-,*,/,^ expressions over v,t)."""
    parser = _Parser(text)
    try:
        out = parser.expression()
    except RecursionError:
        raise ParseError("expression nested too deeply") from None
    parser.take("end")
    return out


def parse_rational(text: str) -> tuple:
    """(p, q) for text in the `[-]p[/q]` grammar, q > 0, or a ParseError:
    no sign `+`, decimal point, exponent or name (`1e5`, `0.5`, `nan`)."""
    parser = _Parser(text)
    out = parser.rational()
    parser.take("end")
    return out
