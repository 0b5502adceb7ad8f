"""Exact-arithmetic core: frozen values first, then algebraic properties."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vtknot import ratfield as rf


def test_addition_oracle():
    # 1/(v-1) + 1/(v+1) = 2v/(v^2-1), denominators kept unreduced
    lhs = rf.parse("1/(v-1) + 1/(v+1)")
    rhs = rf.parse("2*v/(v^2-1)")
    assert rf.eq(lhs, rhs)
    assert not rf.eq(lhs, rf.parse("2*v/(v^2+1)"))


def test_qint_small_values():
    assert rf.eq(rf.qint(0, 1), rf.ZERO)
    assert rf.eq(rf.qint(1, 1), rf.ONE)
    assert rf.eq(rf.qint(2, 1), rf.parse("v*t + v^-1*t"))
    assert rf.eq(rf.qint(3, 1), rf.parse("v^2*t^2 + t^2 + v^-2*t^2"))
    assert rf.eq(rf.qint(2, 2), rf.parse("v^2*t^2 + v^-2*t^2"))


def test_qint_matches_defining_ratio():
    # [n] * (v_i t_i - (v_i t_i^-1)^-1) = (v_i t_i)^n - (v_i t_i^-1)^-n
    for d in (1, 2, Fraction(1, 2)):
        lo = rf.mono(1, d, d) - rf.mono(1, -d, d)
        for n in range(7):
            hi = rf.mono(1, n * d, n * d) - rf.mono(1, -n * d, n * d)
            assert rf.eq(rf.qint(n, d) * lo, hi)


def test_qfact():
    assert rf.eq(rf.qfact(0, 1), rf.ONE)
    out = rf.ONE
    for m in range(1, 5):
        out = out * rf.qint(m, 1)
    assert rf.eq(rf.qfact(4, 1), out)


def test_render_golden():
    assert rf.render(rf.parse("v + v^-1")) == "v + v^-1"
    assert rf.render(rf.parse("v^2 + 1 + v^-2")) == "v^2 + 1 + v^-2"
    assert rf.render(rf.ZERO) == "0"
    assert rf.render(rf.ONE) == "1"
    assert rf.render(rf.mono(-3, 2, 1)) == "-3 * v^2 * t"
    assert rf.render(rf.mono(1, Fraction(1, 2), Fraction(-3, 2))) == "v^(1/2) * t^(-3/2)"
    assert rf.render(rf.const(Fraction(1, 2)) * rf.V + rf.T) == "1/2 * v + t"
    assert rf.render(rf.ONE / (rf.V + rf.ONE)) == "(1) / (v + 1)"


def test_render_is_descending_and_sign_aware():
    a = rf.parse("v^-2 - v^2 + 3 - t")
    assert rf.render(a) == "-v^2 - t + 3 + v^-2"


def test_monomial_denominator_folds():
    a = rf.parse("(v+1)/v")
    assert a.den == rf.LP_ONE
    assert rf.render(a) == "1 + v^-1"
    b = rf.parse("(v*t + 1) / (2*v^-1*t)")
    assert b.den == rf.LP_ONE
    assert rf.eq(b, rf.mono(Fraction(1, 2), 2, 0) + rf.mono(Fraction(1, 2), 1, -1))


def test_denominator_normalization():
    # content and leading coefficient pulled out of multi-term denominators
    a = rf.parse("v / (2*v^3 - 2*v)")
    assert rf.render(a) == "(1/2) / (v^2 - 1)"
    assert rf.eq(a, rf.parse("1 / (2*v^2 - 2)"))


def test_eq_cross_multiplies():
    assert rf.eq(rf.parse("(v^2-1)/(v-1)"), rf.parse("v + 1"))
    assert rf.parse("(v^2-1)/(v-1)") == rf.parse("v + 1")
    assert not rf.eq(rf.parse("(v^2-1)/(v-1)"), rf.parse("v - 1"))


def test_ratfunc_not_hashable():
    with pytest.raises(TypeError):
        hash(rf.ONE)


def test_bar():
    assert rf.eq(rf.bar(rf.parse("v + t")), rf.parse("v^-1 + t"))
    a = rf.parse("(v^2*t - 1) / (v + t^3)")
    assert rf.eq(rf.bar(rf.bar(a)), a)
    assert rf.eq(rf.bar(rf.qint(3, 1)), rf.qint(3, 1))  # v-symmetric numerator


def test_specialize():
    two = rf.specialize(rf.parse("v^(1/2)"), {"v": 4})
    assert rf.eq(two, rf.const(2))
    val = rf.specialize(rf.parse("2*v/(v^2-1)"), {"v": 2})
    assert rf.eq(val, rf.const(Fraction(4, 3)))
    part = rf.specialize(rf.parse("v*t + t^2"), {"t": 3})
    assert rf.eq(part, rf.parse("3*v + 9"))


def test_specialize_errors():
    with pytest.raises(rf.SpecializeError):
        rf.specialize(rf.parse("v^(1/2)"), {"v": 2})
    with pytest.raises(rf.SpecializeError):
        rf.specialize(rf.parse("1/(v-1)"), {"v": 1})
    with pytest.raises(rf.SpecializeError):
        rf.specialize(rf.ONE, {"q": 1})


def test_parse_errors():
    for text in ("v +", "x", "v^(1/2", "(v", "v^^2"):
        with pytest.raises(rf.ParseError):
            rf.parse(text)
    with pytest.raises(rf.ParseError, match="position"):
        rf.parse("v @ t")


def test_zero_division():
    with pytest.raises(ZeroDivisionError):
        rf.inv(rf.ZERO)
    with pytest.raises(ZeroDivisionError):
        rf.ONE / rf.ZERO


_coeffs = st.integers(-3, 3)
_exps = st.fractions(min_value=-3, max_value=3, max_denominator=2)


@st.composite
def laurents(draw, max_terms=4):
    n = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n):
        terms[rf.ExpPair(draw(_exps), draw(_exps))] = Fraction(draw(_coeffs))
    return rf.LaurentPoly(terms)


@st.composite
def ratfuncs(draw):
    num = draw(laurents())
    den = draw(laurents(max_terms=2))
    return rf.RatFunc(num, den if not den.is_zero() else rf.LP_ONE)


@settings(max_examples=60, deadline=None)
@given(ratfuncs(), ratfuncs(), ratfuncs())
def test_field_axioms(a, b, c):
    assert rf.eq(a + b, b + a)
    assert rf.eq((a + b) + c, a + (b + c))
    assert rf.eq(a * b, b * a)
    assert rf.eq((a * b) * c, a * (b * c))
    assert rf.eq(a * (b + c), a * b + a * c)
    assert rf.eq(a - a, rf.ZERO)
    assert rf.eq(a * rf.ONE, a)


@settings(max_examples=60, deadline=None)
@given(ratfuncs())
def test_inverse_and_bar(a):
    if not a.is_zero():
        assert rf.eq(a * rf.inv(a), rf.ONE)
        assert rf.eq(rf.inv(rf.inv(a)), a)
    assert rf.eq(rf.bar(rf.bar(a)), a)


@settings(max_examples=60, deadline=None)
@given(ratfuncs(), ratfuncs())
def test_bar_is_multiplicative(a, b):
    assert rf.eq(rf.bar(a + b), rf.bar(a) + rf.bar(b))
    assert rf.eq(rf.bar(a * b), rf.bar(a) * rf.bar(b))


@settings(max_examples=60, deadline=None)
@given(ratfuncs())
def test_render_parse_round_trip(a):
    assert rf.eq(rf.parse(rf.render(a)), a)


def _nonmonomial(p):
    return len(p.terms) > 1


_divisors = laurents(max_terms=3).filter(_nonmonomial)
_monomials = st.builds(rf.lp_mono, st.integers(1, 3), _exps, _exps)


@settings(max_examples=60, deadline=None)
@given(laurents(), _divisors)
def test_reduce_poly_divides_out_an_exact_denominator(a, b):
    got = rf.reduce_poly(rf.RatFunc(a * b, b))
    assert got.den == rf.LP_ONE
    assert got.num.terms == a.terms


@settings(max_examples=60, deadline=None)
@given(ratfuncs())
def test_reduce_poly_is_idempotent(a):
    once = rf.reduce_poly(a)
    twice = rf.reduce_poly(once)
    assert rf.eq(once, a)
    assert (twice.num.terms, twice.den.terms) == (once.num.terms, once.den.terms)


@settings(max_examples=60, deadline=None)
@given(laurents(), _divisors, _monomials)
def test_reduce_poly_keeps_a_fraction_it_cannot_divide(a, b, r):
    # a non-monomial b never divides a*b + r: the units are the monomials
    x = rf.RatFunc(a * b + r, b)
    got = rf.reduce_poly(x)
    assert (got.num.terms, got.den.terms) == (x.num.terms, x.den.terms)


def test_reduce_poly_agrees_with_sympy_cancel():
    sympy = pytest.importorskip("sympy")
    v, t = sympy.symbols("v t")

    def to_sympy(p):
        # the drawn exponents lie in (1/2)Z; v -> v^2, t -> t^2 makes them integers
        return sum(
            (sympy.Rational(c.numerator, c.denominator)
             * v ** int(2 * k.v_exp) * t ** int(2 * k.t_exp)
             for k, c in p.terms.items()),
            sympy.Integer(0),
        )

    @settings(max_examples=40, deadline=None)
    @given(laurents(max_terms=3), _divisors, st.booleans())
    def check(a, b, divisible):
        x = rf.RatFunc(a * b if divisible else a, b)
        got = rf.reduce_poly(x)
        num, den = sympy.fraction(sympy.cancel(to_sympy(x.num) / to_sympy(x.den)))
        assert (len(got.den.terms) == 1) == sympy.Poly(den, v, t).is_monomial
        assert sympy.cancel(to_sympy(got.num) / to_sympy(got.den) - num / den) == 0

    check()
