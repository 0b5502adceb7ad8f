"""Exact-arithmetic core: frozen values first, then algebraic properties."""

import math
import sys
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
             for k, c in p.fraction_terms()),
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


# ------------------------------------------------- reference model

# The lattice core against a plain {(v_exp, t_exp): coeff} map of Fractions.
# Values go in through the constructor and come out through fraction_terms();
# only _canonical looks at the stored int form itself.


def _ref(p):
    return dict(p.fraction_terms())


def _ref_sum(*maps):
    out = {}
    for m in maps:
        for k, c in m.items():
            out[k] = out.get(k, 0) + c
    return {k: c for k, c in out.items() if c}


def _ref_mul(a, b):
    return _ref_sum(*({(av + bv, at + bt): ac * bc} for (av, at), ac in a.items()
                      for (bv, bt), bc in b.items()))


def _ref_map(a, f):
    return {f(v, t): c for (v, t), c in a.items()}


def _ref_render(a):
    out = ""
    for (v, t), c in sorted(a.items(), reverse=True):
        fs = [n if e == 1 else f"{n}^{e}" if e.denominator == 1 else f"{n}^({e})"
              for n, e in (("v", v), ("t", t)) if e]
        if abs(c) != 1 or not fs:
            fs.insert(0, str(abs(c)))
        out += (" - " if c < 0 else " + ") if out else ("-" if c < 0 else "")
        out += " * ".join(fs)
    return out or "0"


def _canonical(p):
    """Minimal scale and int coefficients wherever they are integral."""
    ints = [e for key in p.terms for e in key]
    return math.gcd(p.scale, *ints) == 1 and all(
        type(c) is int or c.denominator != 1 for c in p.terms.values()
    )


_lattice_exps = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5, 7]))
_lattice_coeffs = st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 2, 3]))
_ref_polys = st.dictionaries(
    st.tuples(_lattice_exps, _lattice_exps), _lattice_coeffs, max_size=4
).map(lambda m: {k: c for k, c in m.items() if c})


@settings(max_examples=80, deadline=None)
@given(_ref_polys, _ref_polys)
def test_sum_product_difference_match_the_reference(a, b):
    pa, pb = rf.LaurentPoly(a), rf.LaurentPoly(b)
    neg_a, neg_b = ({k: -c for k, c in m.items()} for m in (a, b))
    for got, want in ((pa, a), (pa + pb, _ref_sum(a, b)), (pa * pb, _ref_mul(a, b)),
                      (pa - pb, _ref_sum(a, neg_b)), (-pa, neg_a)):
        assert _ref(got) == want
        assert _canonical(got)


@settings(max_examples=80, deadline=None)
@given(_ref_polys, _lattice_exps, _lattice_exps)
def test_shift_and_flips_match_the_reference(a, dv, dt):
    p = rf.LaurentPoly(a)
    shifted = p.shift(dv, dt)
    assert _ref(shifted) == _ref_map(a, lambda v, t: (v + dv, t + dt))
    assert _canonical(shifted)
    assert _ref(rf.bar(rf.RatFunc(p)).num) == _ref_map(a, lambda v, t: (-v, t))
    assert _ref(rf.bar_t(rf.RatFunc(p)).num) == _ref_map(a, lambda v, t: (v, -t))


@settings(max_examples=80, deadline=None)
@given(_ref_polys, _ref_polys.filter(lambda m: len(m) > 1), _lattice_exps, _lattice_exps)
def test_exact_and_inexact_division_match_the_reference(a, b, rv, rt):
    pa, pb = rf.LaurentPoly(a), rf.LaurentPoly(b)
    got = rf.poly_div_exact(rf.LaurentPoly(_ref_mul(a, b)), pb)
    assert _ref(got) == a
    assert _canonical(got)
    # a non-monomial b never divides a*b + r for a monomial r
    with pytest.raises(ValueError):
        rf.poly_div_exact(rf.LaurentPoly(_ref_sum(_ref_mul(a, b), {(rv, rt): 1})), pb)


@settings(max_examples=40, deadline=None)
@given(_ref_polys, st.sampled_from(["v", "t"]), st.sampled_from([1, 2, Fraction(1, 3)]))
def test_specialize_matches_the_reference(a, name, root):
    # x = root^210 has a rational e-th power for every drawn exponent e
    root = Fraction(root)
    got = rf.specialize(rf.RatFunc(rf.LaurentPoly(a)), {name: root ** 210})

    def term(v, t, c):
        if name == "v":
            return {(0, t): c * root ** int(210 * v)}
        return {(v, 0): c * root ** int(210 * t)}

    want = _ref_sum(*(term(v, t, c) for (v, t), c in a.items()))
    assert _ref(got.num) == want
    assert got.den == rf.LP_ONE


@settings(max_examples=80, deadline=None)
@given(_ref_polys)
def test_render_matches_the_reference_and_parses_back(a):
    p = rf.LaurentPoly(a)
    assert rf.render_poly(p) == _ref_render(a)
    back = rf.parse(rf.render(rf.RatFunc(p)))
    assert back.den == rf.LP_ONE and back.num == p


@settings(max_examples=80, deadline=None)
@given(_ref_polys, _lattice_coeffs.filter(bool), _lattice_exps, _lattice_exps)
def test_equal_values_compare_and_hash_alike(a, c, rv, rt):
    p = rf.LaurentPoly(a)
    # a detour through a finer lattice and back: the cancellation shrinks it
    fine = rf.lp_mono(c, rv + Fraction(1, 7), rt)
    q = (p + fine) - fine
    assert q == p and hash(q) == hash(p) and q.scale == p.scale
    r = (p * fine) * rf.lp_mono(1 / c, -rv - Fraction(1, 7), -rt)
    assert r == p and hash(r) == hash(p)
    assert rf.lp_mono(1, Fraction(1, 2)) * rf.lp_mono(1, Fraction(-1, 2)) == rf.LP_ONE
    half = rf.lp_mono(Fraction(1, 2))
    assert half + half == rf.LP_ONE and hash(half + half) == hash(rf.LP_ONE)


def test_integral_sums_and_products_make_no_fraction():
    a = rf.parse("2*v^(1/2)*t^(-1/3) - 3*v^(3/7) + 1").num
    b = rf.parse("v^(1/5) - 4*t^(2/3) + 5*v^-2").num
    made = []

    def watch(frame, event, arg):
        if event == "call" and frame.f_code is Fraction.__new__.__code__:
            made.append(frame)

    sys.setprofile(watch)
    try:
        prod, total = a * b, a + b
    finally:
        sys.setprofile(None)
    assert not made
    assert len(prod.terms) == 9 and len(total.terms) == 6
