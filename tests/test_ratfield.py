"""Exact-arithmetic core: frozen values first, then algebraic properties."""

import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vtknot import ratfield as rf

from conftest import clear_caches


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
    # a rational constant stays in the den
    half_v_plus_t = rf.parse("v / 2 + t")
    assert rf.render(half_v_plus_t) == "(v + 2 * t) / (2)"
    assert rf.eq(half_v_plus_t, rf.parse("(v + 2*t) / 2"))
    assert rf.render(rf.ONE / (rf.V + rf.ONE)) == "(1) / (v + 1)"
    # the gcd of all coefficients is divided out; a den that becomes 1 is gone
    assert rf.render(rf.parse("(2*v + 2) / (4*v - 4)")) == "(v + 1) / (2 * v - 2)"
    assert rf.render(rf.RatFunc(rf.lp_mono(6, 1), rf.lp_mono(3))) == "2 * v"


def test_render_is_descending_and_sign_aware():
    a = rf.parse("v^-2 - v^2 + 3 - t")
    assert rf.render(a) == "-v^2 - t + 3 + v^-2"


def test_monomial_denominator_folds():
    a = rf.parse("(v+1)/v")
    assert a.den == rf.LP_ONE
    assert rf.render(a) == "1 + v^-1"
    # the monomial folds into num, its constant stays behind as the den
    b = rf.parse("(v*t + 1) / (2*v^-1*t)")
    assert b.den == rf.lp_mono(2)
    assert rf.render(b) == "(v^2 + v * t^-1) / (2)"
    assert rf.eq(b, (rf.mono(1, 2, 0) + rf.mono(1, 1, -1)) / rf.mono(2))
    c = rf.parse("(v + 1) / (-v^2)")
    assert c.den is rf.LP_ONE and rf.render(c) == "-v^-1 - v^-2"


def test_denominator_normalization():
    # the least monomial and the lead's sign come out of multi-term dens;
    # the content stays
    a = rf.parse("v / (2*v^3 - 2*v)")
    assert rf.render(a) == "(1) / (2 * v^2 - 2)"
    assert rf.eq(a, rf.parse("1 / (2*v^2 - 2)"))
    b = rf.parse("1 / (2 - 4*v)")
    assert b.den == rf.parse("4*v - 2").num and rf.render(b) == "(-1) / (4 * v - 2)"


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
    assert rf.eq(two, rf.mono(2))
    val = rf.specialize(rf.parse("2*v/(v^2-1)"), {"v": 2})
    assert rf.eq(val, rf.parse("4/3"))
    assert rf.render(val) == "(4) / (3)"
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
    for text in ("v +", "x", "v^(1/2", "(v", "v^^2", "1/0", "1/(v-v)", "v^(1/0)", "(v - v)^-1"):
        with pytest.raises(rf.ParseError):
            rf.parse(text)
    with pytest.raises(rf.ParseError, match="position"):
        rf.parse("v @ t")


@settings(max_examples=100, deadline=None)
@given(st.fractions(max_denominator=50))
def test_parse_rational_reads_the_exponent_grammar(q):
    text = str(q)  # `p/q`, or `p` when integral
    assert rf.parse_rational(text) == (q.numerator, q.denominator)
    # the scalar parser reads the same grammar in a parenthesized exponent
    assert rf.render(rf.parse("v^(%s)" % text)) == rf.render(rf.mono(1, q))


def test_parse_rational_refuses_everything_else():
    assert rf.parse_rational(" -2 / 4 ") == (-2, 4)
    for text in ("1e5", "0.5", "nan", "1/0", "+1", "1/-2", "2/3/4", "v", "", "٣", "1" * 5000):
        with pytest.raises(rf.ParseError):
            rf.parse_rational(text)


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
        terms[rf.ExpPair(draw(_exps), draw(_exps))] = draw(_coeffs)
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


def _primitive(p):
    """p divided by the gcd of its coefficients."""
    g = math.gcd(*p.terms.values())
    return rf._raw({k: c // g for k, c in p.terms.items()}, p.scale)


_divisors = laurents(max_terms=3).filter(_nonmonomial)
_monomials = st.builds(rf.lp_mono, st.integers(1, 3), _exps, _exps)


@settings(max_examples=60, deadline=None)
@given(laurents(), _divisors)
def test_reduce_poly_divides_out_an_exact_denominator(a, b):
    # the den's content stays behind as a constant den, which render divides out
    x = rf.RatFunc(a * b, b)
    got = rf.reduce_poly(x)
    content = rf.lp_mono(math.gcd(*x.den.terms.values()))
    assert got.den == content
    assert got.num == a * content
    assert rf.eq(got, rf.RatFunc(a)) and rf.render(got) == rf.render_poly(a)


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
    sympy = pytest.importorskip("sympy", exc_type=ImportError)
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

# The lattice core against a plain {(v_exp, t_exp): coeff} map, Fraction
# exponents and int coefficients.
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
    """Minimal scale and int coefficients."""
    ints = [e for key in p.terms for e in key]
    return math.gcd(p.scale, *ints) == 1 and all(type(c) is int for c in p.terms.values())


_lattice_exps = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5, 7]))
_lattice_coeffs = st.integers(-6, 6)
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


def _shift(p, dv, dt):
    """p * v^dv * t^dt for rational dv, dt."""
    dv, dt = Fraction(dv), Fraction(dt)
    s = math.lcm(dv.denominator, dt.denominator)
    return rf._shift_mul(p, int(dv * s), int(dt * s), s)


@settings(max_examples=80, deadline=None)
@given(_ref_polys, _lattice_exps, _lattice_exps)
def test_shift_and_flips_match_the_reference(a, dv, dt):
    p = rf.LaurentPoly(a)
    shifted = _shift(p, dv, dt)
    assert _ref(shifted) == _ref_map(a, lambda v, t: (v + dv, t + dt))
    assert _canonical(shifted)
    assert _ref(rf.bar(rf.RatFunc(p)).num) == _ref_map(a, lambda v, t: (-v, t))
    assert _ref(rf.bar_t(rf.RatFunc(p)).num) == _ref_map(a, lambda v, t: (v, -t))


_int_exps = st.integers(-6, 6)
_int_polys = st.dictionaries(
    st.tuples(_int_exps, _int_exps), _lattice_coeffs, max_size=4
).map(lambda m: {k: c for k, c in m.items() if c})


def _ref_shift(a, dv, dt, q):
    return {(v + dv, t + dt): c * q for (v, t), c in a.items()}


@settings(max_examples=80, deadline=None)
@given(_int_polys, _int_exps, _int_exps, st.sampled_from([1, -1, 3, -3]))
def test_scale_one_shift_matches_the_reference(a, dv, dt, q):
    # int exponents on both sides: lcm(1, 1) = 1, so nothing is rescaled
    p = rf.LaurentPoly(a)
    assert p.scale == 1
    got = rf._shift_mul(p, dv, dt, 1, q)
    assert _ref(got) == _ref_shift(_ref(p), dv, dt, q)
    assert got == rf.LaurentPoly(_ref_shift(a, dv, dt, q))
    assert _canonical(got)


def test_shift_on_scale_three_rescales_and_reduces():
    # -3 v^(1/3) t^(-1/3) times a scale-3 polynomial whose product has int
    # exponents: the lcm rescale in, and the gcd pass back to scale 1
    p = rf.LaurentPoly({(Fraction(2, 3), Fraction(1, 3)): 2, (Fraction(-1, 3), Fraction(4, 3)): -1})
    assert p.scale == 3
    got = rf._shift_mul(p, 1, -1, 3, -3)
    want = {(1, 0): -6, (0, 1): 3}
    assert _ref(got) == _ref_shift(_ref(p), Fraction(1, 3), Fraction(-1, 3), -3) == want
    assert got.scale == 1 and got == rf.LaurentPoly(want)


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
    # rational constants go into the den, a positive int
    assert set(got.den.terms) == {(0, 0)} and got.den.scale == 1
    (d,) = got.den.terms.values()

    def term(v, t, c):
        if name == "v":
            return {(0, t): c * root ** int(210 * v)}
        return {(v, 0): c * root ** int(210 * t)}

    want = _ref_sum(*(term(v, t, c) for (v, t), c in a.items()))
    assert {k: c / d for k, c in _ref(got.num).items()} == want
    assert (d == 1) == (got.den is rf.LP_ONE)


@settings(max_examples=80, deadline=None)
@given(_ref_polys)
def test_render_matches_the_reference_and_parses_back(a):
    p = rf.LaurentPoly(a)
    assert rf.render_poly(p) == _ref_render(a)
    back = rf.parse(rf.render(rf.RatFunc(p)))
    assert back.den == rf.LP_ONE and back.num == p


def _render_exp_before(name, e, scale):
    g = math.gcd(e, scale)
    e, scale = e // g, scale // g
    if scale != 1:
        return f"{name}^({e}/{scale})"
    return name if e == 1 else f"{name}^{e}"


def _render_poly_before(p):
    """`ratfield.render_poly` as it was before its one-loop rewrite."""
    if p.is_zero():
        return "0"
    parts = []
    for (a, b), coeff in sorted(p.terms.items(), reverse=True):
        factors = []
        if a:
            factors.append(_render_exp_before("v", a, p.scale))
        if b:
            factors.append(_render_exp_before("t", b, p.scale))
        mag = abs(coeff)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        body = " * ".join(factors)
        if not parts:
            parts.append(body if coeff > 0 else "-" + body)
        else:
            parts.append((" + " if coeff > 0 else " - ") + body)
    return "".join(parts)


# unit and other int coefficients; zero, negative, integral and fractional
# exponents over scales 1 to 7 (the lcm of two drawn denominators)
_render_polys = st.dictionaries(
    st.tuples(_lattice_exps | st.integers(-3, 3), _lattice_exps | st.integers(-3, 3)),
    st.sampled_from([1, -1]) | _lattice_coeffs, max_size=6,
).map(lambda m: rf.LaurentPoly({k: c for k, c in m.items() if c}))


@settings(max_examples=200, deadline=None)
@given(_render_polys, _render_polys)
@example(rf.LP_ONE, rf.LP_ONE)
@example(rf.lp_mono(-1), rf.lp_mono(-2, 2, -1))
@example(rf.LaurentPoly({(Fraction(2, 3), Fraction(4, 3)): 1, (Fraction(1, 3), 0): -1}),
         rf.LaurentPoly({(2, Fraction(1, 2)): 3, (-1, -1): -1}))
@example(rf.parse("4*v - 6").num, rf.parse("2*t + 4").num)  # gcd 2 divided out
def test_render_poly_matches_the_renderer_it_replaced(p, q):
    assert rf.render_poly(p) == _render_poly_before(p)
    assert rf.parse(rf.render_poly(p)).num == p
    if q.terms:
        x = rf.RatFunc(p, q)
        # render divides out the gcd of all coefficients first
        g = math.gcd(*x.num.terms.values(), *x.den.terms.values())
        num, den = (_render_poly_before(rf._raw({k: c // g for k, c in y.terms.items()}, y.scale))
                    for y in (x.num, x.den))
        text = rf.render(x)
        assert text == (num if den == "1" else f"({num}) / ({den})")
        assert rf.eq(rf.parse(text), x)


_int_polys = st.dictionaries(
    st.tuples(st.integers(-4, 4), st.integers(-2, 2)), st.integers(-3, 3), max_size=5,
).map(lambda m: rf.LaurentPoly({k: c for k, c in m.items() if c}))


@settings(max_examples=300, deadline=None)
@given(_int_polys | laurents(), (_int_polys | laurents(max_terms=3)).filter(_nonmonomial),
       st.just(rf.LP_ZERO) | _monomials | st.builds(rf.lp_mono, st.integers(-2, 2),
                                                    st.integers(-4, 8), st.integers(-2, 4)))
@example(rf.LP_ONE, rf.parse("v^2 + 1").num, rf.lp_mono(1, 1))  # values 17 and 5
@example(rf.parse("v + 1").num, rf.parse("v - 2").num, rf.LP_ONE)  # b(2, 3) = 0
@example(rf.parse("v + t").num, rf.parse("t - 3").num, rf.lp_mono(2))  # b(2, 3) = 0
def test_refuting_a_division_never_rejects_a_true_quotient(q, b, r):
    den = _primitive(rf.RatFunc(rf.LP_ONE, b).den)  # b in normal form, content 1
    if not q.is_zero():
        assert not rf._refutes_division(q * den, den)
        assert rf.reduce_poly(rf.RatFunc(q * den, den)).num == q
    a = q * den + r
    if a.is_zero() or not rf._refutes_division(a, den):
        return
    # a refuted division is one the long division rejects too
    with pytest.raises(ValueError):
        rf.poly_div_exact(a, den)
    x = rf.RatFunc(a, den)
    got = rf.reduce_poly(x)
    assert (got.num, got.den) == (x.num, x.den)


@settings(max_examples=80, deadline=None)
@given(_ref_polys, _lattice_coeffs.filter(bool), _lattice_exps, _lattice_exps)
def test_equal_values_compare_and_hash_alike(a, c, rv, rt):
    p = rf.LaurentPoly(a)
    # a detour through a finer lattice and back: the cancellation shrinks it
    fine = rf.lp_mono(c, rv + Fraction(1, 7), rt)
    q = (p + fine) - fine
    assert q == p and hash(q) == hash(p) and q.scale == p.scale
    r = (p * fine) * rf.lp_mono(1, -rv - Fraction(1, 7), -rt)
    assert r == p * rf.lp_mono(c) and hash(r) == hash(p * rf.lp_mono(c))
    assert rf.lp_mono(1, Fraction(1, 2)) * rf.lp_mono(1, Fraction(-1, 2)) == rf.LP_ONE
    two = rf.lp_mono(3) + rf.lp_mono(-1)
    assert two == rf.lp_mono(2) and hash(two) == hash(rf.lp_mono(2))


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


def test_parse_reads_exponents_onto_the_lattice_without_fractions():
    texts = ("t^(1/3)", "v^(-2/4)", "v^-(3/6) * t^(2/2)", "v^(0/5)", "(v + 1)^(4/2)")
    made = []

    def watch(frame, event, arg):
        if event == "call" and frame.f_code is Fraction.__new__.__code__:
            made.append(frame)

    sys.setprofile(watch)
    try:
        got = [rf.parse(text) for text in texts]
    finally:
        sys.setprofile(None)
    assert not made
    want = [rf.mono(1, 0, Fraction(1, 3)), rf.mono(1, Fraction(-1, 2)),
            rf.mono(1, Fraction(-1, 2), 1), rf.ONE, rf.parse("v^2 + 2*v + 1")]
    for g, w in zip(got, want):
        assert _structure(g.num) == _structure(w.num) and g.den is rf.LP_ONE


# ------------------------------------------------- the twist-monomial path

_int_or_lattice_exps = st.one_of(st.integers(-6, 6), _lattice_exps)


def _structure(p):
    """scale, terms and the exact types of exponents and coefficients."""
    return p.scale, {(a, b, type(a), type(b)): (c, type(c)) for (a, b), c in p.terms.items()}


@settings(max_examples=150, deadline=None)
@given(st.one_of(st.integers(-3, 3), _lattice_coeffs), _int_or_lattice_exps,
       _int_or_lattice_exps)
def test_mono_is_the_constructor_written_onto_the_lattice(c, ve, te):
    want = _structure(rf.LaurentPoly({(ve, te): c}))
    assert _structure(rf.lp_mono(c, ve, te)) == want
    got = rf.mono(c, ve, te)
    assert _structure(got.num) == want and got.den is rf.LP_ONE
    if c == 0:
        assert rf.lp_mono(c, ve, te) == rf.LP_ZERO


@settings(max_examples=60, deadline=None)
@given(ratfuncs())
def test_zero_operand_returns_the_other_operand(x):
    zero = rf.mono(0, Fraction(1, 3), 2)
    if x.is_zero():
        # either operand is the right answer; it must still be a zero
        assert (rf.ZERO + x).is_zero() and (x + zero).is_zero()
        return
    assert rf.ZERO + x is x
    assert x + rf.ZERO is x
    assert x - rf.ZERO is x
    assert zero + x is x and x + zero is x


# ------------------------------------------------- unit, monomial, normal den

_ref_monos = st.tuples(_lattice_coeffs.filter(bool), _int_or_lattice_exps, _int_or_lattice_exps)


@settings(max_examples=150, deadline=None)
@given(_ref_polys, _ref_monos)
def test_unit_and_monomial_products_match_the_pair_loop(a, mono):
    c, ve, te = mono
    p = rf.LaurentPoly(a)
    one_again = rf.lp_mono(1, Fraction(1, 2)) * rf.lp_mono(1, Fraction(-1, 2))
    for m, want in ((rf.lp_mono(c, ve, te), _ref_mul(a, {(ve, te): c})),
                    (rf.LP_ONE, a), (one_again, a)):
        loop = _structure(rf._pair_mul(p, m))
        for got in (p * m, m * p):
            assert _structure(got) == loop
            assert _ref(got) == want
    if p != rf.LP_ONE:  # else either operand is the right answer
        assert p * rf.LP_ONE is p and rf.LP_ONE * p is p
    assert rf.lp_mono(1) is rf.LP_ONE


@settings(max_examples=60, deadline=None)
@given(ratfuncs())
def test_product_with_one_returns_the_other_operand(x):
    assert rf.ONE * x is x
    assert x * rf.ONE is x
    assert rf.mono(1) * x is x and x * rf.mono(1) is x


def _assert_normal(res):
    """res is what the constructor makes of its own num and den."""
    ref = rf.RatFunc(res.num, res.den)
    assert _structure(res.num) == _structure(ref.num)
    assert _structure(res.den) == _structure(ref.den)
    # Laurent values carry the shared LP_ONE object, zero included
    assert (res.den is rf.LP_ONE) == (ref.den is rf.LP_ONE)


@settings(max_examples=100, deadline=None)
@given(ratfuncs(), ratfuncs())
@example(rf.parse("1/(v+1)"), rf.parse("t/(v+1)"))
@example(rf.parse("1/(v+1)"), rf.parse("v^(1/2)/(t-1)"))
def test_sums_differences_and_products_have_normal_dens(a, b):
    for x, y in ((a, b), (b, a), (a, a), (a, rf.ONE), (a, rf.ZERO), (rf.V, b)):
        for res in (x + y, x - y, x * y, x - x, x * rf.ZERO, rf.ZERO * x):
            _assert_normal(res)
    # a zero numerator over a non-unit den is still the zero with den LP_ONE
    for res in (a - a, a * rf.ZERO, (a + b) - (b + a)):
        assert res.is_zero() and res.den is rf.LP_ONE


# ------------------------------------------------- the fused Bareiss kernel

_divisors_or_one = st.one_of(st.just({(Fraction(0), Fraction(0)): 1}),
                             _ref_polys.filter(bool))


def _ref_neg(a):
    return {k: -c for k, c in a.items()}


def _kernel_args(a, b, c, d, e):
    args = [rf.LaurentPoly(m) for m in (a, b, c, d, e)]
    if args[4] == rf.LP_ONE:
        args[4] = rf.LP_ONE  # the shared object, which the kernel divides by not at all
    return args


@settings(max_examples=150, deadline=None)
@given(_ref_polys, _ref_polys, _ref_polys, _ref_polys, _ref_polys, _divisors_or_one,
       st.booleans())
@example({}, {}, {}, {}, {}, {(Fraction(0), Fraction(0)): 1}, True)
def test_cross_div_is_the_exact_quotient_of_the_reference(x, y, z, b, c, e, exact):
    # exact: a = e x + c y and d = y b + e z give a b - c d = e (x b - c z)
    if exact:
        a = _ref_sum(_ref_mul(e, x), _ref_mul(c, y))
        d = _ref_sum(_ref_mul(y, b), _ref_mul(e, z))
    else:
        a, d = x, z
    num = rf.LaurentPoly(_ref_sum(_ref_mul(a, b), _ref_neg(_ref_mul(c, d))))
    try:
        want = rf.poly_div_exact(num, rf.LaurentPoly(e))
    except ValueError:
        assert not exact
        with pytest.raises(ValueError):
            rf.cross_div(*_kernel_args(a, b, c, d, e))
        return
    got = rf.cross_div(*_kernel_args(a, b, c, d, e))
    assert _structure(got) == _structure(want) and _canonical(got)
    if exact:
        assert _ref(got) == _ref_sum(_ref_mul(x, b), _ref_neg(_ref_mul(c, z)))


def test_cross_div_raises_on_an_inexact_divisor():
    one, zero, e = rf.LP_ONE, rf.LP_ZERO, rf.parse("v + 1").num
    with pytest.raises(ValueError):
        rf.cross_div(one, one, zero, zero, e)
    # ((v + 1)^2 - (v + 1)) / (v + 1) = v
    assert rf.cross_div(e, e, one, e, e) == rf.V.num


def test_poly_div_exact_divides_over_the_integers():
    # a coefficient quotient with a remainder is refused, by a monomial too
    for a, b in (("v + 1", "2"), ("2*v + 1", "2*v"), ("v^2 - 1", "2*v + 2")):
        with pytest.raises(ValueError):
            rf.poly_div_exact(rf.parse(a).num, rf.parse(b).num)
    for a, b, q in (("4*v^2 - 4", "2*v + 2", "2*v - 2"), ("6*v^3 + 3*v", "-3*v", "-2*v^2 - 1")):
        assert rf.poly_div_exact(rf.parse(a).num, rf.parse(b).num) == rf.parse(q).num


# ------------------------------------------------- the large-product path


def _loop_product(p, q):
    """The pair-loop reference: every term pair into one dict, then _make."""
    s = math.lcm(p.scale, q.scale)
    out = {}
    rf._add_products(out, rf._terms_at(p, s), rf._terms_at(q, s))
    return rf._make(out, s)


# on either side of 2^31, 2^63 and 2^64: the digit width follows the bound
_wide_coeffs = st.sampled_from([2**20, -(2**31), 2**40, 2**62, 2**63 - 1, -(2**63), 2**70])


@st.composite
def _wide_polys(draw):
    """2 to 16 terms over scale 1, 2, 3 or 6, with a v-stride of 1, 2, 3 or
    5, negative exponents and some t-terms; the coefficients are small ints,
    one of them perhaps a wide int."""
    scale, stride = draw(st.sampled_from([1, 2, 3, 6])), draw(st.sampled_from([1, 2, 3, 5]))
    t_exps = draw(st.sampled_from([(0,), (0,), (-1, 0, 1), (-2, 1)]))
    box = [(Fraction(stride * a, scale), Fraction(b, scale))
           for a in range(-6, 7) for b in t_exps]
    keys = draw(st.permutations(box))[:draw(st.integers(2, 16))]
    coeffs = draw(st.lists(st.integers(-4, 4).filter(bool), min_size=16, max_size=16))
    coeffs[0] = draw(st.sampled_from(coeffs[:1]) | _wide_coeffs)
    return rf.LaurentPoly(dict(zip(keys, coeffs)))


@settings(max_examples=300, deadline=None)
@given(_wide_polys(), _wide_polys())
@example(rf.qint(9, 1).num, rf.qint(8, 2).num)
@example(rf.qint(9, 1).num + rf.lp_mono(2**40, 10, 8), rf.qint(9, Fraction(1, 2)).num)
@example(rf.parse("2^61*v + 2^61 - v^-1").num, rf.parse("v + 1").num)  # bound 2^62 + 1
@example(rf.parse("2^62*v + 2^62 - v^-1").num, rf.parse("v + 1").num)  # bound 2^63 + 1
def test_large_products_match_the_pair_loop(p, q):
    want = _structure(_loop_product(p, q))
    assert _structure(p * q) == want and _structure(q * p) == want
    s = math.lcm(p.scale, q.scale)
    x, y = rf._terms_at(p, s), rf._terms_at(q, s)
    packed = rf._packed_product(x, y)
    if packed is not None:
        assert _structure(rf._make(packed, s)) == want
    assert (packed is not None) == (_digits(x, y) <= len(x) * len(y))


def _digits(x, y):
    """The digits of the packed product of x and y: v-range over the v-stride
    plus one, times the t-span plus one."""
    (xa, xb), (ya, yb) = zip(*x), zip(*y)
    g = math.gcd(*(a - min(xa) for a in xa), *(a - min(ya) for a in ya)) or 1
    span = max(xb) - min(xb) + max(yb) - min(yb) + 1
    return ((max(xa) - min(xa) + max(ya) - min(ya)) // g + 1) * span


@pytest.mark.parametrize("bound", [2**31, 2**63, 2**64 - 1, 2**100])
def test_a_product_at_its_coefficient_bound_is_packed(bound):
    # every coefficient of the product is +-bound, the largest the digits hold
    x, y = {(0, 0): bound}, {(-1, 0): -1, (0, 0): 1, (1, 0): -1, (2, 0): 1}
    want = {}
    rf._add_products(want, x, y)
    assert rf._packed_product(x, y) == want


def test_a_large_product_past_63_bits_is_packed(monkeypatch):
    p, q = rf.qint(9, 1).num * rf.lp_mono(2**62), rf.qint(10, 1).num
    want = _loop_product(p, q)
    assert max(p.terms.values()) * len(q.terms) >= 2**63

    def refuse(*args):
        raise AssertionError("the pair loop made a large product")

    monkeypatch.setattr(rf, "_pair_mul", refuse)
    clear_caches()
    assert p * q == want


@st.composite
def _balanced_digits(draw):
    """(k, digits): 2 <= k <= 80 and digits in [-2^(k-1), 2^(k-1)), the last
    one nonzero, so z = sum d_i 2^(k i) has exactly these digits."""
    k = draw(st.integers(2, 80))
    half = 1 << (k - 1)
    digit = st.integers(-half, half - 1) | st.sampled_from([0, -half, half - 1])
    digits = draw(st.lists(digit, max_size=12))
    while digits and not digits[-1]:
        digits.pop()
    return k, digits


@settings(max_examples=300, deadline=None)
@given(_balanced_digits())
@example((2, []))  # z = 0
@example((64, [5, 0, 0, -1]))
@example((80, [-(2**79), 0, 0, 2**79 - 1, -(2**79)]))
def test_unpack_reads_back_balanced_digits(case):
    k, digits = case
    assert rf._unpack(sum(d << k * i for i, d in enumerate(digits)), k) == digits


def test_a_large_product_is_made_once_per_pair_of_values():
    rf._large_mul.cache_clear()
    p, q = rf.qint(9, 1).num, rf.qint(10, 1).num
    first = p * q
    assert rf._large_mul.cache_info().misses == 1
    # an equal value built apart hits the memo and gets the same object
    assert rf.qint(9, 1).num * q is first
    small = rf.qint(7, 1).num
    assert small * small == _loop_product(small, small)  # 49 pairs: below the memo
    assert rf._large_mul.cache_info()[:2] == (1, 1)


def test_a_large_product_in_either_order_is_one_memo_entry():
    rf._large_mul.cache_clear()
    p, q = rf.qint(9, 1).num, rf.qint(10, 1).num
    first = p * q
    assert q * p is first
    # equal term counts: the order goes by hash, still one key per pair
    r = rf.qint(10, 2).num
    assert len(r.terms) == len(q.terms)
    second = r * q
    assert q * r is second and second == _loop_product(q, r)
    assert rf._large_mul.cache_info()[:2] == (2, 2)


# ------------------------------------------------- integer coefficients only

def test_a_rational_coefficient_is_refused():
    with pytest.raises(ValueError):
        rf.LaurentPoly({(0, 0): Fraction(1, 2)})
    assert rf.LaurentPoly({(Fraction(1, 2), 0): Fraction(4, 2)}).terms == {(1, 0): 2}


_leaves = st.sampled_from(["v", "t", "v^(1/2)", "t^(-1/3)"]) | st.builds(
    "({})".format, st.integers(-4, 4) | st.fractions(-3, 3, max_denominator=6))
_expressions = st.recursive(
    _leaves,
    lambda kids: st.tuples(st.sampled_from("+-*/"), kids, kids)
    | st.tuples(st.just("^"), kids, st.integers(-2, 3)),
    max_leaves=8,
)


def _text(node):
    if isinstance(node, str):
        return node
    op, left, right = node
    if op == "^":
        return f"({_text(left)})^{right}"
    return f"({_text(left)}) {op} ({_text(right)})"


def _evaluate(node, seen):
    """The value of node by RatFunc arithmetic, every intermediate into seen;
    None where a division by zero stops it."""
    if isinstance(node, str):
        out = rf.parse(node)
    else:
        op, left, right = node
        a = _evaluate(left, seen)
        b = right if op == "^" else _evaluate(right, seen)
        if a is None or b is None:
            return None
        if op == "^":
            if right < 0 and a.is_zero():
                return None
            out = rf.ONE
            for _ in range(abs(right)):
                out = out * a
            out = rf.inv(out) if right < 0 else out
        elif op == "/":
            if b.is_zero():
                return None
            out = a / b
        else:
            out = a + b if op == "+" else a - b if op == "-" else a * b
    seen.append(out)
    return out


def _int_coefficients(x):
    return all(type(c) is int for p in (x.num, x.den) for c in p.terms.values())


@settings(max_examples=150, deadline=None)
@given(_expressions, st.sampled_from([4, Fraction(9, 4), Fraction(1, 16)]),
       st.sampled_from([8, Fraction(1, 27), Fraction(-8, 125)]))
@example(("/", "v", ("-", ("*", "(2)", ("^", "v", 3)), ("*", "(2)", "v"))), 4, 8)
def test_only_int_coefficients_occur(node, v, t):
    # int and rational constants, + - * / and ^; specialize at rational v and t
    seen, made = [], []
    real = rf._raw

    def recording(terms, scale):
        made.append(terms)
        return real(terms, scale)

    rf._raw = recording
    try:
        value = _evaluate(node, seen)
        if value is None:
            return
        parsed = rf.parse(_text(node))
        for assign in ({"v": v}, {"t": t}, {"v": v, "t": t}):
            try:
                seen.append(rf.specialize(value, assign))
            except rf.SpecializeError:  # a den that vanishes there
                pass
        backs = [rf.parse(rf.render(x)) for x in seen]
    finally:
        rf._raw = real
    assert rf.eq(parsed, value)
    assert all(rf.eq(back, x) for back, x in zip(backs, seen))
    assert all(map(_int_coefficients, seen + backs + [parsed]))
    assert all(type(c) is int for terms in made for c in terms.values())
