"""Cartan data validation and the bilinear/multiplicative forms built on them."""

from fractions import Fraction
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from vtknot import cartan as ca
from vtknot import ratfield as rf

SL2 = ca.make_spec(1, [[2]], [[1]])
SL3 = ca.make_spec(2, [[2, -1], [-1, 2]], [[1, -1], [0, 1]])
B2 = ca.make_spec(2, [[4, -2], [-2, 2]], [[2, -2], [0, 1]])


def test_equal_specs_share_hash_and_cache_entries():
    a = ca.make_spec(2, [[2, -1], [-1, 2]], [[1, -1], [0, 1]])
    b = ca.make_spec(2, [[2, -1], [-1, 2]], [[1, -1], [0, 1]])
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != ca.make_spec(2, [[2, -1], [-1, 2]], [[1, -1], [-1, 1]])
    ca.twist.cache_clear()
    first = ca.twist(a, (1, 0), (0, 1), 1)
    second = ca.twist(b, (1, 0), (0, 1), 1)
    info = ca.twist.cache_info()
    assert second is first
    assert (info.hits, info.misses) == (1, 1)


def test_validate_accepts_known_data():
    assert ca.validate(SL2) == []
    assert ca.validate(SL3) == []
    assert ca.validate(B2) == []


def test_validate_names_failed_conditions():
    bad_gcd = ca.make_spec(2, [[4, 0], [0, 4]], [[2, 0], [0, 2]])
    assert any(r.startswith("(c)") for r in ca.validate(bad_gcd))

    bad_sign = ca.make_spec(2, [[2, 1], [1, 2]], [[1, 1], [0, 1]])
    assert any(r.startswith("(a)") for r in ca.validate(bad_sign))

    bad_div = ca.make_spec(2, [[2, -3], [-3, 4]], [[1, -3], [0, 2]])
    report = ca.validate(bad_div)
    assert any(r.startswith("(b)") for r in report)
    assert not any(r.startswith("(a)") or r.startswith("(c)") for r in report)

    asym = ca.make_spec(2, [[2, -1], [0, 2]], [[1, -1], [0, 1]])
    assert any("symmetry" in r for r in ca.validate(asym))

    inconsistent = ca.make_spec(2, [[2, -2], [-2, 2]], [[1, -1], [0, 1]])
    assert any("consistency" in r for r in ca.validate(inconsistent))


def test_validate_reports_each_fault_once_in_order():
    # every condition fails somewhere, and symmetric pairs fail twice
    spec = ca.make_spec(2, [[4, 1], [0, 4]], [[2, 1], [-4, 2]])
    assert ca.validate(spec) == [
        "dot symmetry: dot[1][2] != dot[2][1]",
        "dot symmetry: dot[2][1] != dot[1][2]",
        "(a) omega[1][2] must be <= 0 off the diagonal",
        "(b) (omega[1][2]+omega[2][1])/omega[1][1] must be a nonpositive integer",
        "(b) (omega[2][1]+omega[1][2])/omega[2][2] must be a nonpositive integer",
        "(c) gcd of omega diagonal is 2, must be 1",
        "dot consistency: dot[1][2] != omega[1][2]+omega[2][1]",
        "dot consistency: dot[2][1] != omega[2][1]+omega[1][2]",
    ]


def test_forms_on_simple_roots():
    a1, a2 = ca.unit(SL3, 0), ca.unit(SL3, 1)
    assert ca.angle(SL3, a1, a2) == -1
    assert ca.angle(SL3, a2, a1) == 0
    assert ca.dot(SL3, a1, a2) == -1
    assert ca.dot(SL3, a1, a1) == 2
    assert ca.bracket(SL3, a1, a1) == 1
    assert ca.bracket(SL3, a1, a2) == 1
    assert ca.bracket(SL3, a2, a1) == 0


def test_brace_f_c_oracles():
    a1, a2 = ca.unit(SL3, 0), ca.unit(SL3, 1)
    assert rf.eq(ca.brace(SL3, a1, a2), rf.parse("v^-1 * t"))
    assert rf.eq(ca.brace(SL3, a2, a1), rf.parse("v^-1 * t^-1"))
    assert rf.eq(ca.f(SL3, a1, a2), rf.parse("v * t^-1"))
    assert rf.eq(ca.c(SL3, 0, a2), rf.parse("t"))
    assert rf.eq(ca.c(SL3, 0, a1), rf.ONE)
    assert rf.eq(ca.brace(SL2, (1,), (1,)), rf.parse("v^2"))


def test_v_t_deg():
    assert rf.eq(ca.v_deg(SL2, (3,)), rf.parse("v^3"))
    assert rf.eq(ca.v_deg(B2, (0, 2)), rf.parse("v^2"))
    # the weight (2/3, 1/3) as numerators over den 3
    assert rf.eq(ca.v_deg(SL3, (2, 1), 3), rf.mono(1, 1, 0))
    assert ca.d_i(B2, 0) == 2 and ca.d_i(B2, 1) == 1


def test_degree_helpers():
    assert list(ca.degrees_of_tr(2, 2)) == [(0, 2), (1, 1), (2, 0)]
    assert list(ca.degrees_below((1, 1))) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert len(list(ca.degrees_tr_upto(2, 3))) == 1 + 2 + 3 + 4
    assert ca.deg_sub((1, 2), (0, 1)) == (1, 1)
    assert ca.deg_sub((1, 2), (2, 0)) is None
    assert ca.tr((2, 3)) == 5


_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_vecs = st.tuples(_fracs, _fracs)


def _on_lattice(*vecs):
    """Rational vectors as int numerator tuples over their least common den."""
    den = lcm(*(Fraction(x).denominator for v in vecs for x in v))
    return [tuple(int(Fraction(x) * den) for x in v) for v in vecs], den


@settings(max_examples=50, deadline=None)
@given(_vecs, _vecs, _vecs)
def test_forms_are_biadditive(lam, mu, nu):
    (lam, mu, nu), den = _on_lattice(lam, mu, nu)
    dd = den * den
    for form in (ca.angle, ca.bracket, ca.dot):
        assert form(SL3, ca.weight_add(lam, mu), nu, dd) == (
            form(SL3, lam, nu, dd) + form(SL3, mu, nu, dd))
        assert form(SL3, nu, ca.weight_add(lam, mu), dd) == (
            form(SL3, nu, lam, dd) + form(SL3, nu, mu, dd))
    assert ca.dot(SL3, lam, mu, dd) == ca.dot(SL3, mu, lam, dd)


@settings(max_examples=50, deadline=None)
@given(_vecs, _vecs, _vecs)
def test_brace_is_multiplicative_and_f_inverts_it(lam, mu, nu):
    (lam, mu, nu), den = _on_lattice(lam, mu, nu)
    dd = den * den
    b = ca.brace(SL3, lam, mu, dd)
    assert rf.eq(b * ca.f(SL3, lam, mu, dd), rf.ONE)
    assert rf.eq(
        ca.brace(SL3, ca.weight_add(lam, nu), mu, dd),
        b * ca.brace(SL3, nu, mu, dd),
    )
    assert rf.eq(
        ca.brace(SL3, lam, ca.weight_add(mu, nu), dd),
        b * ca.brace(SL3, lam, nu, dd),
    )


# ------------------------------------------------- int forms, Fraction reference

_lattice = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5, 7]))
_degrees = st.tuples(st.integers(0, 4), st.integers(0, 4))
_weights = st.tuples(_lattice, _lattice)


def _ref_form(matrix, lam, mu):
    return sum(
        (Fraction(a) * Fraction(b) * matrix[i][j]
         for i, a in enumerate(lam) for j, b in enumerate(mu)),
        Fraction(0),
    )


def _ref_bracket(spec, lam, mu):
    n = spec.rank
    m = [[2 * spec.omega[i][i] - spec.omega[i][j] if i == j else -spec.omega[i][j]
          for j in range(n)] for i in range(n)]
    return _ref_form(m, lam, mu)


def _ref_forms(spec, lam, mu):
    return {
        ca.angle: _ref_form(spec.omega, lam, mu),
        ca.dot: _ref_form(spec.dot, lam, mu),
        ca.bracket: _ref_bracket(spec, lam, mu),
    }


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([SL3, B2]), _degrees, _degrees)
def test_forms_are_ints_on_degrees(spec, lam, mu):
    for form, want in _ref_forms(spec, lam, mu).items():
        got = form(spec, lam, mu)
        assert type(got) is int and got == want


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([SL3, B2]), st.one_of(_degrees, _weights), _weights)
def test_forms_match_the_fraction_reference_on_weights(spec, lam, mu):
    # each vector on its own lattice: the forms take the product of the dens
    ([ln], ld), ([mn], md) = _on_lattice(lam), _on_lattice(mu)
    den = ld * md
    for form, want in _ref_forms(spec, lam, mu).items():
        got = form(spec, ln, mn, den)
        assert got == want
        # an int whenever the value is integral, a Fraction only when it is not
        assert type(got) is (int if want.denominator == 1 else Fraction)
    # the one twist monomial, and brace and f through it, on the same reference
    ref_v = _ref_form(spec.dot, lam, mu)
    ref_t = _ref_form(spec.omega, mu, lam) - _ref_form(spec.omega, lam, mu)
    for vsign, named in ((1, ca.brace(spec, ln, mn, den)), (-1, ca.f(spec, mn, ln, den))):
        want = rf.LaurentPoly({(vsign * ref_v, ref_t): 1})
        got = ca.twist(spec, ln, mn, vsign, den)
        assert got.num == want and got.den is rf.LP_ONE
        assert named.num == want and named.den is rf.LP_ONE
        # the formula the K' eigenvalue and the coproduct twist wrote inline
        inline = rf.mono(1, vsign * ca.dot(spec, ln, mn, den),
                         ca.angle(spec, mn, ln, den) - ca.angle(spec, ln, mn, den))
        assert inline.num == want
    # on one common lattice the weight helpers are the rational sum, difference, negation
    (lc, mc), d = _on_lattice(lam, mu)
    for got, want in (
        (ca.weight_add(lc, mc), [Fraction(a) + b for a, b in zip(lam, mu)]),
        (ca.weight_sub(lc, mc), [Fraction(a) - b for a, b in zip(lam, mu)]),
        (ca.weight_neg(mc), [-b for b in mu]),
    ):
        assert [Fraction(x, d) for x in got] == want


def test_is_root_counts_the_positive_roots():
    g2 = ca.make_spec(2, [[6, -3], [-3, 2]], [[3, -3], [0, 1]])
    a3 = ca.make_spec(3, [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
                      [[1, -1, 0], [0, 1, -1], [0, 0, 1]])
    for spec, count in ((SL3, 3), (B2, 4), (g2, 6), (a3, 6)):
        roots = [mu for mu in ca.degrees_tr_upto(spec.rank, 8) if ca.is_root(spec, mu)]
        assert len(roots) == count
    assert [mu for mu in ca.degrees_tr_upto(2, 8) if ca.is_root(g2, mu)] == [
        (0, 1), (1, 0), (1, 1), (1, 2), (1, 3), (2, 3)]
    # affine A1^(1): delta = (1, 1) and its multiples are imaginary roots,
    # (n, n +- 1) are real ones, and nothing else is a root
    a11 = ca.make_spec(2, [[2, -2], [-2, 2]], [[1, -2], [0, 1]])
    for mu in ca.degrees_tr_upto(2, 9):
        assert ca.is_root(a11, mu) == (abs(mu[0] - mu[1]) <= 1 and any(mu)), mu
    assert not ca.is_root(a11, (0, 0))


def _structure(p):
    """scale, terms and the exact types of exponents and coefficients."""
    return p.scale, {(a, b, type(a), type(b)): (c, type(c)) for (a, b), c in p.terms.items()}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([SL3, B2]), st.one_of(_degrees, _weights), _weights,
       st.sampled_from([1, 0, -1]))
def test_twist_and_v_deg_are_mono_written_onto_the_lattice(spec, lam, mu, vsign):
    ref_t = _ref_form(spec.omega, mu, lam) - _ref_form(spec.omega, lam, mu)
    ([ln], ld), ([mn], md) = _on_lattice(lam), _on_lattice(mu)
    for got, want in (
        (ca.twist(spec, ln, mn, vsign, ld * md),
         rf.mono(1, vsign * _ref_form(spec.dot, lam, mu), ref_t)),
        (ca.v_deg(spec, mn, md), rf.mono(1, sum(x * spec.omega[i][i] for i, x in enumerate(mu)), 0)),
        (ca.v_deg(spec, ln, ld), rf.mono(1, sum(Fraction(x) * spec.omega[i][i]
                                                for i, x in enumerate(lam)), 0)),
    ):
        assert _structure(got.num) == _structure(want.num)
        assert got.den is rf.LP_ONE
