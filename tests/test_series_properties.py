"""Field and order axioms under hypothesis-generated series."""

import math
from fractions import Fraction

import mpmath
from hypothesis import given, settings
from hypothesis import strategies as st

from lcgraph import INF, LCNumber, comparable, eps, format_series, parse_series
from lcgraph.series import _lattice, zero_threshold

exponents = st.fractions(min_value=-4, max_value=10, max_denominator=4)
coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=9)
truncs = st.one_of(st.just(INF),
                   st.fractions(min_value=5, max_value=14, max_denominator=2))


@st.composite
def series(draw, allow_trunc=True):
    terms = draw(st.lists(st.tuples(exponents, coeffs), max_size=4))
    t = draw(truncs) if allow_trunc else INF
    return LCNumber(terms, trunc=t)


nonzero = series().filter(lambda a: not a.is_zero)
exact = series(allow_trunc=False)


@given(series(), series())
def test_add_commutes(a, b):
    assert (a + b).identical(b + a)


@given(series(), series())
def test_mul_commutes(a, b):
    assert (a * b).identical(b * a)


@given(series(), series(), series())
def test_add_associates(a, b, c):
    assert ((a + b) + c).identical(a + (b + c))


@given(series(), series(), series())
def test_mul_distributes(a, b, c):
    lhs = a * (b + c)
    rhs = a * b + a * c
    # both sides agree wherever both are defined
    order = min(lhs.trunc, rhs.trunc)
    assert (lhs - rhs).truncate(order).is_zero


@given(series())
def test_additive_inverse(a):
    d = a + (-a)
    assert d.is_zero
    assert d.trunc == a.trunc


@given(exact, exact)
def test_order_trichotomy(a, b):
    signs = [(a - b).sign(), (b - a).sign()]
    assert signs in ([0, 0], [1, -1], [-1, 1])


@given(exact, exact, exact)
def test_order_respects_addition(a, b, c):
    if (a - b).sign() < 0:
        assert ((a + c) - (b + c)).sign() < 0


@given(exact.filter(lambda x: x.sign() > 0), exact.filter(lambda x: x.sign() > 0))
def test_order_respects_multiplication(a, b):
    assert (a * b).sign() > 0


@settings(deadline=None)
@given(nonzero)
def test_inverse_residual(a):
    r = a * a.inverse() - 1
    assert r.is_zero


@settings(deadline=None)
@given(series())
def test_sqrt_of_square_is_abs(a):
    sq = a * a
    if sq.is_zero:
        return
    r = sq.sqrt()
    assert (r - abs(a)).truncate(r.trunc).is_zero


@given(series())
def test_parse_format_round_trip(a):
    assert parse_series(format_series(a)).identical(a)


@given(series())
def test_truncate_is_idempotent(a):
    b = a.truncate(3)
    assert b.truncate(3).identical(b)
    assert b.trunc <= Fraction(3)


@given(exact.filter(lambda x: not x.is_zero), st.integers(min_value=1, max_value=4))
def test_comparability_powers(a, m):
    # a ~ d implies a^m ~ d^m
    d = a + a * LCNumber(((Fraction(5), Fraction(1, 3)),))
    assert comparable(a, d)
    assert comparable(a ** m, d ** m)


@given(exact, exact)
def test_comparable_is_leading_term_equality(a, b):
    if comparable(a, b):
        assert a.lead_exp == b.lead_exp
        assert a.lead_coeff == b.lead_coeff
    elif not a.is_zero and not b.is_zero:
        assert a.terms[0] != b.terms[0]


# -- the int-key kernel against a naive reference -----------------------------
#
# The references loop over Fraction exponents: a + b keeps each exponent
# below min(trunc) with a nonzero coefficient, and a * b sums the pair
# products below min(trunc_a + lead_b, trunc_b + lead_a), a outer and b
# inner, the order the kernel accumulates numeric products in.

def _kept(c):
    return abs(c) >= zero_threshold() if isinstance(c, mpmath.mpf) else c != 0


def _collect(pairs, t):
    acc = {}
    for q, c in pairs:
        acc[q] = acc[q] + c if q in acc else c
    return tuple((q, acc[q]) for q in sorted(acc) if q < t and _kept(acc[q]))


def naive_add(a, b):
    t = min(a.trunc, b.trunc)
    return _collect(a.terms + b.terms, t), t


def naive_mul(a, b):
    t = min(a.trunc + b.lead_exp, b.trunc + a.lead_exp)
    return _collect([(qa + qb, ca * cb) for qa, ca in a.terms for qb, cb in b.terms], t), t


def _reduced(x):
    return type(x) is Fraction and x.denominator > 0 \
        and math.gcd(x.numerator, x.denominator) == 1


def assert_kernel(got, want):
    terms, t = want
    assert got.trunc == t
    assert got.terms == terms
    for q, c in got.terms:
        assert _reduced(q)
        assert _reduced(c) or type(c) is mpmath.mpf
    # the stored lattice is the least one of the exponents
    assert (got._den, got._keys) == _lattice([q for q, _ in got.terms])


# few distinct coefficients, so that sums cancel often
small = st.sampled_from((-2, -1, 1, 2, Fraction(1, 3), Fraction(-5, 6)))


@st.composite
def on_lattice(draw, den=None, coeffs=small, keys=(-6, 18)):
    """A rational series with exponents k/den for k in the range keys;
    den is drawn when not given."""
    den = den or draw(st.sampled_from((1, 2, 3, 4, 6)))
    exps = st.integers(*keys).map(lambda k: Fraction(k, den))
    terms = draw(st.lists(st.tuples(exps, coeffs), max_size=6))
    if draw(st.booleans()):
        return LCNumber(terms)
    t = Fraction(draw(st.integers(min_value=-2, max_value=20)),
                 draw(st.sampled_from((1, 2, 3, 5))))
    return LCNumber(terms, trunc=t)


# coefficients that round in floats, on few exponents so that three or
# more products share one: a changed summation order then shows
inexact = on_lattice(den=1, keys=(0, 4),
                     coeffs=st.fractions(min_value=-9, max_value=9, max_denominator=97))


@given(on_lattice(), on_lattice())
def test_add_matches_reference(a, b):
    assert_kernel(a + b, naive_add(a, b))


@given(on_lattice(), on_lattice())
def test_mul_matches_reference(a, b):
    assert_kernel(a * b, naive_mul(a, b))


@given(on_lattice(den=2), on_lattice(den=3))
def test_halves_meet_thirds(a, b):
    assert_kernel(a + b, naive_add(a, b))
    assert_kernel(b + a, naive_add(b, a))
    assert_kernel(a * b, naive_mul(a, b))
    assert_kernel(b * a, naive_mul(b, a))


@given(on_lattice(), on_lattice())
def test_cancellation_to_exact_zero(a, b):
    assert_kernel(a + (-a), ((), a.trunc))
    assert_kernel((a + b) - b, naive_add(a + b, -b))
    d = (a * b) - (b * a)
    assert d.is_zero and (d._den, d._keys) == (1, ())


@given(inexact, inexact)
def test_numeric_kernel_is_bit_identical(a, b):
    x, y = a.to_numeric(), b.to_numeric()
    assert_kernel(x + y, naive_add(x, y))
    assert_kernel(x * y, naive_mul(x, y))
    assert_kernel(x + (-x), ((), x.trunc))
    # a rational operand meets a numeric one as to_numeric(); zero has no mode
    ax = a.to_numeric() if y.mode else a
    assert_kernel(a * y, naive_mul(ax, y))
    assert_kernel(a + y, naive_add(ax, y))


# -- one stored representation ------------------------------------------------

@settings(deadline=None)
@given(on_lattice(), on_lattice(),
       st.fractions(min_value=-2, max_value=20, max_denominator=6))
def test_identical_is_equal_terms_and_trunc(a, b, t):
    results = [a + b, b + a, (a + b) - b, a.truncate(min(a.trunc, b.trunc)),
               a * b, b * a, a.truncate(t), (a * b).truncate(t),
               a.to_numeric(), (a + b).to_numeric()]
    results += [x.inverse() for x in (a, a + b) if not x.is_zero]
    for x in results:
        for y in results:
            assert x.identical(y) == ((x.terms, x.trunc) == (y.terms, y.trunc))


def test_truncate_leaves_the_least_lattice():
    x = (1 + eps(Fraction(1, 2))).truncate(Fraction(1, 2))
    assert (x._den, x._keys) == (1, (0,))
    assert x.identical(parse_series("1 + O(eps^(1/2))"))
