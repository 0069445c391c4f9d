"""Series arithmetic against hand values and an independent product oracle."""

import math
from fractions import Fraction

import mpmath
import pytest

from lcgraph import (
    INF,
    LCGraphError,
    LCNumber,
    ModeMismatchError,
    SeriesParseError,
    comparable,
    eps,
    format_series,
    from_rational,
    monomial,
    one,
    parse_series,
    sign,
    truncation,
    zero,
)
from lcgraph.series import (MAX_PRECISION_BITS, default_truncation, numeric_precision,
                            set_numeric_precision)


def s(text):
    return parse_series(text)


# -- construction -----------------------------------------------------------

def test_monomial_basic():
    a = monomial(Fraction(3, 2), Fraction(1, 2))
    assert a.terms == ((Fraction(1, 2), Fraction(3, 2)),)
    assert a.trunc == INF
    assert a.mode == "rational"


def test_zero_is_mode_polymorphic():
    z = zero()
    assert z.is_zero and z.mode is None
    assert (z + eps()).mode == "rational"
    assert (z + one().to_numeric()).mode == "numeric"


def test_zero_coefficient_dropped():
    a = monomial(0, 3)
    assert a.is_zero and a.terms == ()


def test_truncated_zero_remembers_order():
    z = zero(trunc=6)
    assert z.is_zero and z.trunc == Fraction(6)


# -- addition and negation --------------------------------------------------

def test_add_merges_and_cancels():
    a = s("1 + 2*eps")
    b = s("3 - 2*eps + eps^2")
    assert (a + b).identical(s("4 + eps^2"))


def test_add_truncation_is_min():
    a = parse_series("1 + O(eps^2)")
    b = s("eps^3")
    c = a + b
    assert c.trunc == Fraction(2)
    assert c.identical(parse_series("1 + O(eps^2)"))


def test_scalar_coercion():
    a = s("eps")
    assert (a + 1).identical(s("1 + eps"))
    assert (1 + a).identical(s("1 + eps"))
    assert (2 * a).identical(s("2*eps"))
    assert (a - Fraction(1, 2)).identical(s("-1/2 + eps"))


def test_neg_roundtrip():
    a = s("2 - eps + 1/3*eps^2")
    assert (-(-a)).identical(a)
    assert (a + (-a)).is_zero


# -- multiplication ---------------------------------------------------------

def test_mul_hand_values():
    assert (s("1 + eps") * s("1 - eps")).identical(s("1 - eps^2"))
    assert (s("eps") * s("eps")).identical(s("eps^2"))
    sq = s("1 + eps") * s("1 + eps")
    assert sq.identical(s("1 + 2*eps + eps^2"))


def test_mul_fractional_exponents():
    a = monomial(1, Fraction(1, 2))
    assert (a * a).identical(s("eps"))
    assert (a * s("eps")).terms == ((Fraction(3, 2), Fraction(1)),)


def test_mul_truncation_propagates_through_lead():
    # trunc(a*b) = min(trunc(a) + lead(b), trunc(b) + lead(a))
    a = parse_series("eps + O(eps^3)")
    b = s("eps^2")
    c = a * b
    assert c.trunc == Fraction(5)
    assert c.terms == ((Fraction(3), Fraction(1)),)


def _convolve(a, b):
    # reference product: plain dict convolution plus the truncation rule
    t = min(a.trunc + b.lead_exp, b.trunc + a.lead_exp)
    acc = {}
    for qa, ca in a.terms:
        for qb, cb in b.terms:
            if qa + qb < t:
                acc[qa + qb] = acc.get(qa + qb, 0) + ca * cb
    terms = tuple(sorted((q, c) for q, c in acc.items() if c != 0))
    return terms, t


def test_mul_matches_convolution_oracle():
    import random
    rng = random.Random(5)
    for _ in range(300):
        def draw():
            n = rng.randint(1, 5)
            qs = rng.sample(range(-6, 14), n)
            terms = [(Fraction(q, rng.choice((1, 2, 3))),
                      Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
                     for q in qs]
            t = Fraction(rng.randint(8, 14), rng.choice((1, 2))) \
                if rng.random() < 0.5 else INF
            return LCNumber(terms, trunc=t)
        a, b = draw(), draw()
        got = a * b
        want_terms, want_t = _convolve(a, b)
        assert got.terms == want_terms
        assert got.trunc == want_t


def test_pow():
    a = s("1 + eps")
    assert (a ** 3).identical(s("1 + 3*eps + 3*eps^2 + eps^3"))
    assert (a ** 0).identical(one())
    # the inverse is only known to the ambient expansion order
    assert ((a ** -1) * a - 1).is_zero


# -- inverse and sqrt -------------------------------------------------------

def test_inverse_geometric():
    with truncation(6):
        inv = s("1 + eps").inverse()
    assert inv.identical(parse_series(
        "1 - eps + eps^2 - eps^3 + eps^4 - eps^5 + O(eps^6)"))


def test_inverse_scales_exponent():
    with truncation(4):
        inv = s("2*eps^2").inverse()
    assert inv.terms == ((Fraction(-2), Fraction(1, 2)),)
    prod = inv * s("2*eps^2")
    assert prod.identical(one().truncate(prod.trunc))


def test_inverse_of_truncated_input():
    a = parse_series("1 + eps + O(eps^3)")
    inv = a.inverse()
    assert inv.trunc == Fraction(3)
    assert inv.identical(parse_series("1 - eps + eps^2 + O(eps^3)"))


# reference expansions: the geometric series for 1/(1 + u) and the binomial
# series for (1 + u)^(1/2), one full product per power of u

def _reference_tail(a):
    q, c = a.terms[0]
    t_rel = (a.trunc if a.trunc != INF else q + default_truncation()) - q
    tail = LCNumber(a.terms[1:], trunc=a.trunc)
    return (tail * monomial(1 / c, -q)).truncate(t_rel), t_rel


def _reference_inverse(a):
    q, c = a.terms[0]
    lead_inv = monomial(1 / c, -q)
    if len(a.terms) == 1:
        return LCNumber(lead_inv.terms, trunc=a.trunc - 2 * q)
    u, t_rel = _reference_tail(a)
    acc = p = one()
    while True:
        p = (p * -u).truncate(t_rel)
        if p.is_zero:
            break
        acc = acc + p
    return lead_inv * acc.truncate(t_rel)


def _reference_sqrt(a):
    q, c = a.terms[0]
    lead_root = monomial(Fraction(math.isqrt(c.numerator), math.isqrt(c.denominator)),
                         q / 2)
    if len(a.terms) == 1:
        return LCNumber(lead_root.terms, trunc=(a.trunc - q) + q / 2)
    u, t_rel = _reference_tail(a)
    acc = p = one()
    binom = Fraction(1)
    k = 0
    while True:
        p = (p * u).truncate(t_rel)
        binom = binom * (Fraction(1, 2) - k) / (k + 1)
        k += 1
        if p.is_zero:
            break
        acc = acc + p * binom
    return lead_root * acc.truncate(t_rel)


def test_inverse_and_sqrt_match_reference_expansions():
    import random
    rng = random.Random(11)
    for _ in range(400):
        n = rng.randint(1, 5)
        qs = sorted(rng.sample(range(-6, 16), n))
        terms = [(Fraction(q, rng.choice((1, 2, 3))),
                  Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((-1, 1)))
                 for q in qs]
        t = Fraction(rng.randint(8, 20), rng.choice((1, 2, 3))) \
            if rng.random() < 0.5 else INF
        a = LCNumber(terms, trunc=t)
        if a.is_zero:
            continue
        # the same tail under a positive square leading coefficient
        square = Fraction(rng.randint(1, 9), rng.randint(1, 9)) ** 2
        b = LCNumber(((a.lead_exp, square),) + a.terms[1:], trunc=a.trunc)
        for order in (2, Fraction(7, 2), 6, 9):
            with truncation(order):
                assert a.inverse().identical(_reference_inverse(a))
                assert b.sqrt().identical(_reference_sqrt(b))


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        zero().inverse()
    with pytest.raises(ZeroDivisionError):
        zero(trunc=4).inverse()


def test_sqrt_exact_square():
    r = s("1 + 2*eps + eps^2").sqrt()
    assert (r - s("1 + eps")).is_zero
    assert r.sign() > 0


def test_sqrt_monomial():
    assert s("4*eps^2").sqrt().identical(s("2*eps"))
    r = s("eps").sqrt()
    assert r.terms == ((Fraction(1, 2), Fraction(1)),)


def test_sqrt_binomial_series():
    with truncation(5):
        r = s("1 + eps").sqrt()
    # (1+x)^(1/2) = 1 + x/2 - x^2/8 + x^3/16 - 5x^4/128 + ...
    assert r.identical(parse_series(
        "1 + 1/2*eps - 1/8*eps^2 + 1/16*eps^3 - 5/128*eps^4 + O(eps^5)"))


def test_sqrt_requires_positive():
    with pytest.raises(ValueError):
        s("-eps").sqrt()
    with pytest.raises(ValueError):
        zero().sqrt()


def test_sqrt_irrational_leading_coeff_needs_numeric():
    from lcgraph import NumericModeRequired
    with pytest.raises(NumericModeRequired):
        s("2").sqrt()
    r = s("2").to_numeric().sqrt()
    assert abs(r.lead_coeff - mpmath.sqrt(2)) < mpmath.mpf(2) ** -200


# -- order ------------------------------------------------------------------

def test_eps_is_infinitesimal():
    assert sign(eps()) > 0
    assert (eps() - Fraction(1, 10 ** 12)).sign() < 0


def test_order_hand_cases():
    assert s("eps^(1/2)") > s("eps")
    assert s("2 + eps") > s("2")
    assert s("-eps") < zero()
    assert s("1 - eps") < one()
    assert abs(s("-3*eps")).identical(s("3*eps"))


def test_sign_of_truncated_zero():
    assert zero(trunc=5).sign() == 0


def test_comparable():
    assert comparable(s("2 + eps"), s("2"))
    assert not comparable(s("eps"), s("2*eps"))
    assert not comparable(s("eps"), s("eps^2"))
    assert comparable(zero(), zero())
    assert not comparable(zero(), s("eps"))


# -- modes ------------------------------------------------------------------

def test_mixed_modes_promote():
    # a rational operand meets a numeric one as floats: every mixed
    # expression equals the one with a converted by to_numeric() first
    a = s("1/3 + 2/7*eps - 5*eps^(3/2)")
    b = parse_series("1.5 - 0.25*eps + 3*eps^2").to_numeric()
    an = a.to_numeric()
    pairs = [(a + b, an + b), (b + a, b + an), (a - b, an - b),
             (a * b, an * b), (b / a, b / an)]
    for mixed, converted in pairs:
        assert mixed.mode == "numeric"
        assert mixed.identical(converted)
    assert (a < b) is (an < b) is True
    assert (b < a) is (b < an) is False
    # a zero has no mode and keeps the other operand's
    assert (zero() + b).mode == "numeric" and (zero() - a).mode == "rational"
    assert (b + zero()).identical(b) and (a * one() + zero()).identical(a)
    # one series still holds coefficients of one mode only
    with pytest.raises(ModeMismatchError):
        LCNumber([(0, Fraction(1)), (1, mpmath.mpf(2))])


def test_to_numeric_matches_rational():
    a = s("1/3 + 2/7*eps")
    b = a.to_numeric()
    assert b.mode == "numeric"
    for (q, c), (qn, cn) in zip(a.terms, b.terms):
        assert q == qn
        assert abs(cn - mpmath.mpf(c.numerator) / c.denominator) < mpmath.mpf(2) ** -250


def test_to_numeric_rounds_once():
    # mpf(p) / q would round p to the precision first and miss by one ulp
    p, q = 10 ** 113 + 1, 3
    assert p.bit_length() > numeric_precision()
    got = from_rational(Fraction(p, q)).to_numeric().lead_coeff
    assert got == mpmath.fdiv(p, q)


def test_floats_enter_only_through_to_numeric():
    with pytest.raises(TypeError):
        one() + 0.5
    with pytest.raises(TypeError):
        one() * mpmath.mpf(2)
    with pytest.raises(TypeError):
        LCNumber([(0, 0.5)])


def test_from_rational_and_to_numeric():
    assert from_rational(Fraction(2, 3)).lead_coeff == Fraction(2, 3)
    half = from_rational(Fraction(1, 2)).to_numeric()
    assert half.mode == "numeric" and half.lead_coeff == mpmath.mpf(0.5)


# -- parsing and formatting -------------------------------------------------

def test_parse_basic_grammar():
    a = s("3/2*eps^(-1/2) - eps + O(eps^(7/2))")
    assert a.terms == ((Fraction(-1, 2), Fraction(3, 2)), (Fraction(1), Fraction(-1)))
    assert a.trunc == Fraction(7, 2)


def test_parse_requires_star_between_coeff_and_eps():
    with pytest.raises(SeriesParseError):
        parse_series("2eps")


def test_parse_error_reports_position():
    with pytest.raises(SeriesParseError) as exc:
        parse_series("1 + !")
    assert "column" in str(exc.value)


@pytest.mark.parametrize("text, message, column", [
    ("1/0", "zero denominator", 3),
    ("eps^(1/0)", "zero denominator", 8),
    ("2*", "expected eps after '*'", 3),
    ("O(1)", "expected eps inside O(...)", 3),
    ("- O(eps)", "truncation marker cannot be negated", 9),
    ("eps^", "expected exponent", 5),
    # no literal may need more digits than Python's int-string limit
    ("1 + " + "7" * 5000, "literal needs more than 4300 digits", 5),
    ("1/" + "3" * 5000, "literal needs more than 4300 digits", 3),
    ("eps^" + "2" * 5000, "literal needs more than 4300 digits", 5),
    ("1e1000000000*eps", "literal needs more than 4300 digits", 1),
    ("eps - 2.5e-" + "9" * 5000, "literal needs more than 4300 digits", 7),
    ("0." + "1" * 4300, "literal needs more than 4300 digits", 1),
])
def test_parse_error_messages(text, message, column):
    with pytest.raises(SeriesParseError) as exc:
        parse_series(text)
    assert str(exc.value) == f"{message} (column {column})"


def test_decimal_literals_are_exact():
    assert s("0.5").identical(s("1/2"))
    assert s("2.5e-3*eps").identical(s("1/400*eps"))
    assert s("0.50 - .25*eps^2 + 3E2*eps^3").identical(s("1/2 - 1/4*eps^2 + 300*eps^3"))
    # the size bound counts digits plus the net decimal exponent
    assert s("1" * 4300).lead_coeff == int("1" * 4300)
    assert s("1e4299").lead_coeff == 10 ** 4299
    assert s("1" * 4000 + "e-300").lead_coeff == Fraction(int("1" * 4000), 10 ** 300)


def test_format_round_trip_rational():
    for text in ("0", "1", "-1/2", "eps", "1 - eps + 1/3*eps^2",
                 "2*eps^(-3/2) + 7*eps^4", "0 + O(eps^6)",
                 "1/2 + O(eps^(5/2))"):
        a = parse_series(text)
        assert parse_series(format_series(a)).identical(a)


def test_format_hand_values():
    assert format_series(s("1 - eps")) == "1 - eps"
    assert format_series(zero(trunc=6)) == "0 + O(eps^6)"
    assert format_series(monomial(Fraction(-1, 2), Fraction(3, 2))) == "-1/2*eps^(3/2)"


def test_format_numeric_digits():
    a = one().to_numeric() / 3
    text = format_series(a, digits=12)
    assert text.startswith("0.333333333333")


def test_numeric_round_trip_at_precision_bound():
    # fixed notation holds the most digits where mpmath switches to
    # scientific: a leading digit near 10^-(m//3) for m printed digits
    saved = numeric_precision()
    set_numeric_precision(MAX_PRECISION_BITS)
    try:
        m = mpmath.mp.dps + 5
        for x in (Fraction(1, 7), Fraction(3, 7), Fraction(1)):
            for k in (0, 1, 2, *range(m // 3 - 6, m // 3 + 6)):
                a = from_rational(x / 10 ** k).to_numeric()
                back = parse_series(format_series(a)).to_numeric()
                assert back.identical(a), (x, k)
    finally:
        set_numeric_precision(saved)


def test_format_refuses_numeric_coefficient_past_literal_limit():
    # 1.0e+8000 would print, but no literal may need more than 4300 digits
    big = parse_series("1e4000").to_numeric()
    assert parse_series(format_series(big)).to_numeric().identical(big)
    with pytest.raises(LCGraphError, match="more than 4300 digits"):
        format_series(big ** 2)


# -- truncation context -----------------------------------------------------

def test_truncation_context_controls_expansion_depth():
    with truncation(3):
        short = s("1 + eps").inverse()
    with truncation(10):
        long = s("1 + eps").inverse()
    assert short.trunc == Fraction(3)
    assert long.trunc == Fraction(10)
    assert short.identical(long.truncate(3))


def test_truncate_drops_high_terms():
    a = s("1 + eps + eps^5")
    b = a.truncate(3)
    assert b.terms == ((Fraction(0), Fraction(1)), (Fraction(1), Fraction(1)))
    assert b.trunc == Fraction(3)
    assert a.truncate(INF).identical(a)
