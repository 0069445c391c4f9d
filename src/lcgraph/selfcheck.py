"""Randomized consistency suite for the series field.

Every check is a closed property of the arithmetic itself: ordered-field
axioms modulo truncation, residuals of inverse and square root, the
comparability lemma, and the parser/printer round trip.  The suite is
deterministic for a given seed and is exposed both through the library
and the CLI ``selftest`` subcommand.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import SeriesParseError
from .reports import Report
from .series import (INF, LCNumber, comparable, eps, format_series,
                     parse_series)


def _random_series(rng: random.Random, max_terms: int = 4,
                   allow_trunc: bool = True) -> LCNumber:
    terms = []
    for _ in range(rng.randint(0, max_terms)):
        q = Fraction(rng.randint(-4, 12), rng.choice((1, 2, 3, 4)))
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if c:
            terms.append((q, c))
    trunc = INF
    if allow_trunc and rng.random() < 0.4:
        trunc = Fraction(rng.randint(6, 16), rng.choice((1, 2)))
    return LCNumber(terms, trunc=trunc)


def _random_nonzero(rng: random.Random, **kw) -> LCNumber:
    while True:
        a = _random_series(rng, **kw)
        if not a.is_zero:
            return a


def _random_tame(rng: random.Random, positive: bool = False) -> LCNumber:
    # numeric-mode residual checks need conditioned inputs: integer exponent
    # gaps and small coefficient ratios keep the geometric/binomial tails
    # within 256-bit range (growth <= ~2^40 against a 2^-128 threshold)
    q0 = Fraction(rng.randint(-4, 8), rng.choice((1, 2)))
    c0 = Fraction(rng.randint(1, 9), rng.randint(1, 4))
    if not positive and rng.random() < 0.5:
        c0 = -c0
    terms = [(q0, c0)]
    for k in range(1, rng.randint(1, 4)):
        c = Fraction(rng.randint(-8, 8), rng.randint(1, 4))
        if c:
            terms.append((q0 + k, c))
    trunc = INF if rng.random() < 0.6 else q0 + rng.randint(5, 9)
    return LCNumber(terms, trunc=trunc)


def _check_commutative(rng):
    a, b = _random_series(rng), _random_series(rng)
    return (a + b - (b + a)).is_zero and (a * b - b * a).is_zero


def _check_associative(rng):
    a, b, c = (_random_series(rng) for _ in range(3))
    return ((a + b) + c - (a + (b + c))).is_zero and \
           ((a * b) * c - (a * (b * c))).is_zero


def _check_distributive(rng):
    a, b, c = (_random_series(rng) for _ in range(3))
    return (a * (b + c) - (a * b + a * c)).is_zero


def _check_additive_inverse(rng):
    a = _random_series(rng)
    return (a + (-a)).is_zero and (a - a).is_zero


def _check_trichotomy(rng):
    a = _random_series(rng)
    s = a.sign()
    states = [a.sign() > 0, a.is_zero, (-a).sign() > 0]
    return sum(states) == 1 and (-a).sign() == -s


def _check_order_closure(rng):
    # order axioms are exact statements; finite truncation can a priori hide
    # a difference below the marker, so these operands stay truncation-free
    a = abs(_random_nonzero(rng, allow_trunc=False))
    b = abs(_random_nonzero(rng, allow_trunc=False))
    if (a + b).sign() <= 0 or (a * b).sign() <= 0:
        return False
    # compatibility with the operations: translation and positive scaling
    c = _random_series(rng, allow_trunc=False)
    x = _random_series(rng, allow_trunc=False)
    y = _random_series(rng, allow_trunc=False)
    if (x - y).sign() > 0:
        if ((x + c) - (y + c)).sign() <= 0:
            return False
        if (x * a - y * a).sign() <= 0:
            return False
    return True


def _check_inverse_residual(rng):
    a = _random_nonzero(rng)
    if not (a * a.inverse() - 1).is_zero:
        return False
    b = _random_tame(rng).to_numeric()
    return (b * b.inverse() - 1).is_zero


def _check_sqrt_residual(rng):
    d = _random_nonzero(rng, max_terms=3)
    a = d * d
    r = a.sqrt()
    if not (r * r - a).is_zero:
        return False
    if not (r - abs(d)).is_zero:  # principal root
        return False
    b = _random_tame(rng, positive=True).to_numeric()
    rb = b.sqrt()
    return (rb * rb - b).is_zero


def _check_comparability(rng):
    a = _random_nonzero(rng, allow_trunc=False)
    # same leading term, fresh tail pushed strictly above it (random
    # exponents reach down to -4, hence the +5 shift): comparable pair
    lead = LCNumber(((a.lead_exp, a.lead_coeff),))
    tail = _random_series(rng, allow_trunc=False)
    d = lead + tail * eps(a.lead_exp + 5)
    if not comparable(a, d):
        return False
    if not (abs(a) - eps(1) * abs(d)).sign() > 0:  # |a| > eps*|d|
        return False
    if not comparable(abs(a), abs(d)):
        return False
    m = rng.randint(2, 4)
    if not comparable(a ** m, d ** m):
        return False
    a2 = _random_nonzero(rng, allow_trunc=False)
    lead2 = LCNumber(((a2.lead_exp, a2.lead_coeff),))
    d2 = lead2 + _random_series(rng, allow_trunc=False) * eps(a2.lead_exp + 5)
    return comparable(a * a2, d * d2)


def _check_round_trip(rng):
    a = _random_series(rng)
    try:
        back = parse_series(format_series(a))
    except SeriesParseError:
        return False
    if not back.identical(a):
        return False
    b = _random_series(rng).to_numeric()
    try:
        back_b = parse_series(format_series(b)).to_numeric()
    except SeriesParseError:
        return False
    return (back_b - b).is_zero and back_b.trunc == b.trunc


_CHECKS = (
    ("commutativity", _check_commutative),
    ("associativity", _check_associative),
    ("distributivity", _check_distributive),
    ("additive-inverse", _check_additive_inverse),
    ("order-trichotomy", _check_trichotomy),
    ("order-closure", _check_order_closure),
    ("inverse-residual", _check_inverse_residual),
    ("sqrt-residual", _check_sqrt_residual),
    ("comparability-lemma", _check_comparability),
    ("parse-format-round-trip", _check_round_trip),
)


def run_selfcheck(count: int = 10000, seed: int = 0) -> Report:
    """Run ``count`` randomized field checks; report per-property totals."""
    rng = random.Random(seed)
    ran = {name: 0 for name, _ in _CHECKS}
    failed = {name: 0 for name, _ in _CHECKS}
    for i in range(count):
        name, fn = _CHECKS[i % len(_CHECKS)]
        ran[name] += 1
        if not fn(rng):
            failed[name] += 1
    rep = Report(f"field self-check, {count} randomized checks, seed {seed}")
    for name, _ in _CHECKS:
        detail = f"{ran[name]} checks"
        if failed[name]:
            detail += f", {failed[name]} FAILED"
        rep.add(name, failed[name] == 0, detail)
    return rep
