"""Real roots: exact rational roots at any precision, irrational ones as floats."""

from fractions import Fraction

import mpmath
import pytest

from lcgraph.realroots import real_roots, square_free_decomposition
from lcgraph.series import numeric_precision, set_numeric_precision


@pytest.fixture
def precision():
    saved = numeric_precision()
    yield set_numeric_precision
    set_numeric_precision(saved)


def poly_mul(*factors):
    """Product of ascending coefficient lists."""
    out = [Fraction(1)]
    for f in factors:
        prod = [Fraction(0)] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * Fraction(b)
        out = prod
    return out


@pytest.mark.parametrize("bits", [64, 256])
@pytest.mark.parametrize("denominator", [10**6 + 3, 10**13 + 7, 10**25 + 13])
def test_large_denominator_root_is_exact_at_any_precision(bits, denominator, precision):
    precision(bits)
    roots = real_roots([-1, denominator])
    assert len(roots) == 1
    assert roots[0].is_exact
    assert roots[0].value == Fraction(1, denominator)
    assert roots[0].multiplicity == 1


def test_rational_and_irrational_roots_are_told_apart(precision):
    precision(256)
    roots = real_roots(poly_mul([Fraction(-3, 7), 1], [-2, 0, 1]))
    assert [r.multiplicity for r in roots] == [1, 1, 1]
    low, mid, high = roots
    assert mid.is_exact and mid.value == Fraction(3, 7)
    assert not low.is_exact and not high.is_exact
    assert isinstance(high.value, mpmath.mpf)
    assert abs(high.value - mpmath.sqrt(2)) < mpmath.mpf(2) ** -250
    assert abs(low.value + mpmath.sqrt(2)) < mpmath.mpf(2) ** -250


def test_multiplicities_come_from_the_square_free_decomposition(precision):
    precision(256)
    p = poly_mul([Fraction(-1, 2), 1], [Fraction(-1, 2), 1], [1, 1], [-1, 1], [-2, 0, 1])
    assert sorted(m for _, m in square_free_decomposition(p)) == [1, 2]
    roots = real_roots(p)
    assert [(r.value, r.multiplicity) for r in roots if r.is_exact] == [
        (Fraction(-1), 1), (Fraction(1, 2), 2), (Fraction(1), 1)]
    irrational = [r for r in roots if not r.is_exact]
    assert [r.multiplicity for r in irrational] == [1, 1]
    assert [mpmath.nint(r.value * r.value) for r in irrational] == [2, 2]
    assert sum(r.multiplicity for r in roots) == 6


def test_float_double_root_is_clustered(precision):
    precision(256)
    # (x - 3/2)^2 (x + 2) with float coefficients
    p = [mpmath.mpf(c) for c in ("4.5", "-3.75", "-1", "1")]
    roots = real_roots(p)
    assert [r.multiplicity for r in roots] == [1, 2]
    assert not any(r.is_exact for r in roots)
    assert abs(roots[0].value + 2) < mpmath.mpf(2) ** -200
    assert abs(roots[1].value - mpmath.mpf(3) / 2) < mpmath.mpf(2) ** -80
