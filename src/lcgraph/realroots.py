"""Real roots, with multiplicity, of small univariate polynomials.

Rational coefficients get the exact treatment: Yun's square-free
decomposition for multiplicities, Sturm sequences for isolation and
interval bisection in Fraction arithmetic.  A rational root p/q has q | L,
L = |lead| times the lcm of the coefficient denominators, so two of them
lie at least 1/L^2 apart: once an isolating interval is no wider than
1/(2L^2), the fraction of denominator at most L nearest its midpoint is the
only candidate, certified by exact evaluation.  Exactness thus never
depends on the working precision.  Irrational roots are reported as
floats at the working precision with ``is_exact=False``.

Float (mpf) coefficients fall back to mpmath's polynomial root finder;
close roots are clustered into multiplicities and nothing is exact.

Polynomials are coefficient sequences in ascending order of degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple, Union

import mpmath

from .errors import LiftError
from . import series as lcf


@dataclass
class RealRoot:
    value: Union[Fraction, mpmath.mpf]
    multiplicity: int
    is_exact: bool


# -- exact polynomial helpers (Fraction coefficients, ascending) -----------

def _strip(p: List[Fraction]) -> List[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _eval(p: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def _derivative(p: Sequence[Fraction]) -> List[Fraction]:
    return [c * k for k, c in enumerate(p)][1:]


def _sub(a: Sequence[Fraction], b: Sequence[Fraction]) -> List[Fraction]:
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else Fraction(0)) - (b[i] if i < len(b) else Fraction(0))
           for i in range(n)]
    return _strip(out)


def _normalized(p: Sequence[Fraction]) -> List[Fraction]:
    lead = abs(p[-1])
    return [c / lead for c in p]


def _divmod(a: Sequence[Fraction],
            b: Sequence[Fraction]) -> Tuple[List[Fraction], List[Fraction]]:
    """Quotient and remainder of polynomial long division."""
    a = _strip(list(a))
    db, lb = len(b) - 1, b[-1]
    quotient = [Fraction(0)] * max(len(a) - db, 0)
    while a and len(a) - 1 >= db:
        deg = len(a) - 1 - db
        factor = a[-1] / lb
        quotient[deg] = factor
        for i, c in enumerate(b):
            a[i + deg] -= factor * c
        a.pop()
        _strip(a)
    return quotient, a


def _divexact(a: Sequence[Fraction], b: Sequence[Fraction]) -> List[Fraction]:
    quotient, rest = _divmod(a, b)
    if rest:
        raise ArithmeticError("division was not exact")
    return quotient


def _gcd(a: Sequence[Fraction], b: Sequence[Fraction]) -> List[Fraction]:
    a, b = _strip(list(a)), _strip(list(b))
    while b:
        a, b = b, _divmod(a, b)[1]
        if b:
            b = _normalized(b)
    return _normalized(a) if a else []


def square_free_decomposition(p: Sequence[Fraction]) -> List[Tuple[List[Fraction], int]]:
    """Yun's algorithm: [(factor, multiplicity)] with square-free factors."""
    p = _strip([Fraction(c) for c in p])
    if len(p) <= 1:
        return []
    dp = _derivative(p)
    a = _gcd(p, dp)
    b = _divexact(p, a)
    c = _divexact(dp, a)
    d = _sub(c, _derivative(b))
    out = []
    i = 1
    while len(b) > 1:
        g = _gcd(b, d)
        if len(g) > 1:
            out.append((g, i))
        b = _divexact(b, g)
        c = _divexact(d, g) if d else []
        d = _sub(c, _derivative(b))
        i += 1
    return out


def _sturm_chain(p: Sequence[Fraction]) -> List[List[Fraction]]:
    chain = [_normalized(list(p)), _normalized(_derivative(p))]
    while len(chain[-1]) > 1:
        r = _divmod(chain[-2], chain[-1])[1]
        if not r:
            break
        chain.append(_normalized([-c for c in r]))
    return chain


def _variations(chain, x: Fraction) -> int:
    signs = []
    for poly in chain:
        v = _eval(poly, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def _count_roots(chain, a: Fraction, b: Fraction) -> int:
    """Number of distinct real roots in the half-open interval (a, b]."""
    return _variations(chain, a) - _variations(chain, b)


def _cauchy_bound(p: Sequence[Fraction]) -> Fraction:
    lead = abs(p[-1])
    return 1 + max(abs(c) for c in p) / lead


def _bisect(f: Sequence[Fraction], a: Fraction, b: Fraction,
            width: Fraction) -> Tuple[Fraction, Fraction]:
    """Halve (a, b], which holds one simple root of f, until b - a <= width.

    A midpoint that is itself the root comes back as the interval (m, m].
    """
    sa = _eval(f, a) > 0
    while b - a > width:
        m = (a + b) / 2
        fm = _eval(f, m)
        if fm == 0:
            return m, m
        if (fm > 0) == sa:
            a = m
        else:
            b = m
    return a, b


def _squarefree_roots(f: List[Fraction]) -> List[RealRoot]:
    """All real roots of a square-free rational polynomial, each simple."""
    if len(f) <= 1:
        return []
    bound = _cauchy_bound(f)
    chain = _sturm_chain(f)
    roots: List[RealRoot] = []
    intervals: List[Tuple[Fraction, Fraction]] = []
    queue = [(-bound, bound, _count_roots(chain, -bound, bound))]
    while queue:
        a, b, n = queue.pop()
        if n == 0:
            continue
        if n == 1:
            intervals.append((a, b))
            continue
        m = (a + b) / 2
        if _eval(f, m) == 0:
            # exact rational root hit mid-split: deflate and redo the rest
            rest = _squarefree_roots(_divexact(f, [-m, Fraction(1)]))
            rest.append(RealRoot(m, 1, True))
            rest.sort(key=_sort_key)
            return rest
        nl = _count_roots(chain, a, m)
        queue.append((a, m, nl))
        queue.append((m, b, n - nl))

    # denom is L of the module docstring.  An irrational root's float comes
    # from the first interval no wider than width_goal, however far the
    # candidate test halved beyond it.
    denom = int(abs(f[-1]) * math.lcm(*(c.denominator for c in f)))
    separation = Fraction(1, 2 * denom * denom)
    width_goal = Fraction(1, 2 ** (lcf.numeric_precision() + 16))
    for a, b in intervals:
        a, b = _bisect(f, a, b, max(separation, width_goal))
        lo, hi = _bisect(f, a, b, separation)
        cand = ((lo + hi) / 2).limit_denominator(denom)
        if lo <= cand <= hi and _eval(f, cand) == 0:
            roots.append(RealRoot(cand, 1, True))
        else:
            a, b = _bisect(f, a, b, width_goal)
            mid = (a + b) / 2
            # mid is within width_goal of the root however it is rounded;
            # series._frac_to_mpf would move printed digits of numeric spectra
            roots.append(RealRoot(mpmath.mpf(mid.numerator) / mid.denominator, 1, False))
    return roots


def _sort_key(r: RealRoot):
    return Fraction(r.value) if r.is_exact else Fraction(str(r.value))


def _rational_real_roots(coeffs) -> List[RealRoot]:
    p = _strip([Fraction(c) for c in coeffs])
    if not p:
        raise LiftError("cannot take roots of the zero polynomial")
    k = 0
    while k < len(p) and p[k] == 0:
        k += 1
    out = [RealRoot(Fraction(0), k, True)] if k else []
    p = p[k:]
    for factor, mult in square_free_decomposition(p):
        for r in _squarefree_roots(factor):
            out.append(RealRoot(r.value, mult, r.is_exact))
    out.sort(key=_sort_key)
    return out


# -- numeric fallback --------------------------------------------------------

def _numeric_real_roots(coeffs) -> List[RealRoot]:
    p = list(coeffs)
    tiny = lcf.zero_threshold()
    while p and abs(p[-1]) < tiny:
        p.pop()
    if not p:
        raise LiftError("cannot take roots of the zero polynomial")
    if len(p) == 1:
        return []
    try:
        found = mpmath.polyroots(list(reversed(p)), maxsteps=200, extraprec=80)
    except mpmath.libmp.NoConvergence as exc:
        raise LiftError(f"numeric root finding did not converge: {exc}") from exc
    cluster_tol = mpmath.mpf(2) ** (-(lcf.numeric_precision() // 3))
    reals = sorted(mpmath.re(r) for r in found if abs(mpmath.im(r)) < cluster_tol)
    out: List[RealRoot] = []
    for r in reals:
        if out and abs(r - out[-1].value) < cluster_tol:
            prev = out.pop()
            k = prev.multiplicity + 1
            out.append(RealRoot((prev.value * prev.multiplicity + r) / k, k, False))
        else:
            out.append(RealRoot(mpmath.mpf(r), 1, False))
    return out


def real_roots(coeffs) -> List[RealRoot]:
    """All real roots (with multiplicity) of the given polynomial.

    Complex roots are silently absent; callers that require a real-rooted
    polynomial should compare the multiplicity total with the degree.
    """
    if any(isinstance(c, mpmath.mpf) for c in coeffs):
        return _numeric_real_roots(coeffs)
    return _rational_real_roots(coeffs)
