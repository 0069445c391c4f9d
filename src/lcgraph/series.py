"""Truncated Levi-Civita series arithmetic.

A value is a finite sum  sum_i c_i * eps^(q_i)  plus a truncation marker
O(eps^T): exponents q_i are rationals, eps is a positive infinitesimal, and
terms with exponent >= T are unknown.  T = +inf means the value is exact.
The field order is lexicographic in the exponents: a series is positive
iff its lowest-order coefficient is positive, so eps is smaller than every
positive real while staying strictly positive.

Coefficients come in two modes that must not be mixed inside one number:

* rational -- ``fractions.Fraction``, exact;
* numeric  -- ``mpmath.mpf`` binary floats at a configurable precision.
  Coefficients smaller in absolute value than a zero threshold tied to the
  precision are canonicalised away, so signs of surviving coefficients are
  meaningful.

Floats enter only through ``to_numeric()``, which rounds each rational
coefficient once, and through the irrational roots of spectral lifting;
the parser reads exact rationals, and a Python float or mpf operand, or
a Python float coefficient, raises TypeError.  One rule decides a result's
mode, as for Python's ``Fraction + float``: where a rational series meets
a numeric one in ``+``, ``-``, ``*``, ``/`` or a comparison, the rational
side is converted with ``to_numeric()`` first.  A zero, which has no
mode, takes the other operand's.

Addition and multiplication propagate truncation orders the obvious way
(min of the operand orders, shifted by leading exponents for products).
Both run on int exponent keys: each series puts its exponents once on
the lattice 1/den, den their least common denominator, and ``+`` merges
and ``*`` convolves on the ints q*den.  A rational product scales each
operand's coefficients to int numerators over one common denominator,
as for an integer polynomial over Q, so it builds one Fraction per
output term rather than one per pair of terms.
Inversion and square roots share one coefficient recurrence for the
binomial series (1 + u)^a; on exact inputs the expansion depth is the
ambient default truncation order, which the context manager
``truncation`` overrides temporarily.
"""

from __future__ import annotations

import bisect
import math
import re
from contextlib import contextmanager
from fractions import Fraction
from typing import Iterator, Optional, Sequence, Tuple, Union

import mpmath

from .errors import (LCGraphError, ModeMismatchError, NumericModeRequired,
                     SeriesParseError)

INF = math.inf

RATIONAL = "rational"
NUMERIC = "numeric"

Exponent = Fraction
Coefficient = Union[Fraction, mpmath.mpf]

_precision_bits = 256
_tau = mpmath.mpf(2) ** -128
_default_trunc = Fraction(8)


def set_numeric_precision(bits: int) -> None:
    """Set the precision (bits) of numeric coefficients, globally.

    The zero threshold used during canonicalisation follows the precision
    as 2**-(bits//2).  Affects the shared mpmath context.
    """
    global _precision_bits, _tau
    bits = int(bits)
    if not 64 <= bits <= MAX_PRECISION_BITS:
        raise ValueError(f"numeric precision must be 64 to {MAX_PRECISION_BITS} bits")
    _precision_bits = bits
    mpmath.mp.prec = bits
    _tau = mpmath.mpf(2) ** (-(bits // 2))


def numeric_precision() -> int:
    return _precision_bits


def zero_threshold() -> mpmath.mpf:
    """Numeric coefficients with |c| below this are treated as exact zero."""
    return _tau


def default_truncation() -> Fraction:
    """Ambient truncation order used when an exact value needs a series."""
    return _default_trunc


@contextmanager
def truncation(order) -> Iterator[Fraction]:
    """Temporarily override the ambient default truncation order."""
    global _default_trunc
    order = _as_exponent(order, what="truncation order")
    if order <= 0:
        raise ValueError("truncation order must be positive")
    saved, _default_trunc = _default_trunc, order
    try:
        yield order
    finally:
        _default_trunc = saved


def _as_exponent(q, what="exponent") -> Fraction:
    if isinstance(q, Fraction):
        return q
    if isinstance(q, int):
        return Fraction(q)
    raise TypeError(f"{what} must be an int or Fraction, got {type(q).__name__}")


def _as_trunc(t):
    if t == INF:
        return INF
    return _as_exponent(t, what="truncation order")


def _split_coeff(c) -> Tuple[Coefficient, str]:
    if isinstance(c, Fraction):
        return c, RATIONAL
    if isinstance(c, int):
        return Fraction(c), RATIONAL
    if isinstance(c, mpmath.mpf):
        return c, NUMERIC
    raise TypeError(f"coefficient must be Fraction, int or mpf, got {type(c).__name__}")


def _numerators(terms):
    """The rational coefficients of terms as int numerators over their
    least common denominator: (numerators, denominator)."""
    den = math.lcm(*(c.denominator for _, c in terms))
    return [c.numerator * (den // c.denominator) for _, c in terms], den


def _frac_to_mpf(x: Fraction) -> mpmath.mpf:
    # one correctly rounded division: mpf(numerator) would round first
    # whenever the numerator is wider than the precision
    return mpmath.fdiv(x.numerator, x.denominator)


# the most coefficients _binomial expands: fixtures, tests and benchmark
# workloads need at most 204, eps^(1/1000000007) would need billions
MAX_LATTICE_POINTS = 10_000


def _lattice(exponents):
    """Put exponents on one integer lattice: (den, keys).

    den is the least common multiple of the exponents' denominators, and
    keys holds each exponent q as the int q*den, so convolutions and
    merges compare and add ints instead of Fractions.
    """
    den = math.lcm(*(q.denominator for q in exponents))
    return den, tuple(q.numerator * (den // q.denominator) for q in exponents)


def _reduced(den, keys):
    """The least lattice of int keys on ``den``: (den/g, keys/g) for
    g = gcd(den, *keys), as _lattice would give from the exponents."""
    if den > 1:
        g = math.gcd(den, *keys)
        if g > 1:
            return den // g, tuple(k // g for k in keys)
    return den, tuple(keys)


def _cut(t, den):
    """The least int key at or above the order t on lattice den; INF for t = inf."""
    return INF if t == INF else -(-t.numerator * den // t.denominator)


class LCNumber:
    """One truncated Levi-Civita series.  Immutable.

    ``terms`` is a tuple of (exponent, coefficient) pairs, strictly
    increasing in exponent, with no zero coefficients and every exponent
    below ``trunc``.  ``mode`` is "rational", "numeric", or None for a
    representation with no terms (zero is mode-polymorphic).

    Arithmetic runs on each series' exponent lattice (``_keys``): the
    least common denominator den of the exponents and every exponent as
    the int key q*den.  It is computed once per series, on first use, or
    handed over by ``+`` and ``*``, which produce it anyway.  A rational
    product convolves int coefficient numerators over the product of
    the operands' common coefficient denominators.
    """

    __slots__ = ("terms", "trunc", "mode", "_lat")

    def __init__(self, terms=(), trunc=INF):
        trunc = _as_trunc(trunc)
        merged = {}
        mode = None
        items = terms.items() if isinstance(terms, dict) else terms
        for q, c in items:
            q = _as_exponent(q)
            c, cmode = _split_coeff(c)
            if mode is None:
                mode = cmode
            elif mode != cmode:
                raise ModeMismatchError(
                    "rational and numeric coefficients in one series")
            if q in merged:
                merged[q] = merged[q] + c
            else:
                merged[q] = c
        kept = []
        for q in sorted(merged):
            if q >= trunc:
                continue
            c = merged[q]
            if mode == NUMERIC:
                if abs(c) < _tau:
                    continue
            elif c == 0:
                continue
            kept.append((q, c))
        object.__setattr__(self, "terms", tuple(kept))
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "mode", mode if kept else None)
        object.__setattr__(self, "_lat", None)

    @classmethod
    def _raw(cls, terms, trunc, mode, lat=None) -> "LCNumber":
        # trusted constructor for arithmetic-internal use: terms must
        # already be sorted, filtered and below trunc, and lat, when
        # given, must be _lattice of their exponents
        obj = object.__new__(cls)
        object.__setattr__(obj, "terms", terms)
        object.__setattr__(obj, "trunc", trunc)
        object.__setattr__(obj, "mode", mode if terms else None)
        object.__setattr__(obj, "_lat", lat)
        return obj

    def _keys(self):
        """(den, keys): this series' exponent lattice, see _lattice."""
        if self._lat is None:
            object.__setattr__(self, "_lat", _lattice([q for q, _ in self.terms]))
        return self._lat

    def _common_keys(self, other):
        """(den, self's keys, other's keys) on the least common lattice."""
        (da, ka), (db, kb) = self._keys(), other._keys()
        den = math.lcm(da, db)
        if den != da:
            ka = [k * (den // da) for k in ka]
        if den != db:
            kb = [k * (den // db) for k in kb]
        return den, ka, kb

    def __setattr__(self, name, value):
        raise AttributeError("LCNumber is immutable")

    # -- basic inspection ------------------------------------------------

    @property
    def is_zero(self) -> bool:
        """True when no terms survive below the truncation order."""
        return not self.terms

    @property
    def is_exact(self) -> bool:
        return self.trunc == INF

    @property
    def lead_exp(self):
        """Exponent of the lowest-order term; +inf for (truncated) zero."""
        return self.terms[0][0] if self.terms else INF

    @property
    def lead_coeff(self) -> Optional[Coefficient]:
        return self.terms[0][1] if self.terms else None

    def coeff(self, q) -> Coefficient:
        q = _as_exponent(q)
        for e, c in self.terms:
            if e == q:
                return c
            if e > q:
                break
        return mpmath.mpf(0) if self.mode == NUMERIC else Fraction(0)

    def __bool__(self) -> bool:
        return not self.is_zero

    # -- coercion and mode handling --------------------------------------

    def _coerce(self, other):
        if isinstance(other, LCNumber):
            return other
        if isinstance(other, (int, Fraction)):
            return monomial(Fraction(other))
        if isinstance(other, (float, mpmath.mpf)):
            raise TypeError("a float enters a series only through to_numeric()")
        return None

    def _join(self, other: "LCNumber"):
        # (self, other, mode) in the result's mode: the module's one rule
        ma, mb = self.mode, other.mode
        if ma == mb or mb is None:
            return self, other, ma
        if ma is None:
            return self, other, mb
        if ma == NUMERIC:
            return self, other.to_numeric(), ma
        return self.to_numeric(), other, mb

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, mode = self._join(other)
        trunc = min(a.trunc, b.trunc)
        den, ka, kb = a._common_keys(b)
        cut = _cut(trunc, den)
        a, b = a.terms, b.terms
        na, nb = len(a), len(b)
        numeric = mode == NUMERIC
        out, keys = [], []
        i = j = 0
        while i < na and j < nb:
            x, y = ka[i], kb[j]
            if x < y:
                k, term = x, a[i]
                i += 1
            elif y < x:
                k, term = y, b[j]
                j += 1
            else:
                k = x
                q, c = a[i]
                c = c + b[j][1]
                i += 1
                j += 1
                if not ((abs(c) >= _tau) if numeric else c):
                    continue
                term = (q, c)
            if k >= cut:
                break
            out.append(term)
            keys.append(k)
        else:
            rest, rkeys, start = (a, ka, i) if i < na else (b, kb, j)
            stop = bisect.bisect_left(rkeys, cut, start)
            out.extend(rest[start:stop])
            keys.extend(rkeys[start:stop])
        return LCNumber._raw(tuple(out), trunc, mode, _reduced(den, keys))

    __radd__ = __add__

    def __neg__(self):
        return LCNumber._raw(tuple((q, -c) for q, c in self.terms),
                             self.trunc, self.mode, self._lat)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.__add__(-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other.__add__(-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, mode = self._join(other)
        t = _as_trunc(min(a.trunc + b.lead_exp, b.trunc + a.lead_exp))
        if not a.terms or not b.terms:
            return LCNumber._raw((), t, None)
        den, ka, kb = a._common_keys(b)
        cut = _cut(t, den)
        numeric = mode == NUMERIC
        if numeric:
            ca = [c for _, c in a.terms]
            cb = [c for _, c in b.terms]
        else:
            ca, dca = _numerators(a.terms)
            cb, dcb = _numerators(b.terms)
        b_terms = list(zip(kb, cb))
        b0 = kb[0]
        prod = {}
        for qa, x in zip(ka, ca):
            if qa + b0 >= cut:
                break
            for qb, y in b_terms:
                q = qa + qb
                if q >= cut:
                    break
                if q in prod:
                    prod[q] = prod[q] + x * y
                else:
                    prod[q] = x * y
        out, keys = [], []
        for q in sorted(prod):
            c = prod[q]
            if (abs(c) >= _tau) if numeric else c:
                out.append((Fraction(q, den), c if numeric else Fraction(c, dca * dcb)))
                keys.append(q)
        return LCNumber._raw(tuple(out), t, mode, _reduced(den, keys))

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = monomial(mpmath.mpf(1)) if self.mode == NUMERIC else monomial(Fraction(1))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, _ = self._join(other)  # a rational divisor inverts in floats
        return a * b.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b, _ = other._join(self)
        return a * b.inverse()

    # -- field operations -------------------------------------------------

    def truncate(self, order) -> "LCNumber":
        """Forget all terms with exponent >= order."""
        order = _as_trunc(order)
        trunc = min(self.trunc, order)
        keep = len(self.terms)
        while keep and self.terms[keep - 1][0] >= trunc:
            keep -= 1
        return LCNumber._raw(self.terms[:keep], trunc, self.mode,
                             self._lat if keep == len(self.terms) else None)

    def inverse(self) -> "LCNumber":
        """Multiplicative inverse: (1 + u)^-1 by the recurrence of _binomial.

        The result's truncation order is T_eff - 2q where q is the leading
        exponent and T_eff is the input's own order when finite, otherwise
        q plus the ambient default order.
        """
        if not self.terms:
            raise ZeroDivisionError("inverse of a series that is zero at its truncation order")
        return self._binomial(1 / self.terms[0][1], Fraction(-1))

    def sqrt(self) -> "LCNumber":
        """Square root of a strictly positive series.

        In rational mode the leading coefficient must be a square in Q;
        otherwise numeric mode is required.  Any leading exponent q gives
        eps^(q/2).  The tail is (1 + u)^(1/2) by the recurrence of _binomial.
        """
        if self.sign() <= 0:
            raise ValueError("sqrt needs a strictly positive series")
        c = self.terms[0][1]
        if self.mode == NUMERIC:
            return self._binomial(mpmath.sqrt(c), Fraction(1, 2))
        rn, rd = math.isqrt(c.numerator), math.isqrt(c.denominator)
        if rn * rn != c.numerator or rd * rd != c.denominator:
            raise NumericModeRequired(
                f"leading coefficient {c} is not a rational square; "
                "convert with to_numeric() first")
        return self._binomial(Fraction(rn, rd), Fraction(1, 2))

    def _binomial(self, c_a, a: Fraction) -> "LCNumber":
        """c_a*eps^(a*q) * (1 + u)^a for self = c*eps^q * (1 + u), c_a = c^a.

        w = (1 + u)^a solves (1 + u) w' = a u' w: on the lattice of u's
        exponents w_0 = 1 and k*w_k = sum_j ((a+1)*j - k) * u_j * w_(k-j),
        here multiplied by a's denominator d so every factor is an integer.
        """
        q, c = self.terms[0]
        lead = monomial(c_a, a * q)
        if len(self.terms) == 1:
            return lead.truncate(self.trunc + (a - 1) * q)
        t_rel = self.trunc - q if self.trunc != INF else _default_trunc
        tail = LCNumber._raw(self.terms[1:], self.trunc, self.mode)
        u = (tail * monomial(1 / c, -q)).truncate(t_rel)
        den_u, keys_u = u._keys()
        den = math.lcm(den_u, t_rel.denominator)
        cut = _cut(t_rel, den)
        u_keys = [(k * (den // den_u), u_k) for k, (_, u_k) in zip(keys_u, u.terms)]
        if cut > MAX_LATTICE_POINTS:
            raise LCGraphError(f"expanding to relative order {t_rel} on the "
                               f"exponent lattice 1/{den} needs {cut} "
                               f"coefficients, more than {MAX_LATTICE_POINTS}")
        n, d = a.numerator, a.denominator
        numeric = self.mode == NUMERIC
        w = [mpmath.mpf(1) if numeric else Fraction(1)] + [0] * (cut - 1)
        out = [(Fraction(0), w[0])]
        keys = [0]
        for k in range(1, cut):
            acc = 0
            for j, u_j in u_keys:
                if j > k:
                    break
                if w[k - j]:
                    acc += ((n + d) * j - d * k) * u_j * w[k - j]
            w_k = acc / (d * k)
            if (abs(w_k) >= _tau) if numeric else (w_k != 0):
                w[k] = w_k
                out.append((Fraction(k, den), w_k))
                keys.append(k)
        return lead * LCNumber._raw(tuple(out), t_rel, self.mode,
                                    _reduced(den, keys))

    # -- order ------------------------------------------------------------

    def sign(self) -> int:
        """-1, 0 or 1 according to the field order; 0 means zero at truncation."""
        if not self.terms:
            return 0
        c = self.terms[0][1]
        return 1 if c > 0 else -1

    def __abs__(self) -> "LCNumber":
        return -self if self.sign() < 0 else self

    def _cmp(self, other) -> Optional[int]:
        other = self._coerce(other)
        if other is None:
            return None
        return (self - other).sign()

    def __lt__(self, other):
        s = self._cmp(other)
        return NotImplemented if s is None else s < 0

    def __le__(self, other):
        s = self._cmp(other)
        return NotImplemented if s is None else s <= 0

    def __gt__(self, other):
        s = self._cmp(other)
        return NotImplemented if s is None else s > 0

    def __ge__(self, other):
        s = self._cmp(other)
        return NotImplemented if s is None else s >= 0

    def __eq__(self, other):
        s = self._cmp(other)
        return NotImplemented if s is None else s == 0

    def __ne__(self, other):
        r = self.__eq__(other)
        return NotImplemented if r is NotImplemented else not r

    __hash__ = None  # order-based equality; not suitable for hashing

    def identical(self, other: "LCNumber") -> bool:
        """Structural equality: same terms, same truncation order."""
        return (isinstance(other, LCNumber)
                and self.trunc == other.trunc
                and self.terms == other.terms)

    # -- conversions and display ------------------------------------------

    def to_numeric(self) -> "LCNumber":
        """Copy with rational coefficients converted to numeric floats."""
        if self.mode != RATIONAL:
            return self
        return LCNumber(tuple((q, _frac_to_mpf(c)) for q, c in self.terms),
                        trunc=self.trunc)

    def eval_at(self, x):
        """Substitute a concrete value for eps (diagnostics, plots, tests)."""
        if self.mode != NUMERIC and isinstance(x, (int, Fraction)) \
                and all(q.denominator == 1 and q >= 0 for q, _ in self.terms):
            x = Fraction(x)
            return sum((c * x ** int(q) for q, c in self.terms), Fraction(0))
        xv = _frac_to_mpf(x) if isinstance(x, Fraction) else mpmath.mpf(x)
        total = mpmath.mpf(0)
        for q, c in self.terms:
            cv = _frac_to_mpf(c) if isinstance(c, Fraction) else c
            total += cv * mpmath.power(xv, _frac_to_mpf(q))
        return total

    def __str__(self) -> str:
        return format_series(self)

    def __repr__(self) -> str:
        return f"LCNumber({format_series(self)!r})"


# -- constructors ----------------------------------------------------------

def monomial(coeff, q=0, trunc=INF) -> LCNumber:
    """The series coeff * eps^q."""
    return LCNumber(((_as_exponent(q), coeff),), trunc=trunc)


def eps(q=1) -> LCNumber:
    """The infinitesimal eps, or eps^q for a rational q."""
    return monomial(Fraction(1), q)


def zero(trunc=INF) -> LCNumber:
    return LCNumber((), trunc=trunc)


def one() -> LCNumber:
    return monomial(Fraction(1))


def from_rational(value, trunc=INF) -> LCNumber:
    return monomial(Fraction(value), trunc=trunc)


def sign(a: LCNumber) -> int:
    return a.sign()


def comparable(a: LCNumber, b) -> bool:
    """True when a and b agree to leading order (written a ≈ b).

    Zero is comparable only to zero.  Nonzero series are comparable when
    their leading exponents and leading coefficients coincide (numeric
    coefficients: up to the zero threshold).
    """
    coerced = a._coerce(b)
    if coerced is None:
        raise TypeError(f"cannot compare series with {type(b).__name__}")
    a, b, mode = a._join(coerced)
    if a.is_zero or b.is_zero:
        return a.is_zero and b.is_zero
    qa, ca = a.terms[0]
    qb, cb = b.terms[0]
    if qa != qb:
        return False
    if mode == NUMERIC:
        return abs(ca - cb) < _tau
    return ca == cb


# -- printing ---------------------------------------------------------------

def _format_exponent(q: Fraction) -> str:
    if q.denominator == 1 and q >= 0:
        return str(q)
    return f"({q})"


def _format_coeff(c, digits) -> str:
    if isinstance(c, Fraction):
        try:
            return str(c)
        except ValueError:  # Python's int-string limit
            raise LCGraphError(
                f"a rational coefficient needs more than {MAX_LITERAL_DIGITS} "
                "digits to print") from None
    text = mpmath.nstr(c, digits if digits is not None else mpmath.mp.dps + 5,
                       strip_zeros=True)
    # fixed notation always reparses (see MAX_PRECISION_BITS); a large
    # exponent part may not
    if "e" in text:
        try:
            exact_literal(text)
        except ValueError:
            raise LCGraphError(
                f"a numeric coefficient needs more than {MAX_LITERAL_DIGITS} "
                "digits to reparse") from None
    return text


def format_series(a: LCNumber, digits: Optional[int] = None) -> str:
    """Render a series in the grammar accepted by parse_series.

    Rational coefficients print exactly; numeric ones print with enough
    digits to reparse to the same float unless ``digits`` trims them.
    """
    parts = []
    for q, c in a.terms:
        body = _format_coeff(abs(c), digits)
        if q != 0:
            epspart = "eps" if q == 1 else f"eps^{_format_exponent(q)}"
            if isinstance(c, Fraction) and abs(c) == 1:
                body = epspart
            else:
                body = f"{body}*{epspart}"
        negative = c < 0
        if not parts:
            parts.append(f"-{body}" if negative else body)
        else:
            parts.append(f"- {body}" if negative else f"+ {body}")
    text = " ".join(parts) if parts else "0"
    if a.trunc != INF:
        text += f" + O(eps^{_format_exponent(Fraction(a.trunc))})"
    return text


# -- parsing ----------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
      (?P<ws>\s+)
    | (?P<decimal>\d+\.\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)
    | (?P<int>\d+)
    | (?P<eps>eps\b)
    | (?P<bigo>O\b)
    | (?P<sym>[-+*/^()])
""", re.VERBOSE)


# the most digits the exact value of one literal may need: Python's own
# int-string limit, so no literal overflows int() or expands a power of
# ten like 1e1000000000 for good
MAX_LITERAL_DIGITS = 4300

# the most bits at which every printed coefficient below 10^4300 reparses.
# A coefficient prints m = dps + 5 significant digits, in fixed notation
# while its leading digit sits above 10^-(m//3) (mpmath's to_str), so after
# up to m//3 - 2 zeros; exact_literal counts each digit after the point
# twice, as a digit and as a decimal shift: 2*(m + m//3 - 2) + 1 <= 4300
# holds for m <= 1613, dps 1608, which mpmath gives up to 5346 bits.
# Scientific notation counts fewer: a coefficient above the zero threshold
# 2^-(bits//2) ~ 10^-805 has an exponent of at least -805, and
# 2*m - 1 + 805 <= 4300.
MAX_PRECISION_BITS = 5346


def exact_literal(text: str) -> Fraction:
    """The exact value of a decimal literal: ``12``, ``0.5``, ``2.5e-3``
    (= 1/400).  Raises ValueError when it is malformed, or when its
    mantissa digits plus the size of its net exponent exceed
    MAX_LITERAL_DIGITS."""
    mantissa, _, exp = text.lower().partition("e")
    whole, _, frac = mantissa.partition(".")
    # the exponent is read only once it is too short to be huge
    if len(exp.lstrip("+-0")) <= len(str(MAX_LITERAL_DIGITS)):
        shift = int(exp or 0) - len(frac)
        if len(whole + frac) + abs(shift) <= MAX_LITERAL_DIGITS:
            digits = int(whole + frac)
            if shift < 0:
                return Fraction(digits, 10 ** -shift)
            return Fraction(digits * 10 ** shift)
    raise ValueError(f"literal needs more than {MAX_LITERAL_DIGITS} digits")


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise SeriesParseError(f"unexpected character {text[pos]!r}", position=pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self, kind=None, value=None):
        if self.i >= len(self.tokens):
            return None
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            return None
        if value is not None and tok[1] != value:
            return None
        return tok

    def take(self, kind=None, value=None, what="token"):
        tok = self.peek(kind, value)
        if tok is None:
            pos = self.tokens[self.i][2] if self.i < len(self.tokens) else len(self.text)
            raise SeriesParseError(f"expected {what}", position=pos)
        self.i += 1
        return tok

    def at_end(self):
        return self.i >= len(self.tokens)

    def error(self, message):
        pos = self.tokens[self.i][2] if self.i < len(self.tokens) else len(self.text)
        raise SeriesParseError(message, position=pos)

    def parse(self) -> LCNumber:
        if self.at_end():
            self.error("empty series")
        terms = []
        trunc = INF
        negate = False
        if self.peek("sym", "-"):
            self.take()
            negate = True
        while True:
            if self.peek("bigo"):
                trunc = self.parse_marker()
                if negate:
                    self.error("truncation marker cannot be negated")
                break
            q, c = self.parse_term()
            terms.append((q, -c if negate else c))
            if self.at_end():
                break
            sep = self.take("sym", what="'+' or '-' between terms")
            if sep[1] == "+":
                negate = False
            elif sep[1] == "-":
                negate = True
            else:
                raise SeriesParseError("expected '+' or '-' between terms",
                                       position=sep[2])
        if not self.at_end():
            self.error("trailing input after series")
        return LCNumber(terms, trunc=trunc)

    def parse_marker(self):
        self.take("bigo")
        self.take("sym", "(", what="'(' after O")
        q = self.parse_eps("eps inside O(...)")
        self.take("sym", ")", what="')' closing O(...)")
        return q

    def parse_term(self):
        if self.peek("eps"):
            return self.parse_eps("eps"), Fraction(1)
        c = self.parse_coeff()
        q = Fraction(0)
        if self.peek("sym", "*"):
            self.take()
            q = self.parse_eps("eps after '*'")
        return q, c

    def parse_eps(self, what) -> Fraction:
        """eps[^exponent]: the exponent of one power of eps."""
        self.take("eps", what=what)
        if self.peek("sym", "^"):
            self.take()
            return self.parse_exponent()
        return Fraction(1)

    def literal(self, tok) -> Fraction:
        try:
            return exact_literal(tok[1])
        except ValueError as exc:
            raise SeriesParseError(str(exc), position=tok[2]) from exc

    def parse_ratio(self, what, den_what) -> Fraction:
        """int[/int]; ``what`` and ``den_what`` name the two ints in errors."""
        num = self.literal(self.take("int", what=what))
        if not self.peek("sym", "/"):
            return num
        self.take()
        den_tok = self.take("int", what=den_what)
        den = self.literal(den_tok)
        if den == 0:
            raise SeriesParseError("zero denominator", position=den_tok[2])
        return num / den

    def parse_coeff(self) -> Fraction:
        tok = self.peek("decimal")
        if tok is not None:
            self.take()
            return self.literal(tok)
        return self.parse_ratio("coefficient", "denominator")

    def parse_exponent(self) -> Fraction:
        if self.peek("sym", "("):
            self.take()
            sign_ = 1
            if self.peek("sym", "-"):
                self.take()
                sign_ = -1
            q = self.parse_ratio("exponent numerator", "exponent denominator")
            self.take("sym", ")", what="')' closing exponent")
            return sign_ * q
        if self.peek("sym", "-"):
            self.take()
            return -self.literal(self.take("int", what="exponent"))
        return self.literal(self.take("int", what="exponent"))


def parse_series(text: str) -> LCNumber:
    """Parse a series literal like ``1/2 - 3*eps^2 + eps^(1/2)``.

    Coefficients are integers, fractions or decimals, and a decimal is the
    exact rational it names (``0.5`` is 1/2, ``2.5e-3`` is 1/400).  The
    result is rational; floats come only from ``to_numeric()``, which
    rounds each coefficient once.  A literal whose exact value needs more
    than MAX_LITERAL_DIGITS digits is refused.  An optional trailing
    ``+ O(eps^T)`` records a truncation order.
    """
    return _Parser(text).parse()


set_numeric_precision(256)
