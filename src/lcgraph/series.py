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

A series is stored once, on an integer exponent lattice: den, the least
common denominator of its exponents, and each exponent q as the int key
q*den, beside its coefficient.  The (exponent, coefficient) pairs of
``terms`` are a view built on request; arithmetic never reads them.
Addition and multiplication propagate truncation orders the obvious way
(min of the operand orders, shifted by leading exponents for products).
``+`` merges and ``*`` convolves on the int keys, and a rational product
scales each operand's coefficients to int numerators over one common
denominator, as for an integer polynomial over Q, so it builds one
Fraction per output term rather than one per pair of terms.
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
from typing import Iterator, Optional, Tuple, Union

import mpmath

from .errors import (LCGraphError, ModeMismatchError, NumericModeRequired,
                     SeriesParseError)

INF = math.inf

RATIONAL = "rational"
NUMERIC = "numeric"

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


def _numerators(coeffs):
    """Rational coefficients as int numerators over their least common
    denominator: (numerators, denominator)."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _kept(c, numeric) -> bool:
    """Whether a coefficient survives: a float at least the zero threshold
    in absolute value, an exact one nonzero."""
    return abs(c) >= _tau if numeric else bool(c)


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


def _cut(t, den):
    """The least int key at or above the order t on lattice den; INF for t = inf."""
    return -(-t.numerator * den // t.denominator) if isinstance(t, Fraction) else INF


class LCNumber:
    """One truncated Levi-Civita series.  Immutable.

    A series is stored once, on its exponent lattice: the least common
    denominator den of its exponents, the int keys q*den in strictly
    increasing order, one coefficient per key, none of them zero, and the
    truncation order ``trunc``, above every exponent.  ``_set`` is the one
    place that fills these slots, and it keeps den least, so two series
    with equal terms store equal lattices.

    ``terms``, the tuple of (exponent, coefficient) pairs, and ``mode``,
    "rational", "numeric" or None for a series with no terms (zero is
    mode-polymorphic), are views computed from the lattice.  Arithmetic
    never builds them: ``+`` merges and ``*`` convolves int keys, and a
    rational product convolves int coefficient numerators over the
    product of the operands' common coefficient denominators.
    """

    __slots__ = ("trunc", "_den", "_keys", "_coeffs")

    def __init__(self, terms=(), trunc=INF):
        trunc = _as_trunc(trunc)
        merged = {}
        mode = None
        for q, c in terms:
            q = _as_exponent(q)
            c, cmode = _split_coeff(c)
            if mode is None:
                mode = cmode
            elif mode != cmode:
                raise ModeMismatchError(
                    "rational and numeric coefficients in one series")
            merged[q] = merged[q] + c if q in merged else c
        numeric = mode == NUMERIC
        exps = [q for q in sorted(merged) if q < trunc and _kept(merged[q], numeric)]
        den, keys = _lattice(exps)
        self._set(trunc, den, keys, [merged[q] for q in exps])

    def _set(self, trunc, den, keys, coeffs) -> "LCNumber":
        """Make self the series sum c*eps^(k/den) over zip(keys, coeffs),
        known below trunc, with den reduced to the least lattice.  keys
        must be increasing ints below _cut(trunc, den), and coeffs kept
        (see _kept) and of one mode.  Returns self."""
        if den > 1:
            g = math.gcd(den, *keys)
            if g > 1:
                den //= g
                keys = [k // g for k in keys]
        object.__setattr__(self, "trunc", trunc)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_keys", tuple(keys))
        object.__setattr__(self, "_coeffs", tuple(coeffs))
        return self

    def _keys_on(self, den):
        """This series' keys on the lattice 1/den, a multiple of its own."""
        m = den // self._den
        return self._keys if m == 1 else [k * m for k in self._keys]

    def __setattr__(self, name, value):
        raise AttributeError("LCNumber is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor: the default
        # restore would set the slots through __setattr__
        return LCNumber, (self.terms, self.trunc)

    # -- basic inspection ------------------------------------------------

    @property
    def terms(self) -> Tuple[Tuple[Fraction, Coefficient], ...]:
        """(exponent, coefficient) pairs, strictly increasing in exponent."""
        den = self._den
        return tuple((Fraction(k, den), c) for k, c in zip(self._keys, self._coeffs))

    @property
    def mode(self) -> Optional[str]:
        """The coefficients' mode: "rational", "numeric", or None for a
        series with no terms."""
        if not self._coeffs:
            return None
        return NUMERIC if isinstance(self._coeffs[0], mpmath.mpf) else RATIONAL

    @property
    def is_zero(self) -> bool:
        """True when no terms survive below the truncation order."""
        return not self._coeffs

    @property
    def is_exact(self) -> bool:
        return self.trunc == INF

    @property
    def lead_exp(self):
        """Exponent of the lowest-order term; +inf for (truncated) zero."""
        return Fraction(self._keys[0], self._den) if self._keys else INF

    @property
    def lead_coeff(self) -> Optional[Coefficient]:
        return self._coeffs[0] if self._coeffs else None

    def coeff(self, q) -> Coefficient:
        q = _as_exponent(q)
        den = self._den
        if den % q.denominator == 0:
            k = q.numerator * (den // q.denominator)
            i = bisect.bisect_left(self._keys, k)
            if i < len(self._keys) and self._keys[i] == k:
                return self._coeffs[i]
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
        den = math.lcm(a._den, b._den)
        ka, kb = a._keys_on(den), b._keys_on(den)
        ca, cb = a._coeffs, b._coeffs
        cut = _cut(trunc, den)
        na, nb = len(ka), len(kb)
        numeric = mode == NUMERIC
        keys, coeffs = [], []
        i = j = 0
        while i < na and j < nb:
            x, y = ka[i], kb[j]
            if x < y:
                k, c = x, ca[i]
                i += 1
            elif y < x:
                k, c = y, cb[j]
                j += 1
            else:
                k, c = x, ca[i] + cb[j]
                i += 1
                j += 1
                if not _kept(c, numeric):
                    continue
            if k >= cut:
                break
            keys.append(k)
            coeffs.append(c)
        else:
            rkeys, rest, start = (ka, ca, i) if i < na else (kb, cb, j)
            stop = bisect.bisect_left(rkeys, cut, start)
            keys.extend(rkeys[start:stop])
            coeffs.extend(rest[start:stop])
        return object.__new__(LCNumber)._set(trunc, den, keys, coeffs)

    __radd__ = __add__

    def __neg__(self):
        return object.__new__(LCNumber)._set(self.trunc, self._den, self._keys,
                                             [-c for c in self._coeffs])

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
        if not a._keys or not b._keys:
            return object.__new__(LCNumber)._set(t, 1, (), ())
        den = math.lcm(a._den, b._den)
        ka, kb = a._keys_on(den), b._keys_on(den)
        cut = _cut(t, den)
        numeric = mode == NUMERIC
        if numeric:
            ca, cb = a._coeffs, b._coeffs
        else:
            ca, dca = _numerators(a._coeffs)
            cb, dcb = _numerators(b._coeffs)
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
        keys = [q for q in sorted(prod) if _kept(prod[q], numeric)]
        if numeric:
            coeffs = [prod[q] for q in keys]
        else:
            coeffs = [Fraction(prod[q], dca * dcb) for q in keys]
        return object.__new__(LCNumber)._set(t, den, keys, coeffs)

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
        trunc = min(self.trunc, _as_trunc(order))
        keep = bisect.bisect_left(self._keys, _cut(trunc, self._den))
        return object.__new__(LCNumber)._set(trunc, self._den, self._keys[:keep],
                                             self._coeffs[:keep])

    def inverse(self) -> "LCNumber":
        """Multiplicative inverse: (1 + u)^-1 by the recurrence of _binomial.

        The result's truncation order is T_eff - 2q where q is the leading
        exponent and T_eff is the input's own order when finite, otherwise
        q plus the ambient default order.
        """
        if not self._coeffs:
            raise ZeroDivisionError("inverse of a series that is zero at its truncation order")
        return self._binomial(1 / self._coeffs[0], Fraction(-1))

    def sqrt(self) -> "LCNumber":
        """Square root of a strictly positive series.

        In rational mode the leading coefficient must be a square in Q;
        otherwise numeric mode is required.  Any leading exponent q gives
        eps^(q/2).  The tail is (1 + u)^(1/2) by the recurrence of _binomial.
        """
        if self.sign() <= 0:
            raise ValueError("sqrt needs a strictly positive series")
        c = self._coeffs[0]
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
        q, c = self.lead_exp, self._coeffs[0]
        lead = monomial(c_a, a * q)
        if len(self._keys) == 1:
            return lead.truncate(self.trunc + (a - 1) * q)
        t_rel = self.trunc - q if self.trunc != INF else _default_trunc
        tail = object.__new__(LCNumber)._set(self.trunc, self._den, self._keys[1:],
                                             self._coeffs[1:])
        u = (tail * monomial(1 / c, -q)).truncate(t_rel)
        den = math.lcm(u._den, t_rel.denominator)
        cut = _cut(t_rel, den)
        if cut > MAX_LATTICE_POINTS:
            raise LCGraphError(f"expanding to relative order {t_rel} on the "
                               f"exponent lattice 1/{den} needs {cut} "
                               f"coefficients, more than {MAX_LATTICE_POINTS}")
        u_terms = list(zip(u._keys_on(den), u._coeffs))
        n, d = a.numerator, a.denominator
        numeric = self.mode == NUMERIC
        w = [mpmath.mpf(1) if numeric else Fraction(1)] + [0] * (cut - 1)
        keys, coeffs = [0], [w[0]]
        for k in range(1, cut):
            acc = 0
            for j, u_j in u_terms:
                if j > k:
                    break
                if w[k - j]:
                    acc += ((n + d) * j - d * k) * u_j * w[k - j]
            w_k = acc / (d * k)
            if _kept(w_k, numeric):
                w[k] = w_k
                keys.append(k)
                coeffs.append(w_k)
        return lead * object.__new__(LCNumber)._set(t_rel, den, keys, coeffs)

    # -- order ------------------------------------------------------------

    def sign(self) -> int:
        """-1, 0 or 1 according to the field order; 0 means zero at truncation."""
        if not self._coeffs:
            return 0
        return 1 if self._coeffs[0] > 0 else -1

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
        # den is least on both sides, so equal exponents mean equal lattices
        return (isinstance(other, LCNumber)
                and self.trunc == other.trunc
                and self._den == other._den
                and self._keys == other._keys
                and self._coeffs == other._coeffs)

    # -- conversions and display ------------------------------------------

    def to_numeric(self) -> "LCNumber":
        """Copy with rational coefficients converted to numeric floats."""
        if self.mode != RATIONAL:
            return self
        keys, coeffs = [], []
        for k, c in zip(self._keys, self._coeffs):
            c = _frac_to_mpf(c)
            if _kept(c, True):
                keys.append(k)
                coeffs.append(c)
        return object.__new__(LCNumber)._set(self.trunc, self._den, keys, coeffs)

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
    if a.lead_exp != b.lead_exp:
        return False
    ca, cb = a.lead_coeff, b.lead_coeff
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

_DECIMAL = r"\d+\.\d*(?:[eE][-+]?\d+)?|\.\d+(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+"

_TOKEN_RE = re.compile(rf"""
      (?P<ws>\s+)
    | (?P<decimal>{_DECIMAL})
    | (?P<int>\d+)
    | (?P<eps>eps\b)
    | (?P<bigo>O\b)
    | (?P<sym>[-+*/^()])
""", re.VERBOSE)

# exactly the text of one int or decimal token
_LITERAL_RE = re.compile(rf"{_DECIMAL}|\d+")


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
    if not _LITERAL_RE.fullmatch(text):
        raise ValueError(f"malformed literal {text!r}")
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
