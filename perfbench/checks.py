"""Checks of the library's outputs made apart from the library.

Nothing here calls lcgraph.  The checks take the benchmark's own record
of the edge weights (see inputs.py) and read only plain data off the
library's results: the (exponent, coefficient) terms and truncation order
of a series, vertex names and flags.

* ``Poly``: exact finite sums of c*eps^q in Fractions, the arithmetic of
  the Cheeger reference and of the walk's mass check.
* ``check_cut``: exact Cheeger enumeration comparing b1*m2 with b2*m1.
* ``check_spectrum``: eigenvalues of D^(-1/2) B D^(-1/2) at eps0 = 2^-64
  by ``mpmath.eigsy`` against the lifted eigenvalue series.
* ``check_walk``: the bipartite Cheeger bound, the side masses of every
  iterate, and the iterates against a power of P at eps0 = 2^-768.

A series known to O(eps^T) can differ from the true value at eps0 by its
omitted tail, about (rho*eps0)^T for coefficients growing like rho^k.  The
checks therefore allow (2^S * eps0)^T, S bits of growth per unit of
exponent, and take eps0 small enough that a wrong coefficient at any
lower order still shows.  Each check returns a list of error strings;
empty means the output passed.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

from inputs import vertex_order

# eigenvalues: eps0 = 2^-SPECTRUM_E, growth 2^SPECTRUM_S per order
SPECTRUM_E = 64
SPECTRUM_S = 20
SPECTRUM_PREC = 512
# numeric coefficients below 2^-(bits/2) are zeroed at 256 bits, so a
# numeric spectrum is good to about 2^-128 whatever its order
NUMERIC_FLOOR = Fraction(1, 2 ** 120)
# walk iterates: eps0 = 2^-WALK_E, growth 2^WALK_S per order
WALK_E = 768
WALK_S = 32


UNIT = 12   # Poly exponents are kept as integers in units of eps^(1/12)


class Poly:
    """A finite sum of c*eps^q with Fraction c and q; exact, no truncation.

    Exponents are stored as integer multiples of 1/UNIT, which every
    exponent of these workloads is.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=(), scaled=False):
        acc = {}
        for q, c in terms:
            k = q if scaled else _key(q)
            acc[k] = acc.get(k, 0) + c
        self.terms = {k: c for k, c in acc.items() if c != 0}

    def __add__(self, other):
        return Poly([*self.terms.items(), *other.terms.items()], scaled=True)

    def __sub__(self, other):
        return Poly([*self.terms.items(), *((k, -c) for k, c in other.terms.items())],
                    scaled=True)

    def __mul__(self, other):
        return Poly(((ka + kb, ca * cb) for ka, ca in self.terms.items()
                     for kb, cb in other.terms.items()), scaled=True)

    def lead(self):
        return Fraction(min(self.terms), UNIT) if self.terms else math.inf

    def sign(self) -> int:
        if not self.terms:
            return 0
        return 1 if self.terms[min(self.terms)] > 0 else -1

    def below(self, order) -> "Poly":
        return Poly(((k, c) for k, c in self.terms.items() if k < order * UNIT),
                    scaled=True)

    def items(self):
        return [(Fraction(k, UNIT), c) for k, c in self.terms.items()]

    def at(self, e: int) -> Fraction:
        """Exact value at eps = 2^-e; e must be a multiple of UNIT."""
        total = Fraction(0)
        for k, c in self.terms.items():
            shift = e // UNIT * k
            total += c / (1 << shift) if shift >= 0 else c * (1 << -shift)
        return total


def _key(q) -> int:
    k = Fraction(q) * UNIT
    if k.denominator != 1:
        raise ValueError(f"exponent {q} is not a multiple of 1/{UNIT}")
    return int(k)


def series_poly(x) -> Poly:
    """The terms of a library series as a Poly."""
    return Poly(x.terms)


def _sum(polys) -> Poly:
    return Poly((t for p in polys for t in p.terms.items()), scaled=True)


def _graph(edges):
    """Vertex names, (i, j, weight) edges and vertex masses b(x)."""
    names = vertex_order(edges)
    index = {v: i for i, v in enumerate(names)}
    pairs = [(index[u], index[v], Poly(w)) for u, v, w in edges]
    mass = [_sum(w for i, j, w in pairs if x in (i, j)) for x in range(len(names))]
    return names, pairs, mass


def _cut_parts(pairs, mass, members):
    boundary = _sum(w for i, j, w in pairs if members[i] != members[j])
    inside = _sum(m for m, s in zip(mass, members) if s)
    outside = _sum(m for m, s in zip(mass, members) if not s)
    return boundary, inside, outside


def all_cuts(edges):
    """Every cut once, as (boundary, inside mass, outside mass)."""
    names, pairs, mass = _graph(edges)
    n = len(names)
    return [_cut_parts(pairs, mass, [bool(bits >> i & 1) for i in range(n)])
            for bits in range(1, 1 << (n - 1))]


# -- Cheeger --------------------------------------------------------------------

def cheeger_reference(cuts):
    """(boundary, mass) of a cut minimising boundary/mass, by exact enumeration."""
    best = None
    for boundary, inside, outside in cuts:
        m = inside if (inside - outside).sign() <= 0 else outside
        # b/m < b*/m*  <=>  b*m* < b* * m, masses being positive
        if best is None or (boundary * best[1] - best[0] * m).sign() < 0:
            best = (boundary, m)
    return best


def check_cut(edges, cut, cuts=None) -> list:
    """The cut's h, subset, boundary and mass against exact enumeration.

    h and the subset must agree with the exact minimum up to h's truncation
    order; the boundary and mass, being exact sums of weights, exactly.
    """
    names, pairs, mass = _graph(edges)
    b_ref, m_ref = cheeger_reference(cuts or all_cuts(edges))
    members = [v in cut.subset for v in names]
    if not 0 < sum(members) < len(names):
        return [f"subset {cut.subset} is not a proper cut"]
    b_cut, inside, outside = _cut_parts(pairs, mass, members)
    errors = []
    if (inside - outside).sign() > 0:
        errors.append("reported side has the larger mass")
    if series_poly(cut.boundary).terms != b_cut.terms or cut.boundary.trunc != math.inf:
        errors.append("boundary is not the subset's exact boundary weight")
    if series_poly(cut.mass).terms != inside.terms or cut.mass.trunc != math.inf:
        errors.append("mass is not the subset's exact mass")
    t = cut.h.trunc
    if (series_poly(cut.h) * m_ref - b_ref).below(t + m_ref.lead()).terms:
        errors.append(f"h differs from the exact minimum below eps^{t}")
    slack = (b_cut * m_ref - b_ref * inside).below(t + inside.lead() + m_ref.lead())
    if slack.terms:
        errors.append(f"subset {cut.subset} is not a minimal cut below eps^{t}")
    return errors


# -- spectrum -------------------------------------------------------------------

def _mpf(x) -> mpmath.mpf:
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


def _at(terms, e) -> mpmath.mpf:
    """Sum of c * (2^-e)^q over (q, c) terms, in mpmath."""
    out = []
    for q, c in terms:
        k = e * Fraction(q)
        if k.denominator == 1:
            out.append(mpmath.ldexp(_mpf(c), -int(k)))
        else:
            out.append(_mpf(c) * mpmath.power(2, -_mpf(k)))
    return mpmath.fsum(out)


def reference_eigenvalues(edges, e=SPECTRUM_E):
    """Eigenvalues 1 - mu of the walk at eps = 2^-e, mu from D^-1/2 B D^-1/2."""
    names, pairs, mass = _graph(edges)
    n = len(names)
    d = [_at(m.items(), e) for m in mass]
    sym = mpmath.matrix(n, n)
    for i, j, w in pairs:
        sym[i, j] = sym[j, i] = _at(w.items(), e) / mpmath.sqrt(d[i] * d[j])
    mu = mpmath.eigsy(sym, eigvals_only=True)
    return sorted(1 - mu[i] for i in range(n))


def spectrum_tolerance(spec):
    """(2^S * eps0)^r for r the certified order, floored for numeric spectra."""
    order = min([spec.residual_order] + [pair.lam.trunc for pair in spec.pairs])
    floor = mpmath.mpf(2) ** (32 - SPECTRUM_PREC)
    if spec.mode == "numeric":
        floor = _mpf(NUMERIC_FLOOR)
    if order == math.inf:
        return floor
    return max(floor, mpmath.power(2, (SPECTRUM_S - SPECTRUM_E) * _mpf(Fraction(order))))


def check_spectrum(edges, spec) -> list:
    """Lifted eigenvalues against mpmath.eigsy at eps0 = 2^-64.

    Also checks that lambda_0 is zero and that the eigenvalues sum to n,
    the trace of the Laplacian.
    """
    lams = [pair.lam for pair in spec.pairs]
    n = len(vertex_order(edges))
    if len(lams) != n:
        return [f"{len(lams)} eigenvalues for {n} vertices"]
    errors = []
    with mpmath.workprec(SPECTRUM_PREC):
        tol = spectrum_tolerance(spec)
        ref = reference_eigenvalues(edges)
        got = sorted(_at(lam.terms, SPECTRUM_E) for lam in lams)
        worst = max(abs(a - b) for a, b in zip(got, ref))
        if worst > tol:
            errors.append(f"eigenvalues differ from eigsy by {mpmath.nstr(worst, 5)}"
                          f" > {mpmath.nstr(tol, 5)} (residual order "
                          f"{spec.residual_order})")
        total = mpmath.fsum(got)
        if abs(total - n) > n * tol:
            errors.append(f"eigenvalues sum to {mpmath.nstr(total, 20)}, not {n}")
    if lams[0].terms:
        errors.append("lambda_0 is not zero")
    return errors


# -- walk -----------------------------------------------------------------------

def _sides(n, pairs):
    color = {0: 0}
    stack = [0]
    while stack:
        x = stack.pop()
        for i, j, _ in pairs:
            for a, b in ((i, j), (j, i)):
                if a == x and b not in color:
                    color[b] = 1 - color[x]
                    stack.append(b)
    return [[i for i in range(n) if color[i] == s] for s in (0, 1)]


def real_cheeger(cuts, e: int) -> Fraction:
    """The Cheeger constant of the real graph at eps = 2^-e, exactly."""
    return min(b.at(e) / min(m_in.at(e), m_out.at(e)) for b, m_in, m_out in cuts)


def check_walk(edges, f, report, m_max, cuts=None) -> list:
    """A bipartite walk report against real arithmetic at eps0 = 2^-768.

    * P^(2m) f at eps0 must match every iterate's series to within
      (2^S * eps0)^T, T the series' truncation order.
    * The squared deviation from the two-level equilibrium at eps0 must not
      exceed (1 - h^2)^(2m) <f,f>, h the real graph's Cheeger constant at
      eps0; the bipartite theorem covers every f.
    * P^2 keeps each side's b-weighted mass: sum b(x) f_m(x) over a side
      equals that of f, exactly below the iterates' truncation.
    """
    names, pairs, mass = _graph(edges)
    n = len(names)
    if len(report.steps) != m_max:
        return [f"{len(report.steps)} steps, expected {m_max}"]
    e = WALK_E
    top = max((v.trunc for s in report.steps for v in s.function.values
               if v.trunc != math.inf), default=0)
    errors = []
    with mpmath.workprec(int(e * (top + 2)) + 64):
        b = [[mpmath.mpf(0)] * n for _ in range(n)]
        for i, j, w in pairs:
            b[i][j] = b[j][i] = _mpf(w.at(e))
        bx = [_mpf(m.at(e)) for m in mass]
        sides = _sides(n, pairs)
        h = _mpf(real_cheeger(cuts or all_cuts(edges), e))
        norm_sq = sum(fx * fx * w for fx, w in zip(f, bx))
        eq = [None] * n
        for side in sides:
            level = 2 * sum(f[i] * bx[i] for i in side) / sum(bx)
            for i in side:
                eq[i] = level
        cur = [_mpf(x) for x in f]
        bound = norm_sq
        for step in report.steps:
            m = step.index
            for _ in range(2):
                cur = [mpmath.fsum(b[i][j] * cur[j] for j in range(n)) / bx[i]
                       for i in range(n)]
            if step.power != 2 * m:
                errors.append(f"step {m} has power {step.power}")
            for i, val in enumerate(step.function.values):
                diff = abs(_at(val.terms, e) - cur[i])
                if val.trunc == math.inf:
                    tol = mpmath.ldexp(1, -int(e * (top + 1)))
                else:
                    tol = mpmath.ldexp(1, int((WALK_S - e) * val.trunc))
                if diff > tol:
                    errors.append(f"iterate {2 * m} at vertex {names[i]} is off by "
                                  f"2^{float(mpmath.log(diff, 2)):.1f}")
                    break
            dev_sq = mpmath.fsum((cur[i] - eq[i]) ** 2 * bx[i] for i in range(n))
            bound = bound * (1 - h * h) ** 2
            if dev_sq > bound:
                errors.append(f"Cheeger bound fails at power {2 * m}")
            if errors:
                return errors
    for step in report.steps:
        for side in sides:
            want = _sum(mass[i] * Poly([(0, f[i])]) for i in side)
            got = _sum(mass[i] * series_poly(step.function.values[i]) for i in side)
            order = min(step.function.values[i].trunc + mass[i].lead() for i in side)
            if (got - want).below(order).terms:
                return [f"P^{step.power} changes a side's b-weighted mass"]
    return errors
