"""Eigenvalues and eigenfunctions of walk operators, as series in eps.

The characteristic polynomial of the walk matrix P comes from the
Faddeev-LeVerrier recursion (division-free but for exact integer scalars).
Its roots are lifted from the eps = 0 reduction: for each real root r of
the reduced polynomial, the shifted polynomial q(mu) = p(r + mu) is solved
for its valuation-positive branches with the Newton polygon.  A branch
whose leading coefficient is a simple root of the segment equation is
refined by Newton iteration in the series field (quadratic once the usual
dominance condition val q(mu) > 2 val q'(mu) holds, reached by stepwise
polygon extensions); multiple roots recurse on a rescaled polynomial.

Eigenvalues of the Laplacian L = I - P are reported as lambda = 1 - alpha
sorted increasingly; eigenfunctions come from exact Gaussian elimination
on P - alpha*I with pivots of minimal leading exponent, orthogonalised
inside each eigenspace and scaled so the first nonzero coordinate is 1.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import mpmath

from .errors import GraphValidationError, LiftError, NumericModeRequired
from .graphs import OFGraph, VertexFunction
from .operators import inner, probability_matrix
from .realroots import real_roots
from .reports import Report
from .series import (INF, NUMERIC, RATIONAL, LCNumber, _frac_to_mpf,
                     default_truncation, format_series, monomial, truncation,
                     zero)

MAX_VERTICES = 12
# root-lifting budgets: cluster nesting, polygon extensions, Newton steps
MAX_CLUSTER_DEPTH = 8
MAX_EXTENSIONS = 400
MAX_NEWTON_STEPS = 120


def _mode_of(rows) -> Optional[str]:
    """The coefficient mode of the first entry that has one."""
    return next((e.mode for row in rows for e in row if e.mode is not None), None)


def _one_like(mode: Optional[str]) -> LCNumber:
    if mode == NUMERIC:
        return monomial(mpmath.mpf(1))
    return monomial(Fraction(1))


def _shift_exponents(a: LCNumber, s: Fraction) -> LCNumber:
    """Multiply by eps^s without touching coefficients (exact in any mode)."""
    if s == 0:
        return a
    return LCNumber(tuple((q + s, c) for q, c in a.terms), trunc=a.trunc + s)


class LCPolynomial:
    """Polynomial with series coefficients, ascending by degree."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[LCNumber]):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a polynomial needs at least one coefficient")
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("LCPolynomial is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def mode(self) -> Optional[str]:
        return _mode_of([self.coeffs])

    def evaluate(self, x: LCNumber) -> LCNumber:
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def derivative(self) -> "LCPolynomial":
        if self.degree == 0:
            return LCPolynomial((zero(),))
        return LCPolynomial(tuple(c * k for k, c in enumerate(self.coeffs))[1:])

    def shift(self, r: LCNumber) -> "LCPolynomial":
        """Taylor shift: the polynomial mu -> p(r + mu)."""
        cs = list(self.coeffs)
        n = len(cs)
        for k in range(n - 1):
            for i in range(n - 2, k - 1, -1):
                cs[i] = cs[i] + r * cs[i + 1]
        return LCPolynomial(cs)

    def to_numeric(self) -> "LCPolynomial":
        return LCPolynomial(tuple(c.to_numeric() for c in self.coeffs))

    def reduced_coeffs(self) -> list:
        """Coefficients of the eps = 0 reduction (exponent-zero parts)."""
        out = []
        for c in self.coeffs:
            if not c.is_zero and c.lead_exp < 0:
                raise LiftError(
                    "polynomial has a coefficient with negative leading exponent; "
                    "the eps = 0 reduction does not exist")
            out.append(c.coeff(0))
        return out

    def __repr__(self) -> str:
        body = "; ".join(format_series(c) for c in self.coeffs)
        return f"LCPolynomial([{body}])"


# -- characteristic polynomial ----------------------------------------------

def _mat_mul(a, b, n):
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = zero()
            for k in range(n):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(row)
    return out


def char_poly(rows: Sequence[Sequence[LCNumber]]) -> LCPolynomial:
    """det(x*I - M) by the Faddeev-LeVerrier recursion, ascending coeffs."""
    n = len(rows)
    # the leading coefficient takes the matrix's mode, as the others do
    one = _one_like(_mode_of(rows))
    a = [list(row) for row in rows]
    work = [row[:] for row in a]
    cs = []  # c_1 .. c_n with p(x) = x^n + c_1 x^(n-1) + ... + c_n
    for k in range(1, n + 1):
        if k > 1:
            work = _mat_mul(a, work, n)
        tr = zero()
        for i in range(n):
            tr = tr + work[i][i]
        ck = tr * Fraction(-1, k)
        cs.append(ck)
        if k < n:
            for i in range(n):
                work[i][i] = work[i][i] + ck
    coeffs = list(reversed(cs)) + [one]
    return LCPolynomial(coeffs)


# -- root lifting -------------------------------------------------------------

def _lower_hull(points: List[Tuple[int, Fraction]]) -> List[Tuple[int, Fraction]]:
    """Lower convex hull of (index, valuation) points, left to right."""
    hull: List[Tuple[int, Fraction]] = []
    for pt in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop the middle point when it lies on or above the new chord
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    return hull


def _newton_refine(q: LCPolynomial, dq: LCPolynomial, mu: LCNumber) -> LCNumber:
    """Converge a simple branch: polygon extensions until the dominance
    condition holds, then Newton iteration with strictly increasing
    residual valuation."""
    for _ in range(MAX_EXTENSIONS):
        r = q.evaluate(mu)
        if r.is_zero:
            return mu
        d = dq.evaluate(mu)
        if d.is_zero:
            raise LiftError("derivative vanished at the working truncation; "
                            "increase the truncation order")
        if r.lead_exp > 2 * d.lead_exp:
            break
        qm = q.shift(mu)
        c0, c1 = qm.coeffs[0], qm.coeffs[1]
        if c1.is_zero:
            raise LiftError("cannot extend the branch at the working truncation")
        v0, v1 = c0.lead_exp, c1.lead_exp
        step = v0 - v1
        if step <= 0:
            raise LiftError("branch extension did not make progress")
        for i in range(2, len(qm.coeffs)):
            ci = qm.coeffs[i]
            if not ci.is_zero and v0 - ci.lead_exp > step * i:
                raise LiftError("simple branch unexpectedly split; "
                                "increase the truncation order")
        coeff = -(c0.lead_coeff / c1.lead_coeff)
        mu = mu + monomial(coeff, step)
    else:
        raise LiftError("branch extension budget exhausted")
    # r and d hold q(mu) and q'(mu) from the last extension check, and each
    # step carries q at the new point forward: q is evaluated once per point
    for k in range(MAX_NEWTON_STEPS):
        if r.is_zero:
            return mu
        if k:
            d = dq.evaluate(mu)
        nxt = mu - r * d.inverse()
        r2 = q.evaluate(nxt)
        if not r2.is_zero and r2.lead_exp <= r.lead_exp:
            # numeric canonicalisation noise can stall the contraction just
            # below the working order.  The step error is O(r/d), so when
            # that bound already clears half the working order, return the
            # root truncated to its certified accuracy.
            cut = r.lead_exp - d.lead_exp
            if cut >= r.trunc / 2:
                return mu.truncate(cut)
            raise LiftError("Newton iteration stopped contracting; "
                            "increase the truncation order")
        mu, r = nxt, r2
    raise LiftError("Newton iteration budget exhausted")


def _rescale_shift(q: LCPolynomial, s: Fraction, c) -> LCPolynomial:
    """The polynomial nu -> q(eps^s * (c + nu)), normalised by its content."""
    scaled = [_shift_exponents(ci, s * i) for i, ci in enumerate(q.coeffs)]
    vmin = min(ci.lead_exp for ci in scaled if not ci.is_zero)
    scaled = [_shift_exponents(ci, -vmin) for ci in scaled]
    return LCPolynomial(scaled).shift(monomial(c))


def _val_positive_roots(q: LCPolynomial, depth: int = 0) -> List[LCNumber]:
    """All roots of q with strictly positive valuation, with multiplicity."""
    if depth > MAX_CLUSTER_DEPTH:
        raise LiftError(f"root cluster nesting exceeded depth {MAX_CLUSTER_DEPTH}")
    coeffs = q.coeffs
    nz = [i for i, ci in enumerate(coeffs) if not ci.is_zero]
    if not nz:
        raise LiftError("polynomial vanished at the working truncation; "
                        "increase the truncation order")
    m0 = nz[0]
    out: List[LCNumber] = []
    if m0 > 0:
        # q = mu^m0 * (unit + ...): root 0 with multiplicity m0; the zero is
        # exact only if the low coefficients are exactly zero
        t0 = min(coeffs[i].trunc for i in range(m0))
        if t0 == INF:
            root = zero()
        else:
            root = zero(trunc=(Fraction(t0) - Fraction(coeffs[m0].lead_exp)) / m0)
        out.extend([root] * m0)
    pts = [(i, Fraction(coeffs[i].lead_exp)) for i in nz]
    hull = _lower_hull(pts)
    dq = q.derivative()
    for (i1, v1), (i2, v2) in zip(hull, hull[1:]):
        if v2 >= v1:
            break  # slopes increase along the hull; no more positive valuations
        s = (v1 - v2) / (i2 - i1)
        phi = []
        for i in range(i1, i2 + 1):
            ci = coeffs[i]
            expected = v1 - s * (i - i1)
            if not ci.is_zero and Fraction(ci.lead_exp) == expected:
                phi.append(ci.lead_coeff)
            else:
                phi.append(mpmath.mpf(0) if q.mode == NUMERIC else Fraction(0))
        segment_roots = real_roots(phi)
        if sum(r.multiplicity for r in segment_roots) != i2 - i1:
            raise LiftError("a branch equation has non-real roots; "
                            "the spectrum does not lift inside the real series field")
        for root in segment_roots:
            if q.mode != NUMERIC and not root.is_exact:
                raise NumericModeRequired(
                    "a branch coefficient is irrational; numeric mode required")
            c = root.value
            lead = monomial(c, s)
            if root.multiplicity == 1:
                out.append(_newton_refine(q, dq, lead))
            else:
                sub = _val_positive_roots(_rescale_shift(q, s, c), depth + 1)
                if len(sub) != root.multiplicity:
                    raise LiftError("cluster recursion lost branches; "
                                    "increase the truncation order")
                out.extend(lead + _shift_exponents(nu, s) for nu in sub)
    return out


def lift_roots(p: LCPolynomial) -> List[LCNumber]:
    """All roots of p as series, with multiplicity, via the eps = 0 reduction.

    The lift is exact while every reduced root and branch coefficient
    stays rational; the first irrational one redoes the whole lift with
    float coefficients.
    """
    reduced = p.reduced_coeffs()
    base = real_roots(reduced)
    if sum(r.multiplicity for r in base) != p.degree:
        raise LiftError("the eps = 0 reduction has non-real roots; "
                        "the spectrum does not lift inside the real series field")
    if all(r.is_exact for r in base):
        try:
            return _lift_all(p, [(Fraction(r.value), r.multiplicity) for r in base])
        except NumericModeRequired:
            pass
    pairs = [(_frac_to_mpf(r.value) if r.is_exact else r.value, r.multiplicity)
             for r in base]
    return _lift_all(p.to_numeric(), pairs)


def _lift_all(p: LCPolynomial, base: List[Tuple[object, int]]) -> List[LCNumber]:
    out = []
    for value, mult in base:
        shifted = p.shift(monomial(value))
        branches = _val_positive_roots(shifted)
        if len(branches) != mult:
            raise LiftError(
                f"found {len(branches)} branches at reduced root {value}, "
                f"expected {mult}; increase the truncation order")
        root0 = monomial(value)
        out.extend(root0 + b for b in branches)
    if len(out) != p.degree:
        raise LiftError("lifted root count does not match the degree")
    return out


# -- eigenfunctions ------------------------------------------------------------

def _pivot_key(e: LCNumber):
    return (e.lead_exp, -abs(e.lead_coeff))


def nullspace_basis(rows: List[List[LCNumber]], expected: int,
                    floor=INF) -> List[List[LCNumber]]:
    """Basis of the kernel of a square matrix by exact Gaussian elimination.

    The basis vectors take the rows' coefficient mode: their free
    coordinate is a rational 1, or a float 1 when any entry is numeric.

    Pivots take the entry of minimal leading exponent (largest in the field
    order), ties broken by largest leading coefficient.  For pivot selection
    only, entries supported entirely at or above ``floor`` count as zero: an
    inexact eigenvalue leaves residue of that size in the would-be kernel
    column, and dividing by infinitesimal pivots pushes it below the
    truncation markers.  Row updates still eliminate every nonzero factor;
    a deep factor can be genuine content, and skipping it leaks real terms
    into later columns.  Raises when the kernel dimension differs from
    ``expected``.
    """
    n = len(rows)
    one = _one_like(_mode_of(rows))
    rows = [list(r) for r in rows]
    pivots = {}
    rank = 0
    for col in range(n):
        best = None
        best_key = None
        for r in range(rank, n):
            e = rows[r][col]
            if e.is_zero or e.lead_exp >= floor:
                continue
            key = _pivot_key(e)
            if best is None or key < best_key:
                best, best_key = r, key
        if best is None:
            continue
        rows[rank], rows[best] = rows[best], rows[rank]
        inv = rows[rank][col].inverse()
        rows[rank] = [e * inv for e in rows[rank]]
        for r in range(n):
            if r == rank:
                continue
            factor = rows[r][col]
            if not factor.is_zero:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        pivots[col] = rank
        rank += 1
    free = [c for c in range(n) if c not in pivots]
    if len(free) != expected:
        raise LiftError(
            f"kernel dimension {len(free)} does not match multiplicity "
            f"{expected}; increase the truncation order")
    basis = []
    for fcol in free:
        vec = [zero() for _ in range(n)]
        vec[fcol] = one
        for c, r in pivots.items():
            vec[c] = -rows[r][fcol]
        basis.append(vec)
    return basis


def _normalize_first(vec: List[LCNumber]) -> List[LCNumber]:
    for v in vec:
        if not v.is_zero:
            inv = v.inverse()
            return [x * inv for x in vec]
    raise LiftError("eigenvector vanished at the working truncation")


# -- the spectrum -------------------------------------------------------------

@dataclass(eq=False)
class EigenPair:
    lam: LCNumber
    alpha: LCNumber
    function: VertexFunction


@dataclass(eq=False)
class Spectrum:
    graph: OFGraph
    pairs: List[EigenPair]
    mode: str
    trunc_order: Fraction
    work_order: Fraction
    char: LCPolynomial
    residual_order: object  # Fraction or +inf: certified leading exponent of residuals

    @property
    def lambdas(self) -> List[LCNumber]:
        return [p.lam for p in self.pairs]

    @property
    def alphas(self) -> List[LCNumber]:
        return [p.alpha for p in self.pairs]

    @property
    def n(self) -> int:
        return len(self.pairs)


def _gram_schmidt(g: OFGraph, vecs: List[List[LCNumber]]) -> List[List[LCNumber]]:
    """Orthogonalise inside an eigenspace under the weighted inner product."""
    done: List[List[LCNumber]] = []
    for vec in vecs:
        cur = list(vec)
        for prev in done:
            f_cur = VertexFunction(g.vertices, cur)
            f_prev = VertexFunction(g.vertices, prev)
            coef = inner(g, f_cur, f_prev) * inner(g, f_prev, f_prev).inverse()
            cur = [a - coef * b for a, b in zip(cur, prev)]
        done.append(cur)
    return done


def _decompose(g: OFGraph, t_req: Fraction):
    # runs at the ambient truncation order; raises LiftError when that
    # order leaves too little resolution below the deepest eigenvalue
    p_mat = probability_matrix(g)
    p = char_poly(p_mat)
    alphas = lift_roots(p)
    out_mode = NUMERIC if any(a.mode == NUMERIC for a in alphas) else RATIONAL
    if out_mode == NUMERIC:
        # nullspace_basis's pivot keys compare raw coefficients, which
        # must not mix Fraction and mpf; and Spectrum.char takes the
        # spectrum's mode
        p_mat = [[e.to_numeric() for e in row] for row in p_mat]
        p = p.to_numeric()
    groups: List[List[LCNumber]] = []
    for a in alphas:
        for grp in groups:
            if (a - grp[0]).is_zero:
                grp.append(a)
                break
        else:
            groups.append([a])
    # an exact-zero root carries no mode of its own; unit gives its lam
    # the output mode, so it prints like every other pair's
    unit = _one_like(out_mode)
    pairs: List[EigenPair] = []
    for grp in groups:
        alpha = grp[0]
        mult = len(grp)
        rows = []
        for i, row in enumerate(p_mat):
            rows.append([e - alpha if i == j else e for j, e in enumerate(row)])
        basis = nullspace_basis(rows, mult, floor=t_req)
        if mult > 1:
            basis = _gram_schmidt(g, basis)
        for vec in basis:
            vec = _normalize_first(vec)
            lam = unit - alpha
            pairs.append(EigenPair(lam, alpha, VertexFunction(g.vertices, vec)))
    pairs.sort(key=functools.cmp_to_key(
        lambda a, b: (a.lam - b.lam).sign()))
    # the residual multiplies by the rows whose kernels gave the vectors:
    # P applied through the graph rounds floats differently, and that
    # noise can move the certified order of a numeric spectrum
    residual = INF
    for pair in pairs:
        vec = pair.function.values
        for row, vx in zip(p_mat, vec):
            diff = sum((e * v for e, v in zip(row, vec)), zero()) - pair.alpha * vx
            if not diff.is_zero:
                residual = min(residual, diff.lead_exp)
            else:
                residual = min(residual, diff.trunc)
    return pairs, out_mode, p, residual


def compute_spectrum(g: OFGraph, trunc_order=None, mode: str = "auto") -> Spectrum:
    """Full eigendecomposition of the walk operator of g.

    Works at twice the requested truncation order internally and doubles
    that margin (to four, then eight times the request) when an eigenvalue
    sits so deep that root lifting runs out of resolution.  The spectrum
    stays rational when every eigenvalue series has rational coefficients
    and otherwise redoes the lift numerically, depending on the graph and
    the order alone, not on the numeric precision.  mode "numeric" returns
    the same spectrum with float coefficients in its pairs and ``char``.
    """
    if mode not in ("auto", NUMERIC):
        raise ValueError(f"unknown mode {mode!r}; expected 'auto' or 'numeric'")
    if not g.is_connected():
        raise GraphValidationError("spectrum requires a connected graph")
    if not (2 <= g.n <= MAX_VERTICES):
        raise GraphValidationError(
            f"vertex count {g.n} outside the supported range [2, {MAX_VERTICES}]")
    t_req = Fraction(trunc_order if trunc_order is not None else default_truncation())
    failure = None
    for factor in (2, 4, 8):
        t_work = factor * t_req
        try:
            with truncation(t_work):
                pairs, out_mode, p, residual = _decompose(g, t_req)
            break
        except LiftError as exc:
            failure = exc
    else:
        raise failure
    if mode == NUMERIC:
        pairs = [EigenPair(e.lam.to_numeric(), e.alpha.to_numeric(),
                           e.function.to_numeric()) for e in pairs]
        out_mode, p = NUMERIC, p.to_numeric()
    return Spectrum(graph=g, pairs=pairs, mode=out_mode, trunc_order=t_req,
                    work_order=t_work, char=p, residual_order=residual)


# -- theorem checks ------------------------------------------------------------

def verify_spectral_theorems(g: OFGraph, spec: Spectrum) -> Report:
    """Check the order-theoretic eigenvalue statements on a computed spectrum."""
    rep = Report(title="spectral theorems")
    lams = spec.lambdas
    alphas = spec.alphas
    n = g.n
    lam0 = lams[0]
    rep.add("lambda0-is-zero", lam0.is_zero,
            f"lambda_0 = {format_series(lam0, digits=12)}")
    rep.add("lambda0-simple", not lams[1].is_zero and lams[1].sign() > 0,
            f"lambda_1 = {format_series(lams[1], digits=12)}")
    const0 = all((v - spec.pairs[0].function.values[0]).is_zero
                 for v in spec.pairs[0].function.values)
    rep.add("ground-state-constant", const0)
    ortho = inner(g, spec.pairs[1].function, spec.pairs[0].function)
    # P is self-adjoint and P1 = 1, so the residual r = P v1 - alpha_1 v1
    # gives lambda_1 <v1, 1> = <r, 1>: <v1, 1> is certified to vanish only
    # below residual_order + min val b(x) - val lambda_1
    ortho_order = INF
    if not lams[1].is_zero:
        ortho_order = (spec.residual_order - lams[1].lead_exp
                       + min(g.vertex_weight(x).lead_exp for x in g.vertices))
    rep.add("first-excited-orthogonal", ortho.truncate(ortho_order).is_zero,
            f"<v1, 1> = {format_series(ortho, digits=12)}")
    rep.add("range", all(l.sign() >= 0 and (2 - l).sign() >= 0 for l in lams),
            "0 <= lambda <= 2 for every eigenvalue")
    rep.add("alpha0-is-one", (alphas[0] - 1).is_zero,
            f"alpha_0 = {format_series(alphas[0], digits=12)}")
    rep.add("alpha-chain",
            all((alphas[i] - alphas[i + 1]).sign() >= 0 for i in range(n - 1)),
            "alpha_0 >= alpha_1 >= ... >= alpha_(n-1)")
    rep.add("alpha-last-lower", (alphas[-1] + 1).sign() >= 0,
            "alpha_(n-1) >= -1")
    rep.add("lambda1-upper", (Fraction(n, n - 1) - lams[1]).sign() >= 0,
            f"lambda_1 <= {Fraction(n, n - 1)}")
    rep.add("lambdan-lower", (lams[-1] - Fraction(n, n - 1)).sign() >= 0,
            f"lambda_(n-1) >= {Fraction(n, n - 1)}")
    rep.add("alpha-last-negative", alphas[-1].sign() < 0,
            f"alpha_(n-1) = {format_series(alphas[-1], digits=12)}")
    gap = abs(alphas[-1]) - Fraction(1, n - 1)
    rep.add("alpha-last-size", gap.sign() >= 0,
            f"|alpha_(n-1)| >= {Fraction(1, n - 1)}")
    bip = g.bipartition()
    # the multiset {lambda} matches {2 - lambda} iff lambda_i + lambda_(n-1-i) = 2
    # after sorting, since both sides are sorted mirror images
    mirrored = all((lams[i] + lams[n - 1 - i] - 2).is_zero for i in range(n))
    if bip is None:
        top = (lams[-1] - 2).sign()
        rep.add("nonbipartite-strict", top < 0,
                "lambda_(n-1) < 2 strictly" if top else
                f"lambda_(n-1) = {format_series(lams[-1], digits=12)}; "
                "lambda_(n-1) < 2 is not decided at this order")
        rep.add("bipartite-symmetry", None, "graph is not bipartite")
        rep.add("nonbipartite-asymmetry", not mirrored,
                "spectrum must not be symmetric about 1")
    else:
        rep.add("bipartite-symmetry", mirrored,
                "lambda and 2 - lambda coincide as multisets")
        rep.add("bipartite-top", (lams[-1] - 2).is_zero,
                "lambda_(n-1) = 2")
        rep.add("nonbipartite-strict", None, "graph is bipartite")
        rep.add("nonbipartite-asymmetry", None, "graph is bipartite")
    # trace identity, exact in the operator's coefficient arithmetic:
    # det(lambda*I - L) = (-1)^n p(1 - lambda) for p = det(x*I - P), so its
    # lambda^(n-1) coefficient is -n minus the x^(n-1) coefficient of p
    coeff = -spec.char.coeffs[n - 1] - n
    rep.add("eigenvalue-sum-charpoly", (coeff + n).is_zero and coeff.is_exact,
            f"charpoly coefficient of lambda^{n - 1} equals -{n} exactly")
    total = sum(lams, zero())
    # compare to the certified order: beyond it the lift guarantees nothing
    excess = (total - n).truncate(spec.residual_order)
    rep.add("eigenvalue-sum-lifted", excess.is_zero,
            f"sum of lifted eigenvalues = {format_series(total, digits=12)}")
    floor = spec.residual_order
    goal = spec.trunc_order / 2
    rep.add("residual-order",
            floor == INF or Fraction(floor) >= goal,
            f"residual leading exponent {floor} >= {goal}")
    return rep
