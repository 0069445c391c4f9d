"""Exact Cheeger constants and the spectral estimates attached to them.

The Cheeger constant of a connected weighted graph is

    h = min over proper subsets S  of  b(boundary S) / min(b(S), b(V \\ S)),

where b(S) is the total vertex weight of S and b(boundary S) sums the
weights of edges leaving S.  Over an ordered series field the minimum is
taken in the field order, so enumeration must be exhaustive: there is no
useful rounding that would let a heuristic cut stand in for the true one.

The enumeration runs in two passes.  The first ranks every cut by the
valuation of its ratio, in integer arithmetic: weights are positive, so
no sum cancels and each valuation is a minimum of leading exponents.  A
ratio of lower valuation is larger, so only the cuts of the top valuation
can give the minimum.  The second pass compares those with the best so
far by cross-multiplication, b * m_best against b_best * m, which orders
the ratios b/m because masses are positive, and divides once, for the
winning cut.

Subsets are visited in ascending mask order, not by Gray code: a
comparison of truncated series calls a difference at or past the
truncation order a tie, that relation is not transitive, and so the
visiting order can change which of several tied cuts wins.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .errors import GraphValidationError
from .graphs import OFGraph
from .reports import Report
from .series import (INF, LCNumber, NUMERIC, _cut, _lattice, default_truncation,
                     format_series, zero)
from .spectral import MAX_VERTICES, Spectrum


@dataclass(frozen=True)
class CheegerCut:
    """A minimizing cut: the subset, its constant, and the two ingredients.

    ``subset`` is the side of the cut with the smaller vertex-weight mass
    (ties go to the side with the lexicographically smaller index tuple),
    listed in graph vertex order.
    """

    subset: Tuple[str, ...]
    h: LCNumber
    boundary: LCNumber
    mass: LCNumber


def _ratio_order(boundary: LCNumber, mass: LCNumber):
    """Truncation order of boundary * mass.inverse(), without dividing.

    The inverse of c*eps^q*(1 + u) is known to mass.trunc - 2q, or for an
    exact mass to the ambient order minus q (exactly, for a single term).
    """
    q = mass.lead_exp
    if mass.trunc != INF:
        inverse = mass.trunc - 2 * q
    elif len(mass.terms) > 1:
        inverse = default_truncation() - q
    else:
        inverse = INF
    return min(boundary.trunc - q, inverse + boundary.lead_exp)


def _cross_sign(b, m, tau, best_b, best_m, best_tau) -> int:
    """(b * m.inverse() - best_b * best_m.inverse()).sign(), division-free.

    tau and best_tau are the truncation orders of the two ratios.  Their
    difference is D / (m * best_m) with D = b * best_m - best_b * m, so it
    has D's sign, and it is zero at its order min(tau, best_tau) exactly
    when D is zero below that order plus val m + val best_m.  Cutting each
    factor so the products stop there loses no known term of D below it:
    when the ratios' valuations differ, D's lowest term decides, and when
    they agree no factor is cut below its own truncation order.
    """
    order = min(tau, best_tau) + m.lead_exp + best_m.lead_exp
    d = (b.truncate(order - best_m.lead_exp) * best_m.truncate(order - b.lead_exp)
         - best_b.truncate(order - m.lead_exp) * m.truncate(order - best_b.lead_exp))
    return d.sign()


def _mass(masses, weights, mask) -> LCNumber:
    # b(S) from a prefix table filled on demand, masses[mask] =
    # masses[mask ^ top] + w[top], with masses = {0: zero()}
    if mask not in masses:
        top = mask.bit_length() - 1
        masses[mask] = _mass(masses, weights, mask ^ (1 << top)) + weights[top]
    return masses[mask]


def _top_valuation_cuts(g: OFGraph, weights, total, edges):
    """Pass 1: the masks whose ratio reaches the largest valuation, ascending.

    Weights are positive, so no sum cancels and every valuation is the
    least leading exponent of its summands: val b(S) is the minimum over
    the members, built as a prefix-min table, and val b(dS) is that of the
    first crossing edge in valuation order.  The ratio of a cut has
    valuation val b(dS) - max(val b(S), val b(V\\S)).  Exponents are put
    on one integer lattice first, so the pass compares ints only.

    Before ranking, it raises for the first degenerate cut, one where a
    side has no known term, so the search never meets a zero mass.  b(S)
    always has one: a sum of positive series leads below its own order.
    b(V\\S) = total - b(S) is known only below total.trunc, so the cut is
    degenerate exactly when V\\S misses ``low``, the vertices with
    val b(x) below total.trunc.  The first such mask is ``low`` itself,
    and there is none when ``low`` holds the last vertex.
    """
    n = g.n
    den, keys = _lattice([w.lead_exp for w in weights] + [w.lead_exp for _, _, w in edges])
    vw = keys[:n]
    cut = _cut(total.trunc, den)
    low = sum(1 << i for i in range(n) if vw[i] < cut)
    if not low >> (n - 1):
        names = ", ".join(g.vertices[i] for i in range(n) if low >> i & 1)
        mass = total - _mass({0: zero()}, weights, low)
        raise GraphValidationError(
            f"cut {{{names}}} has mass {format_series(mass)}: the weights "
            "are not known far enough to compare cuts")
    by_valuation = sorted(zip(keys[n:], (bx | by for bx, by, _ in edges)),
                          key=lambda e: e[0])
    full = (1 << (n - 1)) - 1
    vin = [INF] * (full + 1)
    for mask in range(1, full + 1):
        top = mask.bit_length() - 1
        vin[mask] = min(vin[mask ^ (1 << top)], vw[top])

    ranks = []
    for mask in range(1, full + 1):
        # the complement always holds the last vertex
        vout = min(vin[full ^ mask], vw[n - 1])
        for vb, ends in by_valuation:
            # connected graphs always have a crossing edge for a proper subset
            if mask & ends and mask & ends != ends:
                break
        ranks.append(vb - max(vin[mask], vout))
    best = max(ranks)
    return [mask for mask, r in enumerate(ranks, 1) if r == best]


def cheeger_constant(g: OFGraph) -> CheegerCut:
    """Exhaustive minimum of b(dS)/min(b(S), b(V\\S)) over proper subsets.

    Only subsets avoiding the last vertex are enumerated; the complement
    symmetry S <-> V\\S covers the rest.  Ties between cuts with equal h
    are broken toward the lexicographically smallest representative.

    Only the cuts of the top valuation V* (``_top_valuation_cuts``) are
    compared, and that changes nothing.  A pruned ratio's valuation lies
    below V* and below its own truncation order, so its difference from a
    top ratio leads there, under both ratios' orders: the comparison is
    decisive, never a tie, and the top cut wins it.  Among the top cuts
    the best-cut updates, with their non-transitive ties, are those of the
    full enumeration.
    """
    if not g.is_connected():
        raise GraphValidationError("Cheeger constant needs a connected graph")
    n = g.n
    if n < 2:
        raise GraphValidationError("Cheeger constant needs at least 2 vertices")
    if n > MAX_VERTICES:
        raise GraphValidationError(
            f"graph has {n} vertices; cut enumeration is capped at {MAX_VERTICES}")

    weights = [g.vertex_weight(v) for v in g.vertices]
    total = g.total_weight()
    edges = [(1 << g.index(x), 1 << g.index(y), w) for x, y, w in g.edges()]

    masses = {0: zero()}
    best = None
    for mask in _top_valuation_cuts(g, weights, total, edges):
        mass_in = _mass(masses, weights, mask)
        mass_out = total - mass_in
        boundary = None
        for bx, by, w in edges:
            if bool(mask & bx) != bool(mask & by):
                boundary = w if boundary is None else boundary + w

        side = (mass_in - mass_out).sign()
        mass = mass_out if side > 0 else mass_in
        tau = _ratio_order(boundary, mass)
        diff = -1 if best is None else _cross_sign(boundary, mass, tau, *best[:3])
        if diff > 0:
            continue
        inside = tuple(i for i in range(n) if mask >> i & 1)
        outside = tuple(i for i in range(n) if not mask >> i & 1)
        indices = inside if side < 0 else outside if side > 0 else min(inside, outside)
        if diff < 0 or indices < best[3]:
            best = (boundary, mass, tau, indices)

    boundary, mass, _, indices = best
    return CheegerCut(subset=tuple(g.vertices[i] for i in indices),
                      h=boundary * mass.inverse(), boundary=boundary, mass=mass)


def cheeger_inequality_check(g: OFGraph, spec: Spectrum, cut: CheegerCut) -> Report:
    """Both Cheeger-type estimates for lambda_1, plus the h <= 1 sanity bound.

    The strong form lambda_1 >= 1 - sqrt(1 - h^2) is checked square-free:
    with alpha_1 = 1 - lambda_1 it reads alpha_1 <= sqrt(1 - h^2), which is
    vacuous for alpha_1 <= 0 and otherwise equivalent to alpha_1^2 <= 1 - h^2
    since both sides are then non-negative.  This keeps rational inputs in
    exact arithmetic instead of forcing a numeric square root.
    """
    rep = Report(f"cheeger estimates on {g.n} vertices")
    h = cut.h
    lam1 = spec.lambdas[1]
    a1 = spec.alphas[1]

    rep.add("h-at-most-one", (h - 1).sign() <= 0,
            f"h = {format_series(h, digits=12)}")

    h2 = h * h
    one_minus_h2 = -h2 + 1
    if spec.mode == NUMERIC:
        # h is rational; the comparisons would convert on their own, and
        # this decides what the report prints, both sides of a line in one
        # mode (fig1's golden shows "1-h^2 = 4.0*eps ..." and
        # "h^2 = 1.0 - ..." next to a numeric alpha_1)
        one_minus_h2, h2 = one_minus_h2.to_numeric(), h2.to_numeric()
    if a1.sign() <= 0:
        strong = True
        detail = "alpha_1 <= 0, bound vacuous"
    else:
        strong = (one_minus_h2 - a1 * a1).sign() >= 0
        detail = (f"alpha_1^2 = {format_series(a1 * a1, digits=12)} vs "
                  f"1-h^2 = {format_series(one_minus_h2, digits=12)}")
    rep.add("strong-form", strong, detail)

    lhs = lam1 * 2
    rep.add("weak-form", (lhs - h2).sign() >= 0,
            f"2*lambda_1 = {format_series(lhs, digits=12)} vs "
            f"h^2 = {format_series(h2, digits=12)}")

    if g.is_complete():
        rep.add("alpha1-bound-noncomplete", None, "complete graph, not applicable")
    else:
        ok = a1.sign() >= 0 and (a1.sign() <= 0 or (one_minus_h2 - a1 * a1).sign() >= 0)
        rep.add("alpha1-bound-noncomplete", ok,
                f"0 <= alpha_1 and alpha_1^2 <= 1-h^2 with "
                f"alpha_1 = {format_series(a1, digits=12)}")
    return rep
