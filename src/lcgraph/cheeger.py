"""Exact Cheeger constants and the spectral estimates attached to them.

The Cheeger constant of a connected weighted graph is

    h = min over proper subsets S  of  b(boundary S) / min(b(S), b(V \\ S)),

where b(S) is the total vertex weight of S and b(boundary S) sums the
weights of edges leaving S.  Over an ordered series field the minimum is
taken in the field order, so enumeration must be exhaustive: there is no
useful rounding that would let a heuristic cut stand in for the true one.

The enumeration ranks cuts by the leading term of their ratio before any
series work.  Weights are positive, so no sum cancels and every leading
term is read off the summands' leading terms.  A first pass ranks every
cut by the ratio's valuation, in integer arithmetic; a ratio of lower
valuation is larger.  A second pass ranks the cuts of the top valuation by
the ratio's leading coefficient, and keeps those where it is least.  Only
the kept cuts are divided out, h = b(boundary S) * mass^-1, and compared.

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
from .series import INF, LCNumber, NUMERIC, _cut, _lattice, format_series, zero
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


def _leading_term_cuts(g: OFGraph, weights, total, edges):
    """The masks whose ratio has the least leading term, ascending.

    Weights are positive, so no sum cancels: the leading term of a sum is
    that of its summands at their least exponent, with their coefficients
    added.  Pass 1 ranks every mask by the valuation of the ratio,
    val b(dS) - max(val b(S), val b(V\\S)): val b(S) is the minimum over
    the members, built as a prefix-min table, and val b(dS) is that of the
    first crossing edge in valuation order.  Exponents are put on one
    integer lattice first, so the pass compares ints only.  Pass 2 takes
    the masks of the top valuation and ranks them by the leading
    coefficient of the ratio, c(dS) / c(mass), where the mass is the
    smaller side: the one of larger valuation, or of smaller leading
    coefficient when the valuations agree.

    Before ranking, it raises for the first degenerate cut, one where a
    side has no known term, so the search never meets a zero mass.  b(S)
    always has one: a sum of positive series leads below its own order.
    b(V\\S) = total - b(S) is known only below total.trunc, so the cut is
    degenerate exactly when V\\S misses ``low``, the vertices with
    val b(x) below total.trunc.  The first such mask is ``low`` itself,
    and there is none when ``low`` holds the last vertex.  Past that
    check every leading term above lies below its series' order.
    """
    n = g.n
    den, keys = _lattice([w.lead_exp for w in weights] + [w.lead_exp for _, _, w in edges])
    vw = keys[:n]
    cut = _cut(total.trunc, den)
    low = sum(1 << i for i in range(n) if vw[i] < cut)
    if not low >> (n - 1):
        names = ", ".join(g.vertices[i] for i in range(n) if low >> i & 1)
        mass = total - sum((weights[i] for i in range(n) if low >> i & 1), zero())
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
    top_rank = max(ranks)

    vertex_leads = [(k, w.lead_coeff) for k, w in zip(vw, weights)]
    edge_leads = [(k, bx | by, w.lead_coeff) for k, (bx, by, w) in zip(keys[n:], edges)]

    def lead(terms):
        # the leading (exponent key, coefficient) of a sum of positive series
        v = min(k for k, _ in terms)
        return v, sum(c for k, c in terms if k == v)

    coeffs = {}
    for mask, r in enumerate(ranks, 1):
        if r == top_rank:
            inside = lead([t for i, t in enumerate(vertex_leads) if mask >> i & 1])
            outside = lead([t for i, t in enumerate(vertex_leads) if not mask >> i & 1])
            mass = min(inside, outside, key=lambda t: (-t[0], t[1]))
            boundary = lead([(k, c) for k, ends, c in edge_leads
                             if mask & ends and mask & ends != ends])
            coeffs[mask] = boundary[1] / mass[1]
    least = min(coeffs.values())
    return [mask for mask, c in coeffs.items() if c == least]


def cheeger_constant(g: OFGraph) -> CheegerCut:
    """Exhaustive minimum of b(dS)/min(b(S), b(V\\S)) over proper subsets.

    Only subsets avoiding the last vertex are enumerated; the complement
    symmetry S <-> V\\S covers the rest.  Ties between cuts with equal h
    are broken toward the lexicographically smallest representative.

    Only the cuts whose ratio has the least leading term
    (``_leading_term_cuts``) are divided out and compared, and that changes
    nothing.  A cut that loses on leading term differs from a kept cut
    below both ratios' truncation orders: its ratio's valuation is lower,
    or equal with a larger leading coefficient, and every leading term is
    known.  So every comparison with it is decisive, and it loses each
    one.  It therefore never becomes best once a kept cut has been seen,
    never wins a tie, and the kept cuts see the same best-cut updates,
    with their non-transitive ties, as the full enumeration.
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

    best = None
    for mask in _leading_term_cuts(g, weights, total, edges):
        inside = tuple(i for i in range(n) if mask >> i & 1)
        outside = tuple(i for i in range(n) if not mask >> i & 1)
        mass_in = sum((weights[i] for i in inside), zero())
        mass_out = total - mass_in
        boundary = None
        for bx, by, w in edges:
            if bool(mask & bx) != bool(mask & by):
                boundary = w if boundary is None else boundary + w

        side = (mass_in - mass_out).sign()
        mass = mass_out if side > 0 else mass_in
        h = boundary * mass.inverse()
        diff = -1 if best is None else (h - best.h).sign()
        if diff > 0:
            continue
        indices = inside if side < 0 else outside if side > 0 else min(inside, outside)
        if diff < 0 or indices < best_indices:
            best, best_indices = CheegerCut(tuple(g.vertices[i] for i in indices),
                                            h, boundary, mass), indices
    return best


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
        ok = a1.sign() >= 0 and strong
        rep.add("alpha1-bound-noncomplete", ok,
                f"0 <= alpha_1 and alpha_1^2 <= 1-h^2 with "
                f"alpha_1 = {format_series(a1, digits=12)}")
    return rep
