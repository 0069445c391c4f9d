"""Powers of the probability operator: equilibria, bounds, convergence.

Convergence of P^m f is meant in the order topology of the series field:
|P^m f - eq| must eventually sink below every positive element.  That is a
much stronger demand than in the reals; a sequence like (1/2)^m has no
limit here because it never drops below eps.  The classifier in this
module decides the outcome from the leading exponent of an eigenvalue
alone, and the witness function certifies divergence with the explicit
gap bound from the non-bipartite no-limit theorem.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .cheeger import CheegerCut
from .errors import GraphValidationError, LCGraphError
from .graphs import OFGraph, VertexFunction
from .operators import apply, inner
from .series import LCNumber, comparable, eps, format_series, one, zero
from .spectral import Spectrum

CONVERGES_TO_ZERO = "converges-to-zero"
STATIONARY = "stationary"
ALTERNATING = "alternating-partial-limits"
NO_LIMIT = "no-limit-no-partial-limits"


@dataclass(frozen=True)
class LimitVerdict:
    """Fate of the sequence alpha^m v(x) for a nonzero coordinate v(x)."""

    kind: str
    exponent: Optional[Fraction]  # leading exponent of alpha; None when alpha = 0
    description: str


def classify_eigen_limit(alpha: LCNumber) -> LimitVerdict:
    """Classify alpha^m v(x) by the leading exponent of alpha.

    An infinitesimal (or zero) eigenvalue sends every coordinate to zero;
    alpha = 1 freezes the sequence; alpha = -1 leaves exactly the two
    partial limits +-v(x); any other eigenvalue comparable to a nonzero
    real admits no limit and no partial limits.
    """
    if (abs(alpha) - 1).sign() > 0:
        raise ValueError("|alpha| exceeds 1; not an eigenvalue of P")
    if alpha.is_zero:
        return LimitVerdict(CONVERGES_TO_ZERO, None,
                            "alpha = 0, the sequence is eventually zero")
    q = alpha.lead_exp
    if q > 0:
        return LimitVerdict(CONVERGES_TO_ZERO, q,
                            f"alpha is infinitesimal of order {q}; "
                            f"alpha^m v(x) sinks below any positive element")
    if (alpha - 1).is_zero:
        return LimitVerdict(STATIONARY, q, "alpha = 1, constant sequence")
    if (alpha + 1).is_zero:
        return LimitVerdict(ALTERNATING, q,
                            "alpha = -1, partial limits +v(x) and -v(x) only")
    return LimitVerdict(NO_LIMIT, q,
                        "alpha is comparable to a nonzero real other than 1; "
                        "no subsequence of alpha^m v(x) is Cauchy")


def equilibrium_full(g: OFGraph, f: VertexFunction) -> VertexFunction:
    """The constant function (1/b(V)) * sum_y f(y) b(y); fixed point of P."""
    total = sum((f[x] * g.vertex_weight(x) for x in g.vertices), zero())
    value = total * g.total_weight().inverse()
    return VertexFunction.constant(g.vertices, value)


def equilibrium_bipartite(g: OFGraph, partition, f: VertexFunction) -> VertexFunction:
    """The two-level function (2/b(V)) * side-sum of f b; fixed point of P^2."""
    part1, part2 = partition
    side1, side2 = set(part1), set(part2)
    if side1 & side2 or side1 | side2 != set(g.vertices) or not side1 or not side2:
        raise GraphValidationError("partition does not split the vertex set")
    for x, y, _ in g.edges():
        if (x in side1) == (y in side1):
            raise GraphValidationError(f"edge {x}-{y} does not cross the partition")

    def side_sum(side):
        return sum((f[x] * g.vertex_weight(x) for x in side), zero())

    scale = g.total_weight().inverse() * 2
    val1 = side_sum(part1) * scale
    val2 = side_sum(part2) * scale
    return VertexFunction(g.vertices,
                          [val1 if x in side1 else val2 for x in g.vertices])


@dataclass(frozen=True)
class WalkStep:
    """One recorded power of P: the iterate and its bound verdicts.

    ``power`` is the actual exponent applied (m in full mode, 2m in
    bipartite mode).  Bound fields are None when the corresponding datum
    (spectrum or Cheeger cut) was not supplied.
    """

    index: int
    power: int
    function: VertexFunction
    deviation_sq: LCNumber
    alpha_bound_sq: Optional[LCNumber]
    alpha_ok: Optional[bool]
    cheeger_bound_sq: Optional[LCNumber]
    cheeger_ok: Optional[bool]


@dataclass(frozen=True)
class WalkReport:
    """Trajectory of P^m f against its equilibrium.

    ``precondition`` records the span condition of the full-mode mixing
    bound: "verified" / "violated" via spectral projections, "unverified"
    without a spectrum, "none" in bipartite mode (the bipartite bound
    holds for every f).
    """

    mode: str
    equilibrium: VertexFunction
    norm_sq: LCNumber
    steps: Tuple[WalkStep, ...]
    precondition: str

    @property
    def bounds_hold(self) -> bool:
        return not any(s.alpha_ok is False or s.cheeger_ok is False
                       for s in self.steps)


def iterate(g: OFGraph, f: VertexFunction, m_max: int = 16, mode: str = "full",
            spectrum: Optional[Spectrum] = None,
            cut: Optional[CheegerCut] = None) -> WalkReport:
    """Run P^m f (or P^{2m} f) and check the squared mixing bounds.

    All comparisons use squared norms: the full-mode bound
    ||P^m f - eq|| <= alpha_1^m ||f|| is checked as
    deviation^2 <= (alpha_1^2)^m <f,f>, and the Cheeger corollary as
    deviation^2 <= (1-h^2)^m <f,f>; in bipartite mode the recorded power
    2m replaces m.  Squaring keeps rational inputs exact: each bound is
    numeric only when its own data are (a numeric alpha_1 leaves the
    Cheeger bound exact).
    """
    if mode not in ("full", "bipartite"):
        raise ValueError(f"unknown walk mode {mode!r}")
    if f.vertices != g.vertices:
        raise GraphValidationError("function is not defined on this vertex set")
    if m_max < 1:
        raise ValueError("m_max must be at least 1")

    if mode == "bipartite":
        partition = g.bipartition()
        if partition is None:
            raise GraphValidationError("bipartite walk on a non-bipartite graph")
        eq = equilibrium_bipartite(g, partition, f)
        stride = 2
    else:
        eq = equilibrium_full(g, f)
        stride = 1

    norm_sq = inner(g, f, f)

    # (alpha_1^2)^power and (1 - h^2)^power advance one stride per step
    alpha_step = cheeger_step = None
    if spectrum is not None:
        a1 = spectrum.alphas[1]
        alpha_step = (a1 * a1) ** stride
    if cut is not None:
        cheeger_step = (-(cut.h * cut.h) + 1) ** stride
    alpha_pow = cheeger_pow = None

    steps = []
    cur = f
    for m in range(1, m_max + 1):
        for _ in range(stride):
            cur = apply(g, cur)
        power = m * stride
        dev = cur - eq
        dev_sq = inner(g, dev, dev)

        alpha_bound = alpha_ok = None
        if alpha_step is not None:
            alpha_pow = alpha_step if m == 1 else alpha_pow * alpha_step
            alpha_bound = alpha_pow * norm_sq
            alpha_ok = (alpha_bound - dev_sq).sign() >= 0
        cheeger_bound = cheeger_ok = None
        if cheeger_step is not None:
            cheeger_pow = cheeger_step if m == 1 else cheeger_pow * cheeger_step
            cheeger_bound = cheeger_pow * norm_sq
            cheeger_ok = (cheeger_bound - dev_sq).sign() >= 0

        steps.append(WalkStep(index=m, power=power, function=cur,
                              deviation_sq=dev_sq,
                              alpha_bound_sq=alpha_bound, alpha_ok=alpha_ok,
                              cheeger_bound_sq=cheeger_bound, cheeger_ok=cheeger_ok))

    if mode == "bipartite":
        precondition = "none"
    elif spectrum is None:
        precondition = "unverified"
    else:
        precondition = "verified"
        for pair in spectrum.pairs:
            if pair.alpha.sign() <= 0:
                if not inner(g, f, pair.function).is_zero:
                    precondition = "violated"
                    break

    return WalkReport(mode=mode, equilibrium=eq, norm_sq=norm_sq,
                      steps=tuple(steps), precondition=precondition)


def nonconvergence_witness(g: OFGraph, spectrum: Spectrum,
                           max_total: int = 20):
    """Divergence certificate for non-bipartite graphs.

    Returns (v, x, bound) where v is the bottom eigenfunction, x a vertex
    with v(x) != 0 and bound = eps * |1 + alpha_{n-1}| * |v(x)|.  Every
    gap |alpha^m v(x) - alpha^{m+l} v(x)| with m, l >= 1 and
    m + l <= max_total is checked to strictly exceed the bound, so no
    subsequence of alpha^m v(x) is Cauchy.
    """
    if g.is_bipartite():
        raise GraphValidationError(
            "witness needs a non-bipartite graph; alpha_{n-1} = -1 makes "
            "the gap bound vacuous")
    pair = spectrum.pairs[-1]
    alpha, v = pair.alpha, pair.function
    x = next(y for y in g.vertices if not v[y].is_zero)
    vx = abs(v[x])

    bound = eps(1) * abs(alpha + 1) * vx

    powers = [None, alpha]
    for _ in range(max_total - 1):
        powers.append(powers[-1] * alpha)
    for m in range(1, max_total):
        for l in range(1, max_total - m + 1):
            gap = abs(powers[m] - powers[m + l]) * vx
            if (gap - bound).sign() <= 0:
                raise LCGraphError(
                    f"gap bound violated at m={m}, l={l}: "
                    f"{format_series(gap, digits=12)} is not above "
                    f"{format_series(bound, digits=12)}")
    return v, x, bound


@dataclass(frozen=True)
class ConvergenceVerdict:
    """Which mixing guarantee the Cheeger constant h ~ 1 buys, if any.

    ``guarantee`` is "bipartite-all-f" (P^{2m} f converges for every f),
    "positive-span" (P^m f converges on span{v_i : alpha_i > 0}), or
    "none".  ``formal`` records whether the theorem's side conditions
    (#V > 2 resp. non-complete) actually hold.  On a unit-weight complete
    graph every alpha_i other than alpha_0 is -1/(n-1), so the positive
    span collapses to the constants and convergence there is trivial,
    which ``span_trivial`` tracks; a weighted complete graph can have
    alpha_1 > 0.  ``consistent`` cross-checks the verdict against the
    eigenvalue classifier when a spectrum is supplied.
    """

    h: LCNumber
    h_comparable_one: bool
    bipartite: bool
    complete: bool
    guarantee: str
    formal: bool
    span_trivial: Optional[bool]
    alpha1_kind: Optional[str]
    consistent: Optional[bool]

    def render(self, digits: int = 12) -> str:
        lines = [f"h = {format_series(self.h, digits=digits)}"]
        lines.append(f"h comparable to 1: {'yes' if self.h_comparable_one else 'no'}")
        shape = "bipartite" if self.bipartite else "non-bipartite"
        if self.complete:
            shape += ", complete"
        lines.append(f"graph: {shape}")
        if self.guarantee == "bipartite-all-f":
            lines.append("guarantee: P^(2m) f converges to the two-level "
                         "equilibrium for every f")
        elif self.guarantee == "positive-span":
            lines.append("guarantee: P^m f converges to the weighted mean for "
                         "f in the span of eigenfunctions with alpha > 0")
            if not self.formal:
                lines.append("  (formally out of scope: the theorem asks for a "
                             "non-complete graph)")
            if self.span_trivial:
                lines.append("  (alpha_1 <= 0, so that span holds only the "
                             "constants; convergence there is trivial)")
        else:
            lines.append("guarantee: none")
        if self.alpha1_kind is not None:
            lines.append(f"classifier on alpha_1: {self.alpha1_kind}")
        if self.consistent is not None:
            lines.append(f"classifier cross-check: "
                         f"{'consistent' if self.consistent else 'INCONSISTENT'}")
        return "\n".join(lines)


def h_convergence_verdict(g: OFGraph, cut: CheegerCut,
                          spectrum: Optional[Spectrum] = None) -> ConvergenceVerdict:
    """Decide which h ~ 1 convergence theorem applies to g.

    Bipartite graphs on more than two vertices with h comparable to 1
    mix for every f along even powers; non-complete non-bipartite graphs
    mix on the positive-alpha span.  When a spectrum is given, the
    verdict is cross-checked: a guarantee must come with alpha_1 either
    classified converges-to-zero or confined to a trivial span.
    """
    h = cut.h
    h_cmp = comparable(h, one())
    bip = g.is_bipartite()
    complete = g.is_complete()

    if not h_cmp:
        guarantee, formal = "none", False
    elif bip:
        guarantee = "bipartite-all-f" if g.n > 2 else "none"
        formal = g.n > 2
    else:
        guarantee, formal = "positive-span", not complete

    span_trivial = alpha1_kind = consistent = None
    if spectrum is not None:
        a1 = spectrum.alphas[1]
        alpha1_kind = classify_eigen_limit(a1).kind
        if guarantee == "positive-span":
            span_trivial = a1.sign() <= 0
        if guarantee == "bipartite-all-f":
            consistent = alpha1_kind == CONVERGES_TO_ZERO
        elif guarantee == "positive-span":
            consistent = alpha1_kind == CONVERGES_TO_ZERO or (
                not formal and span_trivial)
    return ConvergenceVerdict(h=h, h_comparable_one=h_cmp, bipartite=bip,
                              complete=complete, guarantee=guarantee,
                              formal=formal, span_trivial=span_trivial,
                              alpha1_kind=alpha1_kind, consistent=consistent)
