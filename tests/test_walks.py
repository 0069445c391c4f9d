"""Random-walk iteration, mixing bounds, and limit classification."""

import random
from fractions import Fraction

import pytest

from lcgraph import (
    ALTERNATING,
    CONVERGES_TO_ZERO,
    NO_LIMIT,
    STATIONARY,
    GraphValidationError,
    VertexFunction,
    apply,
    cheeger_constant,
    classify_eigen_limit,
    compute_spectrum,
    equilibrium_bipartite,
    equilibrium_full,
    h_convergence_verdict,
    inner,
    iterate,
    load_graph,
    monomial,
    nonconvergence_witness,
    parse_graph,
    parse_series,
    eps,
    one,
    truncation,
    zero,
)
from corpus import random_graph

FIG1 = "1 2 1\n2 3 1\n3 4 eps\n"
FIG2 = "1 2 1\n2 3 eps\n3 4 1\n"
TRIANGLE = "1 2 1\n1 3 1\n2 3 1\n"


def test_k2_walk_is_frozen():
    g = parse_graph("1 2 1\n")
    f = VertexFunction.delta(g.vertices, "1")
    rep = iterate(g, f, m_max=6, mode="bipartite")
    # P swaps the two vertices, so every even power returns delta_1 itself
    assert all(v.is_zero for v in (rep.equilibrium - f).values)
    for step in rep.steps:
        assert step.power == 2 * step.index
        assert step.deviation_sq.is_zero
        assert all((step.function[x] - f[x]).is_zero for x in g.vertices)


def _fig1_dev_sq(power):
    # closed form for the squared deviation of P^(2m) delta_1 from its
    # two-level equilibrium: eps^(2m) / (2^(2m) (1+eps)^(2m-1) (2+eps))
    den = monomial(Fraction(2 ** power))
    den = den * parse_series("1 + eps") ** (power - 1)
    den = den * parse_series("2 + eps")
    return eps(power) * den.inverse()


def test_fig1_bipartite_matches_closed_form():
    g = parse_graph(FIG1)
    f = VertexFunction.delta(g.vertices, "1")
    with truncation(16):
        rep = iterate(g, f, m_max=4, mode="bipartite")
        for step in rep.steps:
            assert (step.deviation_sq - _fig1_dev_sq(step.power)).is_zero


def test_fig1_bipartite_bounds_hold():
    g = parse_graph(FIG1)
    f = VertexFunction.delta(g.vertices, "1")
    spec = compute_spectrum(g, trunc_order=8)
    cut = cheeger_constant(g)
    rep = iterate(g, f, m_max=6, mode="bipartite", spectrum=spec, cut=cut)
    assert rep.precondition == "none"
    assert rep.bounds_hold
    for step in rep.steps:
        assert step.alpha_ok is True
        assert step.cheeger_ok is True


def test_fig1_cheeger_bound_stays_exact_beside_numeric_spectrum(fig1):
    # fig1's spectrum is numeric (sqrt(2) in alpha_1) while h and f are
    # rational: the Cheeger bound stays exact, and each verdict is the one
    # the same comparison gives in floats
    spec = compute_spectrum(fig1)
    assert spec.mode == "numeric"
    f = VertexFunction.delta(fig1.vertices, "1")
    rep = iterate(fig1, f, mode="full", spectrum=spec, cut=cheeger_constant(fig1))
    for step in rep.steps:
        assert step.cheeger_bound_sq.mode == "rational"
        assert step.alpha_bound_sq.mode == "numeric"
        in_floats = (step.cheeger_bound_sq.to_numeric()
                     - step.deviation_sq.to_numeric()).sign() >= 0
        assert step.cheeger_ok is in_floats


def test_bipartite_deviation_nonincreasing():
    rng = random.Random(11)
    graphs = [parse_graph(FIG1), parse_graph("1 2 1\n")]
    while len(graphs) < 5:
        g = random_graph(rng)
        if g.is_bipartite():
            graphs.append(g)
    for g in graphs:
        f = VertexFunction.delta(g.vertices, g.vertices[0])
        rep = iterate(g, f, m_max=5, mode="bipartite")
        devs = [s.deviation_sq for s in rep.steps]
        for a, b in zip(devs, devs[1:]):
            assert (b - a).sign() <= 0


def test_bipartite_step_keeps_terms_past_a_cancelling_sum():
    # at vertex 6 the leading terms of b(6,4) (Pf)(4) + b(6,5) (Pf)(5)
    # cancel; P applied through the graph keeps the term that dense rows
    # of truncated quotients b(x,y)/b(x) cut at eps^16
    g = parse_graph("1 2 2\n1 3 2*eps^(3/2)\n2 4 1*eps^(3/2)\n3 4 2\n"
                    "3 5 3\n4 6 1\n5 6 3\n")
    f = VertexFunction(g.vertices, [parse_series(c)
                                    for c in ("2", "-2", "-1", "-1", "0", "2")])
    with truncation(16):
        rep = iterate(g, f, m_max=1, mode="bipartite")
    got = rep.steps[0].function["6"]
    assert got.trunc == Fraction(35, 2)
    assert str(got).endswith(
        "+ 1/118098*eps^15 - 1/354294*eps^(33/2) + O(eps^(35/2))")


def test_classify_eigen_limit_cases():
    assert classify_eigen_limit(one()).kind == STATIONARY
    assert classify_eigen_limit(-one()).kind == ALTERNATING

    v = classify_eigen_limit(parse_series("1 + eps").inverse())
    assert v.kind == NO_LIMIT
    assert v.exponent == 0
    assert classify_eigen_limit(-parse_series("1 + eps").inverse()).kind == NO_LIMIT

    v = classify_eigen_limit(parse_series("1/2*eps^(1/2)"))
    assert v.kind == CONVERGES_TO_ZERO
    assert v.exponent == Fraction(1, 2)

    v = classify_eigen_limit(zero())
    assert v.kind == CONVERGES_TO_ZERO
    assert v.exponent is None

    with pytest.raises(ValueError):
        classify_eigen_limit(parse_series("1 + eps"))


def test_equilibrium_full_fig1():
    g = parse_graph(FIG1)
    f = VertexFunction.delta(g.vertices, "1")
    eq = equilibrium_full(g, f)
    # delta_1 spreads to the constant b(1)/b(V) = 1/(4+2*eps)
    for x in g.vertices:
        assert (eq[x] * parse_series("4 + 2*eps") - 1).is_zero


def test_equilibrium_bipartite_is_square_fixed_point():
    g = parse_graph(FIG1)
    f = VertexFunction.from_mapping(
        g.vertices, {"1": one(), "2": eps(1), "3": monomial(Fraction(3)), "4": zero()})
    eq = equilibrium_bipartite(g, g.bipartition(), f)
    again = apply(g, apply(g, eq))
    assert all(v.is_zero for v in (again - eq).values)


def test_equilibrium_bipartite_rejects_bad_partition():
    g = parse_graph(FIG1)
    f = VertexFunction.delta(g.vertices, "1")
    with pytest.raises(GraphValidationError):
        equilibrium_bipartite(g, (("1", "2"), ("3", "4")), f)  # edge 1-2 inside
    with pytest.raises(GraphValidationError):
        equilibrium_bipartite(g, (("1", "3"), ("3", "2", "4")), f)
    with pytest.raises(GraphValidationError):
        equilibrium_bipartite(g, ((), ("1", "2", "3", "4")), f)


def test_full_walk_constants_are_stationary():
    g = parse_graph(TRIANGLE)
    f = VertexFunction.constant(g.vertices, monomial(Fraction(5, 3)))
    spec = compute_spectrum(g, trunc_order=4)
    rep = iterate(g, f, m_max=4, mode="full", spectrum=spec)
    assert rep.precondition == "verified"
    assert rep.bounds_hold
    for step in rep.steps:
        assert step.deviation_sq.is_zero


def test_full_walk_delta_violates_precondition():
    g = parse_graph(TRIANGLE)
    f = VertexFunction.delta(g.vertices, "1")
    spec = compute_spectrum(g, trunc_order=4)
    rep = iterate(g, f, m_max=4, mode="full", spectrum=spec)
    assert rep.precondition == "violated"


def test_full_walk_without_spectrum_is_unverified():
    g = parse_graph(TRIANGLE)
    f = VertexFunction.delta(g.vertices, "1")
    rep = iterate(g, f, m_max=2, mode="full")
    assert rep.precondition == "unverified"
    assert rep.steps[0].alpha_ok is None
    assert rep.steps[0].cheeger_ok is None


def test_full_walk_eigenfunction_saturates_bound():
    # on fig2 the second eigenfunction has alpha_1 = 1/(1+eps) > 0, so
    # P^m v = alpha_1^m v and the alpha bound holds with equality
    g = parse_graph(FIG2)
    spec = compute_spectrum(g, trunc_order=8)
    v = spec.pairs[1].function
    rep = iterate(g, v, m_max=5, mode="full", spectrum=spec)
    assert rep.precondition == "verified"
    for step in rep.steps:
        assert step.alpha_ok is True
        assert (step.alpha_bound_sq - step.deviation_sq).is_zero


def test_iterate_validation():
    g = parse_graph(TRIANGLE)
    f = VertexFunction.delta(g.vertices, "1")
    with pytest.raises(ValueError):
        iterate(g, f, m_max=0)
    with pytest.raises(ValueError):
        iterate(g, f, mode="sideways")
    with pytest.raises(GraphValidationError):
        iterate(g, f, mode="bipartite")  # triangle has an odd cycle
    g2 = parse_graph(FIG1)
    with pytest.raises(GraphValidationError):
        iterate(g2, f)


def test_nonconvergence_witness_triangle():
    g = parse_graph(TRIANGLE)
    spec = compute_spectrum(g, trunc_order=4)
    v, x, bound = nonconvergence_witness(g, spec, max_total=20)
    assert not v[x].is_zero
    # bound = eps * |1 + alpha_2| * |v(x)| with alpha_2 = -1/2
    want = eps(1) * abs(spec.alphas[-1] + 1) * abs(v[x])
    assert (bound - want).is_zero
    # |alpha_{n-1}| is at least 1/(n-1)
    assert (abs(spec.alphas[-1]) - Fraction(1, g.n - 1)).sign() >= 0


def test_nonconvergence_witness_rejects_bipartite():
    g = parse_graph(FIG1)
    spec = compute_spectrum(g, trunc_order=4)
    with pytest.raises(GraphValidationError):
        nonconvergence_witness(g, spec)


def test_h_verdict_fig1():
    g = parse_graph(FIG1)
    verdict = h_convergence_verdict(g, cheeger_constant(g),
                                    compute_spectrum(g, trunc_order=4))
    assert verdict.h_comparable_one
    assert verdict.bipartite
    assert verdict.guarantee == "bipartite-all-f"
    assert verdict.formal
    assert verdict.alpha1_kind == CONVERGES_TO_ZERO
    assert verdict.consistent is True


def test_h_verdict_fig2():
    g = parse_graph(FIG2)
    verdict = h_convergence_verdict(g, cheeger_constant(g),
                                    compute_spectrum(g, trunc_order=4))
    assert not verdict.h_comparable_one
    assert verdict.guarantee == "none"
    assert verdict.alpha1_kind == NO_LIMIT
    assert verdict.consistent is None


def test_h_verdict_triangle_and_k2():
    g = parse_graph(TRIANGLE)
    verdict = h_convergence_verdict(g, cheeger_constant(g),
                                    compute_spectrum(g, trunc_order=4))
    assert verdict.h_comparable_one
    assert verdict.complete
    assert verdict.guarantee == "positive-span"
    assert not verdict.formal  # the theorem asks for a non-complete graph
    assert verdict.span_trivial is True
    assert verdict.consistent is True

    k2 = parse_graph("1 2 1\n")
    verdict = h_convergence_verdict(k2, cheeger_constant(k2))
    assert verdict.bipartite
    assert verdict.guarantee == "none"


def test_h_verdict_weighted_complete_graph(fixtures_dir):
    # random_audit.py --count 40 --seed 3 --max-n 7, graph 28: a weighted
    # K4 with alpha_1 = 0.1125*eps + ... > 0, so the positive span is more
    # than the constants, yet alpha_1 is infinitesimal and the span mixes
    g = load_graph(fixtures_dir / "seed3-graph28.ofg")
    with truncation(4):
        verdict = h_convergence_verdict(g, cheeger_constant(g),
                                        compute_spectrum(g, trunc_order=4))
    assert verdict.complete
    assert verdict.guarantee == "positive-span"
    assert not verdict.formal
    assert verdict.span_trivial is False
    assert verdict.alpha1_kind == CONVERGES_TO_ZERO
    assert verdict.consistent is True
