"""Eigendecomposition: char poly oracle, known spectra, numeric cross-check."""

import dataclasses
import random
from fractions import Fraction

import mpmath
import pytest

from lcgraph import (
    GraphValidationError,
    MAX_VERTICES,
    OFGraph,
    apply,
    compute_spectrum,
    format_series,
    VertexFunction,
    inner,
    load_graph,
    monomial,
    one,
    parse_graph,
    parse_series,
    probability_matrix,
    truncation,
    verify_spectral_theorems,
    zero,
)
from lcgraph.spectral import LCPolynomial, char_poly, lift_roots
from corpus import random_graph, random_nonbipartite

FIG1 = "1 2 1\n2 3 1\n3 4 eps\n"
FIG2 = "1 2 1\n2 3 eps\n3 4 1\n"


def _det_minors(rows):
    # cofactor expansion along the first row; independent of the
    # elimination used inside the package
    n = len(rows)
    if n == 1:
        return rows[0][0]
    acc = zero()
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * _det_minors(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def test_char_poly_matches_determinant_at_sample_points():
    rng = random.Random(2)
    for _ in range(6):
        g = random_graph(rng, n_min=3, n_max=5)
        p = probability_matrix(g)
        cp = char_poly(p)
        assert cp.degree == g.n
        for t in (Fraction(0), Fraction(1), Fraction(-1), Fraction(2, 3)):
            x = monomial(t)
            rows = [[(x if i == j else zero()) - p[i][j]
                     for j in range(g.n)] for i in range(g.n)]
            det = _det_minors(rows)
            assert (cp.evaluate(x) - det).is_zero


def test_char_poly_top_coefficient_and_trace():
    rng = random.Random(3)
    for _ in range(8):
        g = random_graph(rng)
        cp = char_poly(probability_matrix(g))
        assert (cp.coeffs[-1] - 1).is_zero
        # zero diagonal: the alpha sum vanishes
        assert cp.coeffs[-2].is_zero


def test_k2_spectrum_exact():
    g = parse_graph("1 2 1\n")
    spec = compute_spectrum(g)
    assert spec.mode == "rational"
    lams = [p.lam for p in spec.pairs]
    assert lams[0].is_zero
    assert (lams[1] - 2).is_zero
    v0, v1 = spec.pairs[0].function, spec.pairs[1].function
    assert (v0["1"] - v0["2"]).is_zero
    assert (v1["1"] + v1["2"]).is_zero


def test_triangle_spectrum_exact():
    g = parse_graph("1 2 1\n1 3 1\n2 3 1\n")
    spec = compute_spectrum(g)
    assert spec.mode == "rational"
    lams = [p.lam for p in spec.pairs]
    assert lams[0].is_zero
    assert (lams[1] - Fraction(3, 2)).is_zero
    assert (lams[2] - Fraction(3, 2)).is_zero
    # double eigenvalue: the two eigenfunctions are orthogonal
    assert inner(g, spec.pairs[1].function, spec.pairs[2].function).is_zero


def test_fig2_alpha_is_rational_geometric():
    g = parse_graph(FIG2)
    spec = compute_spectrum(g, trunc_order=8)
    assert spec.mode == "rational"
    a1 = spec.pairs[1].alpha
    # alpha_1 = 1/(1+eps)
    assert (a1 * parse_series("1 + eps") - 1).is_zero
    assert (spec.pairs[1].lam * parse_series("1 + eps")
            - parse_series("eps")).is_zero


def test_fig1_alpha_needs_numeric_and_squares_to_rational():
    g = parse_graph(FIG1)
    # exactness is read off the graph; there is no mode that insists on it
    with pytest.raises(ValueError):
        compute_spectrum(g, mode="rational")
    spec = compute_spectrum(g, trunc_order=8, mode="auto")
    assert spec.mode == "numeric"
    a1 = spec.pairs[1].alpha
    assert a1.lead_exp == Fraction(1, 2)
    # alpha_1^2 = eps/(2 + 2*eps)
    sq = a1 * a1 * parse_series("2 + 2*eps").to_numeric() - parse_series("eps").to_numeric()
    assert sq.is_zero


@pytest.mark.parametrize("name", ["fig2", "k4"])
def test_numeric_mode_is_the_exact_spectrum_in_floats(name, request):
    # both spectra have multiple eps = 0 roots and lift exactly; numeric
    # mode converts the exact lift to floats
    g = request.getfixturevalue(name)
    spec = compute_spectrum(g, trunc_order=8, mode="numeric")
    assert spec.mode == "numeric"
    assert verify_spectral_theorems(g, spec).passed
    exact = compute_spectrum(g, trunc_order=8)
    assert exact.mode == "rational"
    assert (spec.residual_order, spec.work_order) == (exact.residual_order,
                                                      exact.work_order)
    for num, rat in zip(spec.pairs, exact.pairs):
        assert num.alpha.identical(rat.alpha.to_numeric())
        assert num.lam.identical(rat.lam.to_numeric())
        assert all(a.identical(b.to_numeric())
                   for a, b in zip(num.function.values, rat.function.values))
    assert all(a.identical(b.to_numeric())
               for a, b in zip(spec.char.coeffs, exact.char.coeffs))


def test_residual_certified_on_random_graphs():
    rng = random.Random(7)
    for _ in range(8):
        g = random_graph(rng)
        spec = compute_spectrum(g, trunc_order=4)
        # divisions while lifting can cost up to half the working order
        assert spec.residual_order >= spec.trunc_order / 2
        for pair in spec.pairs[:2]:
            pv = apply(g, pair.function)
            for x, val in pv.items():
                d = val - pair.alpha * pair.function[x]
                assert d.is_zero or d.lead_exp >= spec.trunc_order / 2


def test_eigenvalues_match_numeric_substitution():
    # substitute a tiny concrete eps and compare against mpmath's eigenvalues
    rng = random.Random(9)
    graphs = [parse_graph(FIG1), parse_graph(FIG2)]
    graphs += [random_graph(rng, n_min=3, n_max=5) for _ in range(4)]
    x = mpmath.mpf(10) ** -7
    for g in graphs:
        spec = compute_spectrum(g, trunc_order=8)
        pm = [[e.to_numeric() for e in row] for row in probability_matrix(g)]
        mat = mpmath.matrix([[pm[i][j].eval_at(x) for j in range(g.n)]
                             for i in range(g.n)])
        eig = sorted((mpmath.re(w) for w in mpmath.eig(mat)[0]), reverse=True)
        got = sorted((p.alpha.to_numeric().eval_at(x) for p in spec.pairs),
                     reverse=True)
        for a, b in zip(got, eig):
            assert abs(a - b) < mpmath.mpf(10) ** -40


def test_verify_report_passes_on_fixtures_and_corpus():
    rng = random.Random(13)
    graphs = [parse_graph(FIG1), parse_graph(FIG2),
              parse_graph("1 2 1\n"), parse_graph("1 2 1\n1 3 1\n2 3 1\n")]
    graphs += [random_graph(rng) for _ in range(10)]
    graphs += [random_nonbipartite(rng) for _ in range(5)]
    for g in graphs:
        spec = compute_spectrum(g, trunc_order=4)
        rep = verify_spectral_theorems(g, spec)
        assert rep.passed, rep.render()


def _check(rep, name):
    return next(item for item in rep.items if item.name == name)


def test_first_excited_orthogonal_at_certified_order(fixtures_dir):
    # random_audit.py --count 60 --seed 1, graph 7: <v1, 1> keeps numeric
    # noise -1.0e-38*eps^(25/2), far past the certified order 5 + 1/2 - 0
    g = load_graph(fixtures_dir / "seed1-graph7.ofg")
    with truncation(4):
        spec = compute_spectrum(g, trunc_order=4)
        rep = verify_spectral_theorems(g, spec)
    assert rep.passed, rep.render()
    # a first excited function that is not orthogonal to 1 still fails
    ground = spec.pairs[0].function
    bad = dataclasses.replace(spec.pairs[1], function=VertexFunction(
        g.vertices, [v * 2 for v in ground.values]))
    bad_spec = dataclasses.replace(spec, pairs=[spec.pairs[0], bad] + spec.pairs[2:])
    with truncation(4):
        rep = verify_spectral_theorems(g, bad_spec)
    assert _check(rep, "first-excited-orthogonal").passed is False


def test_rejects_disconnected_and_oversized():
    with pytest.raises(GraphValidationError):
        compute_spectrum(parse_graph("1 2 1\n3 4 1\n"))
    big = OFGraph.from_edges(
        [(str(i), str(i + 1), one()) for i in range(1, MAX_VERTICES + 2)])
    with pytest.raises(GraphValidationError):
        compute_spectrum(big)


def test_lift_roots_multiplicity_sum():
    g = parse_graph("1 2 1\n1 3 1\n2 3 1\n")
    roots = lift_roots(char_poly(probability_matrix(g)))
    assert len(roots) == 3
    # alpha = -1/2 appears twice
    halves = [r for r in roots if (r + Fraction(1, 2)).is_zero]
    assert len(halves) == 2


def test_lift_evaluates_q_once_per_point(monkeypatch):
    # Newton steps carry q(mu) and q'(mu) forward instead of evaluating a
    # polynomial again at a point it has already been evaluated at
    seen = []
    evaluate = LCPolynomial.evaluate

    def counting(poly, x):
        seen.append((poly, format_series(x)))  # poly kept alive: ids stay unique
        return evaluate(poly, x)

    monkeypatch.setattr(LCPolynomial, "evaluate", counting)
    g = parse_graph(FIG2)
    with truncation(16):
        roots = lift_roots(char_poly(probability_matrix(g)))
    assert len(roots) == g.n
    assert len(seen) > 4 * g.n
    assert len({(id(poly), x) for poly, x in seen}) == len(seen)
