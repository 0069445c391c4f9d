"""Cheeger constant against brute-force enumeration and hand values."""

import itertools
import random
import re
from fractions import Fraction

import pytest

from lcgraph import (
    GraphValidationError,
    LCNumber,
    OFGraph,
    cheeger_constant,
    cheeger_inequality_check,
    compute_spectrum,
    dump_graph,
    format_series,
    monomial,
    parse_graph,
    parse_series,
    truncation,
    zero,
)
from corpus import random_graph, random_nonbipartite, truncated_weight

FIG1 = "1 2 1\n2 3 1\n3 4 eps\n"
FIG2 = "1 2 1\n2 3 eps\n3 4 1\n"


def _brute_force_h(g):
    # minimum of boundary/mass over every subset not heavier than its
    # complement, written independently of the package's mask walk
    total = g.total_weight()
    best = None
    for k in range(1, g.n):
        for sub in itertools.combinations(g.vertices, k):
            inside = set(sub)
            mass = sum((g.vertex_weight(x) for x in sub), start=zero())
            if (mass * 2 - total).sign() > 0:
                continue
            boundary = zero()
            for u, v, w in g.edges():
                if (u in inside) != (v in inside):
                    boundary = boundary + w
            ratio = boundary * mass.inverse()
            if best is None or (ratio - best).sign() < 0:
                best = ratio
    return best


def test_fig1_hand_value():
    cut = cheeger_constant(parse_graph(FIG1))
    # h = 1/(1+2*eps)
    assert (cut.h * parse_series("1 + 2*eps") - 1).is_zero
    assert cut.subset == ("3", "4")
    assert cut.boundary.identical(parse_series("1"))
    assert cut.mass.identical(parse_series("1 + 2*eps"))


def test_fig2_hand_value():
    cut = cheeger_constant(parse_graph(FIG2))
    # h = eps/(2+eps)
    assert (cut.h * parse_series("2 + eps") - parse_series("eps")).is_zero
    assert cut.subset == ("1", "2")


def test_k2_and_triangle_and_k4():
    assert (cheeger_constant(parse_graph("1 2 1\n")).h - 1).is_zero
    assert cheeger_constant(parse_graph("1 2 1\n")).subset == ("1",)
    tri = cheeger_constant(parse_graph("1 2 1\n1 3 1\n2 3 1\n"))
    assert (tri.h - 1).is_zero
    k4 = cheeger_constant(parse_graph("1 2 1\n1 3 1\n1 4 1\n2 3 1\n2 4 1\n3 4 1\n"))
    assert (k4.h - Fraction(2, 3)).is_zero
    assert k4.subset == ("1", "2")


def test_matches_brute_force_on_random_graphs():
    rng = random.Random(17)
    for _ in range(25):
        g = random_graph(rng)
        cut = cheeger_constant(g)
        want = _brute_force_h(g)
        assert (cut.h - want).is_zero


def test_reported_cut_is_consistent():
    rng = random.Random(19)
    for _ in range(10):
        g = random_graph(rng)
        cut = cheeger_constant(g)
        inside = set(cut.subset)
        mass = sum((g.vertex_weight(x) for x in cut.subset), start=zero())
        boundary = zero()
        for u, v, w in g.edges():
            if (u in inside) != (v in inside):
                boundary = boundary + w
        assert (mass - cut.mass).is_zero
        assert (boundary - cut.boundary).is_zero
        assert (cut.h * cut.mass - cut.boundary).is_zero
        # the reported side is not heavier than its complement
        assert (cut.mass * 2 - g.total_weight()).sign() <= 0


def test_h_at_most_one():
    rng = random.Random(29)
    for _ in range(15):
        cut = cheeger_constant(random_graph(rng))
        assert (cut.h - 1).sign() <= 0
        assert cut.h.sign() > 0


def test_inequality_report_on_fixtures_and_corpus():
    rng = random.Random(31)
    graphs = [parse_graph(FIG1), parse_graph(FIG2), parse_graph("1 2 1\n")]
    graphs += [random_graph(rng) for _ in range(8)]
    graphs += [random_nonbipartite(rng) for _ in range(4)]
    for g in graphs:
        cut = cheeger_constant(g)
        spec = compute_spectrum(g, trunc_order=4)
        rep = cheeger_inequality_check(g, spec, cut)
        assert rep.passed, rep.render()


def test_rejects_single_vertex_and_disconnected():
    with pytest.raises(GraphValidationError):
        cheeger_constant(parse_graph("1 2 1\n3 4 1\n"))


def test_rejects_weights_too_coarse_to_compare_cuts():
    # the cut {1, 2} leaves vertex 3 with mass eps^2, past every O(eps)
    g = parse_graph("1 2 1 + O(eps)\n2 3 eps^2\n")
    with pytest.raises(GraphValidationError, match=r"cut \{1, 2\} has mass 0 \+ O\(eps\^1\)"):
        cheeger_constant(g)


def _reference_cut(g):
    # the enumeration as it stood before cross-multiplication: one ratio
    # and one inverse per subset, compared by the sign of the difference
    n = g.n
    weights = [g.vertex_weight(v) for v in g.vertices]
    total = g.total_weight()
    best = best_indices = None
    for mask in range(1, 1 << (n - 1)):
        members = tuple(bool(mask >> i & 1) for i in range(n - 1)) + (False,)
        mass_in = None
        for i in range(n - 1):
            if members[i]:
                mass_in = weights[i] if mass_in is None else mass_in + weights[i]
        mass_out = total - mass_in
        boundary = None
        for x, y, w in g.edges():
            if members[g.index(x)] != members[g.index(y)]:
                boundary = w if boundary is None else boundary + w

        side = mass_in - mass_out
        if side.sign() < 0:
            mass, indices = mass_in, tuple(i for i in range(n) if members[i])
        elif side.sign() > 0:
            mass, indices = mass_out, tuple(i for i in range(n) if not members[i])
        else:
            inside = tuple(i for i in range(n) if members[i])
            outside = tuple(i for i in range(n) if not members[i])
            mass, indices = mass_in, min(inside, outside)

        ratio = boundary * mass.inverse()
        if best is None:
            better = True
        else:
            diff = (ratio - best[1]).sign()
            better = diff < 0 or (diff == 0 and indices < best_indices)
        if better:
            best = (tuple(g.vertices[i] for i in indices), ratio, boundary, mass)
            best_indices = indices
    return best


def _tie_heavy_graphs():
    for n in range(2, 9):
        names = [str(i + 1) for i in range(n)]
        path = [(names[i], names[i + 1], 1) for i in range(n - 1)]
        complete = [(u, v, 1) for u, v in itertools.combinations(names, 2)]
        yield path
        yield complete
        if n >= 3:
            yield path + [(names[0], names[-1], 1)]


def _pruning_graphs():
    # n = 9 and 10 draws with exponents {0, 1/2, 1, 2}: every cut reaches
    # the top valuation of b(dS)/mass, a single cut does, and a zero-mass
    # cut comes before the first top cut
    return [random_graph(random.Random(7), 9, 10),
            random_graph(random.Random(31), 9, 10),
            random_graph(random.Random(85), 9, 10, weight=truncated_weight)]


def _reference_cases():
    rng = random.Random(41)
    graphs = [random_graph(rng, 3, 7) for _ in range(36)]
    graphs += [random_graph(rng, 3, 7, weight=truncated_weight) for _ in range(36)]
    graphs += [OFGraph.from_edges([(u, v, monomial(Fraction(w))) for u, v, w in edges])
               for edges in _tie_heavy_graphs()]
    return graphs + _pruning_graphs()


@pytest.mark.parametrize("order", [2, 3, 4, 16])
def test_cut_matches_per_subset_division(order):
    with truncation(order):
        for g in _reference_cases():
            try:
                subset, h, boundary, mass = _reference_cut(g)
            except ZeroDivisionError:
                # a cut mass cancels to O(eps^k): rejected as bad input
                with pytest.raises(GraphValidationError):
                    cheeger_constant(g)
                continue
            cut = cheeger_constant(g)
            assert cut.subset == subset, dump_graph(g)
            assert cut.h.identical(h), dump_graph(g)
            assert cut.boundary.identical(boundary), dump_graph(g)
            assert cut.mass.identical(mass), dump_graph(g)


def _least_lead_count(g):
    # the number of masks whose h = b(dS)/mass has the least leading term,
    # the largest leading exponent and then the smallest leading
    # coefficient, each h found by its own division
    n = g.n
    total = g.total_weight()
    leads = []
    for mask in range(1, 1 << (n - 1)):
        inside = {x for i, x in enumerate(g.vertices) if mask >> i & 1}
        mass_in = sum((g.vertex_weight(x) for x in inside), start=zero())
        mass_out = total - mass_in
        boundary = sum((w for u, v, w in g.edges() if (u in inside) != (v in inside)),
                       start=zero())
        mass = mass_out if (mass_in - mass_out).sign() > 0 else mass_in
        h = boundary * mass.inverse()
        leads.append((-h.lead_exp, h.lead_coeff))
    return leads.count(min(leads))


def _count_divisions(monkeypatch, g):
    calls = []
    inverse = LCNumber.inverse

    def counted(self):
        calls.append(self)
        return inverse(self)

    monkeypatch.setattr(LCNumber, "inverse", counted)
    cut = cheeger_constant(g)
    monkeypatch.undo()
    return cut, len(calls)


def test_one_division_per_search(monkeypatch):
    # one division per cut with the least leading term: two on this draw,
    # and four of the 511 cuts of a graph where all tie in valuation
    for g in (random_graph(random.Random(47), 8, 8), _pruning_graphs()[0]):
        want = _least_lead_count(g)
        assert _count_divisions(monkeypatch, g)[1] == want, dump_graph(g)


def _valuation_profile(g):
    # per-subset sums, independent of the package's tables: the masks whose
    # ratio reaches the largest valuation, and the masks with a zero mass
    n = g.n
    total = g.total_weight()
    ranks, zero_mass = {}, []
    for mask in range(1, 1 << (n - 1)):
        inside = {x for i, x in enumerate(g.vertices) if mask >> i & 1}
        mass_in = sum((g.vertex_weight(x) for x in inside), start=zero())
        mass_out = total - mass_in
        boundary = sum((w for u, v, w in g.edges() if (u in inside) != (v in inside)),
                       start=zero())
        if mass_out.is_zero:
            zero_mass.append(mask)
        else:
            ranks[mask] = boundary.lead_exp - max(mass_in.lead_exp, mass_out.lead_exp)
    top = max(ranks.values())
    return [mask for mask, r in ranks.items() if r == top], zero_mass


def test_pruning_graphs_cover_each_case():
    every, single, zero_first = (_valuation_profile(g) for g in _pruning_graphs())
    assert len(every[0]) == (1 << 9) - 1 and not every[1]
    assert len(single[0]) == 1 and not single[1]
    assert zero_first[1] and zero_first[1][0] < min(zero_first[0])


def test_first_zero_mass_cut_is_named():
    # the error names the first zero-mass mask in ascending order, even
    # though that cut is pruned by valuation
    g = _pruning_graphs()[2]
    mask = _valuation_profile(g)[1][0]
    inside = [x for i, x in enumerate(g.vertices) if mask >> i & 1]
    mass = g.total_weight() - sum((g.vertex_weight(x) for x in inside), start=zero())
    want = (f"cut {{{', '.join(inside)}}} has mass {format_series(mass)}: "
            "the weights are not known far enough to compare cuts")
    with pytest.raises(GraphValidationError, match=re.escape(want)):
        cheeger_constant(g)


def test_search_compares_only_top_valuation_cuts(monkeypatch):
    # a path with one weak edge: only the cut at that edge has a ratio of
    # valuation 2, so only that cut is divided out
    n = 8
    g = OFGraph.from_edges([(str(i), str(i + 1),
                             monomial(Fraction(3, 2), 2) if i == 4 else monomial(1))
                            for i in range(1, n)])
    assert _least_lead_count(g) == 1
    cut, divisions = _count_divisions(monkeypatch, g)
    assert cut.subset == ("1", "2", "3", "4")
    assert divisions == 1


def test_cut_is_invariant_under_scaling_every_weight():
    # b(dS)/b(S) does not change when every weight is multiplied by one
    # constant; 3*eps^(1/2) shifts every exponent onto a finer lattice
    rng = random.Random(53)
    k = parse_series("3*eps^(1/2)")
    for _ in range(40):
        g = random_graph(rng)
        scaled = OFGraph.from_edges([(u, v, w * k) for u, v, w in g.edges()],
                                    vertices=g.vertices)
        cut, want = cheeger_constant(scaled), cheeger_constant(g)
        assert cut.subset == want.subset, dump_graph(g)
        assert cut.h.identical(want.h), dump_graph(g)
