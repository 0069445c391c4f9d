"""Each independent check accepts the library's output and rejects a corrupted one.

    python3 -m pytest perfbench/test_checks.py
"""

import dataclasses
import pathlib
import sys
from fractions import Fraction

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import lcgraph as lc  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402

# a four-vertex path with its weak edge in the centre, as in the paper
PATH = "1 2 2\n2 3 eps\n3 4 1 + eps\n"
EDGES = inputs.edges_from_text(PATH)


def test_spectrum_check_rejects_a_perturbed_eigenvalue():
    lc.set_numeric_precision(256)
    with lc.truncation(Fraction(4)):
        spec = lc.compute_spectrum(lc.parse_graph(PATH), trunc_order=Fraction(4))
    assert checks.check_spectrum(EDGES, spec) == []

    pair = spec.pairs[1]
    bent = dataclasses.replace(pair, lam=pair.lam + lc.eps(Fraction(3)))
    wrong = dataclasses.replace(spec, pairs=[spec.pairs[0], bent] + spec.pairs[2:])
    errors = checks.check_spectrum(EDGES, wrong)
    assert any("differ from eigsy" in e for e in errors)


def test_cut_check_rejects_a_non_minimal_cut():
    with lc.truncation(Fraction(8)):
        g = lc.parse_graph(PATH)
        cut = lc.cheeger_constant(g)
        assert cut.subset == ("3", "4")
        assert checks.check_cut(EDGES, cut) == []

        # {1} is a consistent cut, boundary 2 over mass 2, but not the minimum
        boundary, mass = g.weight("1", "2"), g.vertex_weight("1")
        other = lc.CheegerCut(subset=("1",), h=boundary * mass.inverse(),
                              boundary=boundary, mass=mass)
    errors = checks.check_cut(EDGES, other)
    assert any("not a minimal cut" in e for e in errors)
    assert any("h differs" in e for e in errors)


def test_walk_check_rejects_a_wrong_iterate():
    f = (Fraction(1), Fraction(0), Fraction(-1), Fraction(2))
    with lc.truncation(Fraction(16)):
        g = lc.parse_graph(PATH)
        cut = lc.cheeger_constant(g)
        start = lc.VertexFunction(g.vertices, [lc.from_rational(c) for c in f])
        report = lc.iterate(g, start, m_max=4, mode="bipartite", cut=cut)
    assert checks.check_walk(EDGES, f, report, 4) == []

    step = report.steps[2]
    values = list(step.function.values)
    values[1] = values[1] + lc.eps(Fraction(5))
    bent = dataclasses.replace(step, function=lc.VertexFunction(g.vertices, values))
    wrong = dataclasses.replace(report, steps=report.steps[:2] + (bent,) + report.steps[3:])
    errors = checks.check_walk(EDGES, f, wrong, 4)
    assert any("iterate 6 at vertex 2" in e for e in errors)

