"""Graph parsing, weights, bipartition, and vertex functions."""

import re
from fractions import Fraction

import pytest

from lcgraph import (
    GraphValidationError,
    OFGraph,
    VertexFunction,
    dump_graph,
    eps,
    from_rational,
    monomial,
    one,
    parse_function,
    parse_graph,
    parse_series,
)

FIG1 = "1 2 1\n2 3 1\n3 4 eps\n"


def test_parse_fig1_weights():
    g = parse_graph(FIG1)
    assert g.vertices == ("1", "2", "3", "4")
    assert g.weight("1", "2").identical(one())
    assert g.weight("2", "1").identical(one())
    assert g.weight("3", "4").identical(eps())
    assert g.weight("1", "3").is_zero
    assert g.weight("1", "1").is_zero


def test_vertex_weights_fig1():
    g = parse_graph(FIG1)
    assert g.vertex_weight("1").identical(parse_series("1"))
    assert g.vertex_weight("2").identical(parse_series("2"))
    assert g.vertex_weight("3").identical(parse_series("1 + eps"))
    assert g.vertex_weight("4").identical(parse_series("eps"))
    assert g.total_weight().identical(parse_series("4 + 2*eps"))


def test_neighbors_and_edges():
    g = parse_graph(FIG1)
    assert g.neighbors("2") == ("1", "3")
    assert [(u, v) for u, v, _ in g.edges()] == [("1", "2"), ("2", "3"), ("3", "4")]


def test_comments_and_blank_lines_ignored():
    g = parse_graph("# a path\n\n1 2 1\n2 3 eps  # tail\n")
    assert g.n == 3


def test_dump_parse_round_trip():
    g = parse_graph(FIG1)
    h = parse_graph(dump_graph(g))
    assert h.vertices == g.vertices
    for u, v, w in g.edges():
        assert h.weight(u, v).identical(w)


def test_bipartition_of_path():
    g = parse_graph(FIG1)
    parts = g.bipartition()
    assert parts is not None
    assert sorted(map(sorted, parts)) == [["1", "3"], ["2", "4"]]
    assert g.is_bipartite()


def test_triangle_not_bipartite():
    g = parse_graph("1 2 1\n2 3 1\n1 3 1\n")
    assert g.bipartition() is None
    assert not g.is_bipartite()
    assert g.is_complete()


def test_path_not_complete():
    assert not parse_graph(FIG1).is_complete()


def test_connectivity():
    g = parse_graph("1 2 1\n3 4 1\n")
    assert not g.is_connected()
    assert parse_graph(FIG1).is_connected()


def test_infinitesimal_edge_does_not_disconnect():
    g = parse_graph("1 2 1\n2 3 eps^2\n")
    assert g.is_connected()


# -- validation -------------------------------------------------------------

def test_loop_rejected():
    with pytest.raises(GraphValidationError):
        parse_graph("1 1 1\n")


def test_duplicate_edge_rejected():
    with pytest.raises(GraphValidationError):
        parse_graph("1 2 1\n2 1 eps\n")


def test_negative_weight_rejected():
    with pytest.raises(GraphValidationError):
        parse_graph("1 2 -eps\n")


def test_zero_weight_is_absent_edge():
    with pytest.raises(GraphValidationError):
        # vertex 3 would be isolated
        OFGraph.from_edges([("1", "2", one()), ("2", "3", monomial(0))],
                           vertices=["1", "2", "3"])


def test_unknown_endpoint_with_explicit_vertices():
    with pytest.raises(GraphValidationError):
        OFGraph.from_edges([("1", "5", one())], vertices=["1", "2"])


def _numeric_edges(edges):
    return [(u, v, parse_series(text).to_numeric()) for u, v, text in edges]


@pytest.mark.parametrize("edges, named", [
    # at 256 bits the 1e-38 beside 1e40 would round away in b(V)
    (_numeric_edges([("a", "b", "1e40"), ("b", "c", "1e-38")]), ("a", "b")),
    (_numeric_edges([("a", "b", "3e-38*eps"), ("b", "c", "1e-38*eps^2"),
                     ("c", "d", "3e-38"), ("c", "e", "3 + 3e40*eps"),
                     ("d", "e", "1")]), ("a", "b")),
    ([("1", "2", one()), ("2", "3", from_rational(Fraction(3, 2)).to_numeric())],
     ("2", "3")),
])
def test_numeric_weight_rejected(edges, named):
    # graph weights are rational: a float is refused, not converted
    u, v = named
    with pytest.raises(GraphValidationError,
                       match=re.escape(f"edge {u!r} {v!r}: weight ")
                       + r".* has numeric coefficients"):
        OFGraph.from_edges(edges)


# -- vertex functions -------------------------------------------------------

def test_delta_and_constant():
    g = parse_graph(FIG1)
    d = VertexFunction.delta(g.vertices, "2")
    assert d["2"].identical(one())
    assert d["1"].is_zero
    c = VertexFunction.constant(g.vertices, Fraction(1, 3))
    assert all(v.lead_coeff == Fraction(1, 3) for _, v in c.items())


def test_function_algebra():
    g = parse_graph(FIG1)
    d = VertexFunction.delta(g.vertices, "1")
    e = VertexFunction.delta(g.vertices, "2")
    s = d + e - d
    assert s["2"].identical(one())
    assert s["1"].is_zero
    assert (d - d).is_zero
    assert d.scale(2)["1"].identical(parse_series("2"))


def test_parse_function_requires_all_vertices():
    g = parse_graph(FIG1)
    with pytest.raises(GraphValidationError):
        parse_function("1 1\n2 0\n", g)
    with pytest.raises(GraphValidationError):
        parse_function("1 1\n2 0\n3 0\n4 0\n5 0\n", g)
    f = parse_function("1 1\n2 0\n3 eps\n4 -1/2\n", g)
    assert f["3"].identical(eps())
