"""Walk/Laplace operators, the weighted inner product, and the Green identity."""

import random
from fractions import Fraction

import pytest

from lcgraph import (
    VertexFunction,
    apply,
    green_lhs_rhs,
    inner,
    laplacian_matrix,
    norm,
    parse_graph,
    parse_series,
    probability_matrix,
    rayleigh,
    truncation,
    zero,
)
from corpus import random_graph, random_weight, truncated_weight

FIG1 = "1 2 1\n2 3 1\n3 4 eps\n"


def random_function(rng, g):
    vals = [parse_series(str(Fraction(rng.randint(-4, 4), rng.randint(1, 3))))
            for _ in g.vertices]
    return VertexFunction(g.vertices, vals)


def test_probability_entries_fig1():
    g = parse_graph(FIG1)
    p = probability_matrix(g)
    i = {x: g.index(x) for x in g.vertices}
    assert p[i["1"]][i["2"]].identical(parse_series("1"))
    assert p[i["2"]][i["1"]].identical(parse_series("1/2"))
    # 1/(1+eps) and eps/(1+eps) as geometric series
    assert (p[i["3"]][i["2"]] * parse_series("1 + eps") - 1).is_zero
    assert (p[i["3"]][i["4"]] * parse_series("1 + eps")
            - parse_series("eps")).is_zero
    assert p[i["4"]][i["3"]].identical(parse_series("1"))
    assert all(p[j][j].is_zero for j in range(g.n))


def test_rows_sum_to_one_on_random_graphs():
    rng = random.Random(11)
    for _ in range(15):
        g = random_graph(rng)
        p = probability_matrix(g)
        for row in p:
            acc = row[0]
            for e in row[1:]:
                acc = acc + e
            assert (acc - 1).is_zero


def test_laplacian_plus_probability_is_identity():
    g = parse_graph(FIG1)
    p, lap = probability_matrix(g), laplacian_matrix(g)
    for i in range(g.n):
        for j in range(g.n):
            s = p[i][j] + lap[i][j]
            if i == j:
                assert (s - 1).is_zero
            else:
                assert s.is_zero


def test_apply_matches_hand_value():
    g = parse_graph(FIG1)
    d1 = VertexFunction.delta(g.vertices, "1")
    pd = apply(g, d1)
    # (P delta_1)(x) = p(x, 1)
    assert pd["1"].is_zero
    assert pd["2"].identical(parse_series("1/2"))
    assert pd["3"].is_zero
    assert pd["4"].is_zero


def _dense_apply(rows, f):
    # every entry, exact zeros included, as a plain matrix-vector sum
    out = []
    for row in rows:
        acc = zero()
        for e, v in zip(row, f.values):
            acc = acc + e * v
        out.append(acc)
    return out


def _random_value(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return zero(Fraction(rng.randint(1, 6), 2))
    w = random_weight(rng) if kind < 3 else truncated_weight(rng)
    return -w if rng.random() < 0.5 else w


def test_apply_matches_dense_sum():
    # P f and L f = f - P f through the graph agree with the dense rows
    # wherever the dense sum is known, and are known at least as far
    rng = random.Random(13)
    for k in range(24):
        weight = truncated_weight if k % 2 else random_weight
        g = random_graph(rng, 3, 7, weight=weight)
        f = VertexFunction(g.vertices, [_random_value(rng) for _ in g.vertices])
        pf = apply(g, f)
        for got, rows in ((pf, probability_matrix(g)), (f - pf, laplacian_matrix(g))):
            for x, want in zip(g.vertices, _dense_apply(rows, f)):
                assert got[x].trunc >= want.trunc, (k, x)
                assert got[x].truncate(want.trunc).identical(want), (k, x)


def test_apply_follows_the_ambient_truncation_order():
    # b(x)^-1 is kept per vertex and truncation order: a graph reused
    # across orders gives what a freshly parsed graph gives at each order
    text = "1 2 1 + eps\n2 3 2 + eps^(1/2)\n3 4 eps\n1 4 1/3\n"
    g = parse_graph(text)
    f = VertexFunction(g.vertices, [parse_series(v) for v in ("1", "-2", "eps", "1/2")])
    for order in (4, 16, 4):
        with truncation(order):
            got = apply(g, f)
            want = apply(parse_graph(text), f)
        for x in g.vertices:
            assert got[x].identical(want[x]), (order, x)
    with truncation(16):
        assert apply(g, f)["1"].trunc > got["1"].trunc


def test_apply_refuses_a_function_on_other_vertices():
    g = parse_graph(FIG1)
    f = VertexFunction(("1", "2", "3"), [parse_series("1")] * 3)
    with pytest.raises(ValueError):
        apply(g, f)


def test_inner_uses_vertex_weights():
    g = parse_graph(FIG1)
    d3 = VertexFunction.delta(g.vertices, "3")
    assert inner(g, d3, d3).identical(parse_series("1 + eps"))
    d1 = VertexFunction.delta(g.vertices, "1")
    assert inner(g, d1, d3).is_zero


def test_norm_of_zero_and_of_delta():
    g = parse_graph(FIG1)
    z = VertexFunction.constant(g.vertices, 0)
    assert norm(g, z).is_zero
    d1 = VertexFunction.delta(g.vertices, "1")
    assert (norm(g, d1) - 1).is_zero


def test_operators_self_adjoint():
    rng = random.Random(23)
    for _ in range(10):
        g = random_graph(rng)
        f, h = random_function(rng, g), random_function(rng, g)
        lhs = inner(g, apply(g, f), h)
        rhs = inner(g, f, apply(g, h))
        assert (lhs - rhs).is_zero


def test_green_identity_on_deltas():
    # <L delta_x, delta_y> = -b(x,y) for x != y, and b(x) on the diagonal
    g = parse_graph(FIG1)
    for x in g.vertices:
        for y in g.vertices:
            dx = VertexFunction.delta(g.vertices, x)
            dy = VertexFunction.delta(g.vertices, y)
            lhs, rhs = green_lhs_rhs(g, dx, dy)
            assert (lhs - rhs).is_zero
            want = g.vertex_weight(x) if x == y else -g.weight(x, y)
            assert (lhs - want).is_zero


def test_green_identity_on_random_functions():
    rng = random.Random(37)
    for _ in range(10):
        g = random_graph(rng)
        f, h = random_function(rng, g), random_function(rng, g)
        lhs, rhs = green_lhs_rhs(g, f, h)
        assert (lhs - rhs).is_zero


def test_rayleigh_of_constant_is_zero():
    g = parse_graph(FIG1)
    c = VertexFunction.constant(g.vertices, 1)
    assert rayleigh(g, c).is_zero


def test_rayleigh_nonnegative_and_at_most_two():
    rng = random.Random(41)
    for _ in range(10):
        g = random_graph(rng)
        f = random_function(rng, g)
        if inner(g, f, f).is_zero:
            continue
        r = rayleigh(g, f)
        assert r.sign() >= 0
        assert (r - 2).sign() <= 0


def test_rayleigh_of_zero_raises():
    g = parse_graph(FIG1)
    z = VertexFunction.constant(g.vertices, 0)
    with pytest.raises(ZeroDivisionError):
        rayleigh(g, z)
