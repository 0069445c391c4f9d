"""Walk and Laplace operators of a weighted graph, and the weighted inner product.

The walk operator P acts on a function through the graph,

    (Pf)(x) = b(x)^-1 sum_{y~x} b(x,y) f(y),

and the Laplacian is L = I - P.  Functions pair through
<f,g> = sum_x f(x)g(x)b(x), which makes both operators self-adjoint.  The
Green identity

    <Lf, g> = (1/2) sum_{x,y} (f(x)-f(y)) (g(x)-g(y)) b(x,y)

and the Rayleigh quotient R(f) = <Lf,f>/<f,f> are provided as first-class
helpers.  ``probability_matrix`` and ``laplacian_matrix`` give the dense
rows p(x,y) = b(x,y)/b(x) (zero diagonal) and I - P for the
eigen-solver, which needs the matrix itself.
"""

from __future__ import annotations

from typing import Tuple

from .graphs import OFGraph, VertexFunction
from .series import LCNumber, zero

Rows = Tuple[Tuple[LCNumber, ...], ...]


def probability_matrix(g: OFGraph) -> Rows:
    """Rows of the walk matrix P, in vertex order: they sum to one and
    the diagonal is zero."""
    rows = []
    for x in g.vertices:
        inv_bx = g.inverse_vertex_weight(x)
        rows.append(tuple(g.weight(x, y) * inv_bx for y in g.vertices))
    return tuple(rows)


def laplacian_matrix(g: OFGraph) -> Rows:
    """Rows of the normalised Laplacian L = I - P."""
    return tuple(tuple((1 - e if i == j else -e) for j, e in enumerate(row))
                 for i, row in enumerate(probability_matrix(g)))


def apply(g: OFGraph, f: VertexFunction) -> VertexFunction:
    """The walk operator: (Pf)(x) = (sum_{y~x} b(x,y) f(y)) * b(x)^-1."""
    if f.vertices != g.vertices:
        raise ValueError("function and graph have different vertex sets")
    out = []
    for x in g.vertices:
        acc = sum((g.weight(x, y) * f.values[g.index(y)] for y in g.neighbors(x)),
                  zero())
        out.append(acc * g.inverse_vertex_weight(x))
    return VertexFunction(g.vertices, out)


def inner(g: OFGraph, f: VertexFunction, h: VertexFunction) -> LCNumber:
    """Weighted scalar product <f,h> = sum_x f(x) h(x) b(x)."""
    if f.vertices != g.vertices or h.vertices != g.vertices:
        raise ValueError("functions must live on the graph's vertex set")
    acc = zero()
    for x, fv, hv in zip(g.vertices, f.values, h.values):
        acc = acc + fv * hv * g.vertex_weight(x)
    return acc


def norm(g: OFGraph, f: VertexFunction) -> LCNumber:
    """sqrt(<f,f>); exact zero for the zero function."""
    sq = inner(g, f, f)
    if sq.is_zero:
        return sq
    return sq.sqrt()


def green_lhs_rhs(g: OFGraph, f: VertexFunction,
                  h: VertexFunction) -> Tuple[LCNumber, LCNumber]:
    """Both sides of the Green identity, for checking they agree."""
    lhs = inner(g, f - apply(g, f), h)
    rhs = zero()
    for x in g.vertices:
        for y in g.neighbors(x):
            rhs = rhs + (f[x] - f[y]) * (h[x] - h[y]) * g.weight(x, y)
    return lhs, rhs / 2


def rayleigh(g: OFGraph, f: VertexFunction) -> LCNumber:
    """R(f) = <Lf,f>/<f,f> for f not (indistinguishable from) zero."""
    denom = inner(g, f, f)
    if denom.is_zero:
        raise ZeroDivisionError("Rayleigh quotient of the zero function")
    lhs, _ = green_lhs_rhs(g, f, f)
    return lhs * denom.inverse()
