"""Walk and Laplace operators of a weighted graph, and the weighted inner product.

The walk operator P has entries p(x,y) = b(x,y)/b(x) (zero diagonal); the
Laplacian is L = I - P.  Functions pair through <f,g> = sum_x f(x)g(x)b(x),
which makes both operators self-adjoint.  The Green identity

    <Lf, g> = (1/2) sum_{x,y} (f(x)-f(y)) (g(x)-g(y)) b(x,y)

and the Rayleigh quotient R(f) = <Lf,f>/<f,f> are provided as first-class
helpers; spectral code reuses the matrices built here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .graphs import OFGraph, VertexFunction
from .series import INF, LCNumber, zero


@dataclass(frozen=True, eq=False)
class OperatorMatrix:
    vertices: Tuple[str, ...]
    rows: Tuple[Tuple[LCNumber, ...], ...]

    @property
    def n(self) -> int:
        return len(self.vertices)

    def entry(self, i: int, j: int) -> LCNumber:
        return self.rows[i][j]

    def to_numeric(self) -> "OperatorMatrix":
        return OperatorMatrix(self.vertices,
                              tuple(tuple(e.to_numeric() for e in row)
                                    for row in self.rows))


def probability_matrix(g: OFGraph) -> OperatorMatrix:
    """Walk matrix P with rows summing to one and zero diagonal."""
    rows = []
    for x in g.vertices:
        inv_bx = g.vertex_weight(x).inverse()
        rows.append(tuple(g.weight(x, y) * inv_bx for y in g.vertices))
    return OperatorMatrix(g.vertices, tuple(rows))


def laplacian_matrix(g: OFGraph) -> OperatorMatrix:
    """Normalised Laplacian L = I - P."""
    p = probability_matrix(g)
    rows = []
    for i in range(p.n):
        rows.append(tuple((1 - e if i == j else -e)
                          for j, e in enumerate(p.rows[i])))
    return OperatorMatrix(g.vertices, tuple(rows))


def apply(m: OperatorMatrix, f: VertexFunction) -> VertexFunction:
    """Matrix action (Mf)(x) = sum_y M[x,y] f(y).

    Exact zero entries (non-edges) are skipped: they add nothing and lower
    no truncation order.  A zero known only to O(eps^k) still counts.
    """
    if f.vertices != m.vertices:
        raise ValueError("function and operator have different vertex sets")
    out = []
    for row in m.rows:
        acc = zero()
        for e, v in zip(row, f.values):
            if e.terms or e.trunc != INF:
                acc = acc + e * v
        out.append(acc)
    return VertexFunction(m.vertices, out)


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
    lf = apply(laplacian_matrix(g), f)
    lhs = inner(g, lf, h)
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
