"""Finite graphs with positive series edge weights, and vertex functions.

A graph is a finite vertex set with a symmetric weight function b(x,y)
whose values are strictly positive Levi-Civita series; b(x,y) = 0 marks a
non-edge and loops are not allowed.  Vertex weights b(x) = sum_y b(x,y)
normalise the transition weights p(x,y) = b(x,y)/b(x) of the random walk.

The text format is one edge per line, ``<u> <v> <weight series>``, with
``#`` comment lines; vertex functions are ``<vertex> <series>`` lines.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .errors import GraphValidationError, SeriesParseError
from .series import (LCNumber, NUMERIC, default_truncation, format_series, monomial,
                     parse_series, zero)


class OFGraph:
    """Undirected graph over an ordered field: vertices, weights, walk data."""

    __slots__ = ("vertices", "_index", "_adj", "_vertex_weight", "_inverse_weight",
                 "_total")

    def __init__(self, vertices: Sequence[str], adjacency: Dict[str, Dict[str, LCNumber]]):
        object.__setattr__(self, "vertices", tuple(vertices))
        object.__setattr__(self, "_index", {v: i for i, v in enumerate(self.vertices)})
        object.__setattr__(self, "_adj", adjacency)
        object.__setattr__(self, "_vertex_weight", {})
        object.__setattr__(self, "_inverse_weight", {})
        object.__setattr__(self, "_total", None)

    def __setattr__(self, name, value):
        raise AttributeError("OFGraph is immutable")

    @classmethod
    def from_edges(cls, edges: Iterable[Tuple[str, str, LCNumber]],
                   vertices: Optional[Sequence[str]] = None) -> "OFGraph":
        """Build a graph from (u, v, weight) triples.

        Weights must be strictly positive series with rational coefficients;
        an exactly-zero weight is treated as an absent edge.  A weight with
        numeric coefficients is refused, not converted: the exact dyadic
        value of a float would carry a huge denominator into every series.
        Duplicate edges and loops are rejected.
        """
        order: List[str] = list(vertices) if vertices is not None else []
        seen = set(order)
        if len(seen) != len(order):
            raise GraphValidationError("duplicate vertex in vertex list")
        adj: Dict[str, Dict[str, LCNumber]] = {v: {} for v in order}
        for u, v, w in edges:
            u, v = str(u), str(v)
            if u == v:
                raise GraphValidationError(f"loop at vertex {u!r} is not allowed")
            if not isinstance(w, LCNumber):
                raise GraphValidationError(f"edge {u!r} {v!r}: weight must be a series")
            if w.mode == NUMERIC:
                raise GraphValidationError(
                    f"edge {u!r} {v!r}: weight {format_series(w)} has numeric "
                    "coefficients; graph weights are rational")
            if w.is_zero:
                continue
            if w.sign() < 0:
                raise GraphValidationError(
                    f"edge {u!r} {v!r}: weight {format_series(w)} is negative")
            for x in (u, v):
                if x not in seen:
                    if vertices is not None:
                        raise GraphValidationError(f"edge endpoint {x!r} not in vertex list")
                    seen.add(x)
                    order.append(x)
                    adj[x] = {}
            if v in adj[u]:
                raise GraphValidationError(f"duplicate edge {u!r} {v!r}")
            adj[u][v] = w
            adj[v][u] = w
        for x in order:
            if not adj[x]:
                raise GraphValidationError(f"vertex {x!r} has no incident edge")
        return cls(order, adj)

    # -- weights ----------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.vertices)

    def index(self, x: str) -> int:
        return self._index[x]

    def weight(self, x: str, y: str) -> LCNumber:
        """Edge weight b(x,y); exact zero when x and y are not adjacent."""
        if x not in self._index or y not in self._index:
            raise KeyError(f"unknown vertex in ({x!r}, {y!r})")
        return self._adj[x].get(y, zero())

    def vertex_weight(self, x: str) -> LCNumber:
        """b(x) = sum of the weights of edges at x; strictly positive."""
        cached = self._vertex_weight.get(x)
        if cached is None:
            cached = self._vertex_weight[x] = sum(self._adj[x].values(), zero())
        return cached

    def inverse_vertex_weight(self, x: str) -> LCNumber:
        """b(x)^-1, once per vertex and ambient truncation order, the order
        to which the inverse of an exact b(x) is expanded."""
        key = (x, default_truncation())
        cached = self._inverse_weight.get(key)
        if cached is None:
            cached = self._inverse_weight[key] = self.vertex_weight(x).inverse()
        return cached

    def total_weight(self) -> LCNumber:
        """b(V) = sum of all vertex weights (each edge counted twice)."""
        if self._total is None:
            object.__setattr__(self, "_total",
                               sum(map(self.vertex_weight, self.vertices), zero()))
        return self._total

    def neighbors(self, x: str) -> Tuple[str, ...]:
        return tuple(sorted(self._adj[x], key=self._index.__getitem__))

    def edges(self) -> List[Tuple[str, str, LCNumber]]:
        out = []
        for i, u in enumerate(self.vertices):
            for v in self.neighbors(u):
                if self._index[v] > i:
                    out.append((u, v, self._adj[u][v]))
        return out

    # -- structure ---------------------------------------------------------

    def is_connected(self) -> bool:
        if not self.vertices:
            return False
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            x = stack.pop()
            for y in self._adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == self.n

    def bipartition(self) -> Optional[Tuple[Tuple[str, ...], Tuple[str, ...]]]:
        """Two-coloring (sides ordered by vertex index), or None if an odd cycle exists."""
        color: Dict[str, int] = {}
        for start in self.vertices:
            if start in color:
                continue
            color[start] = 0
            stack = [start]
            while stack:
                x = stack.pop()
                for y in self._adj[x]:
                    if y not in color:
                        color[y] = 1 - color[x]
                        stack.append(y)
                    elif color[y] == color[x]:
                        return None
        side0 = tuple(v for v in self.vertices if color[v] == 0)
        side1 = tuple(v for v in self.vertices if color[v] == 1)
        return side0, side1

    def is_bipartite(self) -> bool:
        return self.bipartition() is not None

    def is_complete(self) -> bool:
        return all(len(self._adj[x]) == self.n - 1 for x in self.vertices)

    def __repr__(self) -> str:
        return f"OFGraph({self.n} vertices, {len(self.edges())} edges)"


class VertexFunction:
    """A function from the vertices of a graph into the series field."""

    __slots__ = ("vertices", "values")

    def __init__(self, vertices: Sequence[str], values: Sequence[LCNumber]):
        vertices = tuple(vertices)
        values = tuple(values)
        if len(vertices) != len(values):
            raise ValueError("one value per vertex required")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("VertexFunction is immutable")

    @classmethod
    def from_mapping(cls, vertices: Sequence[str], mapping) -> "VertexFunction":
        missing = [v for v in vertices if v not in mapping]
        if missing:
            raise GraphValidationError(f"function undefined at {missing}")
        extra = [v for v in mapping if v not in set(vertices)]
        if extra:
            raise GraphValidationError(f"function defined at unknown vertices {extra}")
        return cls(vertices, [mapping[v] for v in vertices])

    @classmethod
    def constant(cls, vertices: Sequence[str], value) -> "VertexFunction":
        value = value if isinstance(value, LCNumber) else monomial(value)
        return cls(vertices, [value] * len(vertices))

    @classmethod
    def delta(cls, vertices: Sequence[str], x: str) -> "VertexFunction":
        if x not in vertices:
            raise KeyError(f"unknown vertex {x!r}")
        return cls(vertices, [monomial(Fraction(1)) if v == x else zero()
                              for v in vertices])

    def __getitem__(self, x: str) -> LCNumber:
        return self.values[self.vertices.index(x)]

    def items(self):
        return zip(self.vertices, self.values)

    def _check_same(self, other: "VertexFunction"):
        if self.vertices != other.vertices:
            raise ValueError("vertex functions live on different vertex sets")

    def __add__(self, other: "VertexFunction") -> "VertexFunction":
        self._check_same(other)
        return VertexFunction(self.vertices,
                              [a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other: "VertexFunction") -> "VertexFunction":
        self._check_same(other)
        return VertexFunction(self.vertices,
                              [a - b for a, b in zip(self.values, other.values)])

    def __neg__(self) -> "VertexFunction":
        return VertexFunction(self.vertices, [-a for a in self.values])

    def scale(self, c) -> "VertexFunction":
        return VertexFunction(self.vertices, [v * c for v in self.values])

    @property
    def is_zero(self) -> bool:
        return all(v.is_zero for v in self.values)

    def to_numeric(self) -> "VertexFunction":
        return VertexFunction(self.vertices, [v.to_numeric() for v in self.values])

    def truncate(self, order) -> "VertexFunction":
        return VertexFunction(self.vertices, [v.truncate(order) for v in self.values])

    def __repr__(self) -> str:
        body = ", ".join(f"{v}: {format_series(c)}" for v, c in self.items())
        return f"VertexFunction({{{body}}})"


# -- text format -------------------------------------------------------------

def _data_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        yield lineno, line


def parse_graph(text: str) -> OFGraph:
    """Parse the edge-list format: ``<u> <v> <weight series>`` per line."""
    edges = []
    for lineno, line in _data_lines(text):
        parts = line.split(None, 2)
        if len(parts) < 3:
            raise GraphValidationError(
                f"line {lineno}: expected '<u> <v> <weight>', got {line!r}")
        u, v, expr = parts
        try:
            w = parse_series(expr)
        except SeriesParseError as exc:
            raise SeriesParseError(f"bad weight on line {lineno}: {exc}") from exc
        if w.sign() <= 0:
            raise GraphValidationError(
                f"line {lineno}: edge weight must be strictly positive, got {expr!r}")
        edges.append((u, v, w))
    if not edges:
        raise GraphValidationError("no edges in graph input")
    return OFGraph.from_edges(edges)


def _read_text(path) -> str:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GraphValidationError(
            f"{path}: not UTF-8 text, byte {exc.start} is "
            f"{data[exc.start:exc.start + 1]!r}") from exc


def load_graph(path) -> OFGraph:
    return parse_graph(_read_text(path))


def dump_graph(g: OFGraph) -> str:
    lines = [f"{u} {v} {format_series(w)}" for u, v, w in g.edges()]
    return "\n".join(lines) + "\n"


def parse_function(text: str, graph: OFGraph) -> VertexFunction:
    """Parse ``<vertex> <series>`` lines into a function on graph's vertices."""
    mapping = {}
    for lineno, line in _data_lines(text):
        parts = line.split(None, 1)
        if len(parts) < 2:
            raise GraphValidationError(
                f"line {lineno}: expected '<vertex> <value>', got {line!r}")
        v, expr = parts
        if v in mapping:
            raise GraphValidationError(f"line {lineno}: duplicate vertex {v!r}")
        try:
            mapping[v] = parse_series(expr)
        except SeriesParseError as exc:
            raise SeriesParseError(f"bad value on line {lineno}: {exc}") from exc
    return VertexFunction.from_mapping(graph.vertices, mapping)


def load_function(path, graph: OFGraph) -> VertexFunction:
    return parse_function(_read_text(path), graph)
