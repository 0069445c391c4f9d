"""Seeded inputs of the three workloads, kept apart from the library.

A weight is a tuple of (exponent, coefficient) pairs of Fractions, the
benchmark's own record of the series it writes into a graph's text.  The
independent checks read these records, never the library's parse of the
text.  A graph is a tuple of (u, v, weight) edges on vertices "1".."n";
an input is a ``Case``: the graph, its text and what the operation needs.
"""

from __future__ import annotations

import json
import pathlib
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

HERE = pathlib.Path(__file__).resolve().parent
POOL_FILE = HERE / "audit_pool.json"

EXPONENTS = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))

AUDIT_TRUNC = Fraction(4)
CUTS_TRUNC = Fraction(4)
WALK_TRUNC = Fraction(16)
WALK_STEPS = 16


@dataclass(frozen=True)
class Case:
    label: str
    edges: tuple          # ((u, v, weight), ...)
    text: str
    trunc: Fraction
    expect_fail: Tuple[str, ...] = ()   # audit: the named fault's failing checks
    f: Optional[tuple] = None           # walk: one Fraction per vertex


# -- text -----------------------------------------------------------------------

def _exp_text(q: Fraction) -> str:
    return "" if q == 0 else f"*eps^({q})"


def weight_text(w) -> str:
    out = []
    for q, c in w:
        body = f"{abs(c)}{_exp_text(q)}"
        if not out:
            out.append(body if c > 0 else f"-{body}")
        else:
            out.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(out)


def graph_text(edges) -> str:
    return "".join(f"{u} {v} {weight_text(w)}\n" for u, v, w in edges)


def parse_weight_text(text: str):
    """Read back the restricted grammar that ``weight_text`` and the
    failure graphs below use: ``c``, ``c*eps``, ``c*eps^k``, ``c*eps^(p/q)``
    joined by `` + `` / `` - ``."""
    terms = []
    for tok in text.replace("- ", "-").replace("+ ", "+").split():
        sign = -1 if tok[0] == "-" else 1
        tok = tok.lstrip("+-")
        coeff, _, power = tok.partition("*")
        if coeff.startswith("eps"):
            coeff, power = "1", coeff
        if power:
            rest = power[len("eps"):]
            q = Fraction(rest[1:].strip("()")) if rest else Fraction(1)
        else:
            q = Fraction(0)
        terms.append((q, sign * Fraction(coeff)))
    return tuple(sorted(terms))


def edges_from_text(text: str):
    edges = []
    for line in text.splitlines():
        u, v, w = line.split(None, 2)
        edges.append((u, v, parse_weight_text(w)))
    return tuple(edges)


def vertex_order(edges):
    """Vertices in order of first appearance, as the library's parser does."""
    order = []
    for u, v, _ in edges:
        for x in (u, v):
            if x not in order:
                order.append(x)
    return order


# -- random graphs (the draw of scripts/random_audit.py) ------------------------

def random_weight(rng: random.Random):
    q = rng.choice(EXPONENTS)
    terms = [(q, Fraction(rng.randint(1, 5), rng.randint(1, 3)))]
    if rng.random() < 0.3:
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        if c:
            terms.append((q + 1, c))
    return tuple(terms)


def random_edges(rng: random.Random, n: int):
    """A random spanning tree plus each other pair with probability 0.3,
    listed so that vertices first appear in the order 1..n."""
    pairs = set()
    for v in range(1, n):
        pairs.add((rng.randrange(v), v))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in pairs and rng.random() < 0.3:
                pairs.add((u, v))
    ordered = sorted(pairs, key=lambda p: (p[1], p[0]))
    return tuple((str(u + 1), str(v + 1), random_weight(rng)) for u, v in ordered)


# -- audit -------------------------------------------------------------------------

# The five graphs of ROADMAP item 2, each at the truncation order where it
# fails, with the checks its fault fails.  The README gives the
# scripts/random_audit.py commands that draw them.  Edge lines are ordered so
# that parse_graph sees the vertices in the order 1..n, as the script's
# graphs have them; graph 58 passes under another vertex order.
FAILURE_GRAPHS = (
    ("seed3-graph28", 4, ("convergence-verdict",),
     "1 2 eps\n1 3 eps\n1 4 1/2*eps^2 - 2/3*eps^3\n2 3 5\n2 4 1/2\n3 4 2\n"),
    ("seed3-graph31", 4, ("residual-order",),
     "1 2 2\n1 3 eps\n2 3 2*eps^2\n2 4 1/3*eps^(1/2)\n2 5 4/3\n3 5 2*eps\n"
     "3 6 5/2 - 2*eps\n2 7 1/2*eps\n"),
    ("seed1-graph7", 4, ("first-excited-orthogonal",),
     "1 2 3/2\n1 3 2 - 3/2*eps\n1 4 5/3\n1 5 2\n2 4 2*eps^2\n"
     "4 6 2/3*eps^(1/2)\n5 6 4/3*eps^2\n"),
    ("seed1-graph58", 4, ("residual-order",),
     "1 2 5/2*eps^2 - 1/3*eps^3\n2 3 3/2*eps + 3*eps^2\n1 4 5/2*eps\n"
     "4 5 eps^2\n2 6 2*eps^2\n"),
    ("seed2-graph9", 6, ("residual-order",),
     "1 2 1/2*eps^2 - eps^3\n1 3 4*eps\n1 4 5/3\n1 5 2\n1 6 eps^2 + 1/2*eps^3\n"
     "2 5 4/3*eps^2 - 2*eps^3\n3 4 5/2*eps^2\n3 5 5/3\n"),
)

# pool graphs of each size in one round
AUDIT_ROUND = {4: 5, 5: 5, 6: 3, 7: 2}


def failure_cases():
    out = []
    for label, trunc, expect, text in FAILURE_GRAPHS:
        edges = edges_from_text(text)
        out.append(Case(label, edges, text, Fraction(trunc), expect_fail=expect))
    return out


def load_pool():
    """The screened audit pool (see make_pool.py) as cost tiers:
    {n: [[graph text, ...] for each of AUDIT_ROUND[n] tiers]}.

    The graphs of a size are ranked by the time their audit took when the
    pool was made and cut into equal tiers; a round draws one graph from
    each tier, so every round has about the same make-up of cheap and
    costly graphs.
    """
    data = json.loads(POOL_FILE.read_text())
    tiers = {}
    for n, graphs in data["pool"].items():
        n = int(n)
        ranked = [g["text"] for g in sorted(graphs, key=lambda g: g["seconds"])]
        size = len(ranked) // AUDIT_ROUND[n]
        tiers[n] = [ranked[i * size:(i + 1) * size] for i in range(AUDIT_ROUND[n])]
    return tiers


def audit_rounds(seed):
    """Each round: the five failure graphs, then one pool graph per tier.

    Each tier is walked in a seeded order, so a run sees every graph of a
    tier once before any repeats.
    """
    tiers = load_pool()
    rng = random.Random(f"audit:{seed}")
    queues = {}
    while True:
        cases = failure_cases()
        for n, size_tiers in tiers.items():
            for t, tier in enumerate(size_tiers):
                if not queues.get((n, t)):
                    queues[n, t] = rng.sample(tier, len(tier))
                text = queues[n, t].pop()
                cases.append(Case(f"pool-n{n}", edges_from_text(text), text,
                                  AUDIT_TRUNC))
        yield cases


# -- cuts --------------------------------------------------------------------------

CUTS_N = 10
CUTS_EDGES = 15
CUTS_SECOND_TERMS = 5
CUTS_ROUND = 4


def cuts_edges(rng: random.Random):
    """A connected graph on CUTS_N vertices with CUTS_EDGES edges.

    The exponents {0, 1/2, 1, 2} are dealt out evenly and CUTS_SECOND_TERMS
    weights get a second term, so that every draw costs about the same;
    the tree, the extra edges, the deal and the coefficients are random.
    """
    n = CUTS_N
    pairs = {(rng.randrange(v), v) for v in range(1, n)}
    others = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in pairs]
    pairs |= set(rng.sample(others, CUTS_EDGES - (n - 1)))
    exps = [EXPONENTS[i % len(EXPONENTS)] for i in range(CUTS_EDGES)]
    rng.shuffle(exps)
    second = set(rng.sample(range(CUTS_EDGES), CUTS_SECOND_TERMS))
    edges = []
    for k, (u, v) in enumerate(sorted(pairs, key=lambda p: (p[1], p[0]))):
        w = [(exps[k], Fraction(rng.randint(1, 5), rng.randint(1, 3)))]
        if k in second:
            w.append((exps[k] + 1, Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                                            rng.randint(1, 3))))
        edges.append((str(u + 1), str(v + 1), tuple(w)))
    return tuple(edges)


def cuts_rounds(seed):
    rng = random.Random(f"cuts:{seed}")
    while True:
        cases = []
        for _ in range(CUTS_ROUND):
            edges = cuts_edges(rng)
            cases.append(Case(f"random-n{CUTS_N}", edges, graph_text(edges),
                              CUTS_TRUNC))
        yield cases


# -- walk --------------------------------------------------------------------------

# one depth in five is 1/2, whose series are twice as long as the others';
# with four depths those graphs would be the top quarter exactly, and the
# 75th percentile would sit in the gap below them
WALK_DEPTHS = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2))
WALK_SIZES = {"path": 8, "ladder": 6, "spider": 5}


def _strong(rng):
    return ((Fraction(0), Fraction(rng.randint(1, 3))),)


def _weak(rng, q):
    return ((q, Fraction(rng.randint(1, 3))),)


def walk_shape(rng: random.Random, shape: str, where: str, q: Fraction):
    """Bipartite graphs with a weak edge eps^q at the boundary or the centre.

    path:   WALK_SIZES["path"] vertices; the weak edge is the first one
            (boundary) or the middle one (centre), the paper's two families.
    ladder: a 2 x k ladder; a weak end rung (boundary), or both rails cut
            weakly in the middle (centre).
    spider: a hub with legs of length two; a weak leaf edge (boundary), or
            one leg joined to the hub by a weak edge (centre).
    Other edges have weights 1, 2 or 3 and the weak edge c*eps^q, c in 1..3.
    """
    n = WALK_SIZES[shape]
    if shape == "path":
        pairs = [(i, i + 1) for i in range(n - 1)]
        weak_pairs = {pairs[0] if where == "boundary" else pairs[n // 2 - 1]}
    elif shape == "ladder":
        k = n // 2
        # vertex 2i is on the top rail, 2i+1 below it
        pairs = [(2 * i, 2 * i + 1) for i in range(k)]
        pairs += [(2 * i + s, 2 * i + 2 + s) for i in range(k - 1) for s in (0, 1)]
        mid = 2 * (k // 2 - 1)
        weak_pairs = ({(2 * k - 2, 2 * k - 1)} if where == "boundary"
                      else {(mid, mid + 2), (mid + 1, mid + 3)})
    else:
        pairs = []
        for a in range(1, n, 2):
            pairs += [(0, a), (a, a + 1)]
        weak_pairs = {(1, 2)} if where == "boundary" else {(0, 1)}
    edges = []
    for u, v in sorted(pairs, key=lambda p: (p[1], p[0])):
        w = _weak(rng, q) if (u, v) in weak_pairs else _strong(rng)
        edges.append((str(u + 1), str(v + 1), w))
    return tuple(edges)


WALK_SCHEDULE = tuple((shape, where, q) for shape in WALK_SIZES
                      for where in ("boundary", "centre") for q in WALK_DEPTHS)


def walk_rounds(seed):
    """Each round: every (shape, position, depth) once, in a seeded order,
    with seeded weights and a seeded f with values in -2..2."""
    rng = random.Random(f"walk:{seed}")
    while True:
        cases = []
        for shape, where, q in rng.sample(WALK_SCHEDULE, len(WALK_SCHEDULE)):
            edges = walk_shape(rng, shape, where, q)
            n = WALK_SIZES[shape]
            f = tuple(Fraction(rng.randint(-2, 2)) for _ in range(n))
            if len(set(f)) == 1:
                f = (f[0] + 1,) + f[1:]
            cases.append(Case(f"{shape}-{where}-q{q}", edges, graph_text(edges),
                              WALK_TRUNC, f=f))
        yield cases
