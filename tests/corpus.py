"""Seeded random graphs for property tests.

Weights are positive series c*eps^q with c a small positive rational and
q in {0, 1/2, 1, 2}, occasionally with a higher-order second term, so the
corpus exercises mixed orders of magnitude and fractional exponents.
"""

import random
from fractions import Fraction
from typing import List, Tuple

from lcgraph import OFGraph, monomial, zero

EXPONENTS = (Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2))


def random_monomial_weight(rng: random.Random):
    q = rng.choice(EXPONENTS)
    return monomial(Fraction(rng.randint(1, 5), rng.randint(1, 3)), q)


def random_weight(rng: random.Random):
    w = random_monomial_weight(rng)
    if rng.random() < 0.3:
        q = w.lead_exp
        w = w + monomial(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), q + 1)
    return w


def truncated_weight(rng: random.Random):
    """A random weight cut O(eps^k) above its leading term."""
    w = random_weight(rng)
    return w + zero(w.lead_exp + Fraction(rng.randint(1, 4), 2))


def random_graph(rng: random.Random, n_min: int = 3, n_max: int = 6,
                 weight=random_weight) -> OFGraph:
    n = rng.randint(n_min, n_max)
    names = [str(i + 1) for i in range(n)]
    pairs = set()
    # a random spanning tree keeps every draw connected
    for v in range(1, n):
        pairs.add((rng.randrange(v), v))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in pairs and rng.random() < 0.3:
                pairs.add((u, v))
    triples: List[Tuple[str, str, object]] = [
        (names[u], names[v], weight(rng)) for (u, v) in sorted(pairs)]
    return OFGraph.from_edges(triples, vertices=names)


def random_nonbipartite(rng: random.Random, n_min: int = 3,
                        n_max: int = 6) -> OFGraph:
    g = random_graph(rng, n_min, n_max)
    parts = g.bipartition()
    if parts is None:
        return g
    # close an odd cycle between two vertices on the same side
    side = max(parts, key=len)
    u, v = sorted(rng.sample(side, 2))
    triples = g.edges() + [(u, v, random_weight(rng))]
    return OFGraph.from_edges(triples, vertices=g.vertices)
