#!/usr/bin/env python3
"""Write every public output of lcgraph on 519 cases, one file each.

    PYTHONPATH=src python3 scripts/output_digest.py DIR

For each case the script writes DIR/<label>.txt and prints
``<label> <sha256 of the file>``.  A file holds one field per line:

* the spectrum's mode, residual order and work order; every lambda,
  alpha and eigenvector coordinate, and every coefficient of ``char``,
  each with its coefficient mode;
* the rendered ``verify_spectral_theorems`` and
  ``cheeger_inequality_check`` reports;
* the Cheeger cut, and the ``h_convergence_verdict`` rendered at 60 digits;
* ``iterate`` in full and in bipartite mode, with spectrum and cut, from
  the delta function at the first vertex for 4 steps, each field of each
  step (``cheeger_bound_sq`` among them) on a line of its own.

The walk cases (``walk16-*``) hold the cut and both walks, with the cut
and no spectrum, from the case's own function for 16 steps at trunc 16:
the 30 graphs of the first round of perfbench's ``walk_rounds(7)``.

An exception ends a section with an ``error:`` line.  The cases are the
``FAILURE_GRAPHS`` of perfbench/inputs.py at their own orders, the 60
graphs of perfbench/audit_pool.json at trunc 4, 40 draws each of
``random_graph`` from tests/corpus.py with seeds 0-3, 40 draws with
``truncated_weight`` weights, each cut ``O(eps^k)`` above its leading
term, with seed 5 (``trunc-05-NN``), and the acceptance corpus
(``random.Random(0)``, monomial weights, 200 draws), all at trunc 4, every bundled ``fixtures/*.ofg`` at trunc 4 and at trunc 8
(``fixture-<name>-t<trunc>``, 24 cases), and the 30 walk cases; every
case runs inside ``truncation(trunc)``, as ``lcgraph verify --trunc``
does.  The perfbench files are read, never written.

To compare two trees, run the script once with PYTHONPATH set to each
tree's src and diff the two directories.  A run took 47 s to 1.5 minutes
on one core of a 2-core AMD EPYC (Python 3.11.7, mpmath 1.3.0), which
runs in phases of different speed.
"""

import hashlib
import itertools
import json
import pathlib
import random
import sys
from fractions import Fraction

from lcgraph import (
    cheeger_constant,
    cheeger_inequality_check,
    compute_spectrum,
    format_series,
    from_rational,
    h_convergence_verdict,
    iterate,
    parse_graph,
    truncation,
    verify_spectral_theorems,
    VertexFunction,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
# tests/ and perfbench/ are not packages; no bytecode is cached there
sys.dont_write_bytecode = True
sys.path.insert(0, str(ROOT / "tests"))
sys.path.insert(0, str(ROOT / "perfbench"))
from corpus import random_graph, random_monomial_weight, truncated_weight  # noqa: E402
from inputs import FAILURE_GRAPHS, POOL_FILE, WALK_STEPS, walk_rounds  # noqa: E402

TRUNC = Fraction(4)
STEPS = 4
WALK_SEED = 7


def cases():
    """(label, graph, trunc) for every case, in a fixed order."""
    for label, trunc, _, text in FAILURE_GRAPHS:
        yield f"failure-{label}", parse_graph(text), Fraction(trunc)
    pool = json.loads(POOL_FILE.read_text())["pool"]
    for n, graphs in sorted(pool.items()):
        for i, entry in enumerate(graphs):
            yield f"pool-n{n}-{i:02d}", parse_graph(entry["text"]), TRUNC
    for seed in range(4):
        rng = random.Random(seed)
        for i in range(40):
            yield f"random-s{seed}-{i:02d}", random_graph(rng), TRUNC
    rng = random.Random(5)
    for i in range(40):
        yield f"trunc-05-{i:02d}", random_graph(rng, weight=truncated_weight), TRUNC
    rng = random.Random(0)
    for i in range(200):
        yield f"corpus-{i:03d}", random_graph(rng, weight=random_monomial_weight), TRUNC
    for path in sorted((ROOT / "fixtures").glob("*.ofg")):
        for trunc in (Fraction(4), Fraction(8)):
            yield f"fixture-{path.stem}-t{trunc}", parse_graph(path.read_text()), trunc


def walk_cases():
    """(label, graph, trunc, f) for the first round of walk_rounds(WALK_SEED)."""
    for i, case in enumerate(next(walk_rounds(WALK_SEED))):
        g = parse_graph(case.text)
        f = VertexFunction(g.vertices, [from_rational(c) for c in case.f])
        yield f"walk16-{i:02d}-{case.label.replace('/', '_')}", g, case.trunc, f


def series(x) -> str:
    return f"{x.mode} {format_series(x)}"


def spectrum_lines(g, spec):
    out = [f"spectrum.mode = {spec.mode}",
           f"spectrum.residual_order = {spec.residual_order}",
           f"spectrum.work_order = {spec.work_order}"]
    for i, pair in enumerate(spec.pairs):
        out.append(f"pair {i} lambda = {series(pair.lam)}")
        out.append(f"pair {i} alpha = {series(pair.alpha)}")
        for x in g.vertices:
            out.append(f"pair {i} v[{x}] = {series(pair.function[x])}")
    for k, c in enumerate(spec.char.coeffs):
        out.append(f"char[{k}] = {series(c)}")
    return out


def walk_lines(g, walk_mode, spec, cut, f, steps):
    rep = iterate(g, f, m_max=steps, mode=walk_mode, spectrum=spec, cut=cut)
    tag = f"walk {walk_mode}"
    out = [f"{tag} precondition = {rep.precondition}",
           f"{tag} norm_sq = {series(rep.norm_sq)}"]
    out += [f"{tag} equilibrium[{x}] = {series(v)}" for x, v in rep.equilibrium.items()]
    for s in rep.steps:
        head = f"{tag} step {s.index}"
        out.append(f"{head} power = {s.power}")
        out += [f"{head} f[{x}] = {series(v)}" for x, v in s.function.items()]
        out.append(f"{head} deviation_sq = {series(s.deviation_sq)}")
        for name in ("alpha_bound_sq", "cheeger_bound_sq"):
            value = getattr(s, name)
            out.append(f"{head} {name} = {value if value is None else series(value)}")
        out.append(f"{head} alpha_ok = {s.alpha_ok}")
        out.append(f"{head} cheeger_ok = {s.cheeger_ok}")
    return out


def section(out, fn, *args):
    """Append fn(*args)'s lines, or one error line; return whether it ran."""
    try:
        out.extend(fn(*args))
        return True
    except Exception as exc:  # the failure is itself an output
        out.append(f"error: {type(exc).__name__}: {exc}")
        return False


def cut_lines(g, state):
    c = state["cut"] = cheeger_constant(g)
    return [f"cut.subset = {' '.join(c.subset)}", f"cut.h = {series(c.h)}",
            f"cut.boundary = {series(c.boundary)}",
            f"cut.mass = {series(c.mass)}"]


def digest(g, trunc):
    out = [f"n = {g.n}", f"trunc = {trunc}"]
    state = {}

    def spectrum():
        state["spec"] = compute_spectrum(g, trunc_order=trunc)
        return spectrum_lines(g, state["spec"])

    with truncation(trunc):
        has_spec = section(out, spectrum)
        has_cut = section(out, cut_lines, g, state)
        spec, c = state.get("spec"), state.get("cut")
        if has_spec:
            section(out, lambda: verify_spectral_theorems(g, spec).render().splitlines())
        if has_spec and has_cut:
            section(out, lambda: cheeger_inequality_check(g, spec, c).render().splitlines())
        if has_cut:
            section(out, lambda: h_convergence_verdict(g, c, spec).render(digits=60)
                    .splitlines())
        delta = VertexFunction.delta(g.vertices, g.vertices[0])
        for walk_mode in ("full", "bipartite"):
            section(out, walk_lines, g, walk_mode, spec, c, delta, STEPS)
    return "\n".join(out) + "\n"


def walk_digest(g, trunc, f):
    out = [f"n = {g.n}", f"trunc = {trunc}"]
    state = {}
    with truncation(trunc):
        section(out, cut_lines, g, state)
        for walk_mode in ("bipartite", "full"):
            section(out, walk_lines, g, walk_mode, None, state.get("cut"), f, WALK_STEPS)
    return "\n".join(out) + "\n"


def run(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    target = pathlib.Path(argv[0])
    target.mkdir(parents=True, exist_ok=True)
    outputs = itertools.chain(
        ((label, digest(g, trunc)) for label, g, trunc in cases()),
        ((label, walk_digest(g, trunc, f)) for label, g, trunc, f in walk_cases()))
    for label, text in outputs:
        (target / f"{label}.txt").write_text(text)
        print(label, hashlib.sha256(text.encode()).hexdigest(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(run())
