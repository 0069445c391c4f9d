#!/usr/bin/env python3
"""Audit the whole verification stack on seeded random graphs.

Each draw is ``random_graph`` of tests/corpus.py: a connected graph on
3..6 vertices with weights c*eps^q, c a small positive rational and q in
{0, 1/2, 1, 2}, sometimes with a second term one order up.  For every graph
the script computes the spectrum and the Cheeger cut, then runs the
spectral theorem report, the Cheeger estimate report and the convergence
verdict cross-check.  Any failure prints the offending graph and the
full report so the draw can be replayed; a draw the library refuses
(an ``LCGraphError``) prints as a failed graph with the error's message.
The exit code is 0 only when every check on every graph passes, and 2
for a bad flag value.
"""

import argparse
import pathlib
import random
import sys
import time
from fractions import Fraction

from lcgraph import (
    MAX_VERTICES,
    OFGraph,
    cheeger_constant,
    cheeger_inequality_check,
    compute_spectrum,
    dump_graph,
    h_convergence_verdict,
    truncation,
    verify_spectral_theorems,
)
from lcgraph.cli import count, rational
from lcgraph.errors import LCGraphError

# the draw is the test corpus's; tests/ is not a package
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tests"))
from corpus import random_graph  # noqa: E402


def audit_one(g: OFGraph, trunc: Fraction) -> list:
    # the whole audit runs at --trunc, as `lcgraph verify --trunc` does
    with truncation(trunc):
        spec = compute_spectrum(g, trunc_order=trunc)
        cut = cheeger_constant(g)
        reports = [verify_spectral_theorems(g, spec),
                   cheeger_inequality_check(g, spec, cut)]
        verdict = h_convergence_verdict(g, cut, spectrum=spec)
    failures = [item.render() for rep in reports for item in rep.failures]
    if verdict.consistent is False:
        failures.append(f"convergence verdict inconsistent: guarantee "
                        f"{verdict.guarantee} with alpha_1 {verdict.alpha1_kind}")
    return failures


def size(text: str) -> int:
    """A vertex count the spectrum supports, for --min-n and --max-n."""
    value = int(text)
    if not 2 <= value <= MAX_VERTICES:
        raise argparse.ArgumentTypeError(
            f"must be in [2, {MAX_VERTICES}], got {value}")
    return value


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--count", type=count, default=50,
                    help="number of graphs to draw (default 50)")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed for the graph stream (default 0)")
    ap.add_argument("--trunc", type=rational, default=Fraction(4),
                    help="truncation order for the spectra (default 4)")
    ap.add_argument("--min-n", type=size, default=3)
    ap.add_argument("--max-n", type=size, default=6)
    args = ap.parse_args(argv)
    if args.trunc <= 0:
        ap.error(f"--trunc must be positive, got {args.trunc}")
    if args.min_n > args.max_n:
        ap.error(f"--min-n {args.min_n} is above --max-n {args.max_n}")

    rng = random.Random(args.seed)
    bad = 0
    started = time.monotonic()
    for i in range(args.count):
        g = random_graph(rng, args.min_n, args.max_n)
        try:
            failures = audit_one(g, args.trunc)
        except LCGraphError as exc:
            failures = [f"error: {exc}"]
        if failures:
            bad += 1
            print(f"graph {i} FAILED:")
            print(dump_graph(g).rstrip("\n"))
            for item in failures:
                print(f"  {item}")
    elapsed = time.monotonic() - started
    verdict = "all reports passed" if bad == 0 else f"{bad} graph(s) FAILED"
    print(f"audited {args.count} graphs (seed {args.seed}, "
          f"trunc {args.trunc}) in {elapsed:.1f}s: {verdict}")
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(run())
