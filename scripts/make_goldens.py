#!/usr/bin/env python3
"""Regenerate the expected-output files under tests/golden/.

Run from the repository root after a deliberate output-format change,
then eyeball the diff before committing: the goldens pin the reports for
the bundled example graphs, so a surprising diff means a behavior change
rather than a formatting one.
"""

import contextlib
import io
import pathlib
import sys

from lcgraph.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = ROOT / "tests" / "golden"

# a spectrum comes out numeric only where a root is irrational (fig1's
# sqrt-bearing eigenvalues); everything else stays rational
CASES = {
    "fig1.spectrum.txt": ["spectrum", "fig1.ofg"],
    "fig2.spectrum.txt": ["spectrum", "fig2.ofg"],
    # fig2 with every weight halved and written as decimals, which are
    # exact: P and so the output are fig2's
    "fig2-decimal.spectrum.txt": ["spectrum", "fig2-decimal.ofg"],
    "k2.spectrum.txt": ["spectrum", "k2.ofg"],
    "triangle.spectrum.txt": ["spectrum", "triangle.ofg"],
    "fig1.cheeger.txt": ["cheeger", "fig1.ofg"],
    "fig2.cheeger.txt": ["cheeger", "fig2.ofg"],
    "k2.cheeger.txt": ["cheeger", "k2.ofg"],
    "triangle.cheeger.txt": ["cheeger", "triangle.ofg"],
    "fig1.verify.txt": ["verify", "fig1.ofg"],
    "fig2.verify.txt": ["verify", "fig2.ofg"],
    "k2.verify.txt": ["verify", "k2.ofg"],
    "triangle.verify.txt": ["verify", "triangle.ofg"],
    "fig1.walk.txt": ["walk", "fig1.ofg", "--f", "delta1.fn",
                      "--bipartite", "--steps", "4"],
    # rational, with 7-digit coefficients whose eigenvalue series have
    # denominators far above 2^64: the output must not depend on --precision
    "prec64-triangle.spectrum.txt": ["spectrum", "--trunc", "4",
                                     "prec64-triangle.ofg"],
}


def render(argv):
    argv = [str(FIXTURES / a) if a.endswith((".ofg", ".fn")) else a for a in argv]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code != 0:
        raise SystemExit(f"{argv} exited {code}")
    return buf.getvalue()


def run():
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, argv in sorted(CASES.items()):
        (GOLDEN / name).write_text(render(argv))
        print(f"wrote {name}")


if __name__ == "__main__":
    sys.exit(run())
