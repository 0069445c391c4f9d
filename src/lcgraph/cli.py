"""Command-line front end.

Subcommands: spectrum, cheeger, walk, verify, selftest.  All output is
plain text and byte-deterministic for a fixed input and configuration;
exit status is 0 when every check passes, 1 when a theorem check fails,
2 on input errors.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import ExitStack
from fractions import Fraction
from typing import Tuple

from .cheeger import cheeger_constant, cheeger_inequality_check
from .errors import LCGraphError
from .graphs import dump_graph, load_function, load_graph
from .selfcheck import run_selfcheck
from .series import (MAX_PRECISION_BITS, exact_literal, format_series,
                     numeric_precision, set_numeric_precision, truncation)
from .spectral import compute_spectrum, verify_spectral_theorems
from .walks import h_convergence_verdict, iterate

DISPLAY_DIGITS = 40


def _series(x) -> str:
    return format_series(x, digits=DISPLAY_DIGITS)


def cmd_spectrum(args) -> Tuple[str, int]:
    g = load_graph(args.graph)
    spec = compute_spectrum(g, trunc_order=args.trunc)
    lines = [f"n = {g.n} ; mode = {spec.mode} ; trunc = {spec.trunc_order} ; "
             f"residual_order = {spec.residual_order}"]
    # pairs are computed at an elevated internal order; display at the
    # order that was asked for
    t = args.trunc
    for pair in spec.pairs:
        coords = ", ".join(_series(pair.function[x].truncate(t)) for x in g.vertices)
        lines.append(f"lambda = {_series(pair.lam.truncate(t))} ; "
                     f"alpha = {_series(pair.alpha.truncate(t))} ; v = ({coords})")
    return "\n".join(lines), 0


def cmd_cheeger(args) -> Tuple[str, int]:
    g = load_graph(args.graph)
    cut = cheeger_constant(g)
    spec = compute_spectrum(g, trunc_order=args.trunc)
    rep = cheeger_inequality_check(g, spec, cut)
    lines = [f"h = {_series(cut.h)}",
             "subset = {" + ", ".join(cut.subset) + "}",
             f"boundary = {_series(cut.boundary)} ; mass = {_series(cut.mass)}",
             rep.render()]
    return "\n".join(lines), 0 if rep.passed else 1


def cmd_walk(args) -> Tuple[str, int]:
    g = load_graph(args.graph)
    f = load_function(args.f, g)
    spec = compute_spectrum(g, trunc_order=args.trunc)
    cut = cheeger_constant(g)
    walk_mode = "bipartite" if args.bipartite else "full"
    rep = iterate(g, f, m_max=args.steps, mode=walk_mode, spectrum=spec, cut=cut)

    lines = [f"mode = {rep.mode} ; steps = {args.steps} ; "
             f"precondition = {rep.precondition}",
             "equilibrium = (" +
             ", ".join(_series(rep.equilibrium[x]) for x in g.vertices) + ")"]
    for s in rep.steps:
        verdicts = []
        if s.alpha_ok is not None:
            verdicts.append(f"alpha-bound {'PASS' if s.alpha_ok else 'FAIL'}")
        if s.cheeger_ok is not None:
            verdicts.append(f"cheeger-bound {'PASS' if s.cheeger_ok else 'FAIL'}")
        lines.append(f"step {s.index}: power {s.power} ; "
                     f"dev^2 = {_series(s.deviation_sq)} ; " + " ; ".join(verdicts))
    if rep.precondition == "violated":
        lines.append("verdict: bounds not asserted, f lies outside the span of "
                     "eigenfunctions with positive eigenvalue")
        code = 0
    elif rep.bounds_hold:
        lines.append("verdict: all mixing bounds hold")
        code = 0
    else:
        lines.append("verdict: BOUND FAILURE")
        code = 1
    return "\n".join(lines), code


def cmd_verify(args) -> Tuple[str, int]:
    g = load_graph(args.graph)
    spec = compute_spectrum(g, trunc_order=args.trunc)
    spectral_rep = verify_spectral_theorems(g, spec)
    cut = cheeger_constant(g)
    cheeger_rep = cheeger_inequality_check(g, spec, cut)
    verdict = h_convergence_verdict(g, cut, spec)

    ok = spectral_rep.passed and cheeger_rep.passed and verdict.consistent is not False
    lines = ["== graph ==", dump_graph(g).rstrip("\n"), "",
             spectral_rep.render(), "", cheeger_rep.render(), "",
             "== mixing verdict ==", verdict.render(digits=DISPLAY_DIGITS), "",
             "overall: " + ("all checks passed" if ok else "CHECKS FAILED")]
    return "\n".join(lines), 0 if ok else 1


def cmd_selftest(args) -> Tuple[str, int]:
    rep = run_selfcheck(count=args.count, seed=args.seed)
    return rep.render(), 0 if rep.passed else 1


def rational(text: str) -> Fraction:
    """'8', '17/2', '2.5' and similar; argparse reports a ValueError as bad input."""
    num, slash, den = text.partition("/")
    try:
        return exact_literal(num) / exact_literal(den if slash else "1")
    except ZeroDivisionError as exc:
        raise ValueError(text) from exc


def count(text: str) -> int:
    """A whole number of at least 1, for --steps and --count."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def bits(text: str) -> int:
    """--precision, refused above MAX_PRECISION_BITS while parsing flags."""
    if int(text) > MAX_PRECISION_BITS:
        raise argparse.ArgumentTypeError(f"at most {MAX_PRECISION_BITS} bits")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--trunc", type=rational, default=Fraction(8),
                        metavar="Q", help="truncation order, a positive rational "
                        "(default 8)")
    common.add_argument("--precision", type=bits, default=256, metavar="BITS",
                        help="bits of numeric coefficients, 64 to "
                        f"{MAX_PRECISION_BITS}; whether a result is rational "
                        "does not depend on it (default 256)")

    parser = argparse.ArgumentParser(
        prog="lcgraph",
        description="spectra, Cheeger constants and random-walk bounds for "
                    "graphs weighted by truncated power series in eps")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", parents=[common],
                       help="eigenvalues and eigenfunctions of the probability "
                            "operator")
    p.add_argument("graph", help="graph file: one 'u v series' line per edge")
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("cheeger", parents=[common],
                       help="exact Cheeger constant and both spectral estimates")
    p.add_argument("graph")
    p.set_defaults(fn=cmd_cheeger)

    p = sub.add_parser("walk", parents=[common],
                       help="iterate P^m f against its equilibrium with mixing "
                            "bounds")
    p.add_argument("graph")
    p.add_argument("--f", required=True, metavar="FILE",
                   help="function file: one 'vertex series' line per vertex")
    p.add_argument("--steps", type=count, default=8, metavar="M",
                   help="number of recorded steps (default 8)")
    p.add_argument("--bipartite", action="store_true",
                   help="walk in strides of P^2 against the two-level "
                        "equilibrium")
    p.set_defaults(fn=cmd_walk)

    p = sub.add_parser("verify", parents=[common],
                       help="run every theorem check against one graph")
    p.add_argument("graph")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("selftest", parents=[common],
                       help="randomized consistency suite for the series field")
    p.add_argument("--count", type=count, default=10000,
                   help="number of randomized checks (default 10000)")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the randomized checks (default 0)")
    p.set_defaults(fn=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with ExitStack() as scope:
        try:
            # the setters reject --precision below 64 and --trunc <= 0;
            # both settings are restored on exit
            scope.callback(set_numeric_precision, numeric_precision())
            set_numeric_precision(args.precision)
            scope.enter_context(truncation(args.trunc))
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        try:
            text, code = args.fn(args)
        except (OSError, LCGraphError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
