#!/usr/bin/env python3
"""Benchmark of lcgraph: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload audit|cuts|walk --seed N
                             --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ./src.
One process and one thread.  With ``--trace 0`` the run repeats whole
rounds of operations, as many as come nearest to S seconds (and at least
MIN_OPS operations), and prints the end-to-end metrics.  With ``--trace 1``
it runs each operation of a fixed number of rounds twice, untraced and
then traced, prints the per-layer metrics and writes them, the tracing
overhead and the spans to perfbench/results/.  The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
See README.md.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import pathlib
import resource
import statistics
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"

PRECISION_BITS = 256
SETUP_REPEATS = 3
MIN_OPS = 40          # the 75th percentile then has at least ten samples beyond it
HARD_LIMIT_S = 150.0  # stop after the current round past this, whatever the counts


def import_library():
    package = SRC / "lcgraph" / "__init__.py"
    if not package.is_file():
        sys.exit(f"perfbench: no library at {package.parent}; "
                 "run from the root of an lcgraph checkout")
    sys.path.insert(0, str(SRC))
    import lcgraph
    if pathlib.Path(lcgraph.__file__).resolve() != package.resolve():
        sys.exit(f"perfbench: imported lcgraph from {lcgraph.__file__}, not {package}")
    return lcgraph


class Tally:
    """Operations attempted and failed, and whether every output checked out."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, workload, case, result, error):
        self.attempted += 1
        failed = [error] if error else workload.failures(result)
        if failed:
            self.failed += 1
            if sorted(set(failed)) != sorted(case.expect_fail):
                self.problems.append(f"{case.label}: unexpected failure {failed}")
            return
        try:
            errors = workload.check(case, result)
        except ValueError as exc:
            errors = [f"check could not read the output: {exc}"]
        if errors:
            self.problems.append(f"{case.label}: {'; '.join(errors)}")


def timed_op(lc, workload, case):
    gc.collect()
    start = time.perf_counter()
    try:
        result, error = workload.op(lc, case), None
    except Exception as exc:  # a failed operation is counted, not fatal
        result, error = None, exc
    elapsed = time.perf_counter() - start
    if error is not None:
        traceback.print_exception(error, file=sys.stderr)
        error = f"{type(error).__name__}: {error}"
    return elapsed, result, error


def setup(lc, workload, seed):
    """The time to generate the seed's first round of inputs and run one
    untimed warm-up operation on a fixed input."""
    gc.collect()
    start = time.perf_counter()
    next(workload.rounds(seed))
    workload.op(lc, next(workload.rounds("warm-up"))[0])
    return time.perf_counter() - start


def run_rounds(lc, workload, rounds, tally, seconds):
    """Whole rounds, as many as come nearest to filling ``seconds``, and at
    least MIN_OPS operations; the operation times."""
    durations = []
    start = time.perf_counter()
    done = 0
    for cases in rounds:
        for case in cases:
            elapsed, result, error = timed_op(lc, workload, case)
            durations.append(elapsed)
            tally.record(workload, case, result, error)
        done += 1
        now = time.perf_counter() - start
        if now > HARD_LIMIT_S or (len(durations) >= MIN_OPS
                                  and now + now / done / 2 >= seconds):
            break
    return durations


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) distribution.

    It moves smoothly when neighbouring samples trade places, where the
    usual two-sample interpolation jumps across gaps between the costs of
    different kinds of graph.
    """
    import mpmath  # the library's dependency, imported with it

    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    with mpmath.workdps(20):
        cdf = [mpmath.betainc(a, b, 0, i / n, regularized=True) for i in range(n + 1)]
    return sum(float(cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def end_to_end(durations, setup_s):
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(durations) / sum(durations), "1/s"),
        "op_p50_s": (quantile(durations, 0.5), "s"),
        # every run has at least MIN_OPS = 40 operations, ten beyond the p75
        "op_tail_s": (quantile(durations, 0.75), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def traced(lc, workload, seed, tally):
    """Each operation of trace_rounds rounds runs untraced, then traced:
    the two times of a pair fall in the same phase of the machine, so
    their ratio gives the tracing overhead."""
    import tracer as tracing

    setup(lc, workload, seed)
    t = tracing.Tracer()
    plain, spent = [], []
    rounds = itertools.islice(workload.rounds(seed), workload.trace_rounds)
    for op_id, case in enumerate(itertools.chain.from_iterable(rounds)):
        elapsed, result, error = timed_op(lc, workload, case)
        plain.append(elapsed)
        tally.record(workload, case, result, error)
        t.op = op_id
        t.install(lc)
        try:
            elapsed, result, error = timed_op(lc, workload, case)
        finally:
            t.uninstall()
        spent.append(elapsed)
        tally.record(workload, case, result, error)
    overhead = sum(spent) / sum(plain) - 1
    metrics = t.metrics()
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"trace-{workload.name}-seed{seed}.json"
    path.write_text(json.dumps({
        "workload": workload.name, "seed": seed, "rounds": workload.trace_rounds,
        "operations": len(spent), "untraced_s": sum(plain), "traced_s": sum(spent),
        "overhead": overhead, "absent": t.absent,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "span_fields": ["op", "name", "start", "end", "parent"],
        "spans": t.spans,
    }) + "\n")
    print(f"perfbench: trace of {len(spent)} operations written to {path}; "
          f"tracing overhead {overhead:+.1%} ({sum(spent):.2f} s traced, "
          f"{sum(plain):.2f} s untraced); absent: {t.absent or 'none'}",
          file=sys.stderr)
    return {name: metrics[name] for name in tracing.reported_names()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("audit", "cuts", "walk"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = time.perf_counter()
    lc = import_library()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    import_s = time.perf_counter() - start

    workload = WORKLOADS[args.workload]
    lc.set_numeric_precision(PRECISION_BITS)
    tally = Tally()
    if args.trace:
        metrics = traced(lc, workload, args.seed, tally)
    else:
        setup_s = import_s + statistics.median(
            setup(lc, workload, args.seed) for _ in range(SETUP_REPEATS))
        durations = run_rounds(lc, workload, workload.rounds(args.seed), tally,
                               args.seconds)
        metrics = end_to_end(durations, setup_s)

    for problem in tally.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
