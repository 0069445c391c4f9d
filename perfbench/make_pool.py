#!/usr/bin/env python3
"""Regenerate audit_pool.json, the screened graphs of the `audit` workload.

    python3 perfbench/make_pool.py

Draws graphs on 4..7 vertices from a fixed stream (random_audit.py's
weights: exponents {0, 1/2, 1, 2}, some with a second term) and audits
each at --trunc 4, timing it three times.  A draw joins the pool when the library's own checks
pass and checks.py agrees with its outputs; the others are listed under
"rejected" with the checks they failed.  Faults that fail only on some
draws cannot be counted as a fixed share of a run, so the pool leaves
them out; the five named failure graphs in inputs.py keep them measured.
"""

import json
import pathlib
import random
import statistics
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import lcgraph  # noqa: E402

import inputs  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

STREAM_SEED = "audit-pool"
TIMINGS = 3   # the recorded time, which ranks a graph into its tier, is a median
# four rounds' worth of each size: a run takes two rounds, half the pool
POOL_SIZES = {n: 4 * k for n, k in inputs.AUDIT_ROUND.items()}


def main() -> int:
    lcgraph.set_numeric_precision(256)
    audit = WORKLOADS["audit"]
    rng = random.Random(STREAM_SEED)
    pool = {n: [] for n in POOL_SIZES}
    rejected = []
    draw = 0
    while any(len(pool[n]) < size for n, size in POOL_SIZES.items()):
        for n in POOL_SIZES:
            edges = inputs.random_edges(rng, n)
            draw += 1
            if len(pool[n]) >= POOL_SIZES[n]:
                continue
            case = inputs.Case(f"draw{draw}", edges, inputs.graph_text(edges),
                               inputs.AUDIT_TRUNC)
            try:
                times = []
                for _ in range(TIMINGS):
                    start = time.perf_counter()
                    result = audit.op(lcgraph, case)
                    times.append(time.perf_counter() - start)
            except lcgraph.LCGraphError as exc:
                rejected.append({"draw": draw, "text": case.text,
                                 "failed": [f"{type(exc).__name__}: {exc}"]})
                print(f"draw {draw} n={n} raised {exc}", file=sys.stderr)
                continue
            failed = audit.failures(result)
            errors = [] if failed else audit.check(case, result)
            spec = result[1]
            entry = {"text": case.text, "mode": spec.mode,
                     "work_order": str(spec.work_order),
                     "residual_order": str(spec.residual_order),
                     "seconds": round(statistics.median(times), 3)}
            if failed or errors:
                rejected.append({"draw": draw, **entry, "failed": failed + errors})
            else:
                pool[n].append(entry)
            print(f"draw {draw} n={n} {spec.mode} {entry['seconds']:.2f}s "
                  f"{failed + errors or 'ok'}", file=sys.stderr)
    (HERE / "audit_pool.json").write_text(json.dumps(
        {"stream_seed": STREAM_SEED, "trunc": str(inputs.AUDIT_TRUNC),
         "pool": pool, "rejected": rejected}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
