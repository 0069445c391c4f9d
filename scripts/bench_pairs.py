#!/usr/bin/env python3
"""Interleaved parent/change benchmark pairs, summarised in BENCH_<label>.json.

    python3 scripts/bench_pairs.py --parent REV --label NAME
        [--change REV] [--workloads audit,cuts,walk] [--pairs K]
        [--first-seed S] [--scratch DIR]

The parent revision (and the change, when --change names one) is exported
with ``git archive`` into a directory under --scratch; without --change the
change side is the working tree of this checkout, uncommitted edits
included.  For every workload the script runs K pairs of
``perfbench/run.py --workload W --seed S --seconds T --trace 0``, one run
per side, with seeds S, S+1, ... and T the ``run_seconds`` of
BENCHMARK.json.  The side that runs first alternates from
pair to pair, so a slow phase of the machine falls on both sides alike.

BENCH_<label>.json (written to the root of this checkout after every
pair) holds each run's last output line, and per workload and side the
median and quartiles of every end-to-end metric that BENCHMARK.json
declares, with the pairs the change won, the median gap and whether the
change stays within the metric's regression bound.  It also
records both revisions, the Python and mpmath versions and a machine
note.  Run it on an otherwise idle machine.
"""

from __future__ import annotations

import argparse
import datetime
import io
import json
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent


def git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, scratch: pathlib.Path) -> pathlib.Path:
    """The tree of ``rev`` in a fresh directory under ``scratch``."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    dest = scratch / f"tree-{sha[:12]}"
    if not dest.exists():
        dest.mkdir(parents=True)
        archive = subprocess.run(["git", "archive", "--format=tar", sha], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(dest)
    return dest


def run_once(tree: pathlib.Path, workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"bench_pairs: {workload} seed {seed} in {tree} failed:\n{proc.stderr}")
    out = json.loads(lines[-1])
    return {"seed": seed, "correct": out["correct"], "attempted": out["attempted"],
            "failed": out["failed"],
            "metrics": {k: v["value"] for k, v in out["metrics"].items()}}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarise(runs: dict, declared: list) -> dict:
    """Per metric: each side's median and quartiles, the pairs the change
    won, the change's median gap over the parent (positive is better) and
    ``within_bound``: whether the change's median is worse than the
    parent's by no more than the metric's relative bound.  It reads
    "unresolved" when the parent's IQR is wider than the bound, unless
    every run of the change reads better than every run of the parent."""
    out = {}
    for metric in declared:
        name, better = metric["name"], metric["better"]
        sides = {side: [r["metrics"][name] for r in runs[side]]
                 for side in ("parent", "change")}
        entry = {}
        for side, values in sides.items():
            q1, med, q3 = quartiles(values)
            entry[side] = {"median": med, "q1": q1, "q3": q3, "iqr": q3 - q1}
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
        gap = sign * (entry["change"]["median"] - entry["parent"]["median"])
        base, bound = entry["parent"]["median"], metric["bound"]
        if entry["parent"]["iqr"] > bound * abs(base) and not all(
                sign * (c - p) > 0 for c in sides["change"] for p in sides["parent"]):
            within = "unresolved"
        else:
            within = -gap <= bound * abs(base)
        entry.update(unit=metric["unit"], better=better,
                     change_won=f"{wins}/{len(sides['parent'])}",
                     median_gap=gap,
                     gap_exceeds_parent_iqr=gap > entry["parent"]["iqr"],
                     bound=bound, within_bound=within,
                     relative_change=(entry["change"]["median"] / entry["parent"]["median"] - 1
                                      if entry["parent"]["median"] else None))
        out[name] = entry
    for side in ("parent", "change"):
        out[f"{side}_failed"] = f"{sum(r['failed'] for r in runs[side])}/" \
                                f"{sum(r['attempted'] for r in runs[side])}"
        out[f"{side}_correct"] = all(r["correct"] for r in runs[side])
    return out


def machine_note() -> str:
    model = platform.processor() or platform.machine()
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return f"{platform.system()} {platform.release()}, {model}, {cores} usable cores"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent")
    ap.add_argument("--change", help="git revision of the change (default: the working tree)")
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    ap.add_argument("--workloads", default="audit,cuts,walk")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1000)
    ap.add_argument("--scratch", type=pathlib.Path,
                    help="where revisions are exported (default: a temporary "
                         "directory, removed at the end)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared, seconds = bench["end_to_end"], bench["run_seconds"]
    scratch = args.scratch or pathlib.Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    trees = {"parent": export(args.parent, scratch)}
    if args.change:
        trees["change"] = export(args.change, scratch)
        change_rev = {"revision": git("rev-parse", f"{args.change}^{{commit}}")}
    else:
        trees["change"] = ROOT
        change_rev = {"revision": git("rev-parse", "HEAD"),
                      "uncommitted_edits": bool(git("status", "--porcelain"))}

    import mpmath
    report = {
        "label": args.label,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds:g} --trace 0",
        "parent": {"revision": git("rev-parse", f"{args.parent}^{{commit}}")},
        "change": change_rev,
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "machine": machine_note(),
        "pairs": args.pairs,
        "workloads": {},
    }
    out_path = ROOT / f"BENCH_{args.label}.json"
    for workload in args.workloads.split(","):
        runs = {"parent": [], "change": []}
        for k in range(args.pairs):
            seed = args.first_seed + k
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(trees[side], workload, seed, seconds))
            print(f"bench_pairs: {workload} seed {seed}: ops_per_s "
                  f"{runs['parent'][-1]['metrics']['ops_per_s']:.3g} -> "
                  f"{runs['change'][-1]['metrics']['ops_per_s']:.3g}", file=sys.stderr)
            report["workloads"][workload] = {"summary": summarise(runs, declared),
                                             "runs": runs}
            out_path.write_text(json.dumps(report, indent=1) + "\n")
    if args.scratch is None:
        shutil.rmtree(scratch)
    print(out_path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
