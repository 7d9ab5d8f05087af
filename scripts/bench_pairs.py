#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, summarized as a BENCH file.

    python scripts/bench_pairs.py PARENT CHANGE --workload ratio-sweep \\
        --seeds 3301 3302 3303 --seconds 40 -o BENCH_33.json

For each workload and each seed, the script runs `perfbench/run.py
--workload W --seed S --seconds X --trace 0` once in each checkout, one
process at a time, and alternates which side runs first (the first pair
starts with PARENT).  Every run must report `"correct": true`; the script
stops with exit 1 at the first run that does not.

The metrics and their bounds are the `end_to_end` entries of PARENT's
`BENCHMARK.json`.  For each workload and metric the file records both
sides' values, medians and quartiles (`statistics.quantiles(n=4,
method="inclusive")`), the pairs in which CHANGE is strictly better (in the
metric's `better` direction), the gap between the medians, whether that
gap lies on the metric's better side and exceeds the parent's interquartile
range (a gap on the worse side never counts, however wide), and whether
CHANGE's median stays within the metric's bound of PARENT's (a relative
change).  Needs only the standard library.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", help="checkout of the parent commit")
    p.add_argument("change", help="checkout of the change")
    p.add_argument("--workload", action="append", required=True,
                   help="a perfbench workload; repeat for several")  # fmt: skip
    p.add_argument("--seeds", type=int, nargs="+", required=True, help="one pair per seed")
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("-o", "--output", required=True)
    return p.parse_args(argv)


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one perfbench run in `checkout`."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]  # fmt: skip
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{checkout}: {' '.join(argv[1:])} exited {done.returncode}\n{done.stderr}"
        )
    result = json.loads(lines[-1])
    if not result.get("correct"):
        raise RuntimeError(f"{checkout}: {workload} seed {seed} is not correct\n{done.stderr}")
    return result


def revision(checkout: str):
    """The commit a git checkout is at (with "+changes" when its tree
    differs), or None for a plain copy of the files."""
    if not os.path.isdir(os.path.join(checkout, ".git")):
        return None
    git = ["git", "-C", checkout]
    head = subprocess.run([*git, "rev-parse", "--short", "HEAD"], capture_output=True, text=True)
    dirty = subprocess.run([*git, "status", "--porcelain"], capture_output=True, text=True)
    return head.stdout.strip() + ("+changes" if dirty.stdout.strip() else "")


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def summarize(metric: dict, parent: list[float], change: list[float]) -> dict:
    """The record of one metric over paired runs: `parent[i]` and
    `change[i]` ran with the same seed."""
    lower = metric["better"] == "lower"
    p_med, c_med = statistics.median(parent), statistics.median(change)
    p_q, c_q = quartiles(parent), quartiles(change)
    iqr = p_q[1] - p_q[0]
    rel = (c_med - p_med) / p_med if p_med else 0.0
    worse = rel if lower else -rel
    gain = p_med - c_med if lower else c_med - p_med
    return {
        "parent_median": p_med,
        "change_median": c_med,
        "change_pct": round(100 * rel, 2),
        "change_better_pairs": sum((c < p) if lower else (c > p) for p, c in zip(parent, change)),
        "pairs": len(parent),
        "parent_quartiles": p_q,
        "change_quartiles": c_q,
        "parent_iqr": iqr,
        "median_gap": abs(c_med - p_med),
        "gap_exceeds_parent_iqr": gain > iqr,
        "bound": metric["bound"],
        "within_bound": worse <= metric["bound"],
        "parent": parent,
        "change": change,
    }


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    with open(os.path.join(args.parent, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    sides = {"parent": args.parent, "change": args.change}
    workloads = {}
    for workload in args.workload:
        runs: dict[str, list[dict]] = {"parent": [], "change": []}
        for i, seed in enumerate(args.seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                print(f"{workload} seed {seed}: {side}", file=sys.stderr, flush=True)
                try:
                    runs[side].append(run_once(sides[side], workload, seed, args.seconds))
                except RuntimeError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 1
        record = {
            m["name"]: summarize(
                m,
                [r["metrics"][m["name"]]["value"] for r in runs["parent"]],
                [r["metrics"][m["name"]]["value"] for r in runs["change"]],
            )
            for m in metrics
        }
        record["operations"] = {
            side: {
                "attempted_per_run": [r["attempted"] for r in runs[side]],
                "failed": sum(r["failed"] for r in runs[side]),
                "all_correct": True,
            }
            for side in sides
        }
        workloads[workload] = record
    machine = f"{platform.platform()}, {os.cpu_count()} CPUs"
    doc = {
        "machine": f"{machine}, Python {platform.python_version()}",
        "command": f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} "
        "--trace 0",
        "seeds": args.seeds,
        "order": "one pair per seed, one process at a time; pairs alternate which side runs "
        "first, the first pair starting with the parent",
        "parent": revision(args.parent),
        "change": revision(args.change),
        "workloads": workloads,
    }
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for workload, record in workloads.items():
        for m in metrics:
            r = record[m["name"]]
            print(
                f"{workload} {m['name']}: {r['parent_median']:.4g} -> {r['change_median']:.4g} "
                f"({r['change_pct']:+.2f}%), better in {r['change_better_pairs']}/{r['pairs']}, "
                f"{'gain >' if r['gap_exceeds_parent_iqr'] else 'no gain past'} parent IQR, "
                f"{'within' if r['within_bound'] else 'OUTSIDE'} bound {m['bound']}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
