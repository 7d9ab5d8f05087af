#!/usr/bin/env python3
"""Reproduce the worst-case fitting table: for each K, the best-fit and
worst-fit families drive deadline-monotonic partitioning to K processors
while the optimum stays at 2.

Writes the full bench CSV and prints a compact table.  Exits 2 on bad
input (after printing "error: ..." to stderr), else 0.
"""

import argparse
import sys

from rtpack.bench import ExperimentConfig, emit_report, run_experiment, spec
from rtpack.errors import RtpackError


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k-max", type=int, default=8)
    ap.add_argument("-o", "--output", default="adversary_table.csv")
    args = ap.parse_args()
    if args.k_max < 4:
        # both families start at K = 4
        ap.error(f"argument --k-max: must be at least 4, got {args.k_max}")

    instances = []
    for k in range(4, args.k_max + 1):
        instances.append(spec("bf-adversary", k=k))
        instances.append(spec("wf-adversary", k=k))
    cfg = ExperimentConfig(
        instances=tuple(instances),
        algorithms=(("dm", "bf"), ("dm", "wf"), ("dagger", "ff")),
        oracle=True,
        n_cap=2 * args.k_max,
    )
    report = run_experiment(cfg)

    with open(args.output, "wb") as fh:
        fh.write(emit_report(report, "csv"))
    print(f"wrote {args.output}")
    print(f"{'instance':>18} {'algo':>10} {'M':>3} {'M*':>3} {'ratio':>6}")
    for row in report.rows:
        label = f"{row.algorithm}/{row.strategy}"
        ratio = f"{float(row.ratio):.2f}" if row.ratio is not None else "-"
        print(f"{row.instance:>18} {label:>10} {row.m:>3} {row.m_star:>3} {ratio:>6}")
    return 0


if __name__ == "__main__":
    try:
        code = main()
    except RtpackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    sys.exit(code)
