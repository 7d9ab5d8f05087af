#!/usr/bin/env python3
"""Approximation-ratio experiment on seeded random task sets.

Runs the transformed-utilization greedy and deadline-monotonic partitioning
against the brute-force optimum, prints the hard flags of the rows (beyond
2*lambda, below the optimum, or failed exact verification), and summarizes
the realized ratios and the slack against the asymptotic bound.  Exits 1
when it prints any hard flag, 2 on bad input (after printing "error: ..."
to stderr), else 0.
"""

import argparse
import sys
from fractions import Fraction

from rtpack.bench import ExperimentConfig, emit_report, run_experiment, spec
from rtpack.errors import RtpackError


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=100, help="instances per class")
    ap.add_argument("--n", type=int, default=8, help="tasks per instance")
    ap.add_argument("--target-u", default="2", help="utilization target (rational)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("-o", "--output", default="ratio_experiment.csv")
    args = ap.parse_args()
    if args.n < 1:
        # it is the oracle cap too, which would refuse it under its own name
        ap.error(f"argument --n: must be at least 1, got {args.n}")

    instances = tuple(
        spec(
            "random",
            count=args.count,
            n=args.n,
            seed=args.seed + 1000 * i,
            target_u=args.target_u,
            **{"class": cls},
        )
        for i, cls in enumerate(["implicit", "constrained", "arbitrary"])
    )
    cfg = ExperimentConfig(
        instances=instances,
        algorithms=(
            ("dagger", "ff"),
            ("dagger", "bf"),
            ("dagger", "wf"),
            ("dm", "ff"),
            ("dm", "bf"),
            ("dm", "wf"),
        ),
        oracle=True,
        n_cap=args.n,
    )
    report = run_experiment(cfg)

    with open(args.output, "wb") as fh:
        fh.write(emit_report(report, "csv"))
    print(f"wrote {args.output} ({len(report.rows)} rows)")

    hard = [
        f"{r.instance}/{r.algorithm}-{r.strategy}: {v}"
        for r in report.rows
        for v in r.violations
        if v.startswith("hard")
    ]
    print(f"hard bound violations: {len(hard)}")
    for v in hard:
        print(f"  {v}")

    for algo in ("dagger", "dm"):
        ratios = [r.ratio for r in report.rows if r.algorithm == algo and r.ratio]
        if ratios:
            mx, mean = max(ratios), sum(ratios, Fraction(0)) / len(ratios)
            print(f"{algo}: max ratio {float(mx):.3f}, mean {float(mean):.3f}")

    slacks = [
        r.m - r.bound_asymptotic * r.m_star
        for r in report.rows
        if r.algorithm == "dm" and r.m_star is not None and r.gamma < Fraction(9, 10)
    ]
    if slacks:
        print(
            f"dm slack vs asymptotic bound (gamma<0.9): max {float(max(slacks)):.3f} "
            f"over {len(slacks)} rows"
        )
    return 1 if hard else 0


if __name__ == "__main__":
    try:
        code = main()
    except RtpackError as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    sys.exit(code)
