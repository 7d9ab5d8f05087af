#!/usr/bin/env python3
"""Approximation-ratio experiment on seeded random task sets.

Runs the transformed-utilization greedy and deadline-monotonic partitioning
against the brute-force optimum, checks the 2*lambda bound, and summarizes
the realized ratios and the slack against the asymptotic bound.
"""

import argparse
from fractions import Fraction

from rtpack.bench import ExperimentConfig, check_bounds, emit_report, run_experiment, spec


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=100, help="instances per class")
    ap.add_argument("--n", type=int, default=8, help="tasks per instance")
    ap.add_argument("--target-u", default="2", help="utilization target (rational)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("-o", "--output", default="ratio_experiment.csv")
    args = ap.parse_args()

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

    hard = [v for v in check_bounds(report) if "hard" in v]
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


if __name__ == "__main__":
    main()
