"""Command-line interface.

Exit codes are a stable contract: 0 for success or a feasible/positive
verdict, 1 for an infeasible/negative verdict, 2 for any error.  All output
is JSON or CSV with fixed key order, and output files are written whole via
an atomic rename, never partially.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import bench as bench_mod
from .errors import RtpackError
from .feasibility import DEFAULT_POINT_CAP, edf_feasible_exact
from .generators import gen_random_dvp
from .io import serialize_dvp, serialize_taskset, parse_taskset
from .model import DeadlineClass, as_rational
from .oracle import DEFAULT_ORACLE_CAP, optimal_partition_bruteforce
from .partitioners import Partition, Strategy
from .simulate import DEFAULT_EVENT_CAP, simulate_edf_synchronous


def _write_output(path: str | None, content: str | bytes) -> None:
    data = content.encode("utf-8") if isinstance(content, str) else content
    if path is None or path == "-":
        sys.stdout.write(data.decode("utf-8"))
        return
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


def _read_taskset(path: str):
    with open(path, "rb") as fh:
        return parse_taskset(fh.read())


def _partition_doc(part: Partition) -> str:
    doc = {
        "algorithm": part.algorithm,
        "strategy": part.strategy,
        "m": part.m,
        "bins": [list(b) for b in part.bins],
    }
    return json.dumps(doc, indent=2) + "\n"


def cmd_check(args) -> int:
    ts = _read_taskset(args.file)
    verdict = edf_feasible_exact(ts, speed=args.speed, point_cap=args.point_cap)
    doc = {
        "name": ts.name,
        "speed": str(args.speed),
        "feasible": verdict.feasible,
        "witness": str(verdict.witness) if verdict.witness is not None else None,
        "horizon": str(verdict.horizon),
        "points_checked": verdict.points_checked,
    }
    print(json.dumps(doc, indent=2))
    return 0 if verdict.feasible else 1


def cmd_partition(args) -> int:
    ts = _read_taskset(args.file)
    if args.algo == "oracle":
        part = optimal_partition_bruteforce(ts, n_cap=args.n_cap).witness
    else:
        part = bench_mod.run_algorithm(ts, args.algo, args.strategy)
    print(_partition_doc(part), end="")
    return 0


def cmd_generate(args) -> int:
    """One instance of a family, from the flags that name its keys."""
    required, optional, _ = bench_mod.FAMILIES[args.family]
    flags = vars(args)
    params = {
        key: flags[key] for key in (*required, *optional) if flags.get(key) is not None
    }
    [(_, ts)] = bench_mod.make_instances(args.family, params)
    if args.family == "dvp" and args.dvp_out:
        p = {**optional, **params}
        dvp = gen_random_dvp(p["seed"], p["n"], p["den_bound"])
        _write_output(args.dvp_out, serialize_dvp(dvp))
    _write_output(args.output, serialize_taskset(ts))
    return 0


def cmd_bench(args) -> int:
    with open(args.config, "rb") as fh:
        cfg = bench_mod.parse_config(fh.read())
    report = bench_mod.run_experiment(cfg)
    if args.format:
        fmt = args.format
    else:
        fmt = "json" if args.output and args.output.endswith(".json") else "csv"
    _write_output(args.output, bench_mod.emit_report(report, fmt))
    for err in report.errors:
        print(f"note: {err}", file=sys.stderr)
    return 0


def cmd_simulate(args) -> int:
    ts = _read_taskset(args.file)
    trace = simulate_edf_synchronous(
        ts, horizon=args.horizon, speed=args.speed, event_cap=args.event_cap
    )
    doc = {
        "name": ts.name,
        "horizon": str(trace.horizon),
        "speed": str(args.speed),
        "schedulable": trace.schedulable,
        "misses": [{"task": tid, "deadline": str(d)} for tid, d in trace.misses],
        "preemptions": trace.preemptions,
        "idle": [[str(a), str(b)] for a, b in trace.idle],
    }
    print(json.dumps(doc, indent=2))
    return 0 if trace.schedulable else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtpack",
        description="Partitioned EDF packing toolkit on exact rational arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="exact one-processor EDF feasibility")
    p_check.add_argument("file")
    p_check.add_argument("--speed", type=as_rational, default=Fraction(1))
    p_check.add_argument("--point-cap", type=int, default=DEFAULT_POINT_CAP)
    p_check.set_defaults(func=cmd_check)

    p_part = sub.add_parser("partition", help="partition a task set")
    p_part.add_argument("file")
    p_part.add_argument(
        "--algo", choices=[*bench_mod.ALGORITHMS, "oracle"], required=True
    )
    p_part.add_argument("--strategy", choices=[s.value for s in Strategy], default="ff")
    p_part.add_argument("--n-cap", type=int, default=DEFAULT_ORACLE_CAP)
    p_part.set_defaults(func=cmd_partition)

    p_gen = sub.add_parser("generate", help="emit an instance as task-set JSON")
    # the dest of each family flag is the instance key of a bench config;
    # unset flags take the family's defaults
    p_gen.add_argument(
        "--family",
        choices=[f for f in bench_mod.FAMILIES if f != "file"],
        required=True,
    )
    p_gen.add_argument("--k", type=int)
    p_gen.add_argument("--h", type=as_rational)
    p_gen.add_argument("--n", type=int)
    p_gen.add_argument("--eps", type=as_rational)
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--target-u", type=as_rational)
    p_gen.add_argument("--class", choices=[c.value for c in DeadlineClass])
    p_gen.add_argument("--den-bound", type=int)
    p_gen.add_argument("--dvp-out")
    p_gen.add_argument("-o", "--output")
    p_gen.set_defaults(func=cmd_generate)

    p_bench = sub.add_parser("bench", help="run an experiment config")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--format", choices=["csv", "json"])
    p_bench.add_argument("-o", "--output")
    p_bench.set_defaults(func=cmd_bench)

    p_sim = sub.add_parser("simulate", help="event-driven EDF simulation")
    p_sim.add_argument("file")
    p_sim.add_argument("--horizon", type=as_rational, required=True)
    p_sim.add_argument("--speed", type=as_rational, default=Fraction(1))
    p_sim.add_argument("--event-cap", type=int, default=DEFAULT_EVENT_CAP)
    p_sim.set_defaults(func=cmd_simulate)
    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (RtpackError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
