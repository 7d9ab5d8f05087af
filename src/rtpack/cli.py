"""Command-line interface.

Exit codes are a stable contract: 0 for success or a feasible/positive
verdict, 1 for an infeasible/negative verdict, 2 for any error.  All output
is JSON or CSV with fixed key order, and output files are written whole via
an atomic rename, never partially.  `dispatch` parses with one parser per
process, built on first use; `build_parser()` returns a fresh one.

A request whose first argument names a subcommand is first read from that
subcommand's parser tables without argparse, when every token is a value
or the exact option string of a one-value flag followed by its value, no
value starts with "-", and every value passes its `type` and `choices`.
Every other request (a help flag, `--`, an abbreviation, `--x=v`, a
repeated flag, a refused value, a missing required argument, no
arguments, an unknown command) goes through the full parser, so argparse
writes every usage, help and error text, and the full parser is the
reference the reader must answer like, byte for byte.  A rational flag
that `as_rational` refuses exits 2 with argparse's usage and the
refusal's reason, as "argument --speed: zero denominator in '1/0'".

Every document has the bytes of `json.dumps(doc, indent=2)`.  Any indent
makes the json module fall back to its pure-Python encoder, so two are
written by template: `check`, which the benchmark's cli-check requests
print, and `simulate`, whose trace can hold hundreds of thousands of
misses.  In them only free text (a name) goes through `json.dumps`; a
Fraction's str, an int and a bool need no escaping and are written as
they are.  The `partition` document is small and goes through
`json.dumps` whole.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import sys
from fractions import Fraction

from . import bench as bench_mod
from .errors import BadParam, RtpackError
from .feasibility import DEFAULT_POINT_CAP, FeasibilityVerdict, edf_feasible_exact
from .generators import dvp_to_tasks, gen_random_dvp
from .io import json_list, parse_taskset, serialize_dvp, serialize_taskset
from .oracle import DEFAULT_ORACLE_CAP, optimal_partition_bruteforce
from .partitioners import Partition, Strategy
from .simulate import DEFAULT_EVENT_CAP, SimTrace, simulate_edf_synchronous


def _write_output(path: str | None, content: str | bytes) -> None:
    data = content.encode("utf-8") if isinstance(content, str) else content
    if path is None or path == "-":
        sys.stdout.write(data.decode("utf-8"))
        return
    tmp = path + ".tmp"
    fh = open(tmp, "wb")
    try:
        with fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def _read_taskset(path: str):
    with open(path, "rb") as fh:
        return parse_taskset(fh.read())


def _partition_doc(part: Partition) -> str:
    """The partition document, `json.dumps(doc, indent=2)`."""
    doc = {
        "algorithm": part.algorithm,
        "strategy": part.strategy,
        "m": part.m,
        "bins": [list(b) for b in part.bins],
    }
    return json.dumps(doc, indent=2) + "\n"


def _simulate_doc(name: str, speed: Fraction, trace: SimTrace) -> str:
    """The simulate document with the bytes of `json.dumps(doc, indent=2)`.

    A trace can hold many misses, so the lines are laid out by a template
    and `io.json_list`, and only the name goes through `json.dumps`.
    """
    misses = [
        f'{{\n      "task": {tid},\n      "deadline": "{d}"\n    }}'
        for tid, d in trace.misses
    ]
    idle = [json_list([f'"{a}"', f'"{b}"'], 2) for a, b in trace.idle]
    return (
        f'{{\n  "name": {json.dumps(name)},\n'
        f'  "horizon": "{trace.horizon}",\n'
        f'  "speed": "{speed}",\n'
        f'  "schedulable": {"true" if trace.schedulable else "false"},\n'
        f'  "misses": {json_list(misses)},\n'
        f'  "preemptions": {trace.preemptions},\n'
        f'  "idle": {json_list(idle)}\n}}'
    )


def _check_doc(name: str, speed: Fraction, verdict: FeasibilityVerdict) -> str:
    """The check document with the bytes of `json.dumps(doc, indent=2)`."""
    witness = "null" if verdict.witness is None else f'"{verdict.witness}"'
    return (
        f'{{\n  "name": {json.dumps(name)},\n'
        f'  "speed": "{speed}",\n'
        f'  "feasible": {"true" if verdict.feasible else "false"},\n'
        f'  "witness": {witness},\n'
        f'  "horizon": "{verdict.horizon}",\n'
        f'  "points_checked": {verdict.points_checked}\n}}'
    )


def cmd_check(args) -> int:
    ts = _read_taskset(args.file)
    verdict = edf_feasible_exact(ts, speed=args.speed, point_cap=args.point_cap)
    print(_check_doc(ts.name, args.speed, verdict))
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
    """One instance of a family, from the flags that name its keys; the
    bench's instance check refuses a key the family does not take."""
    if args.dvp_out is not None and args.family != "dvp":
        raise BadParam(f"--dvp-out needs --family dvp, not {args.family}")
    flags = vars(args)
    params = {key: flags[key] for key in bench_mod.INSTANCE_KEYS if flags.get(key) is not None}
    p = bench_mod.instance_params(args.family, params)
    if args.dvp_out is None:
        [(_, ts)] = bench_mod.FAMILIES[args.family][2](p)
    else:  # the set and its vectors from one draw, named as the bench names it
        dvp = gen_random_dvp(p["seed"], p["n"], p["den_bound"])
        ts = dvp_to_tasks(dvp, f"dvp-s{p['seed']}")
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
    print(_simulate_doc(ts.name, args.speed, trace))
    return 0 if trace.schedulable else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rtpack",
        description="Partitioned EDF packing toolkit on exact rational arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="exact one-processor EDF feasibility")
    p_check.add_argument("file")
    p_check.add_argument("--speed", type=bench_mod.rational_arg, default=Fraction(1))
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

    # no abbreviations: an unknown flag such as `--h` exits 2 as
    # unrecognized instead of reading as `--help`, which exits 0 and
    # writes no instance
    p_gen = sub.add_parser(
        "generate", help="emit an instance as task-set JSON", allow_abbrev=False
    )
    # the dest of each family flag is the instance key of a bench config;
    # unset flags take the family's defaults
    p_gen.add_argument(
        "--family",
        choices=[f for f in bench_mod.FAMILIES if f != "file"],
        required=True,
    )
    for key, (_, flag) in bench_mod.INSTANCE_KEYS.items():
        if flag is not None:
            p_gen.add_argument("--" + key.replace("_", "-"), **flag)
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
    p_sim.add_argument("--horizon", type=bench_mod.rational_arg, required=True)
    p_sim.add_argument("--speed", type=bench_mod.rational_arg, default=Fraction(1))
    p_sim.add_argument("--event-cap", type=int, default=DEFAULT_EVENT_CAP)
    p_sim.set_defaults(func=cmd_simulate)
    parser.commands = sub.choices  # each command's own parser, by name
    for command in sub.choices.values():
        command.read_plain = _plain_reader(command)
    return parser


def _plain_reader(command: argparse.ArgumentParser):
    """A reader of `command`'s argv from the parser's own tables: option
    strings, dest, type, choices, required, defaults and `set_defaults`.
    It keeps argparse off the path of plain requests (timings in
    BENCH_40.json).

    It returns the namespace `command.parse_known_args(argv)` gives with
    nothing left over when every token is a positional value or the exact
    option string of a one-value store flag followed by its value, and no
    value starts with "-".  It returns None, for argparse to answer, when a
    token is anything else, a flag is repeated, a value is refused by its
    type or not among its choices, a required flag is missing or the
    positional count is wrong.
    """
    flags, positionals = {}, []
    for action in command._actions:
        if not action.option_strings:
            positionals.append(action)
        elif type(action) is argparse._StoreAction and action.nargs is None:
            flags.update(dict.fromkeys(action.option_strings, action))
    required = {action for action in flags.values() if action.required}
    defaults = {**command._defaults, **{
        action.dest: action.default for action in command._actions
        if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS
    }}  # fmt: skip

    def read(argv) -> argparse.Namespace | None:
        strings, values = {}, []
        tokens = iter(argv)
        for token in tokens:
            if token[:1] != "-":
                values.append(token)
                continue
            action, value = flags.get(token), next(tokens, "-")
            if action is None or value[:1] == "-" or action in strings:
                return None
            strings[action] = value
        if len(values) != len(positionals) or not required <= strings.keys():
            return None
        strings.update(zip(positionals, values))
        args = dict(defaults)
        for action, string in strings.items():
            try:
                value = string if action.type is None else action.type(string)
            except (argparse.ArgumentTypeError, TypeError, ValueError):
                return None
            if action.choices is not None and value not in action.choices:
                return None
            args[action.dest] = value
        return argparse.Namespace(**args)

    return read


# building the argparse tree costs several times a whole `check` request
# on a small set; `parse_args` leaves a parser as it found it, so one
# parser and the readers built with it serve every call
_shared_parser = functools.cache(build_parser)


def dispatch(argv) -> int:
    parser = _shared_parser()
    command = parser.commands.get(argv[0]) if argv else None
    args = None if command is None else command.read_plain(argv[1:])
    if args is None:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:
            return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (RtpackError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
