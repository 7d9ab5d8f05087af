"""rtpack benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload ratio-sweep --seed 1 --seconds 40 --trace 0

Run it from the root of an rtpack checkout; it imports rtpack from `src/`
and reads the metric names and units from `BENCHMARK.json`.  Workloads,
metrics and the layer each metric should move are described in
`perfbench/README.md`.

One invocation:

1. builds the run's inputs from the seed: a fixed number of batches, each
   the workload's input mix with fresh random draws;
2. makes one traced reference pass per batch: the entry point itself, with
   the layer calls it makes wrapped in spans.  The checks read its facts;
3. for `--seconds` (at least MIN_ROUNDS rounds), times rounds over all
   inputs through the same entry point, untraced, one chunk of a few
   operations at a time; every output must equal the reference pass's.
   The first round comes before the reference passes, so that the rounds
   spread over more of the run;
4. reports times at a reference speed: each chunk's wall time is scaled
   by the calibration kernel of `calibrate.py`, timed right before and
   after it (the machine's speed changes over seconds to minutes).
   `wall_s` is the median round at reference speed, `ops_per_s` the
   operations of a round over `wall_s`;
5. times the set-up several times, each in a fresh interpreter (import,
   config parsing, the inputs of the first batch), spread over the run
   and calibrated the same way, and keeps the median as `setup_s`;
6. with `--trace 1`, repeats the traced pass of the first batch, whose
   outputs and counters must repeat exactly, runs the costly cross-checks
   on that batch, writes its spans to `.perfbench-out/` and prints the
   per-layer metrics of that batch instead of the end-to-end ones.

The last line of standard output is the JSON result; diagnostics go to
standard error.  The exit code is 0 whenever a result is printed, also when
the result reports `"correct": false`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

from calibrate import REFERENCE_S, kernel_s
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
OUT = os.path.join(ROOT, ".perfbench-out")
# set-ups timed per group; one group at the start, one between the
# reference passes and the later timed rounds, one at the end
SETUP_GROUP = 3
MIN_ROUNDS = 3
MAX_ROUNDS = 50
# kernel runs whose median calibrates one set-up; between two timed
# chunks, the kernel runs until it has taken CALIBRATION_SHARE of the
# previous chunk's time (at least once)
CALIBRATION_RUNS = 5
CALIBRATION_SHARE = 0.01


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: set up once into DIR and exit, to time a fresh interpreter
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def kernel_median_s() -> float:
    return statistics.median(kernel_s() for _ in range(CALIBRATION_RUNS))


def time_setup(args) -> list[tuple[float, float]]:
    """(wall time, time at reference speed) of SETUP_GROUP fresh
    interpreters, one after another, that each set the workload up and
    exit."""
    times = []
    for _ in range(SETUP_GROUP):
        workdir = tempfile.mkdtemp(dir=WORK)
        try:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload",
                   args.workload, "--seed", str(args.seed), "--setup-only", workdir]  # fmt: skip
            before = kernel_median_s()
            start = time.perf_counter()
            subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
            wall = time.perf_counter() - start
            after = kernel_median_s()
            times.append((wall, wall * REFERENCE_S / ((before + after) / 2)))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return times


def compare(outcomes: dict, reference: dict) -> tuple[int, int, int]:
    """(wrong, failed, refused) operations of one pass, judged against the
    traced reference pass: a matching operation inherits the reference's
    classification, a mismatching or missing one is wrong."""
    wrong = len(set(outcomes) - set(reference))
    failed = refused = 0
    for op, want in reference.items():
        got = outcomes.get(op)
        if got is not None and got.digest == want.digest:
            failed += want.failed
            refused += want.refused
        else:
            wrong += 1
            failed += got is None or got.failed
    return wrong, failed, refused


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024  # ru_maxrss is in KiB on Linux


def quantities(tracer) -> dict[str, float]:
    out = dict(tracer.counts)
    for layer, (busy, calls) in tracer.layers().items():
        out[f"{layer}.s"] = busy
        out[f"{layer}.calls"] = calls
    return out


def repeat_problems(first: dict, again: dict) -> list[str]:
    """Every count of a traced pass must repeat exactly."""
    return [
        f"counter {key} differs between the traced passes: "
        f"{first.get(key, 0)} vs {again.get(key, 0)}"
        for key in sorted(set(first) | set(again))
        if not key.endswith(".s") and first.get(key, 0) != again.get(key, 0)
    ]


def layer_metrics(once: dict, passes: list[dict], traced_s: list[float], timed_s: float):
    """Per-layer metrics of one batch: time is the mean over its traced
    passes, counts come from the first one; set-up and cross-check spans
    happen once."""
    m = dict(passes[0])
    for key in {k for p in passes for k in p if k.endswith(".s")}:
        m[key] = statistics.mean(p.get(key, 0.0) for p in passes)
    for key, value in once.items():
        m[key] = m.get(key, 0) + value
    m["oracle.nodes_per_s"] = _rate(m.get("oracle.nodes", 0), m.get("oracle.s", 0.0))
    m["feasibility.check.points_per_s"] = _rate(
        m.get("feasibility.check.points", 0), m.get("feasibility.check.s", 0.0)
    )
    m["trace.total_s"] = statistics.mean(traced_s)
    m["trace.gap_s"] = m["trace.total_s"] - timed_s
    return m


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def traced_pass(workload, inputs):
    tracer = Tracer()
    start = time.perf_counter()
    outcomes, facts = workload.traced_pass(inputs, tracer)
    return outcomes, facts, tracer, time.perf_counter() - start


def kernel_samples(chunk_s: float) -> list[float]:
    samples = [kernel_s()]
    while sum(samples) < CALIBRATION_SHARE * chunk_s:
        samples.append(kernel_s())
    return samples


def timed_round(workload, chunks, best: list[float]):
    """One untraced pass over every chunk, timing each chunk between runs of
    the calibration kernel, and keeping each chunk's fastest wall time in
    `best`.  A chunk's time at reference speed uses the median kernel time
    right before and after it.  Returns the round's wall time (calibration
    included), the sum of its chunks' wall times and of their times at
    reference speed, and, per batch, the outcome of every operation
    (reduced outside the timed region)."""
    raws = []
    chunks_s = scaled_s = 0.0
    t_round = time.perf_counter()
    kernel_before = kernel_samples(0.0)
    for i, (_, chunk) in enumerate(chunks):
        t0 = time.perf_counter()
        raws.append(workload.entry_pass(chunk))
        wall = time.perf_counter() - t0
        kernel_after = kernel_samples(wall)
        chunks_s += wall
        scaled_s += wall * REFERENCE_S / statistics.median(kernel_before + kernel_after)
        best[i] = min(best[i], wall)
        kernel_before = kernel_after
    round_s = time.perf_counter() - t_round
    got: dict[int, dict] = defaultdict(dict)
    for (b, chunk), raw in zip(chunks, raws):
        got[b].update(workload.outcomes(chunk, raw))
    return round_s, chunks_s, scaled_s, got


def run(args, workload, spec, workdir: str) -> dict:
    setup_times = time_setup(args)
    setup_tracer = Tracer()
    batches = [
        workload.build(args.seed, b, workdir, setup_tracer if b == 0 else Tracer())
        for b in range(workload.batches)
    ]
    chunks = [(b, chunk) for b, inputs in enumerate(batches) for chunk in workload.chunks(inputs)]
    best = [float("inf")] * len(chunks)

    # the reference passes and set-ups come after the first timed round, so
    # that the timed rounds spread over more of the run (the machine's
    # speed changes over tens of seconds; see README.md)
    rounds = [timed_round(workload, chunks, best)]
    problems, references, traced = [], [], []
    for inputs in batches:
        reference, facts, tracer, traced_s = traced_pass(workload, inputs)
        problems += workload.check(facts)
        references.append(reference)
        traced.append((reference, facts, tracer, traced_s))
    setup_times += time_setup(args)

    # --seconds covers the timed rounds; another starts only if it should
    # end by then
    round_s = [rounds[0][0]]
    while len(round_s) < MIN_ROUNDS or (
        len(round_s) < MAX_ROUNDS and sum(round_s) + statistics.median(round_s) <= args.seconds
    ):
        rounds.append(timed_round(workload, chunks, best))
        round_s.append(rounds[-1][0])
    setup_times += time_setup(args)

    wrong = failed = refused = attempted = 0
    for *_, got in rounds:
        for b, reference in enumerate(references):
            w, f, r = compare(got[b], reference)
            wrong, failed, refused = wrong + w, failed + f, refused + r
            attempted += len(reference)

    ops = sum(len(ref) for ref in references)
    wall_s = statistics.median(scaled for _, _, scaled, _ in rounds)
    end_to_end = {
        "setup_s": statistics.median(scaled for _, scaled in setup_times),
        "wall_s": wall_s,
        "ops_per_s": ops / wall_s,
        "peak_rss_mib": peak_rss_mib(),
    }
    print(
        f"{workload.name} seed {args.seed}: {len(batches)} batches, {ops} operations "
        f"in {len(best)} chunks; {len(rounds)} rounds, wall "
        f"{[round(wall, 3) for _, wall, _, _ in rounds]} s, at reference speed "
        f"{[round(scaled, 3) for _, _, scaled, _ in rounds]} s; "
        f"wrong {wrong}, fail_ratio {(failed + refused) / attempted} "
        f"({refused} refused under a cap); set-ups, wall "
        f"{[round(wall, 3) for wall, _ in setup_times]} s, at reference speed "
        f"{[round(scaled, 3) for _, scaled in setup_times]} s",
        file=sys.stderr,
    )

    if args.trace:
        reference, facts, tracer, traced_s = traced[0]
        again, _, tracer2, traced2_s = traced_pass(workload, batches[0])
        if compare(again, reference)[0]:
            problems.append("the outputs of the two traced passes of batch 0 differ")
        passes = [quantities(tracer), quantities(tracer2)]
        problems += repeat_problems(*passes)
        cross_tracer = Tracer()
        problems += workload.cross_check(facts, cross_tracer)
        once = {**quantities(setup_tracer), **quantities(cross_tracer)}
        timed_s = sum(t for (b, _), t in zip(chunks, best) if b == 0)
        values = layer_metrics(once, passes, [traced_s, traced2_s], timed_s)
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"spans-{workload.name}-s{args.seed}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "setup": setup_tracer.to_json(),
                    "passes": [tracer.to_json(), tracer2.to_json()],
                    "cross_check": cross_tracer.to_json(),
                },
                fh,
            )
        selected = spec["per_layer"]
    else:
        values = end_to_end
        selected = spec["end_to_end"]

    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    if wrong:
        print(f"CHECK FAILED: {wrong} outputs differ from the traced pass", file=sys.stderr)
    return {
        "correct": wrong == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
            for m in selected
        },
    }


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "rtpack", "__init__.py")):
        print(f"error: no rtpack sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    if args.setup_only:
        workload.build(args.seed, 0, args.setup_only, Tracer())
        return 0

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        result = run(args, workload, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:  # another run still uses it
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
