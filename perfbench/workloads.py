"""The benchmark's workloads.

Each workload is a closed loop driven from one process: the next operation
starts when the previous one has returned.  A workload offers

- `batches`: how many batches of inputs one run holds.  Every batch holds
  the same mix with fresh random draws, so a run averages over more inputs
  than one batch holds;
- `build(seed, batch, workdir, tracer)`: the inputs of one batch, deriving
  every random input from the seed and the batch number (for cli-check this
  generates and writes the task-set files);
- `chunks(inputs)`: the batch split into the slices of consecutive
  operations that are timed one by one;
- `entry_pass(inputs)`: one untraced pass through rtpack's public entry
  point over a batch or a chunk, returning its raw output;
  `outcomes(inputs, raw)` turns that into an `Outcome` per operation id
  outside the timed region;
- `traced_pass(inputs, tracer)`: the same entry point over a whole batch,
  with the layer functions it looks up swapped for versions that wrap each
  call in a span and count its results; returns the outcomes plus the facts
  the checks read;
- `check(facts)`: cheap independent checks, run on every invocation;
- `cross_check(facts, tracer)`: the costly ones, run on traced invocations.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
from collections import defaultdict
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

from rtpack import bench, cli
from rtpack.errors import EventExplosion, HorizonOverflow, PointExplosion
from rtpack.feasibility import FeasibilityVerdict, lemma1_feasible
from rtpack.generators import (
    GenParams,
    gen_best_fit_adversary,
    gen_lemma1_shaped,
    gen_random,
    gen_speedup_gap,
)
from rtpack.io import serialize_taskset
from rtpack.model import DeadlineClass, TaskSet, dbf
from rtpack.simulate import simulate_edf_synchronous

from spans import Tracer

DEFAULT_SEED = 1
CLASSES = ("implicit", "constrained", "arbitrary")
ALGORITHMS = [
    {"algo": algo, "strategy": strat}
    for algo in ("dm", "dagger")
    for strat in ("ff", "bf", "wf")
]

# cli-check: the size of the random sets, how many sets each slice holds,
# the point cap of every request, and the simulator's event cap for the
# cross-check (a run over it is counted as unchecked).  Sweep lengths are
# heavy-tailed, so many mid-size sets keep the pass time steadier from seed
# to seed than a few large ones.
CHECK_N = 10
CHECK_PER_SLICE = 20
NEAR_CRITICAL_PER_CLASS = 3
POINT_CAP = 1000
SIM_EVENT_CAP = 20_000


# a batch draws at most PER_SLICE sets per slice; seeds of distinct slices
# and batches never overlap while batch < MAX_BATCHES
PER_SLICE = 100
MAX_BATCHES = 100


def derived_seed(seed: int, slice_no: int, batch: int) -> int:
    """First generator seed of one slice of one batch."""
    return (seed * 100 + slice_no) * PER_SLICE * MAX_BATCHES + batch * PER_SLICE


def digest(*parts: str) -> str:
    return hashlib.sha256("\0".join(parts).encode("utf-8")).hexdigest()


@contextmanager
def swapped(module, **functions):
    """Replace names that `module` looks up at call time; restore them on
    exit."""
    saved = {name: getattr(module, name) for name in functions}
    for name, fn in functions.items():
        setattr(module, name, fn)
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)


@dataclass(frozen=True)
class Outcome:
    """What one operation returned: a digest of its output; whether it
    failed (a bench errors entry, or a check exit code 2 other than a
    refusal under the stated point or hyperperiod cap); whether it was such
    a refusal."""

    digest: str
    failed: bool
    refused: bool = False


# ---------------------------------------------------------------- bench


@dataclass
class InstanceFacts:
    name: str
    family: str
    ts: TaskSet
    m_star: Optional[int] = None
    # (algo, strategy) -> (M, verified)
    results: dict = field(default_factory=dict)


def _lower_bound(ts: TaskSet) -> int:
    return max(1, math.ceil(ts.total_utilization))


def _instance_outcomes(data: bytes) -> dict[str, Outcome]:
    """Split a JSON report into one outcome per instance, in report order."""
    doc = json.loads(data)
    rows = defaultdict(list)
    for row in doc["rows"]:
        rows[row["instance"]].append(row)
    errors = defaultdict(list)
    for err in doc["errors"]:
        errors[err.split("/", 1)[0]].append(err)
    names = list(dict.fromkeys([*rows, *errors]))
    return {
        name: Outcome(
            digest(json.dumps(rows[name], sort_keys=True), json.dumps(errors[name])),
            bool(errors[name]),
        )
        for name in names
    }


class BenchWorkload:
    """The paper's experiment through `bench.run_experiment` and
    `bench.emit_report`; one operation is one instance, and every instance
    spec of a batch resolves to exactly one instance, so that a chunk of
    specs is a chunk of operations."""

    def __init__(self, name: str, instances, oracle: bool, batches: int, chunk: int):
        self.name = name
        self._instances = instances
        self._oracle = oracle
        self.batches = batches
        self.chunk = chunk

    def build(self, seed: int, batch: int, workdir: str, tracer: Tracer):
        doc = {
            "instances": self._instances(seed, batch),
            "algorithms": ALGORITHMS,
            "oracle": self._oracle,
            "n_cap": 16,
            "timing": False,
            "threads": 2,
        }
        return bench.parse_config(json.dumps(doc))

    def chunks(self, cfg) -> list:
        specs = cfg.instances
        return [
            replace(cfg, instances=specs[i : i + self.chunk])
            for i in range(0, len(specs), self.chunk)
        ]

    def entry_pass(self, cfg) -> bytes:
        return bench.emit_report(bench.run_experiment(cfg), "json")

    def outcomes(self, cfg, data: bytes) -> dict[str, Outcome]:
        return _instance_outcomes(data)

    def traced_pass(self, cfg, tracer: Tracer):
        """`entry_pass` on one thread, so that spans nest, with the layer
        calls of `bench` wrapped."""
        facts: dict[str, InstanceFacts] = {}
        name_of: dict[int, str] = {}  # id(task set) -> instance name
        made_by: dict[int, tuple] = {}  # id(partition) -> (algo, strategy)
        real = {
            name: getattr(bench, name)
            for name in ("resolve_instances", "optimal_partition_bruteforce",
                         "dm_partition", "dagger_greedy", "verify_partition", "emit_report")
        }  # fmt: skip

        def resolve_instances(cfg):
            with tracer.span("generators", "resolve"):
                instances = real["resolve_instances"](cfg)
            for name, family, ts in instances:
                name_of[id(ts)] = name
                facts[name] = InstanceFacts(name, family, ts)
            tracer.add("generators.tasks", sum(len(ts) for _, _, ts in instances))
            return instances

        def optimal_partition_bruteforce(ts, *args):
            name = name_of[id(ts)]
            with tracer.span("oracle", name):
                res = real["optimal_partition_bruteforce"](ts, *args)
            facts[name].m_star = res.m_star
            tracer.add("oracle.nodes", res.nodes_explored)
            tracer.add("oracle.levels", res.m_star - _lower_bound(ts) + 1)
            return res

        def partitioner(algo, partition):
            def call(ts, strategy, *args):
                with tracer.span(f"partitioners.{algo}", name_of[id(ts)]):
                    part = partition(ts, strategy, *args)
                made_by[id(part)] = (algo, strategy.value)
                tracer.add(f"partitioners.{algo}.bins", part.m)
                return part

            return call

        def verify_partition(ts, part, *args):
            name = name_of[id(ts)]
            with tracer.span("feasibility.verify", name):
                ok = real["verify_partition"](ts, part, *args)
            facts[name].results[made_by[id(part)]] = (part.m, ok)
            tracer.add("feasibility.verify.bins", part.m)
            return ok

        def emit_report(report, *args):
            with tracer.span("bench.emit", "report"):
                data = real["emit_report"](report, *args)
            tracer.add("bench.emit.bytes", len(data))
            return data

        with swapped(
            bench,
            resolve_instances=resolve_instances,
            optimal_partition_bruteforce=optimal_partition_bruteforce,
            dm_partition=partitioner("dm", real["dm_partition"]),
            dagger_greedy=partitioner("dagger", real["dagger_greedy"]),
            verify_partition=verify_partition,
            emit_report=emit_report,
        ):
            data = self.entry_pass(replace(cfg, threads=1))
        return _instance_outcomes(data), list(facts.values())

    def check(self, facts: list[InstanceFacts]) -> list[str]:
        problems = []
        for f in facts:
            where = f"{self.name}/{f.name}"
            if not f.results:
                problems.append(f"{where}: no partition was produced")
                continue
            if not all(ok for _, ok in f.results.values()):
                problems.append(f"{where}: a partition failed exact verification")
            min_m = min(m for m, _ in f.results.values())
            upper = f.m_star if f.m_star is not None else min_m
            if not _lower_bound(f.ts) <= upper <= min_m:
                problems.append(
                    f"{where}: ceil(U) <= m* <= min M fails "
                    f"(ceil(U)={_lower_bound(f.ts)}, m*={f.m_star}, min M={min_m})"
                )
            if f.family in ("bf-adversary", "wf-adversary"):
                # dm-bf on bf-adversary-K and dm-wf on wf-adversary-K open K bins
                k, strategy = len(f.ts) // 2, f.family[:2]
                got = f.results.get(("dm", strategy), (None,))[0]
                if got != k:
                    problems.append(f"{where}: dm-{strategy} opened {got} bins, expected {k}")
                if self._oracle and f.m_star != 2:
                    problems.append(f"{where}: m* = {f.m_star}, expected 2")
            if f.family == "speedup-gap" and self._oracle and f.m_star != len(f.ts):
                problems.append(f"{where}: m* = {f.m_star}, expected N = {len(f.ts)}")
        return problems

    def cross_check(self, facts, tracer: Tracer) -> list[str]:
        return []


def _one_each(count: int, first_seed: int, **spec) -> list[dict]:
    """`count` specs of one instance each, with consecutive generator seeds
    (the instances a single spec with this count resolves to)."""
    return [{**spec, "count": 1, "seed": first_seed + i} for i in range(count)]


def ratio_sweep_instances(seed: int, batch: int) -> list[dict]:
    out = [
        spec
        for i, cls in enumerate(CLASSES)
        for spec in _one_each(24, derived_seed(seed, i, batch),
                              family="random", n=10, target_u="5/2", **{"class": cls})  # fmt: skip
    ]
    out += _one_each(6, derived_seed(seed, 3, batch), family="dvp", n=10)
    for k in range(4, 9):
        out.append({"family": "bf-adversary", "k": k})
        out.append({"family": "wf-adversary", "k": k})
    for n in (6, 10, 14):
        out.append({"family": "speedup-gap", "n": n, "eps": "1/2"})
    return out


def heuristic_scale_instances(seed: int, batch: int) -> list[dict]:
    return [
        {"family": "random", "count": 1, "n": 160, "target_u": "16", "class": cls,
         "seed": derived_seed(seed, i, batch)}  # fmt: skip
        for i, cls in enumerate(CLASSES)
    ]


# ---------------------------------------------------------------- check


@dataclass(frozen=True)
class Request:
    op: str  # operation id, unique within a batch
    kind: str
    path: str
    speed: str
    ts: TaskSet

    @property
    def argv(self) -> list[str]:
        return ["check", self.path, "--speed", self.speed, "--point-cap", str(POINT_CAP)]


@dataclass
class RequestFacts:
    request: Request
    verdict: Optional[FeasibilityVerdict] = None
    capped: bool = False


class CheckWorkload:
    """`rtpack check` requests, one at a time, in-process through
    `cli.dispatch` with the output captured; one operation is one request."""

    name = "cli-check"
    batches = 6
    chunk = 10

    def build(self, seed: int, batch: int, workdir: str, tracer: Tracer) -> list[Request]:
        requests: list[Request] = []

        def add(kind, make, speeds=("1",)):
            with tracer.span("generators", kind):
                ts = make()
            tracer.add("generators.tasks", len(ts))
            path = os.path.join(workdir, f"{batch:02d}-{len(requests):03d}-{ts.name}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(serialize_taskset(ts))
            for s in speeds:
                requests.append(Request(f"request-{len(requests)}", kind, path, s, ts))

        def random_set(gen_seed, cls, target):
            return lambda: gen_random(
                GenParams(seed=gen_seed, n=CHECK_N, deadline_class=DeadlineClass(cls),
                          utilization_target=Fraction(target))  # fmt: skip
            )

        slice_no = 0
        for target in ("3/5", "4/5", "9/10", "21/20"):
            for cls in ("constrained", "arbitrary"):
                base = derived_seed(seed, slice_no, batch)
                slice_no += 1
                for i in range(CHECK_PER_SLICE):
                    add("random", random_set(base + i, cls, target))
        # near-critical: total utilization usually within 1e-5 of 1, the
        # slowest sweeps (a known slow case); the point cap refuses some
        for cls in ("constrained", "arbitrary"):
            base = derived_seed(seed, slice_no, batch)
            slice_no += 1
            for i in range(NEAR_CRITICAL_PER_CLASS):
                add("near-critical", random_set(base + i, cls, 1))
        for k in range(4, 9):
            add("bf-adversary", lambda: gen_best_fit_adversary(k))
        for n in range(4, 17):
            add("speedup-gap", lambda: gen_speedup_gap(n, Fraction(1, 2)), ("1", "3/2"))
        base = derived_seed(seed, slice_no, batch)
        for i in range(8):
            add("lemma1", lambda: gen_lemma1_shaped(base + i, 1 + i % 2, 1 + i % 3))
        return requests

    @staticmethod
    def _dispatch(req: Request) -> tuple[int, str, str]:
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = cli.dispatch(req.argv)
        return code, stdout.getvalue(), stderr.getvalue()

    def chunks(self, requests: list[Request]) -> list[list[Request]]:
        return [requests[i : i + self.chunk] for i in range(0, len(requests), self.chunk)]

    def entry_pass(self, requests: list[Request]) -> list[tuple[int, str, str]]:
        return [self._dispatch(req) for req in requests]

    def outcomes(self, requests: list[Request], raw, capped=None) -> dict[str, Outcome]:
        """One outcome per request; `capped` marks the requests known to be
        refusals under a cap (the traced pass sees the exception)."""
        out = {}
        for i, (req, (code, stdout, stderr)) in enumerate(zip(requests, raw)):
            refused = bool(capped and capped[i])
            out[req.op] = Outcome(
                digest(str(code), stdout, stderr), code == 2 and not refused, refused
            )
        return out

    def traced_pass(self, requests: list[Request], tracer: Tracer):
        """`entry_pass` with the layer calls of `cli` wrapped."""
        facts = [RequestFacts(req) for req in requests]
        current = [0]  # index of the request being served
        real_parse, real_check = cli.parse_taskset, cli.edf_feasible_exact

        def parse_taskset(data, *args):
            with tracer.span("io.parse", f"request-{current[0]}"):
                ts = real_parse(data, *args)
            tracer.add("io.parse.bytes", len(data))
            return ts

        def edf_feasible_exact(ts, *args, **kwargs):
            fact = facts[current[0]]
            try:
                with tracer.span("feasibility.check", f"request-{current[0]}"):
                    verdict = real_check(ts, *args, **kwargs)
            except (PointExplosion, HorizonOverflow):
                fact.capped = True
                tracer.add("feasibility.check.capped")
                raise
            fact.verdict = verdict
            tracer.add("feasibility.check.points", verdict.points_checked)
            tracer.add("feasibility.check.infeasible", int(not verdict.feasible))
            return verdict

        raw = []
        with swapped(cli, parse_taskset=parse_taskset, edf_feasible_exact=edf_feasible_exact):
            for i, req in enumerate(requests):
                current[0] = i
                raw.append(self._dispatch(req))
        return self.outcomes(requests, raw, [f.capped for f in facts]), facts

    def check(self, facts: list[RequestFacts]) -> list[str]:
        problems = []
        for i, f in enumerate(facts):
            req, v = f.request, f.verdict
            where = f"{self.name}/{req.op} ({req.ts.name} at speed {req.speed})"
            if v is None:
                if not (f.capped and req.kind in ("random", "near-critical")):
                    problems.append(f"{where}: no verdict")
                continue
            speed = Fraction(req.speed)
            if v.feasible and req.ts.total_utilization > speed:
                problems.append(f"{where}: feasible with U > speed")
            if not v.feasible and sum(dbf(t, v.witness) for t in req.ts) <= speed * v.witness:
                problems.append(f"{where}: the demand at the witness does not exceed the supply")
            if req.kind == "speedup-gap" and v.feasible != (speed == Fraction(3, 2)):
                problems.append(f"{where}: speed-up gap verdict {v.feasible}")
            if req.kind == "bf-adversary" and v.feasible:
                problems.append(f"{where}: adversary set judged feasible")
            if req.kind == "lemma1" and lemma1_feasible(req.ts) != v.feasible:
                problems.append(f"{where}: disagrees with the Lemma 1 closed form")
        return problems

    def cross_check(self, facts: list[RequestFacts], tracer: Tracer) -> list[str]:
        """EDF simulation: to the sweep horizon for feasible verdicts, to the
        witness for infeasible ones."""
        problems = []
        for i, f in enumerate(facts):
            v = f.verdict
            if v is None:
                continue
            ts, speed = f.request.ts, Fraction(f.request.speed)
            try:
                with tracer.span("simulate", f"request-{i}"):
                    end = v.horizon if v.feasible else v.witness
                    trace = simulate_edf_synchronous(ts, end, speed, SIM_EVENT_CAP)
            except EventExplosion:
                tracer.add("simulate.unchecked")
                continue
            if v.feasible != (not trace.misses) or any(d > end for _, d in trace.misses):
                problems.append(f"{self.name}/request-{i}: simulation disagrees with the verdict")
        return problems


WORKLOADS = {
    "ratio-sweep": BenchWorkload(
        "ratio-sweep", ratio_sweep_instances, oracle=True, batches=3, chunk=7
    ),
    "heuristic-scale": BenchWorkload(
        "heuristic-scale", heuristic_scale_instances, oracle=False, batches=2, chunk=1
    ),
    "cli-check": CheckWorkload(),
}
