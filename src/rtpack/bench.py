"""Algorithm-versus-oracle experiment harness.

Each row pairs one instance with one partitioner run: instance metrics, the
processor count, the oracle optimum when enabled, the realized ratio, and
any bound violations.  Ratios stay exact rationals end to end; the decimal
rendering in the JSON output is display-only.  Reports are deterministic
given the configuration; wall-clock runtimes are recorded for performance
reading but never enter a correctness check (and can be disabled to make
output files reproducible byte for byte).
"""

from __future__ import annotations

import csv
import glob as globmod
import io as stringio
import json
import time
from dataclasses import dataclass, field
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from typing import Optional

from .errors import ParseError, RtpackError
from .feasibility import Mode, verify_partition
from .generators import (
    DEFAULT_DENOMINATOR_BOUND,
    GenParams,
    dvp_to_tasks,
    gen_best_fit_adversary,
    gen_random,
    gen_random_dvp,
    gen_speedup_gap,
    gen_worst_fit_adversary,
)
from .io import parse_rational, parse_taskset
from .model import DeadlineClass, TaskSet, classify, gamma_metric, lambda_metric
from .oracle import DEFAULT_ORACLE_CAP, optimal_partition_bruteforce
from .partitioners import Partition, Strategy, dagger_greedy, dm_partition

CSV_COLUMNS = [
    "instance",
    "family",
    "N",
    "class",
    "lambda",
    "gamma",
    "U",
    "algorithm",
    "strategy",
    "M",
    "m_star",
    "ratio",
    "bound_2lambda",
    "runtime_ms",
]

DEFAULT_ALPHA_SLACK = Fraction(1)

# instance keys whose config values must be exact rationals or integers
_RATIONAL_KEYS = frozenset({"target_u", "eps", "h"})
_INTEGER_KEYS = frozenset({"k", "n", "seed", "count", "den_bound"})
_CLASSES = tuple(c.value for c in DeadlineClass)
_STRATEGIES = tuple(s.value for s in Strategy)
ALGORITHMS = ("dm", "dagger")


def _named(*sets: TaskSet) -> list[tuple[str, TaskSet]]:
    return [(ts.name, ts) for ts in sets]


def _adversary(gen):
    return lambda p: _named(gen(int(p["k"]), p["h"]))


def _speedup_gap(p: dict) -> list[tuple[str, TaskSet]]:
    return _named(gen_speedup_gap(int(p["n"]), Fraction(p["eps"])))


def _seeds(p: dict) -> range:
    return range(p["seed"], p["seed"] + p["count"])


def _random(p: dict) -> list[tuple[str, TaskSet]]:
    params = [
        GenParams(
            seed=s,
            n=int(p["n"]),
            deadline_class=DeadlineClass(p["class"]),
            utilization_target=Fraction(p["target_u"]),
            denominator_bound=int(p["den_bound"]),
        )
        for s in _seeds(p)
    ]
    return _named(*map(gen_random, params))


def _dvp(p: dict) -> list[tuple[str, TaskSet]]:
    n, q = int(p["n"]), int(p["den_bound"])
    return [(f"dvp-s{s}", dvp_to_tasks(gen_random_dvp(s, n, q))) for s in _seeds(p)]


def _files(p: dict) -> list[tuple[str, TaskSet]]:
    paths = sorted(globmod.glob(str(p["path"])))
    if not paths:
        raise ParseError(f"no files match {p['path']!r}")
    out = []
    for path in paths:
        with open(path, "rb") as fh:
            ts = parse_taskset(fh.read())
        out.append((ts.name or path, ts))
    return out


_SEEDED = {"seed": 0, "count": 1, "den_bound": DEFAULT_DENOMINATOR_BOUND}
# family -> (required keys, optional keys with their defaults, maker); the
# maker takes the keys with the defaults filled in and returns (name, task
# set) pairs.  `rtpack generate` and the bench both expand instances here.
FAMILIES = {
    "bf-adversary": (("k",), {"h": None}, _adversary(gen_best_fit_adversary)),
    "wf-adversary": (("k",), {"h": None}, _adversary(gen_worst_fit_adversary)),
    "speedup-gap": (("n", "eps"), {}, _speedup_gap),
    "random": (("n",), {**_SEEDED, "class": "constrained", "target_u": 1}, _random),
    "dvp": (("n",), _SEEDED, _dvp),
    "file": (("path",), {}, _files),
}


@dataclass(frozen=True)
class BenchRow:
    instance: str
    family: str
    n: int
    deadline_class: str
    lam: Fraction
    gamma: Fraction
    utilization: Fraction
    algorithm: str
    strategy: Optional[str]
    m: int
    m_star: Optional[int]
    ratio: Optional[Fraction]
    bound_2lambda: Fraction
    bound_asymptotic: Optional[Fraction]
    violations: tuple[str, ...]
    runtime_ms: float


@dataclass
class BenchReport:
    rows: tuple[BenchRow, ...]
    errors: tuple[str, ...] = ()
    # kept for re-verification; never serialized, never compared
    partitions: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def max_ratio(self) -> Optional[Fraction]:
        ratios = [r.ratio for r in self.rows if r.ratio is not None]
        return max(ratios) if ratios else None

    @property
    def mean_ratio(self) -> Optional[Fraction]:
        ratios = [r.ratio for r in self.rows if r.ratio is not None]
        return sum(ratios, Fraction(0)) / len(ratios) if ratios else None


@dataclass(frozen=True)
class InstanceSpec:
    family: str
    params: tuple[tuple[str, object], ...]

    def get(self, key, default=None):
        return dict(self.params).get(key, default)


@dataclass(frozen=True)
class ExperimentConfig:
    instances: tuple[InstanceSpec, ...]
    algorithms: tuple[tuple[str, Optional[str]], ...]
    oracle: bool = True
    n_cap: int = DEFAULT_ORACLE_CAP
    alpha_slack: Fraction = DEFAULT_ALPHA_SLACK
    timing: bool = True
    threads: int = 1

    def __post_init__(self):
        if not self.algorithms:
            raise ParseError("at least one algorithm must be selected")
        for i, (algo, strategy) in enumerate(self.algorithms, start=1):
            if algo not in ALGORITHMS:
                raise ParseError(f"algorithm {i}: unknown algorithm {algo!r}")
            if strategy is not None and strategy not in _STRATEGIES:
                raise ParseError(
                    f"algorithm {i} ({algo}): unknown strategy {strategy!r}"
                )


def spec(family: str, **params) -> InstanceSpec:
    return InstanceSpec(family, tuple(sorted(params.items())))


def _family(family, keys, where: str):
    """The table entry of `family`; raises ParseError naming `where` for an
    unknown family, or for a key it needs and lacks or does not take."""
    if family not in FAMILIES:
        raise ParseError(f"{where}: unknown family {family!r}")
    required, optional, _ = FAMILIES[family]
    for key in required:
        if key not in keys:
            raise ParseError(f"{where}: missing {key!r}")
    for key in keys:
        if key not in required and key not in optional:
            raise ParseError(f"{where}: unknown key {key!r}")
    return FAMILIES[family]


def make_instances(family: str, params: dict) -> list[tuple[str, TaskSet]]:
    """The (name, task set) pairs of one instance spec, deterministically;
    keys left out take the family's defaults."""
    _, optional, make = _family(family, params, family)
    return make({**optional, **params})


def resolve_instances(cfg: ExperimentConfig) -> list[tuple[str, str, TaskSet]]:
    """Expand instance specs into (name, family, task set), deterministically."""
    return [
        (name, sp.family, ts)
        for sp in cfg.instances
        for name, ts in make_instances(sp.family, dict(sp.params))
    ]


def run_algorithm(ts: TaskSet, algo: str, strategy: Optional[str]) -> Partition:
    """Partition `ts` with one of ALGORITHMS; a strategy of None is first
    fit."""
    fit = Strategy(strategy or "ff")
    if algo == "dm":
        return dm_partition(ts, fit)
    if algo == "dagger":
        return dagger_greedy(ts, fit)
    raise ParseError(f"unknown algorithm {algo!r}")


def _row_violations(
    algorithm: str,
    m: int,
    m_star: Optional[int],
    lam: Fraction,
    gamma: Fraction,
    verified: bool,
    alpha_slack: Fraction,
) -> tuple[str, ...]:
    out = []
    if not verified:
        out.append("hard: partition failed exact verification")
    if m_star is not None:
        if algorithm == "dagger" and m > 2 * lam * m_star:
            out.append(f"hard: M={m} exceeds 2*lambda*M*={2 * lam * m_star}")
        if algorithm == "dm" and gamma < 1:
            bound = Fraction(2, 1) / (1 - gamma) * m_star + alpha_slack
            if m > bound:
                out.append(f"soft: M={m} exceeds asymptotic bound {bound}")
        if m < m_star:
            out.append(f"hard: M={m} below the optimum {m_star}")
    return tuple(out)


def _bench_instance(
    name: str, family: str, ts: TaskSet, cfg: ExperimentConfig
) -> tuple[list[BenchRow], list[str], dict]:
    rows: list[BenchRow] = []
    errors: list[str] = []
    partitions: dict = {}
    lam = lambda_metric(ts)
    gamma = gamma_metric(ts)
    cls = classify(ts).value
    util = ts.total_utilization

    m_star: Optional[int] = None
    if cfg.oracle:
        try:
            m_star = optimal_partition_bruteforce(ts, Mode.EXACT, cfg.n_cap).m_star
        except RtpackError as exc:
            errors.append(f"{name}/oracle: {exc}")

    for algo, strategy in cfg.algorithms:
        try:
            start = time.perf_counter()
            part = run_algorithm(ts, algo, strategy)
            # rounded at capture so emitted reports parse back identically
            elapsed_ms = (
                round((time.perf_counter() - start) * 1000, 3) if cfg.timing else 0.0
            )
            verified = verify_partition(ts, part, Mode.EXACT)
            ratio = Fraction(part.m, m_star) if m_star else None
            asym = Fraction(2, 1) / (1 - gamma) if gamma < 1 else None
            rows.append(
                BenchRow(
                    instance=name,
                    family=family,
                    n=len(ts),
                    deadline_class=cls,
                    lam=lam,
                    gamma=gamma,
                    utilization=util,
                    algorithm=algo,
                    strategy=strategy,
                    m=part.m,
                    m_star=m_star,
                    ratio=ratio,
                    bound_2lambda=2 * lam,
                    bound_asymptotic=asym,
                    violations=_row_violations(
                        algo, part.m, m_star, lam, gamma, verified, cfg.alpha_slack
                    ),
                    runtime_ms=elapsed_ms,
                )
            )
            partitions[(name, algo, strategy)] = part
        except RtpackError as exc:
            errors.append(f"{name}/{algo}-{strategy}: {exc}")
    return rows, errors, partitions


def run_experiment(cfg: ExperimentConfig) -> BenchReport:
    """Run every selected partitioner on every instance, verify each
    partition exactly, and fill one row per pairing; per-row errors are
    recorded and the run continues."""
    instances = resolve_instances(cfg)
    if cfg.threads > 1:
        # imported here: every CLI command imports this module, and only a
        # threaded run needs the executor (about 0.6 MiB of modules)
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            results = list(
                pool.map(lambda x: _bench_instance(*x, cfg=cfg), instances)
            )
    else:
        results = [_bench_instance(*x, cfg=cfg) for x in instances]
    rows: list[BenchRow] = []
    errors: list[str] = []
    partitions: dict = {}
    for r, e, p in results:
        rows.extend(r)
        errors.extend(e)
        partitions.update(p)
    return BenchReport(rows=tuple(rows), errors=tuple(errors), partitions=partitions)


def check_bounds(
    report: BenchReport,
    alpha_slack: Fraction = DEFAULT_ALPHA_SLACK,
    taskset_lookup=None,
) -> list[str]:
    """Re-derive every bound check from the report rows.

    Hard flags: a transformed-greedy row beyond 2*lambda times the optimum,
    a row below the optimum, or a stored partition failing exact
    re-verification (when the task sets are provided).  Soft flags report
    rows beyond the asymptotic deadline-monotonic bound plus the slack; they
    are informational because the additive constant is not pinned down.
    """
    out: list[str] = []
    for row in report.rows:
        verified = True
        if taskset_lookup is not None:
            part = report.partitions.get((row.instance, row.algorithm, row.strategy))
            ts = taskset_lookup(row.instance)
            if part is not None and ts is not None:
                verified = verify_partition(ts, part, Mode.EXACT)
        for v in _row_violations(
            row.algorithm, row.m, row.m_star, row.lam, row.gamma, verified, alpha_slack
        ):
            out.append(f"{row.instance}/{row.algorithm}-{row.strategy}: {v}")
    return out


def _decimal6(value: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = 60
        dec = Decimal(value.numerator) / Decimal(value.denominator)
        return str(dec.quantize(Decimal("0.000001"), rounding=ROUND_HALF_EVEN))


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def emit_report(report: BenchReport, format: str = "csv") -> bytes:
    """Stable-order CSV or JSON bytes; identical reports emit identical
    bytes."""
    if format == "csv":
        buf = stringio.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in report.rows:
            writer.writerow(
                [
                    row.instance,
                    row.family,
                    row.n,
                    row.deadline_class,
                    _csv_cell(row.lam),
                    _csv_cell(row.gamma),
                    _csv_cell(row.utilization),
                    row.algorithm,
                    row.strategy or "",
                    row.m,
                    _csv_cell(row.m_star),
                    _csv_cell(row.ratio),
                    _csv_cell(row.bound_2lambda),
                    _csv_cell(row.runtime_ms),
                ]
            )
        return buf.getvalue().encode("utf-8")
    if format == "json":
        rows = []
        for row in report.rows:
            rows.append(
                {
                    "instance": row.instance,
                    "family": row.family,
                    "N": row.n,
                    "class": row.deadline_class,
                    "lambda": str(row.lam),
                    "gamma": str(row.gamma),
                    "U": str(row.utilization),
                    "algorithm": row.algorithm,
                    "strategy": row.strategy,
                    "M": row.m,
                    "m_star": row.m_star,
                    "ratio": str(row.ratio) if row.ratio is not None else None,
                    "ratio_decimal": _decimal6(row.ratio)
                    if row.ratio is not None
                    else None,
                    "bound_2lambda": str(row.bound_2lambda),
                    "bound_asymptotic": str(row.bound_asymptotic)
                    if row.bound_asymptotic is not None
                    else None,
                    "violations": list(row.violations),
                    "runtime_ms": round(row.runtime_ms, 3),
                }
            )
        doc = {"rows": rows, "errors": list(report.errors)}
        return (json.dumps(doc, indent=2) + "\n").encode("utf-8")
    raise ParseError(f"unknown report format {format!r}")


def parse_report(data: bytes | str) -> BenchReport:
    """Inverse of the JSON emission (the display-only decimal is dropped)."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    doc = json.loads(data)
    rows = []
    for r in doc["rows"]:
        rows.append(
            BenchRow(
                instance=r["instance"],
                family=r["family"],
                n=int(r["N"]),
                deadline_class=r["class"],
                lam=Fraction(r["lambda"]),
                gamma=Fraction(r["gamma"]),
                utilization=Fraction(r["U"]),
                algorithm=r["algorithm"],
                strategy=r["strategy"],
                m=int(r["M"]),
                m_star=int(r["m_star"]) if r["m_star"] is not None else None,
                ratio=Fraction(r["ratio"]) if r["ratio"] is not None else None,
                bound_2lambda=Fraction(r["bound_2lambda"]),
                bound_asymptotic=Fraction(r["bound_asymptotic"])
                if r["bound_asymptotic"] is not None
                else None,
                violations=tuple(r["violations"]),
                runtime_ms=float(r["runtime_ms"]),
            )
        )
    return BenchReport(rows=tuple(rows), errors=tuple(doc.get("errors", ())))


def _parse_int(value, where: str) -> int:
    """A JSON integer; booleans, floats and strings are refused, not cast."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where}: expected an integer, got {value!r}")
    return value


def _parse_bool(value, where: str) -> bool:
    """A JSON boolean; strings, numbers and null are refused."""
    if not isinstance(value, bool):
        raise ParseError(f"{where}: expected true or false, got {value!r}")
    return value


def _parse_instance(index: int, entry: dict) -> InstanceSpec:
    family = entry["family"]
    if not isinstance(family, str):
        raise ParseError(f"instance {index}: family must be a string, got {family!r}")
    params = {key: value for key, value in entry.items() if key != "family"}
    _family(family, params, f"instance {index} ({family})")
    for key, value in params.items():
        where = f"instance {index} ({family}), {key!r}"
        if key in _RATIONAL_KEYS:
            params[key] = parse_rational(value, where)
        elif key in _INTEGER_KEYS:
            params[key] = _parse_int(value, where)
        elif key == "class" and value not in _CLASSES:
            raise ParseError(f"{where}: unknown class {value!r}")
    return InstanceSpec(family, tuple(sorted(params.items())))


def parse_config(data: bytes | str) -> ExperimentConfig:
    """Parse the experiment configuration document."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON config: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("config must be an object")
    try:
        instances = tuple(
            _parse_instance(i, entry)
            for i, entry in enumerate(doc["instances"], start=1)
        )
        algorithms = tuple(
            (entry["algo"], entry.get("strategy")) for entry in doc["algorithms"]
        )
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed config: {exc}") from exc
    return ExperimentConfig(
        instances=instances,
        algorithms=algorithms,
        oracle=_parse_bool(doc.get("oracle", True), "oracle"),
        n_cap=_parse_int(doc.get("n_cap", DEFAULT_ORACLE_CAP), "n_cap"),
        alpha_slack=parse_rational(doc.get("alpha_slack", "1"), "alpha_slack"),
        timing=_parse_bool(doc.get("timing", True), "timing"),
        threads=_parse_int(doc.get("threads", 1), "threads"),
    )
