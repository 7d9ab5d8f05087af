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
from dataclasses import dataclass, replace
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
from .io import load_json, parse_rational, parse_taskset
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
# the keys a config document and one of its algorithm entries may hold
_CONFIG_KEYS = frozenset(
    {"instances", "algorithms", "oracle", "n_cap", "alpha_slack", "timing", "threads"}
)
_ALGORITHM_KEYS = frozenset({"algo", "strategy"})


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
    violations: tuple[str, ...]
    runtime_ms: float

    @property
    def ratio(self) -> Optional[Fraction]:
        """M / m*, or None without an optimum."""
        return Fraction(self.m, self.m_star) if self.m_star else None

    @property
    def bound_2lambda(self) -> Fraction:
        """The ratio bound of the dagger greedy."""
        return 2 * self.lam

    @property
    def bound_asymptotic(self) -> Optional[Fraction]:
        """The asymptotic ratio bound of deadline-monotonic fitting, 2/(1-gamma);
        None when gamma is 1."""
        return 2 / (1 - self.gamma) if self.gamma < 1 else None


@dataclass
class BenchReport:
    rows: tuple[BenchRow, ...]
    errors: tuple[str, ...] = ()


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
    # ignored (runs are serial); kept while the benchmark still sends it
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
    """Expand instance specs into (name, family, task set), deterministically;
    an error names the spec by its 1-based index."""
    out = []
    for i, sp in enumerate(cfg.instances, start=1):
        where, params = f"instance {i} ({sp.family})", dict(sp.params)
        _, optional, make = _family(sp.family, params, where)
        try:
            pairs = make({**optional, **params})
        except RtpackError as exc:
            exc.args = (f"{where}: {exc}",)  # keeps the error's type
            raise
        out.extend((name, sp.family, ts) for name, ts in pairs)
    return out


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
    row: BenchRow, verified: bool, alpha_slack: Fraction
) -> tuple[str, ...]:
    out = []
    if not verified:
        out.append("hard: partition failed exact verification")
    m, m_star = row.m, row.m_star
    if m_star is not None:
        if row.algorithm == "dagger" and m > row.bound_2lambda * m_star:
            out.append(f"hard: M={m} exceeds 2*lambda*M*={row.bound_2lambda * m_star}")
        if row.algorithm == "dm" and row.bound_asymptotic is not None:
            bound = row.bound_asymptotic * m_star + alpha_slack
            if m > bound:
                out.append(f"soft: M={m} exceeds asymptotic bound {bound}")
        if m < m_star:
            out.append(f"hard: M={m} below the optimum {m_star}")
    return tuple(out)


def _bench_instance(
    name: str, family: str, ts: TaskSet, cfg: ExperimentConfig
) -> tuple[list[BenchRow], list[str]]:
    rows: list[BenchRow] = []
    errors: list[str] = []
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
            row = BenchRow(
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
                violations=(),
                runtime_ms=elapsed_ms,
            )
            violations = _row_violations(row, verified, cfg.alpha_slack)
            rows.append(replace(row, violations=violations))
        except RtpackError as exc:
            errors.append(f"{name}/{algo}-{strategy}: {exc}")
    return rows, errors


def run_experiment(cfg: ExperimentConfig) -> BenchReport:
    """Run every selected partitioner on every instance, verify each
    partition exactly, and fill one row per pairing; per-row errors are
    recorded and the run continues.  Instances run serially, in input
    order; ``cfg.threads`` has no effect."""
    results = [_bench_instance(*x, cfg=cfg) for x in resolve_instances(cfg)]
    rows: list[BenchRow] = []
    errors: list[str] = []
    for r, e in results:
        rows.extend(r)
        errors.extend(e)
    return BenchReport(rows=tuple(rows), errors=tuple(errors))


def check_bounds(
    report: BenchReport, alpha_slack: Fraction = DEFAULT_ALPHA_SLACK
) -> list[str]:
    """Re-derive every bound flag from the report rows.

    Hard flags: a transformed-greedy row beyond 2*lambda times the optimum,
    or a row below the optimum.  Soft flags report rows beyond the
    asymptotic deadline-monotonic bound plus the slack; they are
    informational because the additive constant is not pinned down.
    Partitions are not re-verified: a row carries the verdict of its run in
    `violations`.
    """
    return [
        f"{row.instance}/{row.algorithm}-{row.strategy}: {v}"
        for row in report.rows
        for v in _row_violations(row, True, alpha_slack)
    ]


def _decimal6(value: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = 60
        dec = Decimal(value.numerator) / Decimal(value.denominator)
        return str(dec.quantize(Decimal("0.000001"), rounding=ROUND_HALF_EVEN))


def _row_doc(row: BenchRow) -> dict:
    """The JSON object of one row.  `ratio`, `ratio_decimal`,
    `bound_2lambda` and `bound_asymptotic` are derived from the others."""
    ratio, asym = row.ratio, row.bound_asymptotic
    return {
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
        "ratio": None if ratio is None else str(ratio),
        "ratio_decimal": None if ratio is None else _decimal6(ratio),
        "bound_2lambda": str(row.bound_2lambda),
        "bound_asymptotic": None if asym is None else str(asym),
        "violations": list(row.violations),
        "runtime_ms": round(row.runtime_ms, 3),
    }


def _csv_cell(value) -> str:
    if value is None:
        return ""
    return f"{value:.3f}" if isinstance(value, float) else str(value)


def emit_report(report: BenchReport, format: str = "csv") -> bytes:
    """Stable-order CSV or JSON bytes; identical reports emit identical
    bytes.  A CSV row is the CSV_COLUMNS of the row's JSON object."""
    if format == "csv":
        buf = stringio.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in report.rows:
            doc = _row_doc(row)
            writer.writerow([_csv_cell(doc[key]) for key in CSV_COLUMNS])
        return buf.getvalue().encode("utf-8")
    if format == "json":
        rows = [_row_doc(row) for row in report.rows]
        doc = {"rows": rows, "errors": list(report.errors)}
        return (json.dumps(doc, indent=2) + "\n").encode("utf-8")
    raise ParseError(f"unknown report format {format!r}")


def parse_report(data: bytes | str) -> BenchReport:
    """Inverse of the JSON emission; the derived keys are not read."""
    doc = load_json(data, "report")
    try:
        rows = tuple(
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
                m_star=None if r["m_star"] is None else int(r["m_star"]),
                violations=tuple(r["violations"]),
                runtime_ms=float(r["runtime_ms"]),
            )
            for r in doc["rows"]
        )
        errors = tuple(doc.get("errors", ()))
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"malformed report: {exc}") from exc
    return BenchReport(rows=rows, errors=errors)


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


def _parse_algorithm(index: int, entry: dict) -> tuple[str, Optional[str]]:
    if not isinstance(entry, dict):
        raise ParseError(f"algorithm {index}: expected an object, got {entry!r}")
    for key in entry:
        if key not in _ALGORITHM_KEYS:
            raise ParseError(f"algorithm {index}: unknown key {key!r}")
    return entry["algo"], entry.get("strategy")


def parse_config(data: bytes | str) -> ExperimentConfig:
    """Parse the experiment configuration document; an unknown key, at the
    top level or in an algorithm entry, is an error."""
    doc = load_json(data, "config")
    if not isinstance(doc, dict):
        raise ParseError("config must be an object")
    for key in doc:
        if key not in _CONFIG_KEYS:
            raise ParseError(f"config: unknown key {key!r}")
    try:
        instances = tuple(
            _parse_instance(i, entry)
            for i, entry in enumerate(doc["instances"], start=1)
        )
        algorithms = tuple(
            _parse_algorithm(i, entry)
            for i, entry in enumerate(doc["algorithms"], start=1)
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
