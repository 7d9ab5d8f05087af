"""Algorithm-versus-oracle experiment harness.

Each row pairs one instance with one partitioner run: instance metrics, the
processor count, the oracle optimum when enabled, the realized ratio, and
any bound violations.  Each instance gets one exact-verdict store, a dict
keyed by bin position bitmask: verification of every partition fills it,
the oracle's search reads and extends it, and it is dropped when the
instance ends, so no bin reaches the exact test twice within an instance
and no verdict outlives it.  Ratios stay exact rationals end to end; the
decimal rendering in the JSON output is display-only.  Reports are
deterministic given the configuration; wall-clock runtimes are recorded
for performance reading but never enter a correctness check (and can be
disabled to make output files reproducible byte for byte).  A row is a
frozen `BenchRow`, built by `object.__new__` and one update of its
`__dict__` from the fields its instance shares and those of its run, so
that the frozen init's one `object.__setattr__` per field is not paid; the
row is the one that init would build.  A row's bound flags are decided on
ints, by cross-multiplication with its instance's exact bounds.  The JSON
report, which the benchmark's ratio-sweep emits, is written straight from
the rows by a fixed template and keeps the bytes of
`json.dumps(doc, indent=2)`, whose indented form runs the pure-Python
encoder; no row document is built.  Each block of a row's text is
rendered once: the instance lines for each run of rows that share them,
the algorithm and strategy lines per pair, and the counts and ratio lines
per (M, m*).  The CSV report is one plain loop over the rows; it takes
its texts from the same helpers, so each value is rendered one way in
both formats.
"""

from __future__ import annotations

import argparse
import csv
import glob as globmod
import io as stringio
import json
import math
import time
from dataclasses import dataclass, fields
from fractions import Fraction
from typing import Iterable, Iterator, Optional

from .errors import BadParam, ParseError, RtpackError
from .feasibility import verify_partition
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
from .io import _PAIRS_DECODER, _Repeated, json_list, load_json, parse_rational, parse_taskset
from .model import DeadlineClass, TaskSet, as_rational, classify
from .model import gamma_metric, lambda_metric
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

_CLASSES = tuple(c.value for c in DeadlineClass)
_STRATEGIES = tuple(s.value for s in Strategy)
# a config's strategy -> its Strategy; None is first fit
_FITS = {None: Strategy.FIRST_FIT, **{s.value: s for s in Strategy}}
ALGORITHMS = ("dm", "dagger")


def _named(*sets: TaskSet) -> list[tuple[str, TaskSet]]:
    return [(ts.name, ts) for ts in sets]


def _seeds(p: dict) -> range:
    if p["count"] < 1:
        raise BadParam(f"count must be at least 1, got {p['count']}")
    return range(p["seed"], p["seed"] + p["count"])


def _random(p: dict) -> list[tuple[str, TaskSet]]:
    n, cls, target, q = p["n"], DeadlineClass(p["class"]), p["target_u"], p["den_bound"]
    params = [GenParams(s, n, cls, target, q) for s in _seeds(p)]
    return _named(*map(gen_random, params))


def _dvp(p: dict) -> list[tuple[str, TaskSet]]:
    n, q = p["n"], p["den_bound"]
    return _named(*(dvp_to_tasks(gen_random_dvp(s, n, q), f"dvp-s{s}") for s in _seeds(p)))


def _files(p: dict) -> list[tuple[str, TaskSet]]:
    paths = sorted(globmod.glob(p["path"]))
    if not paths:
        raise ParseError(f"no files match {p['path']!r}")
    out = []
    for path in paths:
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read {path!r}: {exc.strerror or exc}") from exc
        try:
            ts = parse_taskset(data)
        except RtpackError as exc:
            exc.args = (f"{path}: {exc}",)  # keeps its type
            raise
        out.append((ts.name or path, ts))
    return out


_SEEDED = {"seed": 0, "count": 1, "den_bound": DEFAULT_DENOMINATOR_BOUND}
# family -> (required keys, optional keys with their defaults, maker); the
# maker takes the keys with the defaults filled in and returns (name, task
# set) pairs.  `rtpack generate` and the bench both expand instances here.
FAMILIES = {
    "bf-adversary": (("k",), {}, lambda p: _named(gen_best_fit_adversary(p["k"]))),
    "wf-adversary": (("k",), {}, lambda p: _named(gen_worst_fit_adversary(p["k"]))),
    "speedup-gap": (("n", "eps"), {}, lambda p: _named(gen_speedup_gap(p["n"], p["eps"]))),
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


@dataclass(frozen=True)
class ExperimentConfig:
    """An experiment.  Its values are checked here, as a config document's
    are, whether or not `parse_config` built it, and stored converted."""
    instances: tuple[InstanceSpec, ...]
    algorithms: tuple[tuple[str, Optional[str]], ...]
    oracle: bool = True
    n_cap: int = DEFAULT_ORACLE_CAP
    timing: bool = False
    # ignored (runs are serial); kept while the benchmark still sends it
    threads: int = 1

    def __post_init__(self):
        for field in ("instances", "algorithms"):
            value = getattr(self, field)
            if not isinstance(value, (list, tuple)):
                raise ParseError(f"config: {field!r} must be a list, got {value!r}")
        instances = []
        for i, sp in enumerate(self.instances, start=1):
            if not isinstance(sp, InstanceSpec):
                raise ParseError(
                    f"instance {i}: expected an instance spec (bench.spec), got {sp!r}"
                )
            params = _check_instance(sp.family, dict(sp.params), f"instance {i} ({sp.family})")
            instances.append(InstanceSpec(sp.family, tuple(params.items())))
        object.__setattr__(self, "instances", tuple(instances))
        algorithms = []
        for i, entry in enumerate(self.algorithms, start=1):
            if not isinstance(entry, (tuple, list)) or len(entry) != 2:
                raise ParseError(
                    f"algorithm {i}: expected an (algo, strategy) pair, got {entry!r}"
                )
            algorithms.append(tuple(entry))
        object.__setattr__(self, "algorithms", tuple(algorithms))
        _parse_bool(self.oracle, "oracle")
        _parse_bool(self.timing, "timing")
        _parse_int(self.threads, "threads")
        if not self.algorithms:
            raise ParseError("at least one algorithm must be selected")
        if _parse_int(self.n_cap, "n_cap") < 1:
            raise ParseError(f"n_cap: oracle cap must be at least 1, got {self.n_cap}")
        for i, (algo, strategy) in enumerate(self.algorithms, start=1):
            if algo not in ALGORITHMS:
                raise ParseError(f"algorithm {i}: unknown algorithm {algo!r}")
            if strategy is not None and strategy not in _STRATEGIES:
                raise ParseError(
                    f"algorithm {i} ({algo}): unknown strategy {strategy!r}"
                )


def spec(family: str, **params) -> InstanceSpec:
    """An instance entry as in a config document; a rational may also be a Fraction."""
    return InstanceSpec(family, tuple(sorted(params.items())))


def _check_instance(family: str, params: dict, where: str) -> dict:
    """`params` of a `family` instance, each converted by its key's kind in
    INSTANCE_KEYS; a refusal raises ParseError naming `where`."""
    if not isinstance(family, str):
        raise ParseError(f"{where}: family must be a string, got {family!r}")
    if family not in FAMILIES:
        raise ParseError(f"{where}: unknown family {family!r}")
    required, optional, _ = FAMILIES[family]
    for key in required:
        if key not in params:
            raise ParseError(f"{where}: missing {key!r}")
    out = {}
    for key, value in params.items():
        if key not in required and key not in optional:
            raise ParseError(f"{where}: unknown key {key!r}")
        out[key] = INSTANCE_KEYS[key][0](value, f"{where}, {key!r}")
    return out


def instance_params(family: str, params: dict) -> dict:
    """`params` of a `family` instance, checked as a config's, with the
    family's defaults for the keys left out."""
    checked = _check_instance(family, params, family)
    return {**FAMILIES[family][1], **checked}


def make_instances(family: str, params: dict) -> list[tuple[str, TaskSet]]:
    """The (name, task set) pairs of one instance spec, deterministically;
    keys left out take the family's defaults."""
    return FAMILIES[family][2](instance_params(family, params))


def resolve_instances(cfg: ExperimentConfig) -> list[tuple[str, str, TaskSet]]:
    """Expand instance specs into (name, family, task set), deterministically;
    an error names the spec by its 1-based index."""
    out = []
    for i, sp in enumerate(cfg.instances, start=1):
        _, optional, make = FAMILIES[sp.family]
        try:
            pairs = make({**optional, **dict(sp.params)})
        except RtpackError as exc:
            exc.args = (f"instance {i} ({sp.family}): {exc}",)  # keeps its type
            raise
        out.extend((name, sp.family, ts) for name, ts in pairs)
    return out


def run_algorithm(ts: TaskSet, algo: str, strategy: Optional[str]) -> Partition:
    """Partition `ts` with one of ALGORITHMS; a strategy of None is first
    fit."""
    try:
        fit = _FITS[strategy]
    except (KeyError, TypeError):
        fit = Strategy(strategy or "ff")  # the enum's own error for a bad value
    if algo == "dm":
        return dm_partition(ts, fit)
    if algo == "dagger":
        return dagger_greedy(ts, fit)
    raise ParseError(f"unknown algorithm {algo!r}")


def _bounds(
    lam: Fraction, gamma: Fraction, m_star: Optional[int]
) -> tuple[Optional[tuple[int, int]], Optional[tuple[int, int]]]:
    """The paper's bounds on the processor count of one instance's rows,
    each an exact (numerator, positive denominator) pair, not reduced:
    dagger's 2*lambda*m*, and deadline-monotonic fitting's asymptotic
    2/(1-gamma)*m* (None when gamma is 1); both None without an optimum."""
    if m_star is None:
        return None, None
    dagger = 2 * lam.numerator * m_star, lam.denominator
    g, h = gamma.numerator, gamma.denominator
    if g >= h:
        return dagger, None
    # 2/(1 - g/h) * m* = (2*h*m*) / (h - g)
    return dagger, (2 * h * m_star, h - g)


def _row_violations(
    algorithm: str,
    m: int,
    m_star: Optional[int],
    verified: bool,
    dagger_bound: Optional[tuple[int, int]],
    dm_bound: Optional[tuple[int, int]],
) -> tuple[str, ...]:
    """The bound flags of one row, given its instance's `_bounds`: M is
    compared with each bound by cross-multiplication, and a bound becomes
    a Fraction only to word a flag.  The DM bound is asymptotic, so a DM
    row is held to it plus an additive 1."""
    out = []
    if not verified:
        out.append("hard: partition failed exact verification")
    if m_star is not None:
        if algorithm == "dagger" and m * dagger_bound[1] > dagger_bound[0]:
            out.append(f"hard: M={m} exceeds 2*lambda*M*={Fraction(*dagger_bound)}")
        if (
            algorithm == "dm"
            and dm_bound is not None
            and m * dm_bound[1] > dm_bound[0] + dm_bound[1]
        ):
            out.append(f"soft: M={m} exceeds asymptotic bound {Fraction(*dm_bound) + 1}")
        if m < m_star:
            out.append(f"hard: M={m} below the optimum {m_star}")
    return tuple(out)


def _bench_instance(
    name: str, family: str, ts: TaskSet, cfg: ExperimentConfig
) -> tuple[list[BenchRow], list[str]]:
    """The rows and errors of one instance.  The partitioners run and are
    verified first, so that the fewest bins of a verified partition can
    spare the oracle its search of that level, and so that the oracle
    reads the bin verdicts verification left in the instance's store; the
    errors still list the oracle's first, then the algorithms' in config
    order."""
    lam = lambda_metric(ts)
    gamma = gamma_metric(ts)
    cls = classify(ts).value
    util = Fraction(sum(ts.share), ts.whole)

    store: dict[int, bool] = {}  # the instance's exact verdicts, by bin bitmask
    runs = []  # (algorithm, strategy, M, verified, runtime in ms)
    algo_errors: list[str] = []
    for algo, strategy in cfg.algorithms:
        try:
            start = time.perf_counter()
            part = run_algorithm(ts, algo, strategy)
            elapsed_ms = (time.perf_counter() - start) * 1000 if cfg.timing else 0.0
            verified = verify_partition(ts, part, store)
            runs.append((algo, strategy, part.m, verified, elapsed_ms))
        except RtpackError as exc:
            algo_errors.append(f"{name}/{algo}-{strategy}: {exc}")

    errors: list[str] = []
    m_star: Optional[int] = None
    if cfg.oracle:
        upper = min((m for _, _, m, verified, _ in runs if verified), default=None)
        try:
            # positional: perfbench's traced wrapper takes no keywords
            m_star = optimal_partition_bruteforce(ts, cfg.n_cap, upper, store).m_star
        except RtpackError as exc:
            errors.append(f"{name}/oracle: {exc}")
    bounds = _bounds(lam, gamma, m_star)

    shared = {  # the fields of every row of the instance
        "instance": name,
        "family": family,
        "n": len(ts),
        "deadline_class": cls,
        "lam": lam,
        "gamma": gamma,
        "utilization": util,
        "m_star": m_star,
    }
    rows = []
    for algo, strategy, m, verified, elapsed_ms in runs:
        row = object.__new__(BenchRow)
        row.__dict__.update(
            shared,
            algorithm=algo,
            strategy=strategy,
            m=m,
            violations=_row_violations(algo, m, m_star, verified, *bounds),
            runtime_ms=elapsed_ms,
        )
        rows.append(row)
    return rows, errors + algo_errors


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


def _decimal6(value: Fraction) -> str:
    """`value` rounded half-to-even to 6 decimal places, as [-]i.dddddd."""
    den = value.denominator
    units, rest = divmod(abs(value.numerator) * 10**6, den)
    if 2 * rest > den or (2 * rest == den and units % 2):
        units += 1
    whole, frac = divmod(units, 10**6)
    return f"{'-' if value < 0 else ''}{whole}.{frac:06d}"


def _fraction_text(num: int, den: int) -> str:
    """`str` of Fraction(num, den), for a positive `den`."""
    g = math.gcd(num, den)
    return f"{num // g}" if g == den else f"{num // g}/{den // g}"


def _instance_texts(row: BenchRow) -> tuple[str, str, str, str, Optional[str]]:
    """lambda, gamma, U, bound_2lambda and bound_asymptotic of a row, as
    both report formats write them; None for no asymptotic bound."""
    bound, asym = _bounds(row.lam, row.gamma, 1)
    return (
        str(row.lam), str(row.gamma), str(row.utilization), _fraction_text(*bound),
        None if asym is None else _fraction_text(*asym),
    )  # fmt: skip


def _ratio_texts(m: int, m_star: Optional[int]) -> tuple[Optional[str], Optional[str]]:
    """ratio and ratio_decimal of a row with counts M and m*, as both
    report formats write them; None for no ratio."""
    if not m_star:
        return None, None
    ratio = Fraction(m, m_star)
    return str(ratio), _decimal6(ratio)


def _quoted(text: Optional[str]) -> str:
    """A string that needs no escaping, or None, as JSON."""
    return "null" if text is None else f'"{text}"'


def _row_json(rows: Iterable[BenchRow]) -> Iterator[str]:
    """Each row as `json.dumps(..., indent=2)` lays out its object in the
    report's "rows" list.  Each block of a row's text is rendered once: the
    instance lines (instance through U, and both bounds) for each run of
    rows that share every instance field (the bounds are derived from
    them), the algorithm and strategy lines per pair, and the counts and
    ratio lines per (M, m*).  The instance, the family and every violation
    go through `json.dumps`; rationals and the class need no escaping.  The
    runtime is rendered again only when it is another float object than
    the row before's (untimed rows share one 0.0); equality would let -0.0
    reuse the text of 0.0."""
    pairs: dict = {}
    counted: dict = {}
    key = runtime = ms = None
    for row in rows:
        k = (row.instance, row.family, row.n, row.deadline_class,
             row.lam, row.gamma, row.utilization)  # fmt: skip
        if k != key:
            key = k
            lam, gamma, util, bound, asym = _instance_texts(row)
            head = (
                f'{{\n      "instance": {json.dumps(row.instance)},\n'
                f'      "family": {json.dumps(row.family)},\n'
                f'      "N": {row.n},\n'
                f'      "class": "{row.deadline_class}",\n'
                f'      "lambda": "{lam}",\n'
                f'      "gamma": "{gamma}",\n'
                f'      "U": "{util}",\n'
            )
            bounds = f'      "bound_2lambda": "{bound}",\n      "bound_asymptotic": {_quoted(asym)},\n'
        pair = pairs.get((row.algorithm, row.strategy))
        if pair is None:
            pair = pairs[row.algorithm, row.strategy] = (
                f'      "algorithm": "{row.algorithm}",\n      "strategy": {_quoted(row.strategy)},\n'
            )
        counts = counted.get((row.m, row.m_star))
        if counts is None:
            ratio, decimal = _ratio_texts(row.m, row.m_star)
            m_star = "null" if row.m_star is None else row.m_star
            counts = counted[row.m, row.m_star] = (
                f'      "M": {row.m},\n      "m_star": {m_star},\n'
                f'      "ratio": {_quoted(ratio)},\n      "ratio_decimal": {_quoted(decimal)},\n'
            )
        violations = (
            json_list(list(map(json.dumps, row.violations)), 3) if row.violations else "[]"
        )
        if row.runtime_ms is not ms:
            ms = row.runtime_ms
            runtime = float.__repr__(round(ms, 3))
        yield (
            f'{head}{pair}{counts}{bounds}      "violations": {violations},\n'
            f'      "runtime_ms": {runtime}\n    }}'
        )


def emit_report(report: BenchReport, format: str = "csv") -> bytes:
    """Stable-order CSV or JSON bytes; identical reports emit identical
    bytes.  A CSV row holds the CSV_COLUMNS values of the row's JSON
    object, a missing value as an empty cell and runtime_ms with three
    decimals."""
    if format == "csv":
        buf = stringio.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in report.rows:
            lam, gamma, util, bound, _ = _instance_texts(row)
            ratio, _ = _ratio_texts(row.m, row.m_star)
            writer.writerow((
                row.instance, row.family, row.n, row.deadline_class, lam, gamma, util,
                row.algorithm, row.strategy, row.m, row.m_star, ratio, bound,
                f"{round(row.runtime_ms, 3):.3f}",
            ))  # fmt: skip
        return buf.getvalue().encode("utf-8")
    if format == "json":
        rows = json_list(list(_row_json(report.rows)))
        errors = json_list([json.dumps(err) for err in report.errors])
        return f'{{\n  "rows": {rows},\n  "errors": {errors}\n}}\n'.encode()
    raise ParseError(f"unknown report format {format!r}")


def _parse_int(value, where: str) -> int:
    """An integer; booleans, floats and strings are refused, not cast."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where}: expected an integer, got {value!r}")
    return value


def _parse_bool(value, where: str) -> bool:
    """A boolean; strings, numbers and null are refused."""
    if not isinstance(value, bool):
        raise ParseError(f"{where}: expected true or false, got {value!r}")
    return value


def _parse_class(value, where: str) -> str:
    if value not in _CLASSES:
        raise ParseError(f"{where}: unknown class {value!r}")
    return value


def _parse_path(value, where: str) -> str:
    if not isinstance(value, str):
        raise ParseError(f"{where}: expected a path string, got {value!r}")
    return value


def rational_arg(value: str) -> Fraction:
    """`as_rational` as an argparse type: a refused value's error names the
    flag and the reason, as "argument --speed: zero denominator in '1/0'"."""
    try:
        return as_rational(value)
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


# instance key -> kind: the check of every value (config, `spec` or flag) and
# the argparse keywords of its `generate` flag, None for `count` and `path`
_INT, _RATIONAL = (_parse_int, {"type": int}), (parse_rational, {"type": rational_arg})
INSTANCE_KEYS = {
    "k": _INT, "n": _INT, "eps": _RATIONAL, "seed": _INT,
    "count": (_parse_int, None), "target_u": _RATIONAL,
    "class": (_parse_class, {"choices": _CLASSES}), "den_bound": _INT,
    "path": (_parse_path, None),
}  # fmt: skip


def _entries(doc: dict, key: str, required: str) -> list[dict]:
    """The list `doc[key]` of objects holding `required`, named as "instance 1"."""
    if key not in doc:
        raise ParseError(f"config: missing {key!r}")
    if not isinstance(doc[key], list):
        raise ParseError(f"config: {key!r} must be a list")
    for i, entry in enumerate(doc[key], start=1):
        if not isinstance(entry, dict):
            raise ParseError(f"{key[:-1]} {i}: expected an object, got {entry!r}")
        if entry.__class__ is _Repeated:
            raise ParseError(f"{key[:-1]} {i}: repeated key {entry.key!r}")
        if required not in entry:
            raise ParseError(f"{key[:-1]} {i}: missing {required!r}")
    return doc[key]


def parse_config(data: bytes | str) -> ExperimentConfig:
    """Read the experiment configuration document and check its shape and
    keys, a key written twice in the document or in an entry refused; the
    ExperimentConfig checks the values and holds the defaults."""
    doc = load_json(data, "config", _PAIRS_DECODER)
    if not isinstance(doc, dict):
        raise ParseError("config must be an object")
    if doc.__class__ is _Repeated:
        raise ParseError(f"config: repeated key {doc.key!r}")
    names = {f.name for f in fields(ExperimentConfig)}
    for key in doc:
        if key not in names:
            raise ParseError(f"config: unknown key {key!r}")
    instances = [spec(**e) for e in _entries(doc, "instances", "family")]
    algorithms = []
    for i, entry in enumerate(_entries(doc, "algorithms", "algo"), start=1):
        for key in entry:
            if key not in ("algo", "strategy"):
                raise ParseError(f"algorithm {i}: unknown key {key!r}")
        algorithms.append((entry["algo"], entry.get("strategy")))
    return ExperimentConfig(**{**doc, "instances": instances, "algorithms": algorithms})
