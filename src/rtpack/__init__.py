"""Partitioned EDF packing toolkit: exact schedulability analysis,
partitioning heuristics, worst-case instance families, a brute-force
optimum oracle, and an approximation-ratio bench harness."""

from .errors import (
    BadParam,
    CapExceeded,
    CoverageError,
    EventExplosion,
    HorizonOverflow,
    ParseError,
    PointExplosion,
    RtpackError,
    ShapeMismatch,
    ValidationError,
)
from .model import (
    DeadlineClass,
    Task,
    TaskSet,
    Violation,
    as_rational,
    classify,
    dbf,
    dbf_star,
    gamma_metric,
    lambda_metric,
    taskset,
    validate,
)
from .feasibility import (
    FeasibilityVerdict,
    edf_feasible_exact,
    lemma1_feasible,
    verify_partition,
)
from .simulate import SimTrace, simulate_edf_synchronous
from .partitioners import Partition, Strategy, dagger_greedy, dm_partition
from .oracle import OracleResult, optimal_partition_bruteforce
from .generators import (
    DvpInstance,
    GenParams,
    dvp_to_tasks,
    gen_best_fit_adversary,
    gen_lemma1_shaped,
    gen_random,
    gen_random_dvp,
    gen_speedup_gap,
    gen_worst_fit_adversary,
)
from .bench import (
    BenchReport,
    BenchRow,
    ExperimentConfig,
    InstanceSpec,
    emit_report,
    parse_config,
    run_experiment,
)
from .io import (
    parse_taskset,
    serialize_dvp,
    serialize_taskset,
)

__version__ = "0.1.0"
