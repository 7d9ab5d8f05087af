"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.
"""

import itertools
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest

from rtpack.cli import dispatch
from rtpack.feasibility import (
    edf_feasible_exact,
    lemma1_feasible,
    verify_partition,
)
from rtpack.generators import (
    GenParams,
    dvp_to_tasks,
    gen_best_fit_adversary,
    gen_lemma1_shaped,
    gen_random,
    gen_random_dvp,
    gen_speedup_gap,
    gen_worst_fit_adversary,
)
from rtpack.model import (
    DeadlineClass,
    gamma_metric,
    lambda_metric,
)
from rtpack.oracle import optimal_partition_bruteforce
from rtpack.partitioners import Partition, Strategy, dagger_greedy, dm_partition
from rtpack.simulate import simulate_edf_synchronous

from conftest import of_tasks, subset_feasible, tightened_utilizations

F = Fraction
GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(num, desc):
    try:
        yield
    except Exception:
        print(f"\n[FAIL] criterion {num}: {desc}")
        raise
    print(f"\n[PASS] criterion {num}: {desc}")


@pytest.fixture(scope="module")
def random_suite():
    """500 seeded instances (N in 3..10, all deadline classes) with oracle
    optimum and all heuristic partitions; shared by criteria 4 and 8."""
    classes = list(DeadlineClass)
    targets = [F(3, 5), F(1), F(3, 2), F(2), F(5, 2)]
    records = []
    for i in range(500):
        n = 3 + (i % 8)
        params = GenParams(
            seed=i,
            n=n,
            deadline_class=classes[i % 3],
            utilization_target=min(targets[i % 5], F(n)),
            denominator_bound=6,
        )
        ts = gen_random(params)
        m_star = optimal_partition_bruteforce(ts, n_cap=10).m_star
        dagger = {s: dagger_greedy(ts, s) for s in Strategy}
        dm = {s: dm_partition(ts, s) for s in Strategy}
        records.append((ts, m_star, dagger, dm))
    return records


def _adversary_reproduction(gen, strat):
    start = time.perf_counter()
    for k in range(4, 9):
        ts = gen(k)
        part = dm_partition(ts, strat)
        expected = tuple(tuple((2 * j - 1, 2 * j)) for j in range(1, k + 1))
        assert part.m == k, f"K={k}: expected {k} processors, got {part.m}"
        assert part.bins == expected, f"K={k}: bins {part.bins} != paired tiers"
        result = optimal_partition_bruteforce(ts, n_cap=2 * k)
        assert result.m_star == 2, f"K={k}: oracle found {result.m_star}"
        assert verify_partition(ts, result.witness)
        # the published two-processor witness: odds together, evens together
        odds = tuple(range(1, 2 * k + 1, 2))
        evens = tuple(range(2, 2 * k + 1, 2))
        odd_even = Partition(bins=(odds, evens), algorithm="manual")
        assert verify_partition(ts, odd_even), f"K={k}: odd/even split"
    elapsed = time.perf_counter() - start
    assert elapsed < 60, f"took {elapsed:.1f}s"
    return elapsed


def test_criterion_1_best_fit_family():
    with criterion(1, "best-fit family: M = K with paired bins, optimum 2"):
        _adversary_reproduction(gen_best_fit_adversary, Strategy.BEST_FIT)


def test_criterion_2_worst_fit_family():
    with criterion(2, "worst-fit family: M = K with paired bins, optimum 2"):
        _adversary_reproduction(gen_worst_fit_adversary, Strategy.WORST_FIT)


def test_criterion_3_speedup_gap_family():
    with criterion(3, "speed-up family: N processors at speed 1, one at 1+eps"):
        for n in range(2, 9):
            for eps in (F(1, 4), F(1, 2)):
                ts = gen_speedup_gap(n, eps)
                for a, b in itertools.combinations(ts, 2):
                    assert not subset_feasible([a, b]), (n, eps, a.id, b.id)
                for strat in Strategy:
                    assert dm_partition(ts, strat).m == n
                    assert dagger_greedy(ts, strat).m == n
                assert optimal_partition_bruteforce(ts, n_cap=n).m_star == n
                assert edf_feasible_exact(ts, speed=1 + eps).feasible, (n, eps)


def test_criterion_4_two_lambda_bound(random_suite):
    with criterion(4, "transformed greedy within 2*lambda of optimum, 500 instances"):
        assert len(random_suite) >= 500
        for ts, m_star, dagger, _ in random_suite:
            lam = lambda_metric(ts)
            dag_u = tightened_utilizations(ts)
            for strat, part in dagger.items():
                assert part.m <= 2 * lam * m_star, (
                    f"{ts.name}/{strat}: M={part.m} > 2*{lam}*{m_star}"
                )
                loads = [
                    sum((dag_u[t] for t in b), F(0))
                    for b in part.bins
                ]
                for i in range(len(loads)):
                    for j in range(i + 1, len(loads)):
                        assert loads[i] + loads[j] > 1, f"{ts.name}/{strat}"


def test_criterion_5_lemma1_equivalence():
    with criterion(5, "closed-form common-deadline test matches exact test, 500 sets"):
        for seed in range(500):
            ts = gen_lemma1_shaped(
                seed, n_strict=seed % 5, n_implicit=1 + seed % 4, denominator_bound=8
            )
            assert lemma1_feasible(ts) == edf_feasible_exact(ts).feasible, ts.name


def test_criterion_6_simulation_equivalence():
    with criterion(6, "demand-criterion verdict matches EDF simulation, 300 sets"):
        classes = list(DeadlineClass)
        count = 0
        for seed in range(300):
            n = 2 + (seed % 5)
            ts = gen_random(
                GenParams(
                    seed=10_000 + seed,
                    n=n,
                    deadline_class=classes[seed % 3],
                    utilization_target=min(F(1 + (seed % 3), 2), F(n)),
                    denominator_bound=2,
                )
            )
            verdict = edf_feasible_exact(ts)
            if verdict.feasible:
                trace = simulate_edf_synchronous(ts, verdict.horizon)
                assert trace.misses == (), ts.name
            else:
                trace = simulate_edf_synchronous(ts, verdict.witness)
                assert trace.misses != (), ts.name
                assert all(d <= verdict.witness for _, d in trace.misses)
            count += 1
        assert count >= 300


def test_criterion_7_dvp_reduction_fidelity():
    with criterion(7, "vector packing <-> task packing, subset by subset, 100 instances"):
        for seed in range(100):
            size = 2 + (seed % 7)
            dvp = gen_random_dvp(seed, size, denominator_bound=8)
            tasks = tuple(dvp_to_tasks(dvp))
            for r in range(1, size + 1):
                for idx in itertools.combinations(range(size), r):
                    fits = (
                        sum(dvp.vectors[i][0] for i in idx) <= 1
                        and sum(dvp.vectors[i][1] for i in idx) <= 1
                    )
                    subset = [tasks[i] for i in idx]
                    assert subset_feasible(subset) == fits, (seed, idx)
                    sub_ts = of_tasks(subset)
                    assert lemma1_feasible(sub_ts) == fits, (seed, idx)


def test_criterion_8_asymptotic_bound_monitoring(random_suite):
    with criterion(8, "deadline-monotonic slack against 2/(1-gamma) recorded"):
        slacks = []
        for ts, m_star, _, dm in random_suite:
            gamma = gamma_metric(ts)
            if gamma >= F(9, 10):
                continue
            for strat, part in dm.items():
                assert part.m >= m_star, f"{ts.name}/{strat}"
                slacks.append(part.m - F(2, 1) / (1 - gamma) * m_star)
        assert slacks, "no instances with gamma < 0.9"
        worst = max(slacks)
        mean = sum(slacks, F(0)) / len(slacks)
        positive = sum(1 for s in slacks if s > 0)
        print(
            f"\n    slack distribution over {len(slacks)} rows: "
            f"max={float(worst):.3f}, mean={float(mean):.3f}, above-bound rows={positive}"
        )
        # the asymptotic constant itself is deliberately not asserted


def test_criterion_9_cli_determinism(tmp_path, capsys):
    with criterion(9, "CLI outputs byte-identical across reruns and vs goldens"):
        gens = [
            ("bf_adversary_k4.json", ["generate", "--family", "bf-adversary", "--k", "4"]),
            ("wf_adversary_k4.json", ["generate", "--family", "wf-adversary", "--k", "4"]),
            ("speedup_gap_n3.json", ["generate", "--family", "speedup-gap", "--n", "3", "--eps", "1/2"]),
        ]
        for golden, args in gens:
            a, b = tmp_path / f"a-{golden}", tmp_path / f"b-{golden}"
            assert dispatch(args + ["-o", str(a)]) == 0
            assert dispatch(args + ["-o", str(b)]) == 0
            assert a.read_bytes() == b.read_bytes() == (GOLDEN / golden).read_bytes()
        cmds = [
            ("partition_bf_k4.json", ["partition", str(GOLDEN / "bf_adversary_k4.json"), "--algo", "dm", "--strategy", "bf"], 0),
            ("partition_oracle_k4.json", ["partition", str(GOLDEN / "bf_adversary_k4.json"), "--algo", "oracle"], 0),
            ("check_speedup_n3.json", ["check", str(GOLDEN / "speedup_gap_n3.json"), "--speed", "3/2"], 0),
            ("simulate_speedup_n3.json", ["simulate", str(GOLDEN / "speedup_gap_n3.json"), "--horizon", "12", "--speed", "3/2"], 0),
        ]
        for golden, args, want_rc in cmds:
            assert dispatch(args) == want_rc
            first = capsys.readouterr().out
            assert dispatch(args) == want_rc
            second = capsys.readouterr().out
            assert first == second == (GOLDEN / golden).read_text()
