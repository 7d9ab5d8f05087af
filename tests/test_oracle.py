import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from rtpack import feasibility, oracle
from rtpack.errors import BadParam, CapExceeded, ValidationError
from rtpack.feasibility import edf_feasible_exact, verify_partition
from rtpack.generators import (
    GenParams,
    dvp_to_tasks,
    gen_best_fit_adversary,
    gen_random,
    gen_random_dvp,
    gen_speedup_gap,
    gen_worst_fit_adversary,
)
from rtpack.model import DeadlineClass, Task, TaskSet, dbf, taskset
from rtpack.oracle import (
    DEFAULT_ORACLE_CAP,
    OracleResult,
    _Search,
    _by_density,
    _ceil_u,
    _conflict_clique,
    _load_bound,
    optimal_partition_bruteforce,
)
from rtpack.partitioners import Partition, Strategy, dagger_greedy, dm_partition

from conftest import (
    of_tasks,
    positions_feasible_exact,
    rationals,
    subset_feasible,
    tasksets_of_each_class,
    valid_tasks,
    valid_tasksets,
)

F = Fraction


def naive_minimum(ts: TaskSet) -> int:
    """Independent reference: try every assignment map into m bins for
    growing m."""
    tasks = list(ts)
    for m in range(1, len(tasks) + 1):
        for assignment in itertools.product(range(m), repeat=len(tasks)):
            bins = [[] for _ in range(m)]
            for tsk, b in zip(tasks, assignment):
                bins[b].append(tsk)
            if all(subset_feasible(b) for b in bins):
                return m
    raise AssertionError("unreachable for valid sets")


class TestOracle:
    def test_adversary_needs_two(self):
        result = optimal_partition_bruteforce(gen_best_fit_adversary(4), n_cap=8)
        assert result.m_star == 2
        assert result.nodes_explored > 0

    def test_saturated_tasks_need_own_processors(self):
        result = optimal_partition_bruteforce(taskset([(1, 1, 1), (1, 1, 1)]))
        assert result.m_star == 2
        assert result.witness.bins == ((1,), (2,))

    def test_cap(self):
        ts = taskset([(1, 100, 100)] * (DEFAULT_ORACLE_CAP + 1))
        with pytest.raises(CapExceeded):
            optimal_partition_bruteforce(ts)

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one(self, cap):
        # refused as a parameter, before the set's size is compared with it
        with pytest.raises(BadParam) as err:
            optimal_partition_bruteforce(gen_best_fit_adversary(4), n_cap=cap)
        assert str(err.value) == f"oracle cap must be at least 1, got {cap}"

    def test_rejects_invalid(self):
        with pytest.raises(ValidationError):
            optimal_partition_bruteforce(taskset([(5, 2, 4)]))

    def test_witness_built_on_first_read_and_kept(self, monkeypatch):
        result = optimal_partition_bruteforce(gen_best_fit_adversary(4), n_cap=8)
        assert "witness" not in vars(result)
        calls = []
        real = oracle._witness
        monkeypatch.setattr(oracle, "_witness", lambda ts, m: calls.append(m) or real(ts, m))
        assert result.witness is result.witness and calls == [2]
        assert vars(result)["witness"] is result.witness
        assert OracleResult.witness is vars(OracleResult)["witness"]

    def test_witness_verifies(self):
        ts = gen_best_fit_adversary(4)
        result = optimal_partition_bruteforce(ts, n_cap=8)
        assert verify_partition(ts, result.witness)

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_naive_enumeration_exact(self, seed):
        ts = gen_random(
            GenParams(
                seed=seed,
                n=5,
                deadline_class=DeadlineClass.CONSTRAINED,
                utilization_target=F(3, 2),
                denominator_bound=4,
            )
        )
        result = optimal_partition_bruteforce(ts)
        assert result.m_star == naive_minimum(ts)
        assert verify_partition(ts, result.witness)

    @given(valid_tasksets(max_n=5))
    def test_lower_bounds_and_heuristics(self, ts):
        result = optimal_partition_bruteforce(ts)
        assert result.m_star >= math.ceil(ts.total_utilization)
        assert result.m_star <= len(ts)
        for strat in Strategy:
            assert dm_partition(ts, strat).m >= result.m_star
            assert dagger_greedy(ts, strat).m >= result.m_star


def _random_set(n, target_u, seed, cls):
    return gen_random(
        GenParams(seed=seed, n=n, deadline_class=DeadlineClass(cls), utilization_target=F(target_u))
    )


# (instance, m*, nodes, witness bins).  m* and the witnesses were recorded
# by the input-order search that started at ceil(U); the node counts are
# those of the search from the certified lower bound in conflict-first order
PINNED = [
    (lambda: _random_set(9, 3, 0, "implicit"), 4, 46,
     ((1, 2, 3), (4, 5, 6), (7, 8), (9,))),
    (lambda: _random_set(9, 2, 1, "constrained"), 3, 17,
     ((1, 2, 8, 9), (3, 4, 6), (5, 7))),
    (lambda: _random_set(10, 2, 0, "constrained"), 4, 38,
     ((1, 3, 4, 5, 6, 9), (2,), (7, 10), (8,))),
    (lambda: _random_set(10, 3, 1, "arbitrary"), 4, 20,
     ((1, 2, 3, 5, 9), (4, 6, 7), (8,), (10,))),
    (lambda: _random_set(11, 3, 2, "constrained"), 5, 58,
     ((1, 5, 6, 9), (2, 10), (3,), (4, 8, 11), (7,))),
    (lambda: _random_set(11, 4, 1, "implicit"), 5, 193,
     ((1, 2, 3, 4, 9), (5, 6), (7, 8), (10,), (11,))),
    (lambda: _random_set(12, 2, 2, "arbitrary"), 4, 24,
     ((1, 2, 3, 4, 5, 8, 9), (6, 10, 12), (7,), (11,))),
    (lambda: _random_set(12, 3, 1, "constrained"), 4, 29,
     ((1, 2, 4, 5, 6, 9), (3, 7, 11), (8, 10), (12,))),
    (lambda: gen_best_fit_adversary(4), 2, 12, ((1, 3, 5, 7), (2, 4, 6, 8))),
    (lambda: gen_best_fit_adversary(5), 2, 15, ((1, 3, 5, 7, 9), (2, 4, 6, 8, 10))),
    (lambda: gen_best_fit_adversary(6), 2, 18,
     ((1, 3, 5, 7, 9, 11), (2, 4, 6, 8, 10, 12))),
] + [
    (lambda n=n: gen_speedup_gap(n, F(1, 2)), n, nodes, tuple((i,) for i in range(1, n + 1)))
    for n, nodes in [(6, 21), (7, 28), (8, 36), (9, 45), (10, 55)]
]  # fmt: skip


class TestPinnedSearch:
    """The same m* and witnesses as the input-order search from ceil(U),
    and the node counts of the search that decides m*."""

    @pytest.mark.parametrize("case", range(len(PINNED)))
    def test_matches_recorded_results(self, case):
        make, m_star, nodes, bins = PINNED[case]
        result = optimal_partition_bruteforce(make())
        assert (result.m_star, result.nodes_explored, result.witness.bins) == (m_star, nodes, bins)


def input_order_oracle(ts: TaskSet) -> tuple[int, tuple]:
    """Reference: the oracle's search before lower bounds and reordering.
    Every level from ceil(U) up, tasks assigned in input order, bins tried
    in restricted-growth order; the first complete assignment gives m* and
    the witness bins (task ids).  Bins go through the witness-producing
    test, which has no shortcut for low density."""
    test = lambda b: edf_feasible_exact(of_tasks(b)).feasible
    tasks = list(ts)

    def dfs(i, bins, max_bins):
        if i == len(tasks):
            return True
        for b in range(min(len(bins) + 1, max_bins)):
            if b == len(bins):
                bins.append([])
            bins[b].append(tasks[i])
            if test(bins[b]) and dfs(i + 1, bins, max_bins):
                return True
            bins[b].pop()
            if not bins[b]:
                bins.pop()
        return False

    for m in range(max(1, math.ceil(ts.total_utilization)), len(tasks) + 1):
        bins = []
        if dfs(0, bins, m):
            return m, tuple(tuple(sorted(tsk.id for tsk in b)) for b in bins)
    raise AssertionError("unreachable for valid sets")


def _family_sets():
    yield from (gen_best_fit_adversary(k) for k in (4, 5))
    yield from (gen_worst_fit_adversary(k) for k in (4, 5))
    yield from (gen_speedup_gap(n, F(1, 2)) for n in (3, 6, 9))
    yield from (dvp_to_tasks(gen_random_dvp(seed, 8)) for seed in range(6))
    for seed in range(30):
        cls = list(DeadlineClass)[seed % 3]
        n = 4 + seed % 7
        yield _random_set(n, F(n, 2 + seed % 3), seed, cls.value)


FAMILY_SETS = list(_family_sets())


class TestAgainstInputOrderSearch:
    """The search from the certified lower bound in conflict-first order
    reports the m* and the witness of the input-order search from ceil(U)."""

    # The ids keep the names these cases had when an approximate-mode half
    # ran beside them.
    @pytest.mark.parametrize(
        "case", range(len(FAMILY_SETS)), ids=lambda case: f"{case}-Mode.EXACT"
    )
    def test_same_optimum_and_witness(self, case):
        ts = FAMILY_SETS[case]
        result = optimal_partition_bruteforce(ts)
        assert (result.m_star, result.witness.bins) == input_order_oracle(ts)

    @given(valid_tasksets(max_n=6))
    def test_same_on_random_sets(self, ts):
        result = optimal_partition_bruteforce(ts)
        assert (result.m_star, result.witness.bins) == input_order_oracle(ts)


class MemoEverySearch:
    """The oracle's search before its bins kept their sums, as a
    reference: a bin is the list of its positions with their bitmask, and
    every verdict, one a density or share sum settles included, is looked
    up in the memo and on a miss computed by `positions_feasible_exact`."""

    def __init__(self, ts):
        self.ts = ts
        self.memo = {}
        self.nodes = 0

    def feasible_bin(self, positions, mask):
        hit = self.memo.get(mask)
        if hit is None:
            hit = self.memo[mask] = positions_feasible_exact(self.ts, positions)
        return hit

    def partition(self, order, max_bins):
        bins = []
        return bins if self.dfs(order, 0, bins, [], max_bins) else None

    def dfs(self, order, i, bins, masks, max_bins):
        if i == len(order):
            return True
        pos = order[i]
        for b in range(len(bins) + 1 if len(bins) < max_bins else len(bins)):
            if b == len(bins):
                bins.append([])
                masks.append(0)
            bins[b].append(pos)
            masks[b] |= 1 << pos
            self.nodes += 1
            if self.feasible_bin(bins[b], masks[b]) and self.dfs(
                order, i + 1, bins, masks, max_bins
            ):
                return True
            bins[b].pop()
            masks[b] ^= 1 << pos
            if not bins[b]:
                bins.pop()
                masks.pop()
        return False


def memo_every_oracle(ts: TaskSet) -> tuple[list[int], int, int, tuple]:
    """Reference: the clique, m*, the nodes explored and the witness bins
    of the oracle's search run on `MemoEverySearch`."""
    search = MemoEverySearch(ts)
    by_density = _by_density(ts)
    clique = []
    for pos in by_density:
        if not any(search.feasible_bin([q, pos], 1 << q | 1 << pos) for q in clique):
            clique.append(pos)
    order = clique + [p for p in by_density if p not in clique]
    m = max(_load_bound(ts), len(clique))
    while search.partition(order, m) is None:
        m += 1
    nodes = search.nodes
    bins = search.partition(range(len(ts)), m)
    tasks = tuple(ts)
    witness = tuple(tuple(sorted(tasks[i].id for i in b)) for b in bins)
    return clique, m, nodes, witness


class TestAgainstMemoEverySearch:
    """Deciding bins on their running sums, with only swept verdicts in
    the memo, explores the same nodes and finds the same clique, m* and
    witness as a search that memoizes every verdict."""

    @staticmethod
    def same(ts):
        result = optimal_partition_bruteforce(ts)
        got = _bounds(ts)[1], result.m_star, result.nodes_explored, result.witness.bins
        assert got == memo_every_oracle(ts)

    @pytest.mark.parametrize("case", range(len(FAMILY_SETS)))
    def test_same_search_on_families(self, case):
        self.same(FAMILY_SETS[case])

    @given(st.one_of(valid_tasksets(max_n=7), tasksets_of_each_class(max_n=7)))
    def test_same_search_on_random_sets(self, ts):
        self.same(ts)

    @given(st.one_of(valid_tasksets(max_n=7), tasksets_of_each_class(max_n=7)))
    def test_memo_holds_only_swept_verdicts(self, ts):
        search = _Search(ts)
        search_every_level(search)
        assert_past_gates(ts, search.memo)


def search_every_level(search: _Search) -> None:
    """Fill the memo of `search` as the conflict clique and a search of
    every level do."""
    ts = search.ts
    n = len(ts.c)
    order = _conflict_clique(search, _by_density(ts))
    order += [p for p in range(n) if p not in order]
    for m in range(1, n + 1):
        search.dfs(order, 0, [], m)


def assert_past_gates(ts, memo: dict) -> None:
    """Every bin in `memo` is past both O(1) gates: its density sum
    exceeds `span_whole` and its share sum is at most `whole`."""
    for mask in memo:
        positions = [p for p in range(len(ts.c)) if mask >> p & 1]
        assert sum(ts.span_share[p] for p in positions) > ts.span_whole
        assert sum(ts.share[p] for p in positions) <= ts.whole


class TestPairSweeps:
    """Two-task bins with U < 1 are settled before the demand sweep, so
    the conflict clique and the search sweep almost no pairs.  Each case
    bounds the two-task sweeps of one whole search; sweeping every pair
    past the density accept and the share refusal took 10, 36, 78, 2, 6
    and 15 of them, in the order below."""

    @pytest.mark.parametrize(
        "make, at_most",
        [(lambda: gen_speedup_gap(6, F(1, 2)), 0),
         (lambda: gen_speedup_gap(10, F(1, 2)), 0),
         (lambda: gen_speedup_gap(14, F(1, 2)), 0),
         (lambda: gen_best_fit_adversary(4), 0),
         (lambda: gen_best_fit_adversary(8), 0),
         (lambda: gen_worst_fit_adversary(8), 1)],
        ids=["gap-6", "gap-10", "gap-14", "bf-4", "bf-8", "wf-8"],
    )  # fmt: skip
    def test_two_task_sweeps(self, monkeypatch, make, at_most):
        ts = make()
        pairs = []
        real = feasibility._sweep_first_failure

        def spy(ts, positions, speed, point_cap):
            if len(positions) == 2:
                pairs.append(list(positions))
            return real(ts, positions, speed, point_cap)

        monkeypatch.setattr(feasibility, "_sweep_first_failure", spy)
        optimal_partition_bruteforce(ts)
        assert len(pairs) <= at_most


def _demand_load(ts: TaskSet) -> int:
    """Reference for the load bound, on Fractions: ceil(U), or the largest
    ceil(sum dbf(t) / t) over t = D_i + k*T_i, k < 3."""
    points = {tsk.d + k * tsk.t for tsk in ts for k in range(3)}
    load = max(math.ceil(sum((dbf(tsk, t) for tsk in ts), F(0)) / t) for t in points)
    return max(load, math.ceil(ts.total_utilization))


def _bounds(ts: TaskSet):
    search = _Search(ts)
    return _load_bound(ts), _conflict_clique(search, _by_density(ts))


class TestLowerBounds:
    @settings(max_examples=100)
    @given(valid_tasksets(max_n=7))
    def test_bounds_are_sound(self, ts):
        load, clique = _bounds(ts)
        result = optimal_partition_bruteforce(ts)
        assert load <= result.m_star and len(clique) <= result.m_star
        tasks = tuple(ts)
        for a, b in itertools.combinations(clique, 2):
            assert not subset_feasible([tasks[a], tasks[b]])
        bin_of = {tid: k for k, b in enumerate(result.witness.bins) for tid in b}
        assert len({bin_of[tasks[p].id] for p in clique}) == len(clique)

    @pytest.mark.parametrize("case", range(len(FAMILY_SETS)))
    def test_bounds_are_sound_on_families(self, case):
        ts = FAMILY_SETS[case]
        load, clique = _bounds(ts)
        m_star = optimal_partition_bruteforce(ts).m_star
        assert load <= m_star and len(clique) <= m_star

    @given(st.one_of(valid_tasksets(max_n=7), tasksets_of_each_class(max_n=7)))
    def test_load_bound_is_the_demand_load(self, ts):
        assert _load_bound(ts) == _demand_load(ts)

    # sets whose load bound is strictly above both ceil(U) and the clique
    @pytest.mark.parametrize(
        "rows, load, ceil_u, clique",
        [
            ([(1, 3, 6), (2, 3, 8), (2, 4, 6)], 2, 1, 1),
            ([(1, 7, 6), (1, 2, 7), (2, 3, 8), (1, 3, 5)], 2, 1, 1),
            ([(1, 2, 4), (1, 2, 4), (1, 1, 5), (1, 2, 8), (1, 2, 2)], 3, 2, 1),
        ],
    )
    def test_load_bound_above_the_other_bounds(self, rows, load, ceil_u, clique):
        ts = taskset(rows)
        assert math.ceil(ts.total_utilization) == ceil_u
        assert len(_bounds(ts)[1]) == clique
        assert _load_bound(ts) == _demand_load(ts) == load
        # dbf* (which bounds dbf) rules out some points whatever bound has
        # been reached there, and the exact demand of others raises it
        points = {tsk.d + k * tsk.t for tsk in ts for k in range(3)}
        dbf_star = {
            t: sum(tsk.c + tsk.utilization * (t - tsk.d) for tsk in ts if tsk.d <= t)
            for t in points
        }
        assert any(dbf_star[t] <= ceil_u * t for t in points)
        assert any(sum(dbf(tsk, t) for tsk in ts) > ceil_u * t for t in points)

    @given(st.one_of(valid_tasksets(max_n=7), tasksets_of_each_class(max_n=7)))
    def test_density_order_matches_fraction_order(self, ts):
        density = [tsk.c / min(tsk.d, tsk.t) for tsk in ts]
        want = sorted(range(len(ts)), key=lambda p: (-density[p], p))
        assert _by_density(ts) == want

    def test_clique_decides_the_speedup_gap(self):
        ts = gen_speedup_gap(8, F(1, 2))
        load, clique = _bounds(ts)
        assert load < 8 and len(clique) == 8
        assert optimal_partition_bruteforce(ts).nodes_explored == 8 * 9 // 2

    def test_witness_is_built_once_on_first_read(self):
        result = optimal_partition_bruteforce(gen_best_fit_adversary(4), n_cap=8)
        assert "witness" not in vars(result)
        assert result.witness is result.witness
        assert result.nodes_explored == 12


def _six_partitions(ts: TaskSet) -> list[Partition]:
    """The partitions of both partitioners, dm then dagger, each under
    every strategy."""
    return [make(ts, strat) for make in (dm_partition, dagger_greedy) for strat in Strategy]


def _best_heuristic(ts: TaskSet) -> int:
    """The fewest bins of a verified partition by either partitioner
    under any strategy, as the bench passes it to the oracle."""
    return min(p.m for p in _six_partitions(ts) if verify_partition(ts, p))


class TestUpperBound:
    """A known upper bound on m* changes neither m* nor the witness, never
    raises the node count, and is ignored where it is no partition's bin
    count."""

    @staticmethod
    def check(ts):
        plain = optimal_partition_bruteforce(ts)
        m_star, nodes = plain.m_star, plain.nodes_explored
        for upper in (_best_heuristic(ts), m_star):
            hinted = optimal_partition_bruteforce(ts, DEFAULT_ORACLE_CAP, upper)
            assert hinted.m_star == m_star and hinted.nodes_explored <= nodes
            assert hinted.witness.bins == plain.witness.bins
        # the running maxima of the bounds, cheapest first; an upper below
        # the last is ignored unless an earlier one stops at it
        load, clique = _bounds(ts)
        ceil_u = _ceil_u(ts)
        stops = {ceil_u, max(ceil_u, len(clique))}
        lower = max(ceil_u, len(clique), load)
        below = [u for u in range(-1, lower) if u not in stops]
        for upper in (*below, len(ts) + 1, len(ts) + 5):
            ignored = optimal_partition_bruteforce(ts, DEFAULT_ORACLE_CAP, upper)
            assert (ignored.m_star, ignored.nodes_explored) == (m_star, nodes)

    @pytest.mark.parametrize("case", range(len(FAMILY_SETS)))
    def test_same_optimum_on_families(self, case):
        self.check(FAMILY_SETS[case])

    @given(st.one_of(valid_tasksets(max_n=7), tasksets_of_each_class(max_n=7)))
    def test_same_optimum_on_random_sets(self, ts):
        self.check(ts)

    # one instance settled by each step: (set, upper, dearer bounds
    # computed, nodes with upper, nodes without)
    @pytest.mark.parametrize(
        "make, upper, computed, nodes, plain_nodes",
        [(lambda: gen_worst_fit_adversary(4), 2, [], 0, 11),
         (lambda: gen_speedup_gap(6, F(1, 2)), 6, ["clique"], 0, 21),
         (lambda: taskset([(1, 3, 6), (2, 3, 8), (2, 4, 6)]), 2, ["clique", "load"], 0, 4),
         (lambda: _random_set(8, F(8, 3), 25, "constrained"), 4, ["clique", "load"], 12, 30)],
        ids=["ceil-u", "clique", "load", "exhausted"],
    )  # fmt: skip
    def test_settled_by(self, monkeypatch, make, upper, computed, nodes, plain_nodes):
        ts = make()
        assert optimal_partition_bruteforce(ts).nodes_explored == plain_nodes
        called = []
        for name, step in (("_conflict_clique", "clique"), ("_load_bound", "load")):
            real = getattr(oracle, name)

            def spy(*args, real=real, step=step):
                called.append(step)
                return real(*args)

            monkeypatch.setattr(oracle, name, spy)
        result = optimal_partition_bruteforce(ts, DEFAULT_ORACLE_CAP, upper)
        assert (result.m_star, result.nodes_explored, called) == (upper, nodes, computed)
        assert verify_partition(ts, result.witness) and result.witness.m == upper

    def test_ceil_u_settles_without_the_density_order(self, monkeypatch):
        called = []

        def refuse(ts):
            called.append(ts)
            raise AssertionError("the density order was sorted")

        monkeypatch.setattr(oracle, "_by_density", refuse)
        for ts in FAMILY_SETS:
            upper = _ceil_u(ts)
            result = optimal_partition_bruteforce(ts, DEFAULT_ORACLE_CAP, upper)
            assert (result.m_star, result.nodes_explored) == (upper, 0)
        assert called == []


def _with_merged_bins(ts: TaskSet) -> list[Partition]:
    """The six partitions, then partitions that may hold one infeasible
    bin: each of the six with its first two bins merged, and every task in
    one bin."""
    parts = _six_partitions(ts)
    merged = [
        Partition(bins=(p.bins[0] + p.bins[1], *p.bins[2:]), algorithm="merged")
        for p in parts
        if p.m > 1
    ]
    return parts + merged + [Partition(bins=(tuple(t.id for t in ts),), algorithm="one")]


@st.composite
def sets_with_assignments(draw):
    """A task set and a partition of it drawn as one bin index per task."""
    ts = draw(st.one_of(valid_tasksets(max_n=7), tasksets_of_each_class(max_n=7)))
    index = draw(st.lists(st.integers(0, 2), min_size=len(ts), max_size=len(ts)))
    bins = [tuple(t.id for t, b in zip(ts, index) if b == k) for k in range(3)]
    return ts, Partition(bins=tuple(b for b in bins if b), algorithm="drawn")


class TestVerdictStore:
    """One verdict store per instance, filled by `verify_partition` and
    the oracle's search in turn, changes no verdict, optimum, node count
    or witness, and holds only verdicts of bins past both O(1) gates."""

    @staticmethod
    def same_verdicts(ts, parts):
        for order in (parts, parts[::-1]):
            store = {}
            for part in order:
                assert verify_partition(ts, part, store) == verify_partition(ts, part)
            assert_past_gates(ts, store)

    @pytest.mark.parametrize("case", range(len(FAMILY_SETS)))
    def test_same_verdicts_on_families(self, case):
        ts = FAMILY_SETS[case]
        self.same_verdicts(ts, _with_merged_bins(ts))

    def test_families_hold_refused_partitions(self):
        refused = [
            not verify_partition(ts, part)
            for ts in FAMILY_SETS
            for part in _with_merged_bins(ts)
        ]
        assert 0 < sum(refused) < len(refused)

    @given(sets_with_assignments())
    def test_same_verdicts_on_random_sets(self, case):
        ts, drawn = case
        self.same_verdicts(ts, [*_with_merged_bins(ts), drawn])

    @staticmethod
    def same_search(ts):
        store = {}
        verified = [p.m for p in _six_partitions(ts) if verify_partition(ts, p, store)]
        for upper in (None, min(verified)):
            plain = optimal_partition_bruteforce(ts, DEFAULT_ORACLE_CAP, upper)
            shared = optimal_partition_bruteforce(ts, DEFAULT_ORACLE_CAP, upper, dict(store))
            assert (shared.m_star, shared.nodes_explored, shared.witness.bins) == (
                plain.m_star, plain.nodes_explored, plain.witness.bins)  # fmt: skip

    @pytest.mark.parametrize("case", range(len(FAMILY_SETS)))
    def test_same_search_on_families(self, case):
        self.same_search(FAMILY_SETS[case])

    @given(st.one_of(valid_tasksets(max_n=7), tasksets_of_each_class(max_n=7)))
    def test_same_search_on_random_sets(self, ts):
        self.same_search(ts)

    @given(sets_with_assignments())
    def test_store_filled_by_both_holds_only_swept_verdicts(self, case):
        ts, drawn = case
        store = {}
        for part in [*_with_merged_bins(ts), drawn]:
            verify_partition(ts, part, store)
        search = _Search(ts, store)
        search_every_level(search)
        assert search.memo is store
        assert_past_gates(ts, store)


@st.composite
def sets_with_subsets(draw):
    """A task set and a subset of its positions.  One task outside the
    subset may carry a denominator no subset task has, so the set's scale
    is often a proper multiple of the subset's own."""
    n = draw(st.integers(1, 6))
    tasks = [draw(valid_tasks()) for _ in range(n)]
    if draw(st.booleans()):  # light tasks: bins pass or fail on demand, not on U
        tasks = [Task(tsk.c / n, tsk.d, tsk.t) for tsk in tasks]
    if draw(st.booleans()):
        den = draw(st.sampled_from([5, 7, 11]))
        t = draw(rationals()) / den
        tasks.append(Task(c=t * F(draw(st.integers(1, 6)), 6), d=t, t=t))
    positions = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    return of_tasks(tasks), positions


class TestPositionView:
    @settings(max_examples=200)
    @given(sets_with_subsets())
    def test_exact_matches_bare_list(self, case):
        ts, positions = case
        tasks = tuple(ts)
        subset = [tasks[i] for i in positions]
        assert positions_feasible_exact(ts, positions) == subset_feasible(subset)
