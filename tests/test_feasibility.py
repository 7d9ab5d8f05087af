import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from rtpack import bench, feasibility
from rtpack.errors import (
    BadParam,
    CoverageError,
    HorizonOverflow,
    PointExplosion,
    ShapeMismatch,
    ValidationError,
)
from rtpack.feasibility import (
    DEFAULT_POINT_CAP,
    _fraction,
    _sweep_first_failure,
    bin_feasible,
    edf_feasible_exact,
    lemma1_feasible,
    verify_partition,
)
from rtpack.generators import gen_best_fit_adversary, gen_lemma1_shaped, gen_speedup_gap
from rtpack.model import Task, dbf, taskset
from rtpack.partitioners import Partition

from conftest import (
    of_tasks,
    positions_feasible_exact,
    subset_feasible,
    tasksets_of_each_class,
    valid_tasks,
    valid_tasksets,
)
from test_sweep_reference import _ref_kernel

F = Fraction


def demand(ts, t):
    return sum(dbf(tsk, t) for tsk in ts)


def deadline_points(ts, horizon, point_cap=DEFAULT_POINT_CAP):
    """Reference: all points k*T_i + D_i in (0, horizon], sorted and
    deduplicated, on Fractions; PointExplosion past `point_cap` points."""
    if horizon < 0:
        raise BadParam("horizon must be nonnegative")
    estimate = sum(int((horizon - tsk.d) // tsk.t) + 1 for tsk in ts if horizon >= tsk.d)
    if estimate > point_cap:
        raise PointExplosion(f"{estimate} deadline points exceed cap {point_cap}")
    points = set()
    for tsk in ts:
        p = tsk.d
        while p <= horizon:
            points.add(p)
            p += tsk.t
    return sorted(points)


class TestHorizon:
    def test_implicit_set_clamps_to_deadline(self):
        assert edf_feasible_exact(taskset([(1, 2, 2)])).horizon == 2

    def test_slack_term(self):
        assert edf_feasible_exact(taskset([(1, 1, 2), (1, 2, 4)])).horizon == 4

    def test_above_the_speed_the_bound_is_the_slack_over_the_excess(self):
        # sum u_i * D_i / (U - speed) = (1/2 * 1 + 1/2 * 2) / (1 - 1/2) = 3
        assert edf_feasible_exact(taskset([(1, 1, 2), (1, 2, 2)]), F(1, 2)).horizon == 3

    def test_full_utilization_uses_hyperperiod(self):
        assert edf_feasible_exact(taskset([(1, 1, 1)])).horizon == 2

    def test_hyperperiod_overflow(self):
        big = 2**70
        with pytest.raises(HorizonOverflow):
            edf_feasible_exact(taskset([(big, big, big)]))

    @pytest.mark.parametrize(
        "speed, subset",
        [(F(1), [(1, 1, 2), (1, 2, 2)]), (F(3, 2), [(1, 1, 2), (2, 2, 2)]),
         (F(1, 2), [("1/2", 1, 2), ("1/2", 2, 2)])],
    )  # fmt: skip
    def test_subset_at_the_speed_uses_its_own_hyperperiod(self, speed, subset):
        # U of the subset equals the speed and its density exceeds it, so
        # it is swept to its own hyperperiod 2 plus D_max, not to the set's
        # hyperperiod 14
        ts = taskset([*subset, (1, 5, 7)])
        own = taskset(subset)
        positions = range(2)
        horizon = edf_feasible_exact(own, speed).horizon
        _, _, bound = _sweep_first_failure(ts, positions, speed, DEFAULT_POINT_CAP)
        assert _fraction(ts, *bound) == horizon == 4

    def test_unit_speed_subset_uses_its_own_hyperperiod(self):
        # with U = 1 and density above 1, a subset is swept to its own
        # hyperperiod: 2 for the first two tasks, although the set's passes
        # the default cap of 2^64
        big = 2**64 + 1
        ts = taskset([(1, 1, 2), (1, 2, 2), (1, big, big)])
        assert positions_feasible_exact(ts, range(2))
        # periods 2^40 and 2^40 + 1: the subset's own hyperperiod passes
        # the cap, as edf_feasible_exact reports for the subset alone
        periods = (2**40, 2**40 + 1)
        ts = taskset([(F(periods[0], 2), F(periods[0], 2), periods[0]),
                      (F(periods[1], 2), periods[1], periods[1]), (1, 5, 7)])
        with pytest.raises(HorizonOverflow) as got:
            positions_feasible_exact(ts, range(2))
        with pytest.raises(HorizonOverflow) as want:
            edf_feasible_exact(of_tasks(ts.tasks[:2]))
        assert str(got.value) == str(want.value) == (
            f"hyperperiod {periods[0] * periods[1]} exceeds cap {2**64}"
        )


class TestDeadlinePoints:
    def test_single_task(self):
        assert deadline_points(taskset([(1, 2, 3)]), F(9)) == [2, 5, 8]

    def test_dedup(self):
        pts = deadline_points(taskset([(1, 2, 3), (1, 2, 6)]), F(8))
        assert pts == [2, 5, 8]

    def test_zero_horizon(self):
        assert deadline_points(taskset([(1, 2, 3)]), F(0)) == []

    def test_cap(self):
        with pytest.raises(PointExplosion):
            deadline_points(taskset([(1, 1, 1)]), F(100), point_cap=10)


class TestExactTest:
    def test_saturated_single_task(self):
        assert edf_feasible_exact(taskset([(1, 1, 1)])).feasible

    def test_two_clashing_tasks(self):
        verdict = edf_feasible_exact(taskset([(1, 1, 2), (1, 1, 2)]))
        assert not verdict.feasible
        assert verdict.witness == 1

    def test_speedup_family_at_augmented_speed(self):
        ts = gen_speedup_gap(3, F(1, 2))
        assert edf_feasible_exact(ts, speed=F(3, 2)).feasible

    def test_speedup_family_at_unit_speed(self):
        # demand at t=1 is exactly 1, so the earliest failing point is t=2
        # (demand 3 > 2)
        ts = gen_speedup_gap(3, F(1, 2))
        verdict = edf_feasible_exact(ts, speed=F(1))
        assert not verdict.feasible
        assert verdict.witness == 2

    def test_rejects_invalid_sets(self):
        with pytest.raises(ValidationError):
            edf_feasible_exact(taskset([(5, 2, 4)]))

    def test_rejects_nonpositive_speed(self):
        with pytest.raises(BadParam):
            edf_feasible_exact(taskset([(1, 2, 2)]), speed=F(0))

    @given(valid_tasksets())
    def test_witness_is_smallest_failure(self, ts):
        verdict = edf_feasible_exact(ts)
        if verdict.feasible:
            assert verdict.witness is None
        else:
            w = verdict.witness
            assert demand(ts, w) > w
            for p in deadline_points(ts, w):
                if p < w:
                    assert demand(ts, p) <= p

    @given(valid_tasksets(), st.integers(1, 9))
    def test_infeasible_within_the_bound_below_u(self, ts, tenths):
        # at a speed below U the sweep bound is sum u_i * D_i / (U - speed),
        # and the last deadline point at or below it already fails
        speed = ts.total_utilization * F(tenths, 10)
        verdict = edf_feasible_exact(ts, speed)
        assert not verdict.feasible
        assert verdict.witness <= verdict.horizon
        assert demand(ts, verdict.witness) > speed * verdict.witness

    @given(valid_tasksets(), st.integers(1, 4), st.integers(1, 3))
    def test_speed_monotone(self, ts, num, den):
        s1 = F(num, den)
        s2 = s1 + F(1, 2)
        if edf_feasible_exact(ts, speed=s1).feasible:
            assert edf_feasible_exact(ts, speed=s2).feasible

    @given(valid_tasksets(min_n=2, max_n=4), st.integers(0, 4), st.data())
    def test_feasible_sets_closed_under_removal(self, ts, step, data):
        """At a speed from U up to the total density: a set is often
        feasible there, and always at the density."""
        u = ts.total_utilization
        density = sum(tsk.c / min(tsk.d, tsk.t) for tsk in ts)
        speed = u + (density - u) * F(step, 4)
        assume(edf_feasible_exact(ts, speed=speed).feasible)
        drop = data.draw(st.integers(1, len(ts)))
        rest = of_tasks(tsk for tsk in ts if tsk.id != drop)
        assert edf_feasible_exact(rest, speed).feasible

    @given(valid_tasksets())
    def test_subset_helper_agrees_with_verdict(self, ts):
        assert subset_feasible(list(ts)) == edf_feasible_exact(ts).feasible

    @settings(max_examples=300)  # fewer let an off-by-one fast-forward pass
    @given(valid_tasksets(), st.sampled_from([F(1), F(3, 2), F(4, 5)]))
    def test_matches_brute_force_demand_scan(self, ts, speed):
        """Verdict and earliest witness equal a plain Fraction scan of the
        summed dbf over every deadline point."""
        total_u = ts.total_utilization
        verdict = edf_feasible_exact(ts, speed)
        if total_u <= speed:
            horizon = verdict.horizon
        else:
            # failure is certain at the first point past this bound, and
            # every task has a point within one period after it
            overshoot = sum((tsk.utilization * tsk.d for tsk in ts), F(0))
            bound = max(max(tsk.d for tsk in ts), overshoot / (total_u - speed))
            horizon = bound + max(tsk.t for tsk in ts)
        try:
            points = deadline_points(ts, horizon, point_cap=5000)
        except PointExplosion:
            assume(False)
        failing = [p for p in points if demand(ts, p) > speed * p]
        assert verdict.feasible == (not failing)
        assert verdict.witness == (failing[0] if failing else None)

    # pinned sweep lengths: a different count means the fast-forward now
    # skips other points, even where the verdict stays the same
    @pytest.mark.parametrize(
        "family,size,speed,checked",
        [
            ("bf", 4, F(1), 2), ("bf", 4, F(3, 2), 3),
            ("bf", 5, F(1), 2), ("bf", 5, F(3, 2), 3),
            ("bf", 6, F(1), 2), ("bf", 6, F(3, 2), 4),
            ("bf", 7, F(1), 2), ("bf", 7, F(3, 2), 4),
            ("bf", 8, F(1), 2), ("bf", 8, F(3, 2), 5),
            ("gap", 3, F(1), 2), ("gap", 3, F(3, 2), 6),
            ("gap", 4, F(1), 2), ("gap", 4, F(3, 2), 8),
            ("gap", 5, F(1), 2), ("gap", 5, F(3, 2), 10),
            ("gap", 6, F(1), 2), ("gap", 6, F(3, 2), 12),
            ("gap", 7, F(1), 2), ("gap", 7, F(3, 2), 14),
            ("gap", 8, F(1), 2), ("gap", 8, F(3, 2), 16),
        ],
    )  # fmt: skip
    def test_points_checked_pinned(self, family, size, speed, checked):
        if family == "bf":
            ts = gen_best_fit_adversary(size)
        else:
            ts = gen_speedup_gap(size, F(1, 2))
        assert edf_feasible_exact(ts, speed).points_checked == checked

    @pytest.mark.parametrize("cap", [1, 2])
    def test_point_cap_counts_the_kinks_passed_over(self, cap):
        # implicit deadlines: dbf* certifies every segment from its kink,
        # so the sweep only passes over the three kinks, each a point
        ts = taskset([(1, 10, 10), (1, 20, 20), (1, 30, 30)])
        assert edf_feasible_exact(ts, point_cap=3).points_checked == 3
        with pytest.raises(PointExplosion, match=f"^demand sweep exceeded {cap} points "):
            edf_feasible_exact(ts, point_cap=cap)


@st.composite
def sets_near_density(draw):
    """A task set and a subset of its positions.  Often the subset's C
    values are rescaled so that its total density sum C_i/min(D_i, T_i)
    lands on 1 or just beside it."""
    n = draw(st.integers(1, 6))
    tasks = [draw(valid_tasks()) for _ in range(n)]
    positions = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    target = draw(st.sampled_from([F(1), F(1), F(11, 12), F(13, 12), F(1, 2)]))
    dens = {i: tasks[i].c / min(tasks[i].d, tasks[i].t) for i in positions}
    scale = target / sum(dens.values())
    if draw(st.integers(0, 3)) and scale * max(dens.values()) <= 1:
        for i in positions:
            t = tasks[i]
            tasks[i] = Task(t.c * scale, t.d, t.t)
    return of_tasks(tasks), positions


class TestDensityAccept:
    """A bin whose total density is at most 1 is feasible under EDF on a
    unit-speed processor for any deadline class:
    dbf_i(t) <= t * C_i/min(D_i, T_i)."""

    @settings(max_examples=300)
    @given(sets_near_density())
    def test_matches_witness_producing_test(self, case):
        ts, positions = case
        subset = of_tasks(ts.tasks[i] for i in positions)
        assert positions_feasible_exact(ts, positions) == (
            edf_feasible_exact(subset).feasible
        )

    def test_density_at_the_speed_needs_no_sweep(self):
        # total density and U exactly 1, and periods 2^40 and 2^40 + 1,
        # whose lcm passes the default hyperperiod cap: only a sweep would
        # need the hyperperiod
        ts = taskset([(F(t, 2), t, t) for t in (2**40, 2**40 + 1)])
        assert positions_feasible_exact(ts, range(2))
        with pytest.raises(HorizonOverflow):
            edf_feasible_exact(ts)

    def test_density_uses_the_shorter_of_deadline_and_period(self):
        # C/D sums to 1, but C/T (the utilization) is 2
        ts = taskset([("1/2", 1, "1/2")] * 2)
        assert not positions_feasible_exact(ts, range(2))
        part = Partition(bins=((1, 2),), algorithm="manual")
        assert verify_partition(ts, part) is False


class TestBinFeasible:
    """`bin_feasible` on every bin of a set, each with its sums: the
    verdict of the reference sweep at unit speed, a store that then holds
    the verdicts of exactly the bins past both O(1) gates, and no exact
    step for any bin once the store is filled."""

    @given(tasksets_of_each_class(max_n=5))
    def test_every_bin_of_a_set(self, ts):
        n = len(ts)
        bins = []  # (mask, density sum, share sum, reference verdict)
        for mask in range(1, 1 << n):
            positions = [p for p in range(n) if mask >> p & 1]
            density = sum(ts.span_share[p] for p in positions)
            load = sum(ts.share[p] for p in positions)
            want = _ref_kernel(ts, positions, F(1))[1] is None
            bins.append((mask, density, load, want))
        store = {}
        for mask, density, load, want in bins:
            assert bin_feasible(ts, mask, density, load, store) is want
        assert store == {
            mask: want
            for mask, density, load, want in bins
            if density > ts.span_whole and load <= ts.whole
        }
        calls = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(feasibility, "feasible_past_gates", lambda *a: calls.append(a))
            for mask, density, load, want in bins:
                assert bin_feasible(ts, mask, density, load, store) is want
        assert calls == []


class TestTwoTasks:
    """`feasible_past_gates` settles a pair with U < 1 from its later
    deadline D_b: the dbf* line certifies every point from D_b on, or the
    demand at D_b refutes it.  Only the other pairs reach the sweep."""

    @staticmethod
    def past_gates(ts, pair) -> bool:
        """`feasible_past_gates` of `pair`, in the order given, for a pair
        that neither O(1) gate decides."""
        assert sum(ts.span_share[p] for p in pair) > ts.span_whole
        load = sum(ts.share[p] for p in pair)
        assert load <= ts.whole
        return feasibility.feasible_past_gates(ts, pair, load)

    @staticmethod
    def sweeps(monkeypatch) -> list:
        """The position lists the exact step sweeps from now on."""
        seen = []
        real = feasibility._sweep_first_failure

        def spy(ts, positions, speed, point_cap):
            seen.append(list(positions))
            return real(ts, positions, speed, point_cap)

        monkeypatch.setattr(feasibility, "_sweep_first_failure", spy)
        return seen

    @settings(max_examples=200)
    @given(st.one_of(valid_tasksets(min_n=2), tasksets_of_each_class()))
    def test_matches_the_kernel_on_every_pair(self, ts):
        for pair in itertools.permutations(range(len(ts)), 2):
            swept = _sweep_first_failure(ts, pair, F(1), DEFAULT_POINT_CAP)
            assert positions_feasible_exact(ts, pair) == (swept[0] is None)

    def test_matches_the_kernel_on_bench_traffic(self):
        cfg = {"instances": [
            *({"family": "random", "count": 24, "n": 10, "seed": 1,
               "target_u": "5/2", "class": cls}
              for cls in ("implicit", "constrained", "arbitrary")),
            {"family": "dvp", "count": 24, "n": 10, "seed": 1},
            *({"family": fam, "k": k}
              for fam in ("bf-adversary", "wf-adversary") for k in range(4, 9)),
            *({"family": "speedup-gap", "n": n, "eps": "1/2"} for n in (6, 10, 14))],
          "algorithms": [{"algo": "dm"}]}  # fmt: skip
        for name, _, ts in bench.resolve_instances(bench.parse_config(json.dumps(cfg))):
            for pair in itertools.combinations(range(len(ts)), 2):
                swept = _sweep_first_failure(ts, pair, F(1), DEFAULT_POINT_CAP)
                assert positions_feasible_exact(ts, pair) == (swept[0] is None), (name, pair)

    @pytest.mark.parametrize("pair", [[0, 1], [1, 0]])
    def test_certificate_holding_with_equality(self, monkeypatch, pair):
        # offsets 1/2 + 1/2 = D_b * (1 - U) = 3 * (1 - 2/3), density 4/3;
        # the demand at D_b = 3 is 3, so no refutation applies either
        ts = taskset([(1, 1, 2), (1, 3, 6)])
        swept = self.sweeps(monkeypatch)
        assert self.past_gates(ts, pair)
        assert swept == []

    @pytest.mark.parametrize("pair", [[0, 1], [1, 0]])
    def test_demand_at_the_later_deadline(self, monkeypatch, pair):
        # a third task sets the set's scale to 3.  dbf*(2) = 5/2 > 2 does
        # not certify, and the demand at D_b = 2 is exactly 2: feasible,
        # by the sweep
        ts = taskset([(1, 1, 2), (1, 2, 4), ("1/3", 5, 7)])
        assert ts.scale == 3
        swept = self.sweeps(monkeypatch)
        assert self.past_gates(ts, pair)
        assert swept == [pair]
        # one unit more of C_b at that scale fails at D_b, with no sweep
        ts = taskset([(1, 1, 2), ("4/3", 2, 4), ("1/3", 5, 7)])
        swept.clear()
        assert not self.past_gates(ts, pair)
        assert swept == []
        assert edf_feasible_exact(of_tasks(ts.tasks[:2])).witness == 2

    @pytest.mark.parametrize("pair", [[0, 1], [1, 0]])
    @pytest.mark.parametrize(
        "rows, feasible",
        [([("1/2", 2, 1), ("3/2", 2, 4)], True),
         ([(1, 2, 4), ("3/2", 2, 6)], False)],
    )  # fmt: skip
    def test_tied_deadlines_are_settled(self, monkeypatch, pair, rows, feasible):
        # with D_a = D_b the step decides C_a + C_b <= D either way
        ts = taskset(rows)
        swept = self.sweeps(monkeypatch)
        assert self.past_gates(ts, pair) is feasible
        assert swept == []
        assert edf_feasible_exact(ts).feasible is feasible

    def test_full_utilization_reaches_the_sweep(self, monkeypatch):
        # U = 1 and offsets P0/4 + (P1/2 - P1) < 0, so the dbf* line would
        # certify the pair; but its hyperperiod P0 * P1 passes the cap of
        # 2^64, which only the sweep reports
        periods = (2**40, 2**40 + 1)
        ts = taskset([(F(periods[0], 2), F(periods[0], 2), periods[0]),
                      (F(periods[1], 2), 2 * periods[1], periods[1])])  # fmt: skip
        assert ts.total_utilization == 1
        swept = self.sweeps(monkeypatch)
        with pytest.raises(HorizonOverflow):
            positions_feasible_exact(ts, [0, 1])
        assert swept == [[0, 1]]


class TestLemma1:
    def test_mixed_feasible(self):
        ts = taskset([("1/2", 1, 2), ("1/4", 1, 4), (1, 4, 4)])
        assert lemma1_feasible(ts) is True

    def test_strict_work_overflow(self):
        ts = taskset([("3/4", 1, 2), ("1/2", 1, 4)])
        assert lemma1_feasible(ts) is False

    def test_agrees_with_exact_test(self):
        ts = taskset([("1/2", 1, 2), (1, 4, 4), (1, 4, 4)])
        assert lemma1_feasible(ts) is True
        assert edf_feasible_exact(ts).feasible is True

    def test_rejects_late_deadline_task(self):
        with pytest.raises(ShapeMismatch) as err:
            lemma1_feasible(taskset([("1/2", 1, 2), (1, 4, 3)]))
        assert str(err.value) == "tasks with D > T do not fit the common-deadline shape"

    def test_rejects_strict_deadline_not_one(self):
        with pytest.raises(ShapeMismatch) as err:
            lemma1_feasible(taskset([("1/2", 2, 4)]))
        assert str(err.value) == "strictly constrained tasks must share deadline 1"

    def test_rejects_mixed_implicit_periods(self):
        with pytest.raises(ShapeMismatch) as err:
            lemma1_feasible(taskset([("1/2", 1, 2), (1, 4, 4), (1, 8, 8)]))
        assert str(err.value) == "implicit tasks must share one period"

    def test_rejects_nonmultiple_period(self):
        with pytest.raises(ShapeMismatch) as err:
            lemma1_feasible(taskset([("1/2", 1, 2), (1, 3, 3)]))
        assert str(err.value) == "implicit period 3 is not an integer multiple of 2"

    def test_nonmultiple_period_names_fractional_periods(self):
        with pytest.raises(ShapeMismatch) as err:
            lemma1_feasible(taskset([("1/2", 1, "3/2"), (1, "5/2", "5/2")]))
        assert str(err.value) == "implicit period 5/2 is not an integer multiple of 3/2"

    def test_strict_work_of_exactly_one_is_feasible(self):
        ts = taskset([("1/2", 1, 2), ("1/2", 1, 4), (1, 4, 4)])
        assert lemma1_feasible(ts) is True
        assert edf_feasible_exact(ts).feasible is True

    @pytest.mark.parametrize("seed", range(60))
    def test_equivalence_with_exact_test(self, seed):
        ts = gen_lemma1_shaped(seed, n_strict=seed % 4, n_implicit=1 + seed % 3)
        assert lemma1_feasible(ts) == edf_feasible_exact(ts).feasible


class TestVerifyPartition:
    def test_adversary_odd_even_split(self):
        ts = gen_best_fit_adversary(4)
        part = Partition(bins=((1, 3, 5, 7), (2, 4, 6, 8)), algorithm="manual")
        assert verify_partition(ts, part) is True

    def test_single_overloaded_bin(self):
        ts = taskset([(1, 1, 2), (1, 1, 2), (1, 1, 2)])
        part = Partition(bins=((1, 2, 3),), algorithm="manual")
        assert verify_partition(ts, part) is False

    def test_singletons_always_verify(self):
        ts = taskset([(1, 1, 2), (1, 1, 2), (1, 1, 2)])
        part = Partition(bins=((1,), (2,), (3,)), algorithm="manual")
        assert verify_partition(ts, part) is True

    def test_missing_id(self):
        ts = taskset([(1, 2, 2), (1, 3, 3)])
        with pytest.raises(CoverageError):
            verify_partition(ts, Partition(bins=((1,),), algorithm="manual"))

    def test_duplicate_id(self):
        ts = taskset([(1, 2, 2), (1, 3, 3)])
        with pytest.raises(CoverageError):
            verify_partition(
                ts, Partition(bins=((1, 2), (2,)), algorithm="manual")
            )

    @pytest.mark.parametrize("tid", [0, 3, 9, -1, True, 1.0, "1", None])
    def test_unknown_id(self, tid):
        # task ids are positions + 1: 1 and 2 here; a bool or a float equal
        # to an id is no id
        ts = taskset([(1, 2, 2), (1, 3, 3)])
        with pytest.raises(CoverageError, match=f"unknown task id {tid} in partition"):
            verify_partition(ts, Partition(bins=((2,), (1, tid)), algorithm="manual"))

    def test_empty_bin(self):
        ts = taskset([(1, 2, 2)])
        with pytest.raises(CoverageError):
            verify_partition(ts, Partition(bins=((1,), ()), algorithm="manual"))

    @pytest.mark.parametrize(
        "bins",
        [((1, 2), (3,)), ((1, 2), (3, 4, 1)), ((1, 2), (3, 4, 9)), ((1, 2), (), (3, 4))],
        ids=["missing", "twice", "unknown", "empty"],
    )
    def test_coverage_fault_raises_with_its_bins_in_the_store(self, bins):
        # each pair has density 3/2 and U = 1, so its verdict is stored
        ts = taskset([(1, 1, 2), (1, 2, 2), (1, 1, 2), (1, 2, 2)])
        store = {}
        assert verify_partition(ts, Partition(((1, 2), (3, 4)), "manual"), store)
        assert store == {0b0011: True, 0b1100: True}
        for _ in range(2):
            with pytest.raises(CoverageError):
                verify_partition(ts, Partition(bins, "manual"), store)
        assert store == {0b0011: True, 0b1100: True}

    def test_stored_refusal_is_read_back(self):
        ts = taskset([(1, 1, 2), (1, 1, 2), (1, 1, 2)])
        part = Partition(bins=((1, 2), (3,)), algorithm="manual")
        store = {}
        assert verify_partition(ts, part, store) is False
        assert store == {0b011: False}
        assert verify_partition(ts, part, store) is False
