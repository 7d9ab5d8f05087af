from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from rtpack.errors import (
    BadParam,
    CoverageError,
    HorizonOverflow,
    PointExplosion,
    ShapeMismatch,
    ValidationError,
)
from rtpack.feasibility import test_horizon as horizon_bound
from rtpack.feasibility import (
    Mode,
    _Scaled,
    deadline_points,
    edf_feasible_exact,
    lemma1_feasible,
    positions_feasible_exact,
    subset_feasible_exact,
    verify_partition,
)
from rtpack.generators import gen_best_fit_adversary, gen_lemma1_shaped, gen_speedup_gap
from rtpack.model import Task, TaskSet, dbf, taskset
from rtpack.partitioners import Partition

from conftest import valid_tasks, valid_tasksets

F = Fraction


def demand(ts, t):
    return sum(dbf(tsk, t) for tsk in ts)


class TestHorizon:
    def test_implicit_set_clamps_to_deadline(self):
        assert horizon_bound(taskset([(1, 2, 2)])) == 2

    def test_slack_term(self):
        assert horizon_bound(taskset([(1, 1, 2), (1, 2, 4)])) == 4

    def test_full_utilization_uses_hyperperiod(self):
        assert horizon_bound(taskset([(1, 1, 1)])) == 2

    def test_overutilized_rejected(self):
        with pytest.raises(BadParam):
            horizon_bound(taskset([(1, 1, 1), (1, 1, 1)]))

    def test_hyperperiod_overflow(self):
        big = 2**70
        with pytest.raises(HorizonOverflow):
            horizon_bound(taskset([(big, big, big)]))

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
        sc = _Scaled(ts.ints, range(2))
        assert sc.fraction(*sc.horizon(speed, F(3))) == horizon_bound(own, speed) == 4
        assert positions_feasible_exact(ts.ints, range(2), speed, hyperperiod_cap=F(3))
        with pytest.raises(HorizonOverflow) as got:
            positions_feasible_exact(ts.ints, range(2), speed, hyperperiod_cap=F(1))
        with pytest.raises(HorizonOverflow) as want:
            horizon_bound(own, speed, hyperperiod_cap=F(1))
        assert str(got.value) == str(want.value) == "hyperperiod 2 exceeds cap 1"


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
        rest = [tsk for tsk in ts if tsk.id != drop]
        assert subset_feasible_exact(rest, speed=speed)

    @given(valid_tasksets())
    def test_subset_helper_agrees_with_verdict(self, ts):
        assert subset_feasible_exact(list(ts)) == edf_feasible_exact(ts).feasible

    @settings(max_examples=300)  # fewer let an off-by-one fast-forward pass
    @given(valid_tasksets(), st.sampled_from([F(1), F(3, 2), F(4, 5)]))
    def test_matches_brute_force_demand_scan(self, ts, speed):
        """Verdict and earliest witness equal a plain Fraction scan of the
        summed dbf over every deadline point."""
        total_u = ts.total_utilization
        if total_u <= speed:
            horizon = horizon_bound(ts, speed)
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
        verdict = edf_feasible_exact(ts, speed)
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


SPEEDS = [F(1), F(3, 2), F(2, 3)]


@st.composite
def sets_near_density(draw):
    """A task set, a subset of its positions and a speed.  Often the
    subset's C values are rescaled so that its total density
    sum C_i/min(D_i, T_i) lands on the speed or just beside it."""
    n = draw(st.integers(1, 6))
    tasks = [draw(valid_tasks(tid=i + 1)) for i in range(n)]
    positions = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
    speed = draw(st.sampled_from(SPEEDS))
    target = speed * draw(st.sampled_from([F(1), F(1), F(11, 12), F(13, 12), F(1, 2)]))
    dens = {i: tasks[i].c / min(tasks[i].d, tasks[i].t) for i in positions}
    scale = target / sum(dens.values())
    if draw(st.integers(0, 3)) and scale * max(dens.values()) <= 1:
        for i in positions:
            t = tasks[i]
            tasks[i] = Task(t.c * scale, t.d, t.t, t.id)
    return TaskSet(tuple(tasks)), positions, speed


class TestDensityAccept:
    """A bin whose total density is at most the speed is feasible under
    EDF for any deadline class: dbf_i(t) <= t * C_i/min(D_i, T_i)."""

    @settings(max_examples=300)
    @given(sets_near_density())
    def test_matches_witness_producing_test(self, case):
        ts, positions, speed = case
        subset = TaskSet(tuple(ts.tasks[i] for i in positions))
        assert positions_feasible_exact(ts.ints, positions, speed) == (
            edf_feasible_exact(subset, speed).feasible
        )

    @pytest.mark.parametrize("speed", SPEEDS)
    def test_density_at_the_speed_needs_no_sweep(self, speed):
        # total density exactly the speed, hyperperiod 6 past the cap: only
        # a sweep would need the hyperperiod
        ts = taskset([(speed, 2, 2), (speed, 3, 3), (speed, 6, 6)])
        assert positions_feasible_exact(ts.ints, range(3), speed, hyperperiod_cap=F(1))
        with pytest.raises(HorizonOverflow):
            edf_feasible_exact(ts, speed, hyperperiod_cap=F(1))

    @pytest.mark.parametrize("speed", SPEEDS)
    def test_density_uses_the_shorter_of_deadline_and_period(self, speed):
        # C/D sums to the speed, but C/T (the utilization) is 2
        ts = taskset([(speed / 2, 1, speed / 2)] * 2)
        assert not positions_feasible_exact(ts.ints, range(2), speed)
        part = Partition(bins=((1, 2),), algorithm="manual")
        assert verify_partition(ts, part, Mode.EXACT) is False


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
        with pytest.raises(ShapeMismatch):
            lemma1_feasible(taskset([("1/2", 1, 2), (1, 4, 3)]))

    def test_rejects_strict_deadline_not_one(self):
        with pytest.raises(ShapeMismatch):
            lemma1_feasible(taskset([("1/2", 2, 4)]))

    def test_rejects_mixed_implicit_periods(self):
        with pytest.raises(ShapeMismatch):
            lemma1_feasible(taskset([("1/2", 1, 2), (1, 4, 4), (1, 8, 8)]))

    def test_rejects_nonmultiple_period(self):
        with pytest.raises(ShapeMismatch):
            lemma1_feasible(taskset([("1/2", 1, 2), (1, 3, 3)]))

    @pytest.mark.parametrize("seed", range(60))
    def test_equivalence_with_exact_test(self, seed):
        ts = gen_lemma1_shaped(seed, n_strict=seed % 4, n_implicit=1 + seed % 3)
        assert lemma1_feasible(ts) == edf_feasible_exact(ts).feasible


class TestVerifyPartition:
    def test_adversary_odd_even_split(self):
        ts = gen_best_fit_adversary(4)
        part = Partition(bins=((1, 3, 5, 7), (2, 4, 6, 8)), algorithm="manual")
        assert verify_partition(ts, part, Mode.EXACT) is True

    def test_single_overloaded_bin(self):
        ts = taskset([(1, 1, 2), (1, 1, 2), (1, 1, 2)])
        part = Partition(bins=((1, 2, 3),), algorithm="manual")
        assert verify_partition(ts, part, Mode.EXACT) is False

    def test_singletons_always_verify(self):
        ts = taskset([(1, 1, 2), (1, 1, 2), (1, 1, 2)])
        part = Partition(bins=((1,), (2,), (3,)), algorithm="manual")
        assert verify_partition(ts, part, Mode.EXACT) is True
        assert verify_partition(ts, part, Mode.APPROXIMATE) is True

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

    def test_unknown_id(self):
        ts = taskset([(1, 2, 2)])
        with pytest.raises(CoverageError):
            verify_partition(ts, Partition(bins=((1, 9),), algorithm="manual"))

    def test_empty_bin(self):
        ts = taskset([(1, 2, 2)])
        with pytest.raises(CoverageError):
            verify_partition(ts, Partition(bins=((1,), ()), algorithm="manual"))
