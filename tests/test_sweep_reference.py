"""The demand sweep kernel against a reference copy of its earlier form,
which copied the tested positions into per-test lists (`_RefScaled`)
before sweeping, had one bound function per side of the speed, and above
the speed evaluated the first point past the bound when no point within
it failed.  Verdicts, witnesses, horizons, point counts and error texts
must all be equal."""

import heapq
import math
from fractions import Fraction
from typing import Optional, Sequence

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from rtpack.errors import HorizonOverflow, PointExplosion
from rtpack.feasibility import (
    DEFAULT_HYPERPERIOD_CAP,
    DEFAULT_POINT_CAP,
    _fraction,
    _sweep_first_failure,
    edf_feasible_exact,
)
from rtpack.model import Task, TaskSet, taskset

from conftest import positions_feasible_exact, rationals, tasksets_of_each_class, valid_tasksets
from test_oracle import FAMILY_SETS

F = Fraction
SPEEDS = [F(1), F(3, 2), F(1, 2), F(7, 10)]


class _RefScaled:
    """Reference: the tasks at `positions` of a set's ints, copied."""

    def __init__(self, ts: TaskSet, positions: Sequence[int]):
        self.scale = ts.scale
        self.cost = [ts.c[i] for i in positions]
        self.deadline = [ts.d[i] for i in positions]
        self.period = [ts.t[i] for i in positions]
        self.whole = ts.whole
        self.share = [ts.share[i] for i in positions]
        self.load = sum(self.share)

    def exceeds(self, speed):
        return speed.denominator * self.load > speed.numerator * self.whole

    def horizon(self, speed, hyperperiod_cap):
        d_max = max(self.deadline)
        room = speed.numerator * self.whole - speed.denominator * self.load
        if room == 0:
            own = math.lcm(*self.period)
            cap_num, cap_den = hyperperiod_cap.numerator, hyperperiod_cap.denominator
            if own * cap_den > cap_num * self.scale:
                hp = Fraction(own, self.scale)
                raise HorizonOverflow(f"hyperperiod {hp} exceeds cap {hyperperiod_cap}")
            return own + d_max, 1
        slack = speed.denominator * sum(
            (t - d) * u for t, d, u in zip(self.period, self.deadline, self.share)
        )
        return (d_max, 1) if d_max * room >= slack else (slack, room)

    def overshoot_bound(self, speed):
        d_max = max(self.deadline)
        excess = speed.denominator * self.load - speed.numerator * self.whole
        overshoot = speed.denominator * sum(
            d * u for d, u in zip(self.deadline, self.share)
        )
        return (d_max, 1) if d_max * excess >= overshoot else (overshoot, excess)

    def fraction(self, num, den=1):
        return Fraction(num, den * self.scale)


def _ref_sweep(sc, speed, bound, point_cap, beyond) -> tuple[Optional[int], int]:
    """Reference: the sweep over the copied lists, with the fast-forward
    rebuild clamping the job count at 0."""
    cost, deadline, period, share = sc.cost, sc.deadline, sc.period, sc.share
    n = len(cost)
    horizon = bound[0] // bound[1]
    s_num, s_den = speed.numerator, speed.denominator
    kinks, ff_at = [], []
    never = horizon + 1
    slope = offset = 0
    for i in sorted(range(n), key=deadline.__getitem__):
        slope += share[i]
        offset += cost[i] * sc.whole - share[i] * deadline[i]
        room = s_num * sc.whole - s_den * slope
        excess = s_den * offset
        if room > 0:
            at = -(-excess // room)
        else:
            at = 0 if room == 0 and excess <= 0 else never
        if kinks and kinks[-1] == deadline[i]:
            ff_at[-1] = at
        else:
            kinks.append(deadline[i])
            ff_at.append(at)
    last_seg = len(kinks) - 1
    heap = [(deadline[i], i) for i in range(n)]
    heapq.heapify(heap)
    demand = checked = seg = 0
    while True:
        point = heap[0][0]
        while heap[0][0] == point:
            i = heap[0][1]
            heapq.heapreplace(heap, (point + period[i], i))
            demand += cost[i]
        if point > horizon:
            if not beyond:
                return None, checked
            checked += 1
            if s_den * demand > s_num * point:
                return point, checked
            raise RuntimeError("no failure past the guaranteed bound")
        checked += 1
        if checked > point_cap:
            raise PointExplosion(
                f"demand sweep exceeded {point_cap} points before {sc.fraction(*bound)}"
            )
        while seg < last_seg and kinks[seg + 1] <= point:
            seg += 1
        if point >= ff_at[seg]:
            if seg == last_seg:
                return None, checked
            target = kinks[seg + 1]
            heap, demand = [], 0
            for i in range(n):
                jobs = max(0, -((deadline[i] - target) // period[i]))
                demand += jobs * cost[i]
                heap.append((deadline[i] + jobs * period[i], i))
            heapq.heapify(heap)
            continue
        if s_den * demand > s_num * point:
            return point, checked


def _ref_edf(ts, speed, point_cap, hyperperiod_cap):
    sc = _RefScaled(ts, range(len(ts)))
    beyond = sc.exceeds(speed)
    if beyond:
        bound = sc.overshoot_bound(speed)
    else:
        bound = sc.horizon(speed, hyperperiod_cap)
    witness, checked = _ref_sweep(sc, speed, bound, point_cap, beyond)
    return (
        witness is None,
        None if witness is None else sc.fraction(witness),
        sc.fraction(*bound),
        checked,
    )


def _outcome(run):
    """The result of `run()`, or the type and text of the error it raised."""
    try:
        return run()
    except (PointExplosion, HorizonOverflow) as err:
        return type(err).__name__, str(err)


def _edf_fields(ts, speed, point_cap=DEFAULT_POINT_CAP):
    v = edf_feasible_exact(ts, speed, point_cap)
    return v.feasible, v.witness, v.horizon, v.points_checked


def _kernel(ts, positions, speed, point_cap=DEFAULT_POINT_CAP):
    """(bound, witness, points) of the kernel on `positions`."""
    witness, checked, bound = _sweep_first_failure(ts, positions, speed, point_cap)
    return bound, witness, checked


def _ref_kernel(ts, positions, speed, point_cap=DEFAULT_POINT_CAP):
    sc = _RefScaled(ts, positions)
    beyond = sc.exceeds(speed)
    if beyond:
        bound = sc.overshoot_bound(speed)
    else:
        bound = sc.horizon(speed, DEFAULT_HYPERPERIOD_CAP)
    return bound, *_ref_sweep(sc, speed, bound, point_cap, beyond)


def _assert_same_verdict(ts, speed):
    got = _outcome(lambda: _edf_fields(ts, speed))
    want = _outcome(
        lambda: _ref_edf(ts, speed, DEFAULT_POINT_CAP, DEFAULT_HYPERPERIOD_CAP)
    )
    assert got == want


class TestEdfFeasibleExact:
    @settings(max_examples=200)
    @given(
        st.one_of(valid_tasksets(max_n=6), tasksets_of_each_class(max_n=6)),
        st.sampled_from(SPEEDS),
    )
    def test_same_fields(self, ts, speed):
        _assert_same_verdict(ts, speed)

    @pytest.mark.parametrize("speed", SPEEDS, ids=str)
    @pytest.mark.parametrize("case", range(len(FAMILY_SETS)))
    def test_same_fields_on_families(self, case, speed):
        _assert_same_verdict(FAMILY_SETS[case], speed)

    @given(tasksets_of_each_class(max_n=6), st.sampled_from(SPEEDS), st.integers(1, 4))
    def test_same_errors_at_small_caps(self, ts, speed, point_cap):
        got = _outcome(lambda: _edf_fields(ts, speed, point_cap))
        want = _outcome(
            lambda: _ref_edf(ts, speed, point_cap, DEFAULT_HYPERPERIOD_CAP)
        )
        assert got == want


@st.composite
def subsets_with_equal_deadlines(draw):
    """A task set whose deadlines come from a pool of two or three values,
    so that several tasks share a deadline, and a subset of its positions
    in a drawn order."""
    n = draw(st.integers(1, 7))
    pool = draw(st.lists(rationals(), min_size=2, max_size=3))
    tasks = []
    for i in range(n):
        period = draw(rationals())
        d = draw(st.sampled_from(pool))
        c = min(period, d) * F(draw(st.integers(1, 4)), 4 * n)
        tasks.append(Task(c=c, d=d, t=period, id=i + 1))
    chosen = draw(st.sets(st.integers(0, n - 1), min_size=1))
    positions = draw(st.permutations(sorted(chosen)))
    return TaskSet(tuple(tasks)), positions


class TestPositions:
    @settings(max_examples=200)
    @given(subsets_with_equal_deadlines(), st.sampled_from(SPEEDS))
    def test_same_sweep_on_unsorted_subsets(self, case, speed):
        ts, positions = case
        got = _outcome(lambda: _kernel(ts, positions, speed))
        want = _outcome(lambda: _ref_kernel(ts, positions, speed))
        assert got == want
        if speed == 1 and not isinstance(want[0], str):  # no error raised
            assert positions_feasible_exact(ts, positions) == (want[1] is None)

    @settings(max_examples=200)
    @given(subsets_with_equal_deadlines(), st.sampled_from(SPEEDS), st.integers(1, 4))
    def test_same_errors_on_subsets_at_small_caps(self, case, speed, point_cap):
        # the drawn densities sum to at most 1, so at speeds 1 and 3/2
        # dbf* certifies every kink and the cap falls among the kinks the
        # sweep passes over before it builds a heap
        ts, positions = case
        got = _outcome(lambda: _kernel(ts, positions, speed, point_cap))
        want = _outcome(lambda: _ref_kernel(ts, positions, speed, point_cap))
        assert got == want


# three tasks with two distinct deadlines, 4 and 6, and U = 3/8; dbf*
# stays within t from each deadline on (thresholds 4/3 and 2)
CERTIFIED = taskset([(1, 4, 8), (1, 4, 8), (1, 6, 8)])


class TestCertifiedKinks:
    def test_every_kink_certified_counts_each_deadline_once(self):
        ts, positions = CERTIFIED, range(3)
        got = _kernel(ts, positions, F(1))
        assert got == _ref_kernel(ts, positions, F(1))
        bound, witness, points = got
        assert witness is None and points == 2
        assert _fraction(ts, *bound) == 6

    def test_cap_below_the_certified_kinks(self):
        ts, positions = CERTIFIED, range(3)
        got = _outcome(lambda: _kernel(ts, positions, F(1), 1))
        assert got == _outcome(lambda: _ref_kernel(ts, positions, F(1), 1))
        assert got == ("PointExplosion", "demand sweep exceeded 1 points before 6")
