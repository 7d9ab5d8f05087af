"""The EDF simulator against a reference copy of its earlier form, which
ran on Fraction time, kept the next release of every task in a dict and
scanned all tasks for due releases and for the next release on each
event.  Traces (misses, preemptions, idle intervals) and the event at
which a capped run stops must all be equal."""

import heapq
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from rtpack.errors import BadParam, EventExplosion
from rtpack.model import TaskSet, require_valid, taskset
from rtpack.simulate import DEFAULT_EVENT_CAP, SimTrace, simulate_edf_synchronous

from conftest import tasksets_of_each_class, valid_tasksets
from test_oracle import FAMILY_SETS

F = Fraction
SPEEDS = [F(1), F(3, 2), F(2, 3), F(7, 10)]


def _ref_simulate(
    ts: TaskSet,
    horizon: Fraction,
    speed: Fraction = Fraction(1),
    event_cap: int = DEFAULT_EVENT_CAP,
) -> SimTrace:
    """Reference: the event loop on exact rational time."""
    require_valid(ts)
    if horizon <= 0:
        raise BadParam(f"horizon must be positive, got {horizon}")
    if speed <= 0:
        raise BadParam(f"speed must be positive, got {speed}")
    if event_cap < 1:
        raise BadParam(f"event cap must be at least 1, got {event_cap}")

    tasks = list(ts)
    next_release = {tsk.id: Fraction(0) for tsk in tasks}
    # active jobs: (abs_deadline, task_id, seq) -> remaining work
    active: list[tuple[Fraction, int, int]] = []
    remaining: dict[tuple[Fraction, int, int], Fraction] = {}
    seq = 0
    misses: list[tuple[int, Fraction]] = []
    idle: list[tuple[Fraction, Fraction]] = []
    preemptions = 0
    current: tuple[Fraction, int, int] | None = None
    now = Fraction(0)
    events = 0

    def release_due(at: Fraction) -> None:
        nonlocal seq
        for tsk in tasks:
            while next_release[tsk.id] <= at and next_release[tsk.id] < horizon:
                r = next_release[tsk.id]
                job = (r + tsk.d, tsk.id, seq)
                seq += 1
                heapq.heappush(active, job)
                remaining[job] = tsk.c
                next_release[tsk.id] = r + tsk.t

    release_due(now)
    while now < horizon:
        events += 1
        if events > event_cap:
            raise EventExplosion(f"simulation exceeded {event_cap} events")

        if not active:
            upcoming = min(next_release[tsk.id] for tsk in tasks)
            resume = min(upcoming, horizon)
            if resume > now:
                idle.append((now, resume))
            if resume >= horizon:
                break
            now = resume
            current = None
            release_due(now)
            continue

        job = active[0]
        deadline, task_id, _ = job
        if current is not None and current != job and remaining.get(current, Fraction(0)) > 0:
            preemptions += 1
        current = job

        finish = now + remaining[job] / speed
        upcoming = min(next_release[tsk.id] for tsk in tasks)
        step = min(finish, upcoming, deadline, horizon)

        remaining[job] -= (step - now) * speed
        now = step

        if remaining[job] == 0:
            heapq.heappop(active)
            del remaining[job]
            current = None
        elif now == deadline:
            if deadline <= horizon:
                misses.append((task_id, deadline))
            heapq.heappop(active)
            del remaining[job]
            current = None

        if now < horizon:
            release_due(now)

    for job in sorted(active):
        deadline, task_id, _ = job
        if deadline <= horizon and remaining.get(job, Fraction(0)) > 0:
            misses.append((task_id, deadline))

    return SimTrace(
        horizon=horizon,
        misses=tuple(misses),
        preemptions=preemptions,
        idle=tuple(idle),
    )


def _outcome(simulate, ts, horizon, speed, event_cap=DEFAULT_EVENT_CAP):
    """The trace of one run, or the type and text of the error it raised."""
    try:
        return simulate(ts, horizon, speed, event_cap)
    except EventExplosion as err:
        return type(err).__name__, str(err)


def _assert_same(ts, horizon, speed, event_cap=DEFAULT_EVENT_CAP):
    got = _outcome(simulate_edf_synchronous, ts, horizon, speed, event_cap)
    want = _outcome(_ref_simulate, ts, horizon, speed, event_cap)
    assert got == want


# horizons on a finer grid than the drawn C, D and T (denominators up to 3),
# so that a window can close between two events or exactly on a deadline
horizons = st.builds(F, st.integers(1, 36), st.sampled_from([1, 2, 3, 4, 7]))
tasksets = st.one_of(valid_tasksets(max_n=5), tasksets_of_each_class(max_n=5))


class TestTraces:
    @settings(max_examples=200)
    @given(tasksets, horizons, st.sampled_from(SPEEDS))
    def test_same_trace(self, ts, horizon, speed):
        _assert_same(ts, horizon, speed)

    @pytest.mark.parametrize("speed", SPEEDS, ids=str)
    @pytest.mark.parametrize("case", range(len(FAMILY_SETS)))
    def test_same_trace_on_families(self, case, speed):
        _assert_same(FAMILY_SETS[case], F(25, 2), speed)

    @pytest.mark.parametrize("speed", SPEEDS, ids=str)
    @pytest.mark.parametrize(
        "triples, horizon",
        [
            # two jobs due when the window closes, both unfinished
            ([(1, 1, 2), (1, 1, 2), (1, 1, 2)], F(1)),
            ([(2, 2, 2), (2, 2, 2)], F(4)),
            # the window closes inside an idle interval and inside a job
            ([("1/2", 1, 3), (1, "5/2", 4)], F(17, 7)),
        ],
    )
    def test_same_trace_on_pinned_sets(self, triples, horizon, speed):
        _assert_same(taskset(triples), horizon, speed)


class TestEventCap:
    @settings(max_examples=200)
    @given(tasksets, horizons, st.sampled_from(SPEEDS), st.integers(1, 60))
    def test_same_error_at_small_caps(self, ts, horizon, speed, event_cap):
        _assert_same(ts, horizon, speed, event_cap)
