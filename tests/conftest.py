import math
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import HealthCheck, settings

from rtpack.feasibility import bin_feasible
from rtpack.model import Task, TaskSet, taskset

settings.register_profile(
    "default",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@st.composite
def rationals(draw, min_num=1, max_num=12, max_den=3):
    """Small positive rationals; small denominators keep hyperperiods tame."""
    return Fraction(draw(st.integers(min_num, max_num)), draw(st.integers(1, max_den)))


@st.composite
def time_points(draw):
    return Fraction(draw(st.integers(0, 60)), draw(st.integers(1, 4)))


@st.composite
def valid_tasks(draw, tid=1):
    period = draw(rationals())
    d = draw(rationals())
    cap = min(period, d)
    c = cap * Fraction(draw(st.integers(1, 6)), 6)
    return Task(c=c, d=d, t=period, id=tid)


@st.composite
def valid_tasksets(draw, min_n=1, max_n=5):
    n = draw(st.integers(min_n, max_n))
    return TaskSet(tuple(draw(valid_tasks(tid=i + 1)) for i in range(n)))


@st.composite
def tasksets_of_each_class(draw, max_n=6):
    """Task sets whose tasks are, by a draw each, implicit (D = T),
    constrained (D a fraction of T) or free (D drawn apart from T), so
    that every deadline class and equal densities occur often."""
    n = draw(st.integers(1, max_n))
    tasks = []
    for i in range(n):
        period = draw(rationals())
        kind = draw(st.sampled_from(["implicit", "constrained", "free"]))
        if kind == "implicit":
            d = period
        elif kind == "constrained":
            d = period * Fraction(draw(st.integers(1, 4)), 4)
        else:
            d = draw(rationals())
        c = min(period, d) * Fraction(draw(st.integers(1, 4)), 4)
        tasks.append(Task(c=c, d=d, t=period, id=i + 1))
    return TaskSet(tuple(tasks))


def positions_feasible_exact(ts: TaskSet, positions) -> bool:
    """Exact EDF feasibility of the tasks at `positions` of `ts` on one
    unit-speed processor, without witness search: `bin_feasible` of their
    bin, with a fresh verdict store."""
    return bin_feasible(
        ts,
        sum(1 << p for p in positions),
        sum(map(ts.span_share.__getitem__, positions)),
        sum(map(ts.share.__getitem__, positions)),
        {},
    )


def ints_per_pair(nums, dens) -> tuple:
    """Reference (scale, C, D, T) of values given as the flat lists of
    their numerators and positive denominators, C, D and T per task: each
    pair reduced on its own, the scale the lcm of the reduced
    denominators, and every value multiplied by it."""
    values = [Fraction(n, d) for n, d in zip(nums, dens)]
    scale = math.lcm(*(x.denominator for x in values))
    scaled = [x.numerator * (scale // x.denominator) for x in values]
    return scale, tuple(scaled[0::3]), tuple(scaled[1::3]), tuple(scaled[2::3])


def ints_of(tasks) -> tuple:
    """Reference (scale, C, D, T) of a task list, on its Fractions: C, D
    and T of each task multiplied by the lcm of all their denominators."""
    values = [Fraction(x) for tsk in tasks for x in (tsk.c, tsk.d, tsk.t)]
    return ints_per_pair([x.numerator for x in values], [x.denominator for x in values])


def held_ints(ts: TaskSet) -> tuple:
    """The (scale, C, D, T) that `ts` holds."""
    return ts.scale, ts.c, ts.d, ts.t


def subset_feasible(tasks) -> bool:
    """Exact EDF feasibility of a bare task list on one unit-speed
    processor, tested on the set of its values; an empty list is
    feasible."""
    if not tasks:
        return True
    return positions_feasible_exact(
        taskset((tsk.c, tsk.d, tsk.t) for tsk in tasks), range(len(tasks))
    )


def tightened_utilizations(ts) -> dict[int, Fraction]:
    """Reference for the paper's tightening transform, on Fractions: by
    task id, the utilization C/min(D, T) of the implicit-deadline task
    that keeps C and takes min(D, T) as deadline and period."""
    return {tsk.id: tsk.c / min(tsk.d, tsk.t) for tsk in ts}
