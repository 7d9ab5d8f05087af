from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import HealthCheck, settings

from rtpack.feasibility import feasible_past_gates
from rtpack.model import IntView, Task, TaskSet

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


def positions_feasible_exact(view: IntView, positions) -> bool:
    """Exact EDF feasibility of the tasks at `positions` of `view` on one
    unit-speed processor, without witness search: the two O(1) gates, a
    total density within 1 (True) and a utilization overrun (False), and
    then `feasible_past_gates`, as the oracle's bins and `verify_partition`
    apply them."""
    if sum(map(view.span_share.__getitem__, positions)) <= view.span_whole:
        return True
    load = sum(map(view.share.__getitem__, positions))
    if load > view.whole:
        return False
    return feasible_past_gates(view, positions, load)


def subset_feasible(tasks) -> bool:
    """Exact EDF feasibility of a bare task list on one unit-speed
    processor, tested on the list's own integer view; an empty list is
    feasible."""
    if not tasks:
        return True
    return positions_feasible_exact(IntView.of(tasks), range(len(tasks)))


def tightened_utilizations(ts) -> dict[int, Fraction]:
    """Reference for the paper's tightening transform, on Fractions: by
    task id, the utilization C/min(D, T) of the implicit-deadline task
    that keeps C and takes min(D, T) as deadline and period."""
    return {tsk.id: tsk.c / min(tsk.d, tsk.t) for tsk in ts}
