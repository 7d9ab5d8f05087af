"""Exact uniprocessor EDF feasibility via the processor-demand criterion.

The demand criterion quantifies over all t >= 0; only the deadline points
k*T_i + D_i matter because the demand is a right-continuous step function
that changes nowhere else.  For total utilization strictly below the speed
the standard busy-interval bound caps the sweep; at exactly the speed the
hyperperiod plus the largest deadline does.  Infeasible sets always come
with a witness point at which the demand provably exceeds speed * t.

Integer scaling.  A task set's integer view (`TaskSet.ints`) holds C, D
and T multiplied by L, the lcm of all their denominators, computed once
per set; a test reads the tasks it needs by position.  Deadline points,
demands, the hyperperiod and the horizon are then Python ints: a point
lies past the horizon iff it exceeds floor(bound * L), and speed p/q
covers the demand at t iff q * demand <= p * t.  A subset tested at its
set's L, a multiple of its own, decides and counts exactly as at its own:
every compared quantity scales by the same positive factor.  Only a
reported witness or horizon is turned back into a fraction.

Density accept.  dbf_i(t) <= t * C_i / min(D_i, T_i) at every t, for any
deadline class, so a set whose total density sum C_i / min(D_i, T_i) is at
most the speed is feasible without a sweep.  The subset test of the oracle
and of partition verification (`positions_feasible_exact`) returns True
there, compared on ints by cross-multiplying; the witness-producing test
(`edf_feasible_exact`) always sweeps.

Incremental demand.  The points of all tasks come off one heap in
ascending order.  Every heap entry equal to t is popped before t is
tested, and each adds its task's C to a running exact demand, so a point
costs O(log N) heap work instead of N demand-bound evaluations; the sum is
recomputed only after a fast-forward.

Fast-forward by dbf* thresholds.  Between two task deadlines the linear
demand approximation dbf* is affine, U_k * t + A_k, where U_k sums u_i and
A_k sums C_i - u_i * D_i over the tasks with deadline at or before the
segment's start.  When U_k <= speed, dbf* <= speed * t holds from the
integer threshold ceil(A_k / (speed - U_k)) to the segment's end, and as
dbf <= dbf* every point there is certified at once: the sweep jumps to
the next task deadline.  This never changes the decided predicate or the
points visited, it only avoids touching points that cannot fail.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    BadParam,
    CoverageError,
    HorizonOverflow,
    PointExplosion,
    ShapeMismatch,
)
from .model import IntView, Task, TaskSet, require_valid
from .partitioners import Partition, _dm_terms, _fit_load

DEFAULT_POINT_CAP = 10**7
DEFAULT_HYPERPERIOD_CAP = Fraction(2**64)


class Mode(Enum):
    EXACT = "exact"
    APPROXIMATE = "approximate"


@dataclass(frozen=True)
class FeasibilityVerdict:
    feasible: bool
    witness: Optional[Fraction]
    horizon: Fraction
    points_checked: int


class _Scaled:
    """The tasks at `positions` of an integer view: C, D and T at the
    view's `scale`, so that every deadline point is an integer.

    `whole` is the view's hyperperiod, a multiple of these tasks' own,
    `share[i]` is u_i * whole and `load` is U * whole, all integers read
    from the view.  A bound comes back as a pair (num, den): the bound
    times `scale` is num/den.
    """

    def __init__(self, view: IntView, positions: Sequence[int]):
        self.scale = view.scale
        self.cost = [view.c[i] for i in positions]
        self.deadline = [view.d[i] for i in positions]
        self.period = [view.t[i] for i in positions]
        self.whole = view.whole
        self.share = [view.share[i] for i in positions]
        self.load = sum(self.share)

    def exceeds(self, speed: Fraction) -> bool:
        """Total utilization above the speed."""
        return speed.denominator * self.load > speed.numerator * self.whole

    def horizon(self, speed: Fraction, hyperperiod_cap: Fraction) -> tuple[int, int]:
        """The sweep bound of `test_horizon`."""
        if self.exceeds(speed):
            raise BadParam(
                f"utilization {Fraction(self.load, self.whole)} exceeds speed {speed};"
                " no finite horizon bounds an unconditionally failing set"
            )
        d_max = max(self.deadline)
        room = speed.numerator * self.whole - speed.denominator * self.load
        if room == 0:
            # the demand repeats with these tasks' own hyperperiod
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

    def overshoot_bound(self, speed: Fraction) -> tuple[int, int]:
        """For U > speed: every t past this bound has demand at least
        U*t - sum(u_i * D_i) > speed * t."""
        d_max = max(self.deadline)
        excess = speed.denominator * self.load - speed.numerator * self.whole
        overshoot = speed.denominator * sum(
            d * u for d, u in zip(self.deadline, self.share)
        )
        return (d_max, 1) if d_max * excess >= overshoot else (overshoot, excess)

    def fraction(self, num: int, den: int = 1) -> Fraction:
        """num/den at this scale, in time units."""
        return Fraction(num, den * self.scale)


def test_horizon(
    ts: TaskSet,
    speed: Fraction = Fraction(1),
    hyperperiod_cap: Fraction = DEFAULT_HYPERPERIOD_CAP,
) -> Fraction:
    """Sound sweep bound for the demand criterion at the given speed.

    Requires total utilization at most the speed.  Below it, any failing
    point t satisfies (speed - U) * t < sum (T_i - D_i) * u_i, clamped from
    below by the largest deadline; at equality the demand repeats with
    period lcm(T_i), so hyperperiod + D_max suffices.
    """
    sc = _Scaled(ts.ints, range(len(ts)))
    return sc.fraction(*sc.horizon(speed, hyperperiod_cap))


def deadline_points(
    ts: TaskSet, horizon: Fraction, point_cap: int = DEFAULT_POINT_CAP
) -> list[Fraction]:
    """All points k*T_i + D_i in (0, horizon], sorted and deduplicated."""
    if horizon < 0:
        raise BadParam("horizon must be nonnegative")
    estimate = 0
    for tsk in ts:
        if horizon >= tsk.d:
            estimate += int((horizon - tsk.d) // tsk.t) + 1
    if estimate > point_cap:
        raise PointExplosion(
            f"{estimate} deadline points before horizon {horizon} exceed cap {point_cap}"
        )
    points: set[Fraction] = set()
    for tsk in ts:
        p = tsk.d
        while p <= horizon:
            points.add(p)
            p += tsk.t
    return sorted(points)


def _sweep_first_failure(
    sc: _Scaled,
    speed: Fraction,
    bound: tuple[int, int],
    point_cap: int,
    beyond: bool,
) -> tuple[Optional[int], int]:
    """First deadline point with demand > speed * t, scanning (0, bound],
    at the scale of `sc`.

    With `beyond`, the first point past the bound is also evaluated; callers
    use this when failure beyond the bound is guaranteed by a utilization
    argument, so a witness is always produced.
    """
    cost, deadline, period, share = sc.cost, sc.deadline, sc.period, sc.share
    n = len(cost)
    horizon = bound[0] // bound[1]
    s_num, s_den = speed.numerator, speed.denominator

    # Segment k covers [kinks[k], kinks[k+1]).  From ff_at[k] on, dbf* of
    # the segment stays at or below speed * t (see the module docstring);
    # `never` marks segments whose slope exceeds the speed.  Where a point
    # is below ff_at[k], the exact demand decides: a dbf* pass there would
    # be an exact pass too, as dbf <= dbf*.
    kinks: list[int] = []
    ff_at: list[int] = []
    never = horizon + 1
    slope = offset = 0  # U_k and A_k of the segment, times sc.whole
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
    push = heapq.heapreplace
    demand = 0  # exact demand at `point`, at scale
    checked = 0
    seg = 0
    while True:
        point = heap[0][0]
        while heap[0][0] == point:
            i = heap[0][1]
            push(heap, (point + period[i], i))
            demand += cost[i]
        if point > horizon:
            if not beyond:
                return None, checked
            checked += 1
            if s_den * demand > s_num * point:
                return point, checked
            raise RuntimeError(
                "no failure past the guaranteed bound; unreachable for U > speed"
            )
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
            # jump to the next kink: restart each task at its first point
            # there, with the demand of the points before it
            target = kinks[seg + 1]
            heap = []
            demand = 0
            for i in range(n):
                # points of task i below target: ceil((target - D) / T), or 0
                jobs = max(0, -((deadline[i] - target) // period[i]))
                demand += jobs * cost[i]
                heap.append((deadline[i] + jobs * period[i], i))
            heapq.heapify(heap)
            continue
        if s_den * demand > s_num * point:
            return point, checked


def subset_feasible_exact(
    tasks: Sequence[Task],
    speed: Fraction = Fraction(1),
    point_cap: int = DEFAULT_POINT_CAP,
    hyperperiod_cap: Fraction = DEFAULT_HYPERPERIOD_CAP,
) -> bool:
    """Exact EDF feasibility of a bare task list, without witness search."""
    if not tasks:
        return True
    return positions_feasible_exact(
        IntView.of(tasks), range(len(tasks)), speed, point_cap, hyperperiod_cap
    )


def positions_feasible_exact(
    view: IntView,
    positions: Sequence[int],
    speed: Fraction = Fraction(1),
    point_cap: int = DEFAULT_POINT_CAP,
    hyperperiod_cap: Fraction = DEFAULT_HYPERPERIOD_CAP,
) -> bool:
    """`subset_feasible_exact` of the tasks at `positions` of `view`.

    This is the inner loop of the oracle and of partition verification: a
    total density within the speed returns True and a utilization overrun
    returns False, both before any sweep, and nothing is rescaled per
    subset.
    """
    span_share = view.span_share
    density = sum(span_share[i] for i in positions)
    if speed.denominator * density <= speed.numerator * view.span_whole:
        return True
    sc = _Scaled(view, positions)
    if sc.exceeds(speed):
        return False
    bound = sc.horizon(speed, hyperperiod_cap)
    witness, _ = _sweep_first_failure(sc, speed, bound, point_cap, beyond=False)
    return witness is None


def edf_feasible_exact(
    ts: TaskSet,
    speed: Fraction = Fraction(1),
    point_cap: int = DEFAULT_POINT_CAP,
    hyperperiod_cap: Fraction = DEFAULT_HYPERPERIOD_CAP,
) -> FeasibilityVerdict:
    """Exact EDF test on one processor running at `speed`.

    Feasible iff total utilization is at most the speed and the summed
    demand stays within speed * t at every deadline point up to the sweep
    bound.  Infeasible verdicts carry the smallest failing point.
    """
    require_valid(ts)
    if speed <= 0:
        raise BadParam(f"speed must be positive, got {speed}")
    sc = _Scaled(ts.ints, range(len(ts)))
    if sc.exceeds(speed):
        bound = sc.overshoot_bound(speed)
        witness, checked = _sweep_first_failure(
            sc, speed, bound, point_cap, beyond=True
        )
    else:
        bound = sc.horizon(speed, hyperperiod_cap)
        witness, checked = _sweep_first_failure(
            sc, speed, bound, point_cap, beyond=False
        )
    return FeasibilityVerdict(
        witness is None,
        None if witness is None else sc.fraction(witness),
        sc.fraction(*bound),
        checked,
    )


def lemma1_feasible(ts: TaskSet) -> bool:
    """Closed-form EDF test for sets of strictly constrained tasks with
    common deadline 1 plus implicit tasks sharing a period that is an
    integer multiple of every strict task's period.

    Feasible iff the strict execution times sum to at most 1 and the total
    utilization is at most 1.  Raises ShapeMismatch when the structure does
    not apply (callers fall back to the exact test).
    """
    require_valid(ts)
    strict = [tsk for tsk in ts if tsk.d < tsk.t]
    implicit = [tsk for tsk in ts if tsk.d == tsk.t]
    if len(strict) + len(implicit) != len(ts):
        raise ShapeMismatch("tasks with D > T do not fit the common-deadline shape")
    if any(tsk.d != 1 for tsk in strict):
        raise ShapeMismatch("strictly constrained tasks must share deadline 1")
    if implicit:
        period = implicit[0].t
        if any(tsk.t != period for tsk in implicit):
            raise ShapeMismatch("implicit tasks must share one period")
        for tsk in strict:
            ratio = period / tsk.t
            if ratio.denominator != 1:
                raise ShapeMismatch(
                    f"implicit period {period} is not an integer multiple of {tsk.t}"
                )
    strict_work = sum((tsk.c for tsk in strict), Fraction(0))
    return strict_work <= 1 and ts.total_utilization <= 1


def approx_subset_feasible(tasks: Sequence[Task]) -> bool:
    """Approximate-admission verdict for a complete bin."""
    return positions_feasible_approx(IntView.of(tasks), range(len(tasks)))


def positions_feasible_approx(view: IntView, positions: Sequence[int]) -> bool:
    """Approximate-admission verdict for the tasks at `positions` of `view`.

    Replays the deadline-monotonic admission: in nondecreasing-deadline
    order every task must fit the approximate demand of its predecessors at
    its own deadline, and the bin utilization must stay at most 1.  The
    order among equal deadlines does not matter: the last of them sees the
    largest demand, the same sum in any order.
    """
    terms = _dm_terms(view, positions)
    u_sum = a_sum = 0
    for i in sorted(positions, key=view.d.__getitem__):
        _, _, _, share, offset = term = terms[i]
        if _fit_load(u_sum, a_sum, term) is None:
            return False
        u_sum += share
        a_sum += offset
    return True


def verify_partition(
    ts: TaskSet,
    part: Partition,
    mode: Mode = Mode.EXACT,
    point_cap: int = DEFAULT_POINT_CAP,
    hyperperiod_cap: Fraction = DEFAULT_HYPERPERIOD_CAP,
) -> bool:
    """True iff `part` is a partition of `ts` whose every bin passes the
    selected per-processor test."""
    require_valid(ts)
    position = {tsk.id: i for i, tsk in enumerate(ts)}
    seen: set[int] = set()
    for b in part.bins:
        if not b:
            raise CoverageError("empty bin in partition")
        for tid in b:
            if tid not in position:
                raise CoverageError(f"unknown task id {tid} in partition")
            if tid in seen:
                raise CoverageError(f"task id {tid} assigned twice")
            seen.add(tid)
    if len(seen) != len(position):
        missing = sorted(position.keys() - seen)
        raise CoverageError(f"partition misses task ids {missing}")
    view = ts.ints
    for b in part.bins:
        positions = [position[tid] for tid in b]
        if mode is Mode.EXACT:
            ok = positions_feasible_exact(
                view, positions, point_cap=point_cap, hyperperiod_cap=hyperperiod_cap
            )
        else:
            ok = positions_feasible_approx(view, positions)
        if not ok:
            return False
    return True
