"""Exact uniprocessor EDF feasibility via the processor-demand criterion.

Three exact entry points share one sweep kernel: `edf_feasible_exact`
tests a task set at a speed and reports a witness (the `check` command);
`positions_feasible_exact` tests the tasks at some positions of a set's
integer view at unit speed (the oracle's bin test); `verify_partition`
tests every bin of a partition with it.  `lemma1_feasible` is a closed
form for one shape of set.  Every verdict here is exact; the dbf*
admission of deadline-monotonic fitting lives in `partitioners`.

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
most the speed is feasible without a sweep.  `positions_feasible_exact`
returns True there, compared on ints; the witness-producing
`edf_feasible_exact` always sweeps.

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
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    BadParam,
    CoverageError,
    HorizonOverflow,
    PointExplosion,
    ShapeMismatch,
)
from .model import IntView, TaskSet, require_valid
from .partitioners import Partition

DEFAULT_POINT_CAP = 10**7
DEFAULT_HYPERPERIOD_CAP = Fraction(2**64)
_UNIT_SPEED = Fraction(1)


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
        """Sound sweep bound for the demand criterion at `speed`, for total
        utilization at most the speed.  Below it, any failing point t
        satisfies (speed - U) * t < sum (T_i - D_i) * u_i, clamped from
        below by the largest deadline; at equality the demand repeats with
        period lcm(T_i), so hyperperiod + D_max suffices."""
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


def positions_feasible_exact(view: IntView, positions: Sequence[int]) -> bool:
    """Exact EDF feasibility of the tasks at `positions` of `view` on one
    unit-speed processor, without witness search.

    This is the inner loop of the oracle and of partition verification: a
    total density within 1 returns True and a utilization overrun returns
    False, both before any sweep, and nothing is rescaled per subset.
    """
    span_share = view.span_share
    if sum(span_share[i] for i in positions) <= view.span_whole:
        return True
    sc = _Scaled(view, positions)
    if sc.exceeds(_UNIT_SPEED):
        return False
    bound = sc.horizon(_UNIT_SPEED, DEFAULT_HYPERPERIOD_CAP)
    witness, _ = _sweep_first_failure(
        sc, _UNIT_SPEED, bound, DEFAULT_POINT_CAP, beyond=False
    )
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


def verify_partition(ts: TaskSet, part: Partition) -> bool:
    """True iff `part` is a partition of `ts` whose every bin is
    EDF-feasible on one processor, by `positions_feasible_exact`."""
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
        if not positions_feasible_exact(view, [position[tid] for tid in b]):
            return False
    return True
