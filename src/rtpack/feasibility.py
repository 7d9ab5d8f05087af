"""Exact uniprocessor EDF feasibility via the processor-demand criterion.

Three exact entry points share one sweep kernel: `edf_feasible_exact`
tests a task set at a speed and reports a witness (the `check` command);
`bin_feasible` decides one bin of a partition at unit speed, for the
oracle's search and for `verify_partition`, which tests every bin of a
partition.  `lemma1_feasible` is a closed form for one shape of set.
Every verdict here is exact; the dbf* admission of deadline-monotonic
fitting lives in `partitioners`.

The demand criterion quantifies over all t >= 0; only the deadline points
k*T_i + D_i matter because the demand is a right-continuous step function
that changes nowhere else.  One bound caps the sweep at every total
utilization U, each clamped below by the largest deadline D_max.
Below the speed it is the standard busy-interval bound
sum (T_i - D_i) * u_i / (speed - U); at exactly the speed the demand
repeats with the hyperperiod, so hyperperiod + D_max suffices.  Above the
speed it is sum u_i * D_i / (U - speed): for t >= D_max,
dbf(t) > U * t - sum u_i * D_i, which is at least speed * t from the bound
on, so the last deadline point at or below the bound fails.  The sweep
reaches that point, because the fast-forward never jumps in the last
segment, whose slope U exceeds the speed.  Infeasible sets therefore
always come with a witness point within the bound at which the demand
exceeds speed * t.

Integer scaling.  A task set holds C, D and T multiplied by L, its
`TaskSet.scale`, the lcm of all their denominators, computed once per
set.  The kernel, `_sweep_first_failure`, reads C, D, T and the shares
of the tested positions from the set in place, with no per-test
copies.  One pass over the positions in deadline order yields the dbf*
segments below and the sums the bound needs: D_max, the load (the sum
of the shares) and sum (T_i - D_i) * share_i; only above the speed is
sum D_i * share_i taken, from the sum of the C_i.  The kernel returns
the bound with its verdict; at U equal to the speed it computes the
hyperperiod, and refuses one past DEFAULT_HYPERPERIOD_CAP, before it
tests any point.  Deadline points, demands, the hyperperiod and
the horizon are then Python ints: a point lies past the horizon iff it
exceeds floor(bound * L), and speed p/q covers the demand at t iff
q * demand <= p * t.  A subset tested at its set's L, a multiple of its
own, decides and counts exactly as at its own: every compared quantity
scales by the same positive factor.  Only a reported witness or horizon
is turned back into a fraction.

Bin decisions.  `bin_feasible` is the one test of a bin: its position
bitmask in the set, with the sums of its `span_share` and `share`, which
the oracle keeps as a bin grows and `verify_partition` adds up per bin.
Two O(1) gates come first.  The density accept: dbf_i(t) <=
t * C_i / min(D_i, T_i) at every t, for any deadline class, so a bin
whose density sum is within `span_whole` is feasible without a sweep.
The share refusal: a bin whose share sum passes `whole` has U above 1
and is infeasible.  Every other bin's verdict is read from the verdict
store, and on a miss decided by `feasible_past_gates`, the two-task step
below and then the sweep, and stored.  The witness-producing
`edf_feasible_exact` applies no gate and always sweeps.

Verdict store.  A bin's verdict depends only on its set of positions in
the task set, so the bench gives each instance one store: a plain dict from a
bin's position bitmask to its verdict, which `verify_partition` fills for
every partition of the instance and the oracle's search then reads and
extends as its memo.  The store lives for one instance and is dropped
with it; it is never kept on the task set.  It holds only
verdicts of bins past both O(1) gates, so within one instance no bin
reaches `feasible_past_gates` twice.  Coverage faults raise on every call
and are never stored.

Two tasks.  A pair that neither the density accept nor the share refusal
decides is, where its U is below 1, mostly decided in O(1) by
`feasible_past_gates`.  Name the tasks so that D_a <= D_b.  Each
task alone is feasible, as C <= min(D, T), and before D_b only task a has
demand, so only points t >= D_b can fail.  From D_b on both dbf* lines
apply: where offset_a + offset_b <= D_b * (whole - load), dbf* stays
within t at D_b and, its slope U being below 1, at every later t, so the
pair is feasible; this is the threshold the kernel computes at its last
kink.  Where C_b + C_a * (floor((D_b - D_a) / T_a) + 1), the demand at
D_b, exceeds D_b, D_b is a failing point.  Every other pair is swept.  At
U = 1 the pair is always swept, so that a hyperperiod past
DEFAULT_HYPERPERIOD_CAP still raises HorizonOverflow.

Incremental demand.  The points of all tasks come off one heap in
ascending order.  Every heap entry equal to t is popped before t is
tested, and each adds its task's C to a running exact demand, so a point
costs O(log N) heap work instead of N demand-bound evaluations; the sum is
recomputed only after a fast-forward.

Fast-forward by dbf* thresholds.  Between two task deadlines, the kinks,
the linear demand approximation dbf* is affine, U_k * t + A_k: the sum
of the set's dbf* lines (`TaskSet.offset`) over the tasks with deadline
at or before the segment's start.  When U_k <= speed, dbf* <= speed * t
holds from the integer threshold ceil(A_k / (speed - U_k)) to the segment's
end, and as dbf <= dbf* every point there is certified at once.  The
sweep starts, and restarts after each certified point, at the first kink
whose threshold lies past the kink itself: each kink passed over is
certified from its start and counts as one checked point, and the
restart puts every task at its first point at or after that kink, with
the demand of the points before it.  A set certified at every kink is
decided without a heap, in as many points as it has distinct deadlines.
This never changes the decided predicate or the points counted, it only
avoids touching points that cannot fail.
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
from .model import TaskSet, require_valid
from .partitioners import Partition

DEFAULT_POINT_CAP = 10**7
DEFAULT_HYPERPERIOD_CAP = 2**64
_UNIT_SPEED = Fraction(1)


@dataclass(frozen=True)
class FeasibilityVerdict:
    feasible: bool
    witness: Optional[Fraction]
    horizon: Fraction
    points_checked: int


def _fraction(ts: TaskSet, num: int, den: int = 1) -> Fraction:
    """num/den at the set's scale, in time units."""
    return Fraction(num, den * ts.scale)


def _explosion(ts: TaskSet, point_cap: int, bound: tuple[int, int]) -> PointExplosion:
    return PointExplosion(
        f"demand sweep exceeded {point_cap} points before {_fraction(ts, *bound)}"
    )


def _sweep_first_failure(
    ts: TaskSet,
    positions: Sequence[int],
    speed: Fraction,
    point_cap: int,
) -> tuple[Optional[int], int, tuple[int, int]]:
    """(witness, points checked, bound) of the tasks at `positions` of
    `ts` at `speed`: the first deadline point with demand > speed * t,
    scanning (0, bound], all at the set's scale.  The bound (num, den) is
    computed before any point is tested, from the pass that finds the
    kinks (see the module docstring); at U equal to the speed the tasks'
    own hyperperiod must stay within DEFAULT_HYPERPERIOD_CAP.  The sweep
    starts, and after each certified point restarts, at the first kink
    from which dbf* does not certify its segment."""
    cost, deadline, period = ts.c, ts.d, ts.t
    share, intercept, whole = ts.share, ts.offset, ts.whole
    s_num, s_den = speed.numerator, speed.denominator

    # Segment k covers [kinks[k], kinks[k+1]).  From ff_at[k] on, dbf* of
    # the segment stays at or below speed * t; `never` marks segments
    # whose slope exceeds the speed.  Where a point is below ff_at[k], the
    # exact demand decides: a dbf* pass there would be an exact pass too,
    # as dbf <= dbf*.  As T * share = C * whole, at the end `offset` is
    # sum (T - D) * share and sum C * whole - `offset` is sum D * share.
    kinks: list[int] = []
    ff_at: list[int | float] = []
    never = math.inf
    slope = offset = 0  # U_k and A_k of the segment, times whole
    capacity = s_num * whole
    for i in sorted(positions, key=deadline.__getitem__):
        slope += share[i]
        offset += intercept[i]
        room = capacity - s_den * slope
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

    d_max = kinks[-1]  # and `room` is now s_den * (speed * whole - load)
    if room == 0:
        own = math.lcm(*(period[i] for i in positions))
        if own > DEFAULT_HYPERPERIOD_CAP * ts.scale:
            hp = Fraction(own, ts.scale)
            raise HorizonOverflow(
                f"hyperperiod {hp} exceeds cap {DEFAULT_HYPERPERIOD_CAP}"
            )
        bound = own + d_max, 1
    else:
        # below the speed sum (T - D) * share, above it sum D * share
        slack = s_den * (offset if room > 0 else sum(map(cost.__getitem__, positions)) * whole - offset)
        room = abs(room)
        bound = (d_max, 1) if d_max * room >= slack else (slack, room)
    horizon = bound[0] // bound[1]

    push = heapq.heapreplace
    checked = 0
    seg = 0
    while True:
        # restart at the first kink whose segment dbf* does not certify
        # from its start; each kink passed over is one checked point
        while seg <= last_seg and ff_at[seg] <= kinks[seg]:
            checked += 1
            if checked > point_cap:
                raise _explosion(ts, point_cap, bound)
            seg += 1
        if seg > last_seg:
            return None, checked, bound
        # each task at its first point at or after the kink, with the
        # demand of its points before it: ceil((target - D) / T) jobs
        target = kinks[seg]
        heap = []
        demand = 0  # exact demand at `point`, at scale
        for i in positions:
            d = deadline[i]
            if d < target:
                jobs = -((d - target) // period[i])
                demand += jobs * cost[i]
                d += jobs * period[i]
            heap.append((d, i))
        heapq.heapify(heap)
        while True:
            point = heap[0][0]
            while heap[0][0] == point:
                i = heap[0][1]
                push(heap, (point + period[i], i))
                demand += cost[i]
            if point > horizon:
                return None, checked, bound
            checked += 1
            if checked > point_cap:
                raise _explosion(ts, point_cap, bound)
            while seg < last_seg and kinks[seg + 1] <= point:
                seg += 1
            if point >= ff_at[seg]:
                seg += 1
                break
            if s_den * demand > s_num * point:
                return point, checked, bound


def feasible_past_gates(ts: TaskSet, positions: Sequence[int], load: int) -> bool:
    """Exact EDF feasibility of the tasks at `positions` of `ts`, whose
    share sum is `load`, on one unit-speed processor, without witness
    search, for a subset that neither O(1) gate decides: its density sum
    exceeds `span_whole` and `load` is at most `whole`.  Two tasks of U
    below 1 are mostly decided at their later deadline (see "Two tasks"
    in the module docstring); the rest are swept.  `bin_feasible` applies
    the gates and calls it.
    """
    whole = ts.whole
    if len(positions) == 2 and load < whole:
        a, b = positions
        d = ts.d
        if d[b] < d[a]:  # D_a <= D_b; equal deadlines keep position order
            a, b = b, a
        d_b = d[b]
        if ts.offset[a] + ts.offset[b] <= d_b * (whole - load):
            return True
        if ts.c[b] + ts.c[a] * ((d_b - ts.d[a]) // ts.t[a] + 1) > d_b:
            return False
    witness, _, _ = _sweep_first_failure(
        ts, positions, _UNIT_SPEED, DEFAULT_POINT_CAP
    )
    return witness is None


def _positions(mask: int) -> list[int]:
    """The positions whose bits are set in `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def bin_feasible(
    ts: TaskSet, mask: int, density: int, load: int, store: dict[int, bool]
) -> bool:
    """Exact EDF feasibility, on one unit-speed processor, of the bin
    `mask` of `ts` whose sums of `span_share` and `share` are `density`
    and `load`: the density accept, the share refusal, and then the
    verdict in `store`, on a miss decided by `feasible_past_gates` and
    stored (see "Bin decisions" in the module docstring)."""
    if density <= ts.span_whole:
        return True
    if load > ts.whole:
        return False
    verdict = store.get(mask)
    if verdict is None:
        verdict = store[mask] = feasible_past_gates(ts, _positions(mask), load)
    return verdict


def edf_feasible_exact(
    ts: TaskSet,
    speed: Fraction = Fraction(1),
    point_cap: int = DEFAULT_POINT_CAP,
) -> FeasibilityVerdict:
    """Exact EDF test on one processor running at `speed`.

    Feasible iff total utilization is at most the speed and the summed
    demand stays within speed * t at every deadline point up to the sweep
    bound.  Infeasible verdicts carry the smallest failing point.
    """
    require_valid(ts)
    if speed <= 0:
        raise BadParam(f"speed must be positive, got {speed}")
    if point_cap < 1:
        raise BadParam(f"point cap must be at least 1, got {point_cap}")
    witness, checked, bound = _sweep_first_failure(
        ts, range(len(ts)), speed, point_cap
    )
    return FeasibilityVerdict(
        witness is None,
        None if witness is None else _fraction(ts, witness),
        _fraction(ts, *bound),
        checked,
    )


def lemma1_feasible(ts: TaskSet) -> bool:
    """Closed-form EDF test for sets of strictly constrained tasks with
    common deadline 1 plus implicit tasks sharing a period that is an
    integer multiple of every strict task's period.

    Feasible iff the strict execution times sum to at most 1 and the total
    utilization is at most 1.  Raises ShapeMismatch when the structure does
    not apply (callers fall back to the exact test).  Decided on the set's
    ints: a task is strict when D < T and implicit when D = T, and
    the deadline 1 is `scale`.
    """
    require_valid(ts)
    scale = ts.scale
    if any(d > t for d, t in zip(ts.d, ts.t)):
        raise ShapeMismatch("tasks with D > T do not fit the common-deadline shape")
    strict = [(c, d, t) for c, d, t in zip(ts.c, ts.d, ts.t) if d < t]
    if any(d != scale for _, d, _ in strict):
        raise ShapeMismatch("strictly constrained tasks must share deadline 1")
    periods = {t for d, t in zip(ts.d, ts.t) if d == t}
    if len(periods) > 1:
        raise ShapeMismatch("implicit tasks must share one period")
    for period in periods:
        for _, _, t in strict:
            if period % t:
                raise ShapeMismatch(
                    f"implicit period {Fraction(period, scale)} is not an integer"
                    f" multiple of {Fraction(t, scale)}"
                )
    strict_work = sum(c for c, _, _ in strict)
    return strict_work <= scale and sum(ts.share) <= ts.whole


def verify_partition(
    ts: TaskSet, part: Partition, store: Optional[dict[int, bool]] = None
) -> bool:
    """True iff `part` is a partition of `ts` whose every bin is
    EDF-feasible on one processor.

    Coverage is checked on every call, before any verdict is read.  Each
    bin is then decided by `bin_feasible` through `store`, the instance's
    verdict store (see the module docstring); without one, a fresh store
    is used for this call.
    """
    require_valid(ts)
    n, span_share, share = len(ts), ts.span_share, ts.share
    bins: list[tuple[int, int, int]] = []  # (bitmask, density sum, share sum)
    seen = 0
    for b in part.bins:
        if not b:
            raise CoverageError("empty bin in partition")
        mask = density = load = 0
        for tid in b:
            if tid.__class__ is not int or not 0 < tid <= n:
                raise CoverageError(f"unknown task id {tid} in partition")
            pos = tid - 1
            bit = 1 << pos
            if seen & bit:
                raise CoverageError(f"task id {tid} assigned twice")
            seen |= bit
            mask |= bit
            density += span_share[pos]
            load += share[pos]
        bins.append((mask, density, load))
    if seen != (1 << n) - 1:
        missing = [i + 1 for i in range(n) if not seen >> i & 1]
        raise CoverageError(f"partition misses task ids {missing}")
    if store is None:
        store = {}
    for mask, density, load in bins:
        if not bin_feasible(ts, mask, density, load, store):
            return False
    return True
