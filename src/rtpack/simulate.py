"""Event-driven preemptive EDF simulation on exact integer time.

All first jobs are released synchronously at time 0 and every later job as
early as its period allows, which is the worst-case arrival pattern for
sporadic tasks.  Ties in absolute deadline go to the smaller task id; that
choice never affects whether deadlines are met, it only pins the trace.
A job that reaches its deadline unfinished is recorded as a miss and
dropped, so later behavior stays meaningful.

The loop runs on the set's ints, in ticks of 1/(scale * p * hd)
time units at speed p/q and a horizon of denominator hd: a job of cost C
takes C * scale * q * hd ticks, one unit of work each, so no step divides.
Missed deadlines and idle intervals become exact rationals only in the
returned trace.  The simulator shares no code with the demand sweep that
it cross-checks.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from .errors import BadParam, EventExplosion
from .model import TaskSet, require_valid

DEFAULT_EVENT_CAP = 10**6


@dataclass(frozen=True)
class SimTrace:
    horizon: Fraction
    misses: tuple[tuple[int, Fraction], ...]
    preemptions: int
    idle: tuple[tuple[Fraction, Fraction], ...]

    @property
    def schedulable(self) -> bool:
        return not self.misses


def simulate_edf_synchronous(
    ts: TaskSet,
    horizon: Fraction,
    speed: Fraction = Fraction(1),
    event_cap: int = DEFAULT_EVENT_CAP,
) -> SimTrace:
    """Simulate preemptive EDF over [0, horizon] at the given speed.

    Returns every deadline miss whose absolute deadline lies in the window,
    the number of preemptions of unfinished jobs, and the idle intervals.
    """
    require_valid(ts)
    if horizon <= 0:
        raise BadParam(f"horizon must be positive, got {horizon}")
    if speed <= 0:
        raise BadParam(f"speed must be positive, got {speed}")
    if event_cap < 1:
        raise BadParam(f"event cap must be at least 1, got {event_cap}")

    p, q, hd = speed.numerator, speed.denominator, horizon.denominator
    unit = ts.scale * p * hd
    end = horizon.numerator * ts.scale * p
    work = [c * q * hd for c in ts.c]
    due_in = [d * p * hd for d in ts.d]
    period = [t * p * hd for t in ts.t]
    releases = [(0, tid, i) for i, tid in enumerate(ts.ids)]
    # ready jobs [abs deadline, task id, work left]; no two share (deadline, id)
    ready: list[list[int]] = []
    misses: list[tuple[int, int]] = []
    idle: list[tuple[int, int]] = []
    current: list[int] | None = None
    now = events = preemptions = 0

    while now < end:
        while releases[0][0] <= now:
            release, tid, i = releases[0]
            heapq.heappush(ready, [release + due_in[i], tid, work[i]])
            heapq.heapreplace(releases, (release + period[i], tid, i))
        events += 1
        if events > event_cap:
            raise EventExplosion(f"simulation exceeded {event_cap} events")

        upcoming = min(releases[0][0], end)
        if not ready:
            idle.append((now, upcoming))
            now = upcoming
            continue

        job = ready[0]
        due, tid, left = job
        if current is not None and current is not job:
            preemptions += 1
        step = min(now + left, upcoming, due)
        job[2] -= step - now
        now = step
        current = job
        if job[2] == 0 or now == due:
            if job[2]:
                misses.append((tid, due))
            heapq.heappop(ready)
            current = None
        # any waiting job whose deadline passed while another ran has the
        # earliest deadline, so it becomes `job` before its deadline elapses;
        # only the head of the queue can ever reach its deadline.

    # a job can reach its deadline exactly when the window closes
    misses += [(tid, due) for due, tid, _ in sorted(ready) if due <= end]

    return SimTrace(
        horizon=horizon,
        misses=tuple((tid, Fraction(due, unit)) for tid, due in misses),
        preemptions=preemptions,
        idle=tuple((Fraction(a, unit), Fraction(b, unit)) for a, b in idle),
    )
