"""Event-driven preemptive EDF simulation on exact rational time.

All first jobs are released synchronously at time 0 and every later job as
early as its period allows, which is the worst-case arrival pattern for
sporadic tasks.  Ties in absolute deadline go to the smaller task id; that
choice never affects whether deadlines are met, it only pins the trace.
A job that reaches its deadline unfinished is recorded as a miss and
dropped, so later behavior stays meaningful.
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
        # any waiting job whose deadline passed while another ran has the
        # earliest deadline, so it becomes `job` before its deadline elapses;
        # only the head of the queue can ever reach its deadline.

        if now < horizon:
            release_due(now)

    # a job can reach its deadline exactly when the window closes
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
