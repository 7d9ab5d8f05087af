"""Partitioning heuristics: deadline-monotonic fitting and the
transform-then-pack greedy.

Both place each task by one inline scan of the open bins, on int sums
that every bin keeps as it grows, with no per-task container: first fit
stops at the first bin that admits the task, best fit keeps the admitting
bin of largest load seen so far and worst fit the one of smallest.  Both
are deterministic: a later bin replaces the pick only on a strictly
better load, so every tie among equally preferred bins goes to the lowest
bin index, and the deadline-monotonic order breaks equal deadlines by
task id.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .model import TaskSet, require_valid


class Strategy(Enum):
    FIRST_FIT = "ff"
    BEST_FIT = "bf"
    WORST_FIT = "wf"


@dataclass(frozen=True)
class Partition:
    """Assignment of task ids to processors; bins keep creation order."""

    bins: tuple[tuple[int, ...], ...]
    algorithm: str
    strategy: Optional[str] = None

    @property
    def m(self) -> int:
        return len(self.bins)


# best fit maximizes a bin's load and worst fit its negation; first fit
# takes the first admitting bin, so its sign never matters
_SIGN = {Strategy.FIRST_FIT: 0, Strategy.BEST_FIT: 1, Strategy.WORST_FIT: -1}


def _dm_positions(ts: TaskSet) -> list[int]:
    """Positions in deadline-monotonic order: nondecreasing deadline, equal
    deadlines by task id, sorted on the set's integer view.

    Id order (= input order) is what makes the known worst-case families
    reproduce their published fitting traces, since those constructions
    index tasks in deadline order with ties.
    """
    view, tasks = ts.ints, ts.tasks
    return sorted(range(len(tasks)), key=lambda i: (view.d[i], tasks[i].id))


def dm_partition(ts: TaskSet, strat: Strategy) -> Partition:
    """Deadline-monotonic partitioning with a first/best/worst-fit strategy.

    Tasks are considered in `_dm_positions` order; each is placed on an
    open processor that admits it, chosen by the strategy's preference
    over the bins' approximate demand at the task's deadline, or on a new
    processor if none admits it.  A bin admits the task when its total
    utilization stays within one processor and its dbf* at the task's
    deadline leaves room for the task's execution time.  Every bin
    deadline is at most the task's, so that dbf* is the sum of the bin's
    dbf* lines on the set's integer view (`IntView.offset`): each bin
    keeps the sums of their slopes and intercepts, and a placement is one
    scan of the M open bins with no per-task dict, which first fit stops
    at the first bin that admits the task.
    """
    require_valid(ts)
    view = ts.ints
    whole = view.whole
    sign = _SIGN[strat]
    bins: list[list[int]] = []
    u_sums: list[int] = []  # per bin: sum of share
    a_sums: list[int] = []  # per bin: sum of offset
    best = 0
    for pos in _dm_positions(ts):
        d, share = view.d[pos], view.share[pos]
        u_room, room = whole - share, (d - view.c[pos]) * whole
        pick = -1
        for i, u_sum in enumerate(u_sums):
            load = u_sum * d + a_sums[i]  # the bin's dbf* at d
            if u_sum <= u_room and load <= room and (pick < 0 or sign * load > best):
                pick, best = i, sign * load
                if not sign:
                    break
        if pick < 0:
            pick = len(bins)
            bins.append([])
            u_sums.append(0)
            a_sums.append(0)
        bins[pick].append(ts.tasks[pos].id)
        u_sums[pick] += share
        a_sums[pick] += view.offset[pos]
    return Partition(
        bins=tuple(tuple(sorted(b)) for b in bins),
        algorithm="dm",
        strategy=strat.value,
    )


def dagger_greedy(ts: TaskSet, fitting: Strategy) -> Partition:
    """Greedy packing on the utilizations of the tightened task set.

    Each task contributes C/min(T, D); a bin accepts a task iff its load
    stays at most 1, which keeps every bin EDF-feasible for the original
    tasks.  Tasks go in input order.  Loads are sums of the view's
    density terms, ints over one common denominator, `span_whole`, the lcm
    of the tightened periods.
    """
    require_valid(ts)
    view = ts.ints
    whole = view.span_whole
    sign = _SIGN[fitting]
    bins: list[list[int]] = []
    loads: list[int] = []
    best = 0
    for tsk, u in zip(ts.tasks, view.span_share):
        room = whole - u
        pick = -1
        for i, load in enumerate(loads):
            if load <= room and (pick < 0 or sign * load > best):
                pick, best = i, sign * load
                if not sign:
                    break
        if pick < 0:
            pick = len(bins)
            bins.append([])
            loads.append(0)
        bins[pick].append(tsk.id)
        loads[pick] += u
    return Partition(
        bins=tuple(tuple(sorted(b)) for b in bins),
        algorithm="dagger",
        strategy=fitting.value,
    )
