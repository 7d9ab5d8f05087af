"""Partitioning heuristics: deadline-monotonic fitting and the
transform-then-pack greedy.

Both are deterministic: every tie among equally preferred bins is broken by
the lowest bin index, and the deadline-monotonic order breaks equal
deadlines by task id.
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


def _pick(strategy: Strategy, loads: dict[int, int]) -> int:
    """The bin `strategy` chooses among the admitting bins, given as
    bin index -> load: first fit the lowest index, best fit the largest
    load and worst fit the smallest, ties to the lowest index."""
    if strategy is Strategy.FIRST_FIT:
        return min(loads)
    if strategy is Strategy.BEST_FIT:
        return max(loads, key=lambda i: (loads[i], -i))
    return min(loads, key=lambda i: (loads[i], i))


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
    keeps the sums of their slopes and intercepts, and a placement costs
    O(M) for M open bins.
    """
    require_valid(ts)
    view = ts.ints
    whole = view.whole
    bins: list[list[int]] = []
    sums: list[list[int]] = []  # per bin: sum of share, sum of offset
    for pos in _dm_positions(ts):
        d, share = view.d[pos], view.share[pos]
        u_room, room = whole - share, (d - view.c[pos]) * whole
        loads: dict[int, int] = {}  # bin -> dbf* at d, admitting bins only
        for i, (u_sum, a_sum) in enumerate(sums):
            load = u_sum * d + a_sum
            if u_sum <= u_room and load <= room:
                loads[i] = load
        if not loads:
            bins.append([])
            sums.append([0, 0])
            pick = len(bins) - 1
        else:
            pick = _pick(strat, loads)
        bins[pick].append(ts.tasks[pos].id)
        sums[pick][0] += share
        sums[pick][1] += view.offset[pos]
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
    bins: list[list[int]] = []
    loads: list[int] = []
    for tsk, u in zip(ts.tasks, view.span_share):
        fits = {i: load for i, load in enumerate(loads) if load + u <= whole}
        if not fits:
            bins.append([tsk.id])
            loads.append(u)
            continue
        pick = _pick(fitting, fits)
        bins[pick].append(tsk.id)
        loads[pick] += u
    return Partition(
        bins=tuple(tuple(sorted(b)) for b in bins),
        algorithm="dagger",
        strategy=fitting.value,
    )
