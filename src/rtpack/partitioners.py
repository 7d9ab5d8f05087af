"""Partitioning heuristics: deadline-monotonic fitting on dbf* lines and
the transform-then-pack greedy, both run by one fitting loop.

The loop places each task, in a given order, on an open bin that admits
it, or on a new bin if none does, in one scan of the open bins: first
fit stops at the first admitting bin, best fit keeps the admitting bin
of largest load and worst fit the one of smallest.  A later bin
replaces the pick only on a strictly better load, so ties go to the
lowest bin index.

It tests dbf* lines on ints.  Task i has slope `slope[i]` and intercept
`intercept[i]` over one common denominator `whole`, and is placed at the
point `at[i]`, with execution time `cost[i]`.  Every bin keeps the sums
of its tasks' slopes and intercepts.  A bin admits the task when its
slope sum stays within `whole` with the task's slope added, and its line
sum at `at[i]` leaves room for `cost[i]`; the line is evaluated only for
bins whose slope sum fits, and its sum is the load that best and worst
fit rank.

Deadline-monotonic fitting (Fisher, Baker & Baruah, RTCSA 2006) packs in
`TaskSet.dm_order`, at each task's deadline, with the dbf* lines of
`TaskSet.share` and `TaskSet.offset` over `TaskSet.whole`.  Every bin
deadline is at most the task's, so the line sum there is the bin's dbf*.

The dagger greedy tightens each task to the implicit task (C, D', D'),
D' = min(D, T) (`TaskSet.span`), and packs the result in input order.
An implicit task's dbf* line passes through the origin with its density
as slope, so dagger is the same loop on the tightened set: the slopes
are `TaskSet.span_share` over `TaskSet.span_whole`, every intercept is
0, and each task is placed at its D'.  There the line test, a bin's
density sum s with s * D' <= (D' - C) * span_whole = D' * (span_whole -
span_share), is the density test multiplied by D' > 0, and so is the
ranking, ties included: one utilization test of the tightened set in
input order, which keeps every bin EDF-feasible for the original tasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from operator import gt, lt
from typing import Optional, Sequence

from .model import TaskSet, require_valid


class Strategy(Enum):
    FIRST_FIT = "ff"
    BEST_FIT = "bf"
    WORST_FIT = "wf"


@dataclass(frozen=True)
class Partition:
    """Assignment of task ids (position + 1) to processors; bins keep
    creation order, each bin's ids ascending."""

    bins: tuple[tuple[int, ...], ...]
    algorithm: str
    strategy: Optional[str] = None

    @property
    def m(self) -> int:
        return len(self.bins)


# how a later admitting bin's load must compare with the pick's to replace
# it: best fit keeps the largest load and worst fit the smallest; first
# fit takes the first admitting bin and ranks none
_BETTER = {Strategy.FIRST_FIT: None, Strategy.BEST_FIT: gt, Strategy.WORST_FIT: lt}

Ints = Sequence[int]


def _fit(
    order: Ints, strategy: Strategy, whole: int, slope: Ints, intercept: Ints, at: Ints, cost: Ints
) -> tuple[tuple[int, ...], ...]:
    """The bins of ids that the fitting loop packs the positions of
    `order` into (see the module docstring).  A strategy's ranking is its
    `_BETTER` comparison of two loads, called only on admitting bins."""
    better = _BETTER[strategy]
    bins: list[list] = []  # per open bin: [slope sum, intercept sum, ids]
    for pos in order:
        share, point = slope[pos], at[pos]
        slope_room, room = whole - share, (point - cost[pos]) * whole
        pick = None
        for b in bins:
            if b[0] <= slope_room:
                line = b[0] * point + b[1]  # the bin's line sum at `point`
                if line <= room:
                    if better is None:
                        pick = b
                        break
                    if pick is None or better(line, best):
                        pick, best = b, line
        if pick is None:
            bins.append([share, intercept[pos], [pos + 1]])
        else:
            pick[0] += share
            pick[1] += intercept[pos]
            pick[2].append(pos + 1)
    return tuple([tuple(sorted(b[2])) for b in bins])


def dm_partition(ts: TaskSet, strat: Strategy) -> Partition:
    """Deadline-monotonic partitioning with a first/best/worst-fit strategy,
    admitting on utilization and on dbf* at each task's deadline (see the
    module docstring)."""
    require_valid(ts)
    bins = _fit(ts.dm_order, strat, ts.whole, ts.share, ts.offset, ts.d, ts.c)
    return Partition(bins, "dm", strat.value)


def dagger_greedy(ts: TaskSet, fitting: Strategy) -> Partition:
    """Greedy packing in input order on the utilizations C/min(D, T) of the
    tightened task set: a bin accepts a task iff its load stays at most 1,
    tested as the tightened tasks' dbf* lines (see the module docstring)."""
    require_valid(ts)
    zero = (0,) * len(ts)
    bins = _fit(range(len(ts)), fitting, ts.span_whole, ts.span_share, zero, ts.span, ts.c)
    return Partition(bins, "dagger", fitting.value)
