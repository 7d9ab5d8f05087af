"""Partitioning heuristics: deadline-monotonic fitting on dbf* lines and
the transform-then-pack greedy, plain bin packing on densities.

Both place each task, in a given order, on an open bin that admits it,
or on a new bin if none does, in one scan of the open bins: first fit
stops at the first admitting bin, best fit keeps the admitting bin of
largest load and worst fit the one of smallest.  A later bin replaces
the pick only on a strictly better load, so ties go to the lowest bin
index.

Deadline-monotonic fitting (Fisher, Baker & Baruah, RTCSA 2006) packs in
`TaskSet.dm_order`, at each task's deadline, with the dbf* lines of
`TaskSet.share` and `TaskSet.offset` on the set's ints.  Every
bin keeps the sums of its tasks' slopes and intercepts over one common
denominator `whole`.  A bin admits the task when its slope sum stays
within `whole` with the task's slope added, and its line sum at the
task's deadline leaves room for the task's execution time; the line is
evaluated only for bins whose slope sum fits, and its sum is the load
that best and worst fit rank.  Every bin deadline is at most the task's,
so the line sum there is the bin's dbf*.

The dagger greedy tightens each task to the implicit task
(C, D', D'), D' = min(D, T) (`TaskSet.span`), and packs the result in
input order on density sums alone: a bin admits the task iff its sum of
`TaskSet.span_share` is at most `span_whole - span_share` of the task,
and best and worst fit rank bins by that sum.  This is the dbf* test of
the tightened tasks.  An implicit task's dbf* line passes through the
origin, with the density (`span_share` over `span_whole`) as slope.  At
the D' of the task being placed, a bin's line sum is its density sum
times D', and the room is (D' - C) * span_whole = D' * (span_whole -
span_share).  So the line test is the density test multiplied by D' > 0,
and so is the ranking, ties included: one utilization test of the
tightened set in any order, which keeps every bin EDF-feasible for the
original tasks.
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
    """Assignment of task ids (position + 1) to processors; bins keep
    creation order, each bin's ids ascending."""

    bins: tuple[tuple[int, ...], ...]
    algorithm: str
    strategy: Optional[str] = None

    @property
    def m(self) -> int:
        return len(self.bins)


# best fit maximizes a bin's load and worst fit its negation; first fit
# takes the first admitting bin, so its sign never matters
_SIGN = {Strategy.FIRST_FIT: 0, Strategy.BEST_FIT: 1, Strategy.WORST_FIT: -1}


def dm_partition(ts: TaskSet, strat: Strategy) -> Partition:
    """Deadline-monotonic partitioning with a first/best/worst-fit strategy,
    admitting on utilization and on dbf* at each task's deadline (see the
    module docstring)."""
    require_valid(ts)
    c, d, slope, intercept, whole = ts.c, ts.d, ts.share, ts.offset, ts.whole
    sign = _SIGN[strat]
    bins: list[list[int]] = []
    slopes: list[int] = []  # per bin: sum of slope
    offsets: list[int] = []  # per bin: sum of intercept
    best = 0
    for pos in ts.dm_order:
        at, share = d[pos], slope[pos]
        slope_room, room = whole - share, (at - c[pos]) * whole
        pick = -1
        for i, s in enumerate(slopes):
            if s <= slope_room:
                line = s * at + offsets[i]  # the bin's line sum at `at`
                if line <= room and (pick < 0 or sign * line > best):
                    pick, best = i, sign * line
                    if not sign:
                        break
        if pick < 0:
            pick = len(bins)
            bins.append([])
            slopes.append(0)
            offsets.append(0)
        bins[pick].append(pos + 1)
        slopes[pick] += share
        offsets[pick] += intercept[pos]
    return Partition(tuple(map(tuple, map(sorted, bins))), "dm", strat.value)


def dagger_greedy(ts: TaskSet, fitting: Strategy) -> Partition:
    """Greedy packing in input order on the utilizations C/min(D, T) of the
    tightened task set: a bin accepts a task iff its load stays at most 1,
    tested on the set's density sums."""
    require_valid(ts)
    whole = ts.span_whole
    sign = _SIGN[fitting]
    bins: list[list[int]] = []
    sums: list[int] = []  # per bin: sum of span_share
    best = 0
    for tid, share in enumerate(ts.span_share, start=1):
        room = whole - share
        pick = -1
        for i, s in enumerate(sums):
            if s <= room and (pick < 0 or sign * s > best):
                pick, best = i, sign * s
                if not sign:
                    break
        if pick < 0:
            pick = len(bins)
            bins.append([])
            sums.append(0)
        bins[pick].append(tid)
        sums[pick] += share
    return Partition(tuple(map(tuple, map(sorted, bins))), "dagger", fitting.value)
