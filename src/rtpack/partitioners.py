"""Partitioning heuristics: deadline-monotonic fitting and the
transform-then-pack greedy, both run by one any-fit packer.

The packer places each task, in a given order, on an open bin that admits
it, or on a new bin if none does.  On the set's integer view, every bin
keeps the sums of its tasks' demand lines, slopes and intercepts over one
common denominator `whole`.  A bin admits the task when its slope sum
stays within `whole` with the task's slope added, and its line sum at the
task's point leaves room for the task's execution time.  A placement is
one scan of the open bins, evaluating the line only for bins whose slope
sum fits: first fit stops at the first admitting bin, best fit keeps the
admitting bin of largest line sum and worst fit the one of smallest.  A
later bin replaces the pick only on a strictly better line sum, so ties
go to the lowest bin index.

Deadline-monotonic fitting (Fisher, Baker & Baruah, RTCSA 2006) packs in
`_dm_positions` order, at each task's deadline, with the dbf* lines of
`IntView.share` and `IntView.offset`.  Every bin deadline is at most the
task's, so the line sum there is the bin's dbf*.

The dagger greedy tightens each task to the implicit task
(C, D', D'), D' = min(D, T) (`IntView.span`), and packs the result in
input order.  An implicit task's dbf* line passes through the origin,
with the density (`IntView.span_share` over `span_whole`) as slope.  At
the D' of the task being placed, a bin's line sum is its density sum
times D', and the room is (D' - C) * span_whole = D' * (span_whole -
span_share).  So both tests are one utilization test of the tightened
set in any order, which keeps every bin EDF-feasible for the original
tasks, and best and worst fit rank bins, ties included, by their density
sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

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


# best fit maximizes a bin's line sum and worst fit its negation; first
# fit takes the first admitting bin, so its sign never matters
_SIGN = {Strategy.FIRST_FIT: 0, Strategy.BEST_FIT: 1, Strategy.WORST_FIT: -1}


def _dm_positions(ts: TaskSet) -> list[int]:
    """Positions in deadline-monotonic order: nondecreasing deadline, equal
    deadlines by task id, sorted on the set's integer view.

    Id order (= input order) is what makes the known worst-case families
    reproduce their published fitting traces, since those constructions
    index tasks in deadline order with ties.
    """
    view, ids = ts.ints, ts.ids
    return sorted(range(len(ids)), key=lambda i: (view.d[i], ids[i]))


def _any_fit(
    ts: TaskSet, order: Iterable[int], slope: Sequence[int], offset: Sequence[int],
    whole: int, point: Sequence[int], strat: Strategy, algorithm: str,
) -> Partition:
    """Pack the positions of `order` by `strat` (see the module
    docstring): by position, `slope` and `offset` are each task's demand
    line over the denominator `whole`, and `point` the view-scale time at
    which a bin's line sum is tested when that task is placed."""
    c, ids = ts.ints.c, ts.ids
    sign = _SIGN[strat]
    bins: list[list[int]] = []
    slopes: list[int] = []  # per bin: sum of slope
    offsets: list[int] = []  # per bin: sum of offset
    best = 0
    for pos in order:
        at, share = point[pos], slope[pos]
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
        bins[pick].append(ids[pos])
        slopes[pick] += share
        offsets[pick] += offset[pos]
    return Partition(
        bins=tuple(tuple(sorted(b)) for b in bins),
        algorithm=algorithm,
        strategy=strat.value,
    )


def dm_partition(ts: TaskSet, strat: Strategy) -> Partition:
    """Deadline-monotonic partitioning with a first/best/worst-fit strategy,
    admitting on utilization and on dbf* at each task's deadline."""
    require_valid(ts)
    view = ts.ints
    return _any_fit(
        ts, _dm_positions(ts), view.share, view.offset, view.whole, view.d, strat, "dm"
    )


def dagger_greedy(ts: TaskSet, fitting: Strategy) -> Partition:
    """Greedy packing in input order on the utilizations C/min(D, T) of the
    tightened task set: a bin accepts a task iff its load stays at most 1."""
    require_valid(ts)
    view = ts.ints
    zero = (0,) * len(ts)
    return _any_fit(
        ts, range(len(ts)), view.span_share, zero, view.span_whole, view.span,
        fitting, "dagger",
    )
