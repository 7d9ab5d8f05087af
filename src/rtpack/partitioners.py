"""Partitioning heuristics: deadline-monotonic fitting and the
transform-then-pack greedy.

Both are deterministic: every tie among equally preferred bins is broken by
the lowest bin index, and the deadline-monotonic order breaks equal
deadlines by task id.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .errors import BadParam
from .model import IntView, Task, TaskSet, require_valid


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


def _dm_terms(view: IntView, positions: Sequence[int]) -> dict[int, tuple]:
    """Per position, the ints deadline-monotonic admission reads:
    (D, room, u_room, share, offset).

    `whole` and share = u * whole are the view's; a bin's sums of share
    and of offset = (C - u*D) * whole are then ints, and its dbf* at a
    deadline D, times whole, is the int U*D + A.  room = (D - C) * whole
    and u_room = whole - share are the largest such demand and utilization
    sum that still admit the task.  Every value carries the same factors,
    so comparisons are those of the rational quantities.
    """
    whole, shares = view.whole, view.share
    terms = {}
    for i in positions:
        c, d, share = view.c[i], view.d[i], shares[i]
        terms[i] = (d, (d - c) * whole, whole - share, share, c * whole - share * d)
    return terms


def _fit_load(u_sum: int, a_sum: int, cand: tuple) -> Optional[int]:
    """The bin's approximate demand at cand's deadline if the bin admits
    cand, else None.

    `u_sum` and `a_sum` are the bin's sums of share and offset, and `cand`
    the candidate's `_dm_terms` entry.  With every bin deadline at most
    cand's, the bin's dbf* at cand's deadline is the affine U*D + A.
    Admission needs room for cand's execution time under that demand and
    total utilization within one processor.
    """
    d, room, u_room = cand[0], cand[1], cand[2]
    load = u_sum * d + a_sum
    if load > room or u_sum > u_room:
        return None
    return load


def _pick(strategy: Strategy, loads: dict[int, int]) -> int:
    """The bin `strategy` chooses among the admitting bins, given as
    bin index -> load: first fit the lowest index, best fit the largest
    load and worst fit the smallest, ties to the lowest index."""
    if strategy is Strategy.FIRST_FIT:
        return min(loads)
    if strategy is Strategy.BEST_FIT:
        return max(loads, key=lambda i: (loads[i], -i))
    return min(loads, key=lambda i: (loads[i], i))


def dm_admits(bin_tasks: Sequence[Task], cand: Task) -> bool:
    """Admission test for adding `cand` to a processor already holding
    `bin_tasks`, all with deadlines no later than cand's.

    Two conditions: the approximate demand of the bin at cand's deadline
    leaves room for cand's execution time, and total utilization stays
    within one processor.  Raises BadParam if a bin task has a later
    deadline, where the affine demand would overstate dbf*.
    """
    late = [tsk.id for tsk in bin_tasks if tsk.d > cand.d]
    if late:
        raise BadParam(
            f"bin tasks {late} have deadlines after task {cand.id}'s {cand.d}"
        )
    n = len(bin_tasks)
    terms = _dm_terms(IntView.of([*bin_tasks, cand]), range(n + 1))
    u_sum = sum(terms[i][3] for i in range(n))
    a_sum = sum(terms[i][4] for i in range(n))
    return _fit_load(u_sum, a_sum, terms[n]) is not None


def dm_order(ts: TaskSet) -> list[Task]:
    """Nondecreasing deadline; equal deadlines keep id order.

    Id order (= input order) is what makes the known worst-case families
    reproduce their published fitting traces, since those constructions
    index tasks in deadline order with ties.
    """
    return [ts.tasks[i] for i in _dm_positions(ts)]


def _dm_positions(ts: TaskSet) -> list[int]:
    """The positions of `dm_order`, sorted on the set's integer view."""
    view, tasks = ts.ints, ts.tasks
    return sorted(range(len(tasks)), key=lambda i: (view.d[i], tasks[i].id))


def dm_partition(ts: TaskSet, strat: Strategy) -> Partition:
    """Deadline-monotonic partitioning with a first/best/worst-fit strategy.

    Tasks are considered in nondecreasing-deadline order; each is placed on
    an open processor passing `dm_admits`, chosen by the strategy's
    preference over the bins' approximate demand at the task's deadline, or
    on a new processor if none admits it.  Each bin keeps the two sums
    `dm_admits` builds, as ints of the set's integer view, so a placement
    costs O(M) for M open bins.
    """
    require_valid(ts)
    terms = _dm_terms(ts.ints, range(len(ts)))
    bins: list[list[int]] = []
    sums: list[list[int]] = []  # per bin: sum of share, sum of offset
    for pos in _dm_positions(ts):
        term = terms[pos]
        loads: dict[int, int] = {}  # bin -> dbf* at the deadline, admitting bins only
        for i, (u_sum, a_sum) in enumerate(sums):
            load = _fit_load(u_sum, a_sum, term)
            if load is not None:
                loads[i] = load
        if not loads:
            bins.append([])
            sums.append([0, 0])
            pick = len(bins) - 1
        else:
            pick = _pick(strat, loads)
        bins[pick].append(ts.tasks[pos].id)
        sums[pick][0] += term[3]
        sums[pick][1] += term[4]
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
