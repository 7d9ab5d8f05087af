"""Partitioning heuristics: deadline-monotonic fitting and the
transform-then-pack greedy.

Both are deterministic: every tie among equally preferred bins is broken by
the lowest bin index, and the deadline-monotonic order breaks equal
deadlines by task id.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .errors import BadParam
from .model import Task, TaskSet, require_valid, transform_dagger


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

    def task_ids(self) -> frozenset[int]:
        return frozenset(tid for b in self.bins for tid in b)


def _fit_load(u_sum: Fraction, a_sum: Fraction, cand: Task) -> Optional[Fraction]:
    """The bin's approximate demand at cand's deadline if the bin admits
    cand, else None.

    `u_sum` and `a_sum` are the bin's sums of u_i and C_i - u_i*D_i.  With
    every bin deadline at most cand's, the bin's dbf* at cand.d is the
    affine U*cand.d + A.  Admission needs room for cand's execution time
    under that demand and total utilization within one processor.
    """
    load = u_sum * cand.d + a_sum
    if cand.c + load > cand.d or u_sum + cand.utilization > 1:
        return None
    return load


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
    u_sum = sum((tsk.utilization for tsk in bin_tasks), Fraction(0))
    a_sum = sum((tsk.c - tsk.utilization * tsk.d for tsk in bin_tasks), Fraction(0))
    return _fit_load(u_sum, a_sum, cand) is not None


def dm_order(ts: TaskSet) -> list[Task]:
    """Nondecreasing deadline; equal deadlines keep id order.

    Id order (= input order) is what makes the known worst-case families
    reproduce their published fitting traces, since those constructions
    index tasks in deadline order with ties.
    """
    return sorted(ts, key=lambda tsk: (tsk.d, tsk.id))


def dm_partition(ts: TaskSet, strat: Strategy) -> Partition:
    """Deadline-monotonic partitioning with a first/best/worst-fit strategy.

    Tasks are considered in nondecreasing-deadline order; each is placed on
    an open processor passing `dm_admits`, chosen by the strategy's
    preference over the bins' approximate demand at the task's deadline, or
    on a new processor if none admits it.  Each bin keeps the two sums
    `dm_admits` builds, so a placement costs O(M) for M open bins.
    """
    require_valid(ts)
    bins: list[list[int]] = []
    sums: list[list[Fraction]] = []  # per bin: sum of u_i, sum of C_i - u_i*D_i
    for tsk in dm_order(ts):
        loads: dict[int, Fraction] = {}  # bin -> dbf* at tsk.d, admitting bins only
        for i, (u_sum, a_sum) in enumerate(sums):
            load = _fit_load(u_sum, a_sum, tsk)
            if load is not None:
                loads[i] = load
        if not loads:
            bins.append([])
            sums.append([Fraction(0), Fraction(0)])
            pick = len(bins) - 1
        elif strat is Strategy.FIRST_FIT:
            pick = min(loads)
        elif strat is Strategy.BEST_FIT:
            pick = max(loads, key=lambda i: (loads[i], -i))
        else:  # WORST_FIT
            pick = min(loads, key=lambda i: (loads[i], i))
        bins[pick].append(tsk.id)
        u = tsk.utilization
        sums[pick][0] += u
        sums[pick][1] += tsk.c - u * tsk.d
    return Partition(
        bins=tuple(tuple(sorted(b)) for b in bins),
        algorithm="dm",
        strategy=strat.value,
    )


def dagger_greedy(
    ts: TaskSet, fitting: Strategy, decreasing: bool = False
) -> Partition:
    """Greedy packing on the utilizations of the tightened task set.

    Each task contributes C/min(T, D); a bin accepts a task iff its load
    stays at most 1, which keeps every bin EDF-feasible for the original
    tasks.  Tasks go in input order unless `decreasing` sorts them by
    falling tightened utilization (an experimentation knob; the
    approximation bound holds either way).
    """
    require_valid(ts)
    dag = transform_dagger(ts)
    items = list(dag)
    if decreasing:
        items.sort(key=lambda tsk: (-tsk.utilization, tsk.id))
    bins: list[list[int]] = []
    loads: list[Fraction] = []
    for tsk in items:
        u = tsk.utilization
        fits = [i for i in range(len(bins)) if loads[i] + u <= 1]
        if not fits:
            bins.append([tsk.id])
            loads.append(u)
            continue
        if fitting is Strategy.FIRST_FIT:
            pick = fits[0]
        elif fitting is Strategy.BEST_FIT:
            pick = max(fits, key=lambda i: (loads[i], -i))
        else:
            pick = min(fits, key=lambda i: (loads[i], i))
        bins[pick].append(tsk.id)
        loads[pick] += u
    return Partition(
        bins=tuple(tuple(sorted(b)) for b in bins),
        algorithm="dagger",
        strategy=fitting.value,
    )
