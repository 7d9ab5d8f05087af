"""Brute-force minimum-processor oracle.

Set partitions are enumerated as restricted-growth strings in increasing
bin count, so symmetric relabelings of bins are never visited twice.  The
search assigns tasks in input order and prunes a branch as soon as any bin
fails the per-bin test; that is sound because demand only grows when a task
is added, so an infeasible bin never becomes feasible again.  Per-subset
verdicts are memoized across branches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .errors import CapExceeded
from .feasibility import Mode, approx_subset_feasible, subset_feasible_exact
from .model import Task, TaskSet, require_valid
from .partitioners import Partition

DEFAULT_ORACLE_CAP = 12


@dataclass(frozen=True)
class OracleResult:
    m_star: int
    witness: Partition
    nodes_explored: int


class _Search:
    """Depth-first assignment of tasks, in order, to at most `max_bins`
    bins, with per-subset verdicts memoized across branches.

    An object rather than nested closures: a recursive closure is a
    reference cycle, which keeps the memo alive until the cyclic garbage
    collector runs instead of freeing it when the oracle returns.
    """

    def __init__(self, tasks: list[Task], bin_ok: Callable[[list[Task]], bool]):
        self.tasks = tasks
        self.bin_ok = bin_ok
        self.memo: dict[frozenset[int], bool] = {}
        self.nodes = 0

    def feasible_bin(self, subset: list[Task]) -> bool:
        key = frozenset(tsk.id for tsk in subset)
        hit = self.memo.get(key)
        if hit is None:
            hit = self.bin_ok(subset)
            self.memo[key] = hit
        return hit

    def dfs(self, i: int, bins: list[list[Task]], max_bins: int) -> bool:
        if i == len(self.tasks):
            return True
        tsk = self.tasks[i]
        choices = len(bins) + 1 if len(bins) < max_bins else len(bins)
        for b in range(choices):
            if b == len(bins):
                bins.append([])
            bins[b].append(tsk)
            self.nodes += 1
            if self.feasible_bin(bins[b]) and self.dfs(i + 1, bins, max_bins):
                return True
            bins[b].pop()
            if not bins[b]:
                bins.pop()
        return False


def optimal_partition_bruteforce(
    ts: TaskSet, mode: Mode = Mode.EXACT, n_cap: int = DEFAULT_ORACLE_CAP
) -> OracleResult:
    """Minimum number of processors admitting a feasible partition, with a
    witness partition, by exhaustive search.

    The bin count starts at the utilization lower bound ceil(sum u_i); the
    first bin count with a complete assignment is optimal because every
    partition into fewer bins embeds into an earlier, fully explored level.
    """
    require_valid(ts)
    n = len(ts)
    if n > n_cap:
        raise CapExceeded(f"N = {n} exceeds the oracle cap {n_cap}")

    bin_ok = subset_feasible_exact if mode is Mode.EXACT else approx_subset_feasible
    search = _Search(list(ts), bin_ok)
    lower = max(1, math.ceil(ts.total_utilization))
    for m in range(lower, n + 1):
        bins: list[list[Task]] = []
        if search.dfs(0, bins, m):
            witness = Partition(
                bins=tuple(tuple(sorted(t.id for t in b)) for b in bins),
                algorithm="oracle",
                strategy=None,
            )
            return OracleResult(
                m_star=len(bins), witness=witness, nodes_explored=search.nodes
            )
    raise RuntimeError("unreachable: singleton bins are feasible for a valid set")
