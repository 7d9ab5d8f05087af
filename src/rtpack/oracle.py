"""Brute-force minimum-processor oracle.

Set partitions are enumerated as restricted-growth strings in increasing
bin count, so symmetric relabelings of bins are never visited twice.  The
search assigns tasks in input order and prunes a branch as soon as any bin
fails the per-bin test; that is sound because demand only grows when a task
is added, so an infeasible bin never becomes feasible again.  Per-subset
verdicts are memoized across branches, keyed by position bitmask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

from .errors import CapExceeded
from .feasibility import Mode, positions_feasible_approx, positions_feasible_exact
from .model import TaskSet, require_valid
from .partitioners import Partition

DEFAULT_ORACLE_CAP = 12


@dataclass(frozen=True)
class OracleResult:
    m_star: int
    witness: Partition
    nodes_explored: int


class _Search:
    """Depth-first assignment of task positions, in order, to at most
    `max_bins` bins, with per-subset verdicts memoized across branches.

    A memo key is the bitmask of the subset's positions in the task set
    (task ids are arbitrary ints, so they are not used as bit indices).
    An object rather than nested closures: a recursive closure is a
    reference cycle, which keeps the memo alive until the cyclic garbage
    collector runs instead of freeing it when the oracle returns.
    """

    def __init__(self, n: int, bin_ok: Callable[[list[int]], bool]):
        self.n = n
        self.bin_ok = bin_ok
        self.memo: dict[int, bool] = {}
        self.nodes = 0

    def feasible_bin(self, positions: list[int], mask: int) -> bool:
        hit = self.memo.get(mask)
        if hit is None:
            hit = self.bin_ok(positions)
            self.memo[mask] = hit
        return hit

    def dfs(
        self, i: int, bins: list[list[int]], masks: list[int], max_bins: int
    ) -> bool:
        if i == self.n:
            return True
        bit = 1 << i
        choices = len(bins) + 1 if len(bins) < max_bins else len(bins)
        for b in range(choices):
            if b == len(bins):
                bins.append([])
                masks.append(0)
            bins[b].append(i)
            masks[b] |= bit
            self.nodes += 1
            if self.feasible_bin(bins[b], masks[b]) and self.dfs(
                i + 1, bins, masks, max_bins
            ):
                return True
            bins[b].pop()
            masks[b] ^= bit
            if not bins[b]:
                bins.pop()
                masks.pop()
        return False


def optimal_partition_bruteforce(
    ts: TaskSet, mode: Mode = Mode.EXACT, n_cap: int = DEFAULT_ORACLE_CAP
) -> OracleResult:
    """Minimum number of processors admitting a feasible partition, with a
    witness partition, by exhaustive search.

    The bin count starts at the utilization lower bound ceil(sum u_i); the
    first bin count with a complete assignment is optimal because every
    partition into fewer bins embeds into an earlier, fully explored level.
    Bins are tested as position lists of the set's integer view.
    """
    require_valid(ts)
    n = len(ts)
    if n > n_cap:
        raise CapExceeded(f"N = {n} exceeds the oracle cap {n_cap}")

    view = ts.ints
    test = positions_feasible_exact if mode is Mode.EXACT else positions_feasible_approx
    search = _Search(n, partial(test, view))
    lower = max(1, math.ceil(ts.total_utilization))
    for m in range(lower, n + 1):
        bins: list[list[int]] = []
        if search.dfs(0, bins, [], m):
            witness = Partition(
                bins=tuple(tuple(sorted(ts.tasks[i].id for i in b)) for b in bins),
                algorithm="oracle",
                strategy=None,
            )
            return OracleResult(
                m_star=len(bins), witness=witness, nodes_explored=search.nodes
            )
    raise RuntimeError("unreachable: singleton bins are feasible for a valid set")
