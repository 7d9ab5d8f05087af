"""Brute-force minimum-processor oracle: m*, the fewest unit-speed
processors that admit a partition into bins that are each EDF-feasible.

Bin verdicts.  Each open bin keeps the sums of its tasks' density and
utilization terms on the set's integer view as it grows.  A bin whose
density sum is within one processor is feasible, and one whose
utilization passes it is not, in O(1) from those sums.  Every other bin
is decided by `positions_feasible_exact`, the exact demand test of the
bin's positions in the view, at its default caps, which settles most
two-task bins at their later deadline and sweeps the rest; the memo
holds only these verdicts, across branches and levels, keyed by
position bitmask.

Set partitions are enumerated as restricted-growth strings in increasing
bin count, so symmetric relabelings of bins are never visited twice.  A
branch is pruned as soon as any bin fails the exact test; that is sound
because demand only grows when a task is added, so an infeasible bin never
becomes feasible again.

Start level.  Levels below the largest of three sound lower bounds on m*
are never searched:
- ceil(U);
- the demand load: a bin holds demand of at most t by every time t, so at
  least ceil(sum_i dbf_i(t) / t) bins are needed at any t.  Any finite set
  of points t is sound; the points D_i + k*T_i for k < LOAD_POINTS are
  used (Fisher, Baker & Baruah, RTCSA 2006).  As dbf_i <= dbf*_i for
  every deadline class, a point whose summed dbf* is within the best bound
  found so far cannot raise it, and its exact demand is never computed;
- the size of a greedy clique of pairwise-conflicting tasks: two tasks
  conflict when they fail the exact test together, and no two of a
  clique can share a bin (Gendreau, Laporte & Semet, C&OR 2004).  The pair
  verdicts go into the search memo.

Search order.  The clique tasks are assigned first, so the
restricted-growth order puts them in distinct bins at once, then the rest
by decreasing density C/min(D, T), ties by position.  `nodes_explored`
counts the nodes of this search.

Witness.  The witness is the first partition of restricted-growth order in
input order at level m*.  It is built by one more depth-first pass in
input order, sharing the memo, when `OracleResult.witness` is first read;
callers that need only m* never pay for that pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Optional, Sequence

from .errors import BadParam, CapExceeded
from .feasibility import positions_feasible_exact
from .model import IntView, TaskSet, require_valid
from .partitioners import Partition

DEFAULT_ORACLE_CAP = 20
# deadline points per task at which the demand load is taken
LOAD_POINTS = 3


@dataclass(frozen=True)
class OracleResult:
    """The optimum `m_star` and the nodes its search explored; `witness`,
    a partition into `m_star` bins, is built on first read."""

    m_star: int
    nodes_explored: int
    _build_witness: Callable[[], Partition] = field(repr=False, compare=False)

    @cached_property
    def witness(self) -> Partition:
        return self._build_witness()


def _positions(mask: int) -> list[int]:
    """The positions whose bits are set in `mask`, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class _Search:
    """Depth-first assignment of task positions of `view`, in a given
    order, to at most `max_bins` bins.

    An open bin is the bitmask of its positions in the task set (task ids
    are arbitrary ints, so they are not used as bit indices), kept with
    the sums of its `span_share` and `share` as it grows; the memo of
    exact verdicts is keyed by that mask.  An object rather than nested
    closures: a recursive closure is a reference cycle, which keeps the
    memo alive until the cyclic garbage collector runs instead of freeing
    it when the result is dropped.
    """

    def __init__(self, view: IntView):
        self.view = view
        self.span_whole, self.whole = view.span_whole, view.whole
        self.memo: dict[int, bool] = {}
        self.nodes = 0

    def feasible_bin(self, mask: int, density: int, load: int) -> bool:
        """The verdict on the bin `mask` whose sums of `span_share` and
        `share` are `density` and `load`: feasible at a density sum within
        `span_whole`, infeasible at a share sum past `whole`, and
        otherwise the memoized `positions_feasible_exact` of its positions,
        whose verdict does not depend on the order they were assigned in."""
        if density <= self.span_whole:
            return True
        if load > self.whole:
            return False
        hit = self.memo.get(mask)
        if hit is None:
            hit = positions_feasible_exact(self.view, _positions(mask))
            self.memo[mask] = hit
        return hit

    def partition(self, order: Sequence[int], max_bins: int) -> Optional[list[int]]:
        """The bins, as masks in bin order, of the first partition into at
        most `max_bins` bins in restricted-growth order over `order`, or
        None."""
        masks: list[int] = []
        return masks if self.dfs(order, 0, masks, [], [], max_bins) else None

    def dfs(
        self,
        order: Sequence[int],
        i: int,
        masks: list[int],
        densities: list[int],
        loads: list[int],
        max_bins: int,
    ) -> bool:
        if i == len(order):
            return True
        pos = order[i]
        bit = 1 << pos
        density, share = self.view.span_share[pos], self.view.share[pos]
        opened = len(masks)
        for b in range(opened + 1 if opened < max_bins else opened):
            if b == opened:
                masks.append(0)
                densities.append(0)
                loads.append(0)
            old = masks[b], densities[b], loads[b]
            new = old[0] | bit, old[1] + density, old[2] + share
            self.nodes += 1
            if self.feasible_bin(*new):
                masks[b], densities[b], loads[b] = new
                if self.dfs(order, i + 1, masks, densities, loads, max_bins):
                    return True
                masks[b], densities[b], loads[b] = old
        if len(masks) > opened:
            masks.pop()
            densities.pop()
            loads.pop()
        return False


def _load_bound(view: IntView) -> int:
    """The demand load bound on the integer view: the larger of ceil(U)
    and the max over the points D_i + k*T_i, k < LOAD_POINTS, of
    ceil(sum_j dbf_j(t) / t).

    The points are walked in ascending order with the running sum of the
    view's dbf* lines (`IntView.offset`) over the tasks with D_j <= t.
    The exact demand is evaluated only where that sum passes
    best * t * whole (see the module docstring)."""
    c, d, t, share, whole = view.c, view.d, view.t, view.share, view.whole
    intercept = view.offset
    best = -(-sum(share) // whole)
    by_deadline = sorted(range(len(d)), key=d.__getitem__)
    active = 0  # tasks of by_deadline with D <= point
    slope = offset = 0
    points = {d[i] + k * t[i] for i in range(len(d)) for k in range(LOAD_POINTS)}
    for point in sorted(points):
        while active < len(by_deadline) and d[by_deadline[active]] <= point:
            i = by_deadline[active]
            slope += share[i]
            offset += intercept[i]
            active += 1
        if slope * point + offset <= best * point * whole:
            continue
        demand = sum(
            c[i] * ((point - d[i]) // t[i] + 1) for i in by_deadline[:active]
        )
        best = max(best, -(-demand // point))
    return best


def _by_density(view: IntView) -> list[int]:
    """Positions by decreasing density C/min(D, T), ties by position,
    sorted on the view's density terms."""
    density = view.span_share
    return sorted(range(len(density)), key=lambda p: (-density[p], p))


def _conflict_clique(search: _Search, by_density: list[int]) -> list[int]:
    """Positions of pairwise-conflicting tasks, chosen greedily in the
    order `by_density`: a task joins when it conflicts with every task
    chosen before it."""
    density, share = search.view.span_share, search.view.share
    clique: list[int] = []
    for pos in by_density:
        bit, dens, sh = 1 << pos, density[pos], share[pos]
        for q in clique:
            if search.feasible_bin(1 << q | bit, density[q] + dens, share[q] + sh):
                break
        else:
            clique.append(pos)
    return clique


def _witness(search: _Search, ts: TaskSet, m_star: int) -> Partition:
    masks = search.partition(range(len(ts)), m_star)
    if masks is None:
        raise RuntimeError("unreachable: level m* has a partition in every order")
    return Partition(
        bins=tuple(
            tuple(sorted(ts.tasks[i].id for i in _positions(mask))) for mask in masks
        ),
        algorithm="oracle",
        strategy=None,
    )


def optimal_partition_bruteforce(
    ts: TaskSet, n_cap: int = DEFAULT_ORACLE_CAP
) -> OracleResult:
    """Minimum number of processors admitting a feasible partition, with a
    witness partition, by exhaustive search.

    The bin count starts at the largest lower bound of the module
    docstring; the first bin count with a complete assignment is optimal
    because every partition into fewer bins embeds into an earlier, fully
    explored level, or into a level that a bound rules out.  Bins are
    tested as position lists of the set's integer view.
    """
    require_valid(ts)
    if n_cap < 1:
        raise BadParam(f"oracle cap must be at least 1, got {n_cap}")
    n = len(ts)
    if n > n_cap:
        raise CapExceeded(f"N = {n} exceeds the oracle cap {n_cap}")

    view = ts.ints
    search = _Search(view)
    by_density = _by_density(view)
    clique = _conflict_clique(search, by_density)
    lower = max(_load_bound(view), len(clique))
    order = clique + [p for p in by_density if p not in clique]
    for m in range(lower, n + 1):
        if search.partition(order, m) is not None:
            return OracleResult(
                m_star=m,
                nodes_explored=search.nodes,
                _build_witness=partial(_witness, search, ts, m),
            )
    raise RuntimeError("unreachable: singleton bins are feasible for a valid set")
