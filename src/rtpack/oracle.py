"""Brute-force minimum-processor oracle: m*, the fewest unit-speed
processors that admit a partition into bins that are each EDF-feasible.

Bin verdicts.  Each open bin keeps its position bitmask and the sums of
its `span_share` and `share` on the set's ints as it grows, and
is decided by `feasibility.bin_feasible` on them (its two O(1) gates and
verdict store are described in the `feasibility` docstring).  The
search's memo is that store, kept across branches and levels.  A caller
may pass it in as `store`: the bench passes each instance's verdict
store, which `verify_partition` has filled with the verdicts of the
partitioners' bins, so that a bin already decided there is not tested
again, and drops it when the instance ends.  The store changes no
verdict, node count or witness.

Set partitions are enumerated as restricted-growth strings in increasing
bin count, so symmetric relabelings of bins are never visited twice.  A
branch is pruned as soon as any bin fails the exact test; that is sound
because demand only grows when a task is added, so an infeasible bin never
becomes feasible again.

Start level.  Levels below the largest of three sound lower bounds on m*
are never searched:
- ceil(U), from the sum of the set's shares;
- the size of a greedy clique of pairwise-conflicting tasks: two tasks
  conflict when they fail the exact test together, and no two of a
  clique can share a bin (Gendreau, Laporte & Semet, C&OR 2004).  The pair
  verdicts go into the search memo;
- the demand load: a bin holds demand of at most t by every time t, so at
  least ceil(sum_i dbf_i(t) / t) bins are needed at any t.  Any finite set
  of points t is sound; the points D_i + k*T_i for k < LOAD_POINTS are
  used (Fisher, Baker & Baruah, RTCSA 2006).  As dbf_i <= dbf*_i for
  every deadline class, a point whose summed dbf* is within the best bound
  found so far cannot raise it, and its exact demand is never computed.

Known upper bound.  A caller may pass `upper`, the bin count of a
partition of the set that `verify_partition` accepted, so m* <= upper
(the bench passes its partitioners' fewest bins).  The bounds are taken
cheapest first, in the order above, and the first that reaches `upper`
settles m* = upper.  Otherwise only the levels below `upper` are
searched, and if all are exhausted m* = upper, so level `upper` is never
searched (the incumbent of a bin-packing branch and bound; Martello &
Toth, Knapsack Problems, 1990, ch. 8).  An `upper` above N, or below a
bound taken before one reaches it, is no partition's bin count; it is
ignored and the search runs as without it, so that a partitioner or
verification fault still shows as an M below m*.  A wrong `upper` that
some bound equals is not caught: the dearer bounds are never taken.

Search order.  The clique tasks are assigned first, so the
restricted-growth order puts them in distinct bins at once, then the rest
by decreasing density C/min(D, T), ties by position.  The clique is
chosen in that density order too, so the order is sorted only once
ceil(U) has failed to meet `upper`: an instance that ceil(U) settles
never sorts it.  `nodes_explored` counts the nodes of this search: 0 when
a bound meets `upper`, and without the nodes of level `upper` when it is
settled by exhaustion.

Witness.  The witness is the first partition of restricted-growth order in
input order at level m*.  It is built by self-reduction from the set and
m* alone, when `OracleResult.witness` is first read: the tasks are taken
in input order, and each goes into the lowest bin, the open bins first
and then a new one while fewer than m* are open, from which the search in
density order, on a fresh memo, can still place every later task.  Since
level m* has a partition, every step has such a bin, and the choices
spell out the first restricted-growth string without a search in input
order.  Callers that need only m* never pay for the witness, and the
result keeps neither the deciding search nor its memo.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Optional, Sequence

from .errors import BadParam, CapExceeded
from .feasibility import _positions, bin_feasible
from .model import TaskSet, require_valid
from .partitioners import Partition

DEFAULT_ORACLE_CAP = 20
# deadline points per task at which the demand load is taken
LOAD_POINTS = 3


@dataclass(frozen=True)
class OracleResult:
    """The optimum `m_star` of the set `_ts` and the nodes its search
    explored; `witness`, a partition of `_ts` into `m_star` bins, is built
    by self-reduction from the set and `m_star` on first read (see the
    module docstring)."""

    m_star: int
    nodes_explored: int
    _ts: TaskSet = field(repr=False, compare=False)

    @cached_property
    def witness(self) -> Partition:
        return _witness(self._ts, self.m_star)


class _Search:
    """Depth-first assignment of task positions of `ts`, in a given
    order, to at most `max_bins` bins.

    An open bin is the bitmask of its positions in the task set (task ids
    are arbitrary ints, so they are not used as bit indices), kept with
    the sums of its `span_share` and `share` as it grows; the memo of
    exact verdicts, the caller's verdict store if it gives one, is keyed
    by that mask.  An object rather than nested closures: a recursive
    closure is a reference cycle, which keeps the memo alive until the
    cyclic garbage collector runs instead of freeing it when the search is
    dropped.
    """

    def __init__(self, ts: TaskSet, memo: Optional[dict[int, bool]] = None):
        self.ts = ts
        self.memo: dict[int, bool] = {} if memo is None else memo
        self.nodes = 0

    def dfs(
        self,
        order: Sequence[int],
        i: int,
        bins: list[tuple[int, int, int]],
        max_bins: int,
    ) -> bool:
        """Assign `order[i:]` to the open `bins`, each a (mask, sum of
        `span_share`, sum of `share`) tuple, opening at most `max_bins`;
        on failure `bins` is as it was on entry."""
        if i == len(order):
            return True
        ts, memo = self.ts, self.memo
        pos = order[i]
        bit = 1 << pos
        density, share = ts.span_share[pos], ts.share[pos]
        for b, old in enumerate(bins):
            mask, dens, load = old[0] | bit, old[1] + density, old[2] + share
            self.nodes += 1
            if bin_feasible(ts, mask, dens, load, memo):
                bins[b] = mask, dens, load
                if self.dfs(order, i + 1, bins, max_bins):
                    return True
                bins[b] = old
        if len(bins) < max_bins:
            # a one-task bin is feasible: C <= min(D, T) for a valid set
            self.nodes += 1
            bins.append((bit, density, share))
            if self.dfs(order, i + 1, bins, max_bins):
                return True
            bins.pop()
        return False


def _ceil_u(ts: TaskSet) -> int:
    """ceil(U), from the share sum of the set."""
    return -(-sum(ts.share) // ts.whole)


def _load_bound(ts: TaskSet) -> int:
    """The demand load bound on the set's ints: the larger of ceil(U)
    and the max over the points D_i + k*T_i, k < LOAD_POINTS, of
    ceil(sum_j dbf_j(t) / t).

    The points are walked in ascending order with the running sum of the
    set's dbf* lines (`TaskSet.offset`) over the tasks with D_j <= t.
    The exact demand is evaluated only where that sum passes
    best * t * whole (see the module docstring)."""
    c, d, t, share, whole = ts.c, ts.d, ts.t, ts.share, ts.whole
    intercept = ts.offset
    best = _ceil_u(ts)
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


def _by_density(ts: TaskSet) -> list[int]:
    """Positions by decreasing density C/min(D, T), ties by position,
    sorted on the set's density terms."""
    density = ts.span_share
    return sorted(range(len(density)), key=lambda p: (-density[p], p))


def _conflict_clique(search: _Search, by_density: list[int]) -> list[int]:
    """Positions of pairwise-conflicting tasks, chosen greedily in the
    order `by_density`: a task joins when it conflicts with every task
    chosen before it."""
    ts, memo = search.ts, search.memo
    density, share = ts.span_share, ts.share
    clique: list[int] = []
    for pos in by_density:
        bit, dens, sh = 1 << pos, density[pos], share[pos]
        for q in clique:
            if bin_feasible(ts, 1 << q | bit, density[q] + dens, share[q] + sh, memo):
                break
        else:
            clique.append(pos)
    return clique


def _lower_bounds(
    search: _Search, by_density: list[int], clique: list[int]
) -> Iterator[int]:
    """The lower bounds on m* of the module docstring, cheapest first:
    ceil(U), the size of the conflict clique, and the load bound.  Past
    ceil(U), the density order is appended to `by_density` and the
    clique's positions to `clique`."""
    yield _ceil_u(search.ts)
    by_density += _by_density(search.ts)
    clique += _conflict_clique(search, by_density)
    yield len(clique)
    yield _load_bound(search.ts)


def _witness(ts: TaskSet, m_star: int) -> Partition:
    """The first partition of `ts` into `m_star` bins in restricted-growth
    order over input order, by self-reduction (see the module docstring)."""
    search = _Search(ts)
    later = _by_density(ts)
    bins: list[tuple[int, int, int]] = []
    for pos in range(len(ts)):
        later.remove(pos)
        bit, density, share = 1 << pos, ts.span_share[pos], ts.share[pos]
        new_bin = [(0, 0, 0)] * (len(bins) < m_star)  # while fewer than m* are open
        for b, (mask, dens, load) in enumerate(bins + new_bin):
            grown = mask | bit, dens + density, load + share
            trial = bins[:b] + [grown] + bins[b + 1 :]
            fits = bin_feasible(ts, *grown, search.memo)
            if fits and search.dfs(later, 0, trial[:], m_star):
                bins = trial
                break
        else:
            raise RuntimeError("unreachable: level m* has a partition")
    ids = [sorted(ts.ids[i] for i in _positions(mask)) for mask, _, _ in bins]
    return Partition(tuple(map(tuple, ids)), "oracle")


def optimal_partition_bruteforce(
    ts: TaskSet,
    n_cap: int = DEFAULT_ORACLE_CAP,
    upper: Optional[int] = None,
    store: Optional[dict[int, bool]] = None,
) -> OracleResult:
    """Minimum number of processors admitting a feasible partition, with a
    witness partition, by exhaustive search.

    The bin count starts at the largest lower bound of the module
    docstring; the first bin count with a complete assignment is optimal
    because every partition into fewer bins embeds into an earlier, fully
    explored level, or into a level that a bound rules out.  `upper`, when
    given, is the bin count of a partition of `ts` that `verify_partition`
    accepted; the level it names is never searched (see the module
    docstring).  Bins are tested as position bitmasks of the set;
    `store`, when given, is the instance's verdict store, used as the
    search's memo.
    """
    require_valid(ts)
    if n_cap < 1:
        raise BadParam(f"oracle cap must be at least 1, got {n_cap}")
    n = len(ts)
    if n > n_cap:
        raise CapExceeded(f"N = {n} exceeds the oracle cap {n_cap}")

    search = _Search(ts, store)
    by_density: list[int] = []
    clique: list[int] = []
    lower = 0
    for bound in _lower_bounds(search, by_density, clique):
        lower = max(lower, bound)
        if upper is not None and not lower <= upper <= n:
            upper = None  # no partition has this many bins: search without it
        if lower == upper:
            return OracleResult(upper, search.nodes, ts)
    order = clique + [p for p in by_density if p not in clique]
    for m in range(lower, n + 1 if upper is None else upper):
        if search.dfs(order, 0, [], m):
            return OracleResult(m, search.nodes, ts)
    if upper is None:
        raise RuntimeError("unreachable: singleton bins are feasible for a valid set")
    return OracleResult(upper, search.nodes, ts)
