from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from rtpack.errors import ValidationError
from rtpack.feasibility import verify_partition
from rtpack.generators import (
    GenParams,
    gen_best_fit_adversary,
    gen_random,
    gen_speedup_gap,
    gen_worst_fit_adversary,
)
from rtpack.model import DeadlineClass, Task, dbf_star, taskset
from rtpack.partitioners import Strategy, dagger_greedy, dm_partition

from conftest import of_tasks, tasksets_of_each_class, tightened_utilizations, valid_tasksets

F = Fraction


def dm_order(ts):
    """Nondecreasing deadline, equal deadlines by id."""
    return sorted(ts, key=lambda tsk: (tsk.d, tsk.id))


def dm_admits(bin_tasks, cand):
    """Deadline-monotonic admission on Fractions, for a bin whose deadlines
    are all at most cand's: the bin's dbf* at cand's deadline leaves room
    for cand's C, and the total utilization stays within one processor."""
    assert all(tsk.d <= cand.d for tsk in bin_tasks)
    demand = cand.c + sum((dbf_star(tsk, cand.d) for tsk in bin_tasks), F(0))
    load = cand.utilization + sum((tsk.utilization for tsk in bin_tasks), F(0))
    return demand <= cand.d and load <= 1


def reference_dm_bins(ts, strat):
    """dm_partition's definition, re-evaluating every bin from its tasks:
    O(N) work per (task, bin) pair."""
    bins = []
    for tsk in dm_order(ts):
        fitting = [i for i, b in enumerate(bins) if dm_admits(b, tsk)]
        if not fitting:
            bins.append([tsk])
            continue
        loads = {i: sum((dbf_star(x, tsk.d) for x in bins[i]), F(0)) for i in fitting}
        if strat is Strategy.FIRST_FIT:
            pick = fitting[0]
        elif strat is Strategy.BEST_FIT:
            pick = max(fitting, key=lambda i: (loads[i], -i))
        else:
            pick = min(fitting, key=lambda i: (loads[i], i))
        bins[pick].append(tsk)
    return tuple(tuple(sorted(t.id for t in b)) for b in bins)


def reference_dagger_bins(ts, strat):
    """dagger_greedy's definition on Fraction loads of the tightened set."""
    bins, loads = [], []
    for tid, u in tightened_utilizations(ts).items():
        fits = [i for i in range(len(bins)) if loads[i] + u <= 1]
        if not fits:
            bins.append([tid])
            loads.append(u)
            continue
        if strat is Strategy.FIRST_FIT:
            pick = fits[0]
        elif strat is Strategy.BEST_FIT:
            pick = max(fits, key=lambda i: (loads[i], -i))
        else:
            pick = min(fits, key=lambda i: (loads[i], i))
        bins[pick].append(tid)
        loads[pick] += u
    return tuple(tuple(sorted(b)) for b in bins)


# Three implicit tasks with D = T = 10 open three bins, and a fourth of
# utilization 3/10 fits some of them.  Implicit tasks make both
# partitioners' loads proportional to the bins' utilizations, in tenths
# below.  In each set the two preferred loads tie at bins 1 and 2, so a
# later bin that replaced the pick on an equal load would take bin 2.
TIED_AT_BINS_1_AND_2 = [
    # loads 6, 7, 7: best fit ties at bins 1 and 2
    ([6, 7, 7, 3], {"ff": ((1, 4), (2,), (3,)), "bf": ((1,), (2, 4), (3,)),
                    "wf": ((1, 4), (2,), (3,))}),
    # loads 7, 6, 6: worst fit ties at bins 1 and 2
    ([7, 6, 6, 3], {"ff": ((1, 4), (2,), (3,)), "bf": ((1, 4), (2,), (3,)),
                    "wf": ((1,), (2, 4), (3,))}),
    # loads 9, 6, 6: bin 0 refuses, and every strategy ties at bins 1 and 2
    ([9, 6, 6, 3], {"ff": ((1,), (2, 4), (3,)), "bf": ((1,), (2, 4), (3,)),
                    "wf": ((1,), (2, 4), (3,))}),
]  # fmt: skip


def tied_case(case, strat):
    tenths, want = TIED_AT_BINS_1_AND_2[case]
    return taskset([(c, 10, 10) for c in tenths]), want[strat.value]


class TestDmAdmits:
    def test_roomy_bin(self):
        assert dm_admits([Task(F(1), F(2), F(4))], Task(F(1), F(3), F(6))) is True

    def test_empty_bin_admits_any_valid_task(self):
        assert dm_admits([], Task(F(1), F(1), F(1))) is True

    def test_utilization_overflow(self):
        assert dm_admits([Task(F(1), F(1), F(1))], Task(F(1), F(2), F(2))) is False


class TestDmAdmissionEdges:
    """A bin holding the first task admits the second exactly at the edge
    of the demand or the utilization test, and opens a second bin one unit
    of the set's ints past it.  Each set is at scale 1 with `whole` 10."""

    @pytest.mark.parametrize("strat", list(Strategy))
    @pytest.mark.parametrize(
        "triples, gaps, bins",
        [([(1, 4, 10), (3, 4, 5)], (0, -3), ((1, 2),)),
         ([(1, 3, 10), (3, 4, 5)], (1, -3), ((1,), (2,))),
         ([(4, 10, 10), (6, 20, 10)], (-60, 0), ((1, 2),)),
         ([(5, 10, 10), (6, 20, 10)], (-40, 1), ((1,), (2,)))],
    )  # fmt: skip
    def test_admits_at_the_edge_and_opens_a_bin_past_it(self, triples, gaps, bins, strat):
        ts = taskset(triples)
        assert (ts.scale, ts.whole) == (1, 10)
        # how far the first task's dbf* at the second's deadline, and its
        # share, pass the most that still admits the second, times whole
        demand = ts.share[0] * ts.d[1] + ts.offset[0]
        room = (ts.d[1] - ts.c[1]) * ts.whole
        assert (demand - room, ts.share[0] - (ts.whole - ts.share[1])) == gaps
        assert dm_partition(ts, strat).bins == bins


class TestDmPartition:
    def test_best_fit_adversary_pairs(self):
        ts = gen_best_fit_adversary(4)
        part = dm_partition(ts, Strategy.BEST_FIT)
        assert part.bins == ((1, 2), (3, 4), (5, 6), (7, 8))
        assert part.m == 4

    def test_worst_fit_adversary_pairs(self):
        ts = gen_worst_fit_adversary(4)
        part = dm_partition(ts, Strategy.WORST_FIT)
        assert part.bins == ((1, 2), (3, 4), (5, 6), (7, 8))

    def test_single_task(self):
        for strat in Strategy:
            assert dm_partition(taskset([(1, 1, 1)]), strat).m == 1

    def test_rejects_invalid(self):
        with pytest.raises(ValidationError):
            dm_partition(taskset([(5, 2, 4)]), Strategy.FIRST_FIT)

    def test_worst_fit_spreads_where_first_fit_stacks(self):
        ts = taskset([(1, 2, 2), ("3/5", 2, 2), ("4/5", 2, 2), ("2/5", 2, 2)])
        ff = dm_partition(ts, Strategy.FIRST_FIT)
        wf = dm_partition(ts, Strategy.WORST_FIT)
        assert ff.bins == ((1, 2, 4), (3,))
        assert wf.bins == ((1, 2), (3, 4))

    @given(valid_tasksets(), st.sampled_from(list(Strategy)))
    def test_output_verifies_exact(self, ts, strat):
        part = dm_partition(ts, strat)
        assert verify_partition(ts, part)

    @given(valid_tasksets(), st.sampled_from(list(Strategy)))
    def test_deterministic(self, ts, strat):
        assert dm_partition(ts, strat) == dm_partition(ts, strat)

    @pytest.mark.parametrize("strat", list(Strategy))
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference_on_random_sets(self, seed, strat):
        for cls in DeadlineClass:
            ts = gen_random(
                GenParams(seed=seed, n=30, deadline_class=cls, utilization_target=F(5))
            )
            assert dm_partition(ts, strat).bins == reference_dm_bins(ts, strat)

    @pytest.mark.parametrize("strat", list(Strategy))
    @pytest.mark.parametrize("k", range(4, 9))
    def test_matches_reference_on_adversaries(self, k, strat):
        for ts in (gen_best_fit_adversary(k), gen_worst_fit_adversary(k)):
            assert dm_partition(ts, strat).bins == reference_dm_bins(ts, strat)

    @pytest.mark.parametrize("strat", list(Strategy))
    def test_tied_loads_go_to_lowest_bin(self, strat):
        # both open bins carry dbf* 6 at t = 8 and admit the third task
        ts = taskset([(3, 4, 4), (3, 4, 4), (1, 8, 8)])
        assert dm_partition(ts, strat).bins == ((1, 3), (2,))
        assert reference_dm_bins(ts, strat) == ((1, 3), (2,))


    @given(
        st.one_of(valid_tasksets(max_n=8), tasksets_of_each_class(max_n=8)),
        st.sampled_from(list(Strategy)),
    )
    def test_matches_reference(self, ts, strat):
        assert dm_partition(ts, strat).bins == reference_dm_bins(ts, strat)

    @pytest.mark.parametrize("strat", list(Strategy))
    @pytest.mark.parametrize("case", range(len(TIED_AT_BINS_1_AND_2)))
    def test_tied_loads_at_bins_1_and_2(self, case, strat):
        ts, want = tied_case(case, strat)
        assert dm_partition(ts, strat).bins == reference_dm_bins(ts, strat) == want


@st.composite
def id_permuted_tasksets(draw):
    """The tasks of a `valid_tasksets()` set in a drawn order, some drawn
    twice, so that a task's id (its position + 1) differs from the one it
    had and equal deadlines are common."""
    tasks = draw(valid_tasksets(max_n=8)).tasks
    picks = draw(st.lists(st.integers(0, len(tasks) - 1), min_size=1, max_size=8))
    return of_tasks(tasks[i] for i in picks)


class TestDmIdTieBreak:
    """Equal deadlines go in id order, which is position order."""

    # D = T = 10, 10, 5 at ids 1, 2, 3: DM order is positions 2, 0, 1, and
    # C = 6, 5 by id fills the first bin with ids 3 and 1; taking id 2
    # before id 1 would fill it with ids 3 and 2
    TRIPLES = ((6, 10, 10), (5, 10, 10), (1, 5, 5))

    def test_dm_order_by_id(self):
        assert taskset(self.TRIPLES).dm_order == (2, 0, 1)

    @pytest.mark.parametrize("strat", list(Strategy))
    def test_strategies_pack_in_id_order(self, strat):
        ts = taskset(self.TRIPLES)
        assert dm_partition(ts, strat).bins == reference_dm_bins(ts, strat) == ((1, 3), (2,))

    @given(id_permuted_tasksets(), st.sampled_from(list(Strategy)))
    def test_matches_reference_with_permuted_ids(self, ts, strat):
        assert dm_partition(ts, strat).bins == reference_dm_bins(ts, strat)


class TestDaggerGreedy:
    def test_first_fit_on_loads(self):
        # tightened utilizations 3/5, 3/5, 2/5: first and third share a bin
        ts = taskset([("3/5", 1, 1), ("3/5", 1, 1), ("2/5", 1, 1)])
        part = dagger_greedy(ts, Strategy.FIRST_FIT)
        assert part.bins == ((1, 3), (2,))

    def test_single_task(self):
        assert dagger_greedy(taskset([(1, 5, 3)]), Strategy.FIRST_FIT).m == 1

    def test_speedup_family_needs_one_bin_each(self):
        ts = gen_speedup_gap(4, F(1, 2))
        part = dagger_greedy(ts, Strategy.FIRST_FIT)
        assert part.m == 4

    @given(valid_tasksets(), st.sampled_from(list(Strategy)))
    def test_output_verifies_exact(self, ts, strat):
        part = dagger_greedy(ts, strat)
        assert verify_partition(ts, part)

    @given(valid_tasksets(), st.sampled_from(list(Strategy)))
    def test_any_fit_pairwise_load_property(self, ts, strat):
        part = dagger_greedy(ts, strat)
        u = tightened_utilizations(ts)
        loads = [sum((u[tid] for tid in b), F(0)) for b in part.bins]
        for i in range(len(loads)):
            for j in range(i + 1, len(loads)):
                assert loads[i] + loads[j] > 1

    @given(valid_tasksets(), st.sampled_from(list(Strategy)))
    def test_deterministic(self, ts, strat):
        assert dagger_greedy(ts, strat) == dagger_greedy(ts, strat)

    @given(
        st.one_of(valid_tasksets(max_n=8), tasksets_of_each_class(max_n=8)),
        st.sampled_from(list(Strategy)),
    )
    def test_matches_fraction_reference(self, ts, strat):
        assert dagger_greedy(ts, strat).bins == reference_dagger_bins(ts, strat)

    @pytest.mark.parametrize("strat", list(Strategy))
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_fraction_reference_on_random_sets(self, seed, strat):
        for cls in DeadlineClass:
            ts = gen_random(
                GenParams(seed=seed, n=40, deadline_class=cls, utilization_target=F(8))
            )
            got = dagger_greedy(ts, strat).bins
            assert got == reference_dagger_bins(ts, strat)

    @pytest.mark.parametrize("strat", list(Strategy))
    def test_tied_loads_match_reference(self, strat):
        # loads 3/5 and 6/5 / 2 tie when the third task arrives; the fourth,
        # tightened to 2/5, fills the second bin to exactly 1
        ts = taskset([("3/5", 1, 1), ("6/5", 2, 2), ("1/5", 1, 1), ("1/5", "1/2", 1)])
        got = dagger_greedy(ts, strat).bins
        assert got == reference_dagger_bins(ts, strat) == ((1, 3), (2, 4))

    @pytest.mark.parametrize("strat", list(Strategy))
    @pytest.mark.parametrize("case", range(len(TIED_AT_BINS_1_AND_2)))
    def test_tied_loads_at_bins_1_and_2(self, case, strat):
        ts, want = tied_case(case, strat)
        assert dagger_greedy(ts, strat).bins == reference_dagger_bins(ts, strat) == want
