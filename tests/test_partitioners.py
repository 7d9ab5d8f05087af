from fractions import Fraction

import pytest
from hypothesis import given
import hypothesis.strategies as st

from rtpack.errors import BadParam, ValidationError
from rtpack.feasibility import Mode, verify_partition
from rtpack.generators import (
    GenParams,
    gen_best_fit_adversary,
    gen_random,
    gen_speedup_gap,
    gen_worst_fit_adversary,
)
from rtpack.model import DeadlineClass, dbf_star, task, taskset, transform_dagger
from rtpack.partitioners import (
    Strategy,
    dagger_greedy,
    dm_admits,
    dm_order,
    dm_partition,
)

from conftest import tasksets_of_each_class, valid_tasksets

F = Fraction


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
    for tsk in transform_dagger(ts):
        u = tsk.utilization
        fits = [i for i in range(len(bins)) if loads[i] + u <= 1]
        if not fits:
            bins.append([tsk.id])
            loads.append(u)
            continue
        if strat is Strategy.FIRST_FIT:
            pick = fits[0]
        elif strat is Strategy.BEST_FIT:
            pick = max(fits, key=lambda i: (loads[i], -i))
        else:
            pick = min(fits, key=lambda i: (loads[i], i))
        bins[pick].append(tsk.id)
        loads[pick] += u
    return tuple(tuple(sorted(b)) for b in bins)


class TestDmAdmits:
    @given(valid_tasksets(), st.data())
    def test_matches_dbf_star_admission(self, ts, data):
        ordered = dm_order(ts)
        cand = ordered[-1]
        held = [tsk for tsk in ordered[:-1] if data.draw(st.booleans())]
        demand = cand.c + sum((dbf_star(tsk, cand.d) for tsk in held), F(0))
        load = cand.utilization + sum((tsk.utilization for tsk in held), F(0))
        assert dm_admits(held, cand) == (demand <= cand.d and load <= 1)

    def test_roomy_bin(self):
        assert dm_admits([task(1, 2, 4)], task(1, 3, 6)) is True

    def test_empty_bin_admits_any_valid_task(self):
        assert dm_admits([], task(1, 1, 1)) is True

    def test_utilization_overflow(self):
        assert dm_admits([task(1, 1, 1)], task(1, 2, 2)) is False

    def test_later_deadline_bin_task_refused(self):
        # dbf* of the held task at 2 is 0; U*2 + A would count 3/4
        with pytest.raises(BadParam, match="deadlines after"):
            dm_admits([task(1, 3, 4)], task(1, 2, 4))


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
    def test_output_verifies_in_both_modes(self, ts, strat):
        part = dm_partition(ts, strat)
        assert verify_partition(ts, part, Mode.APPROXIMATE)
        assert verify_partition(ts, part, Mode.EXACT)

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
        assert verify_partition(ts, part, Mode.EXACT)

    @given(valid_tasksets(), st.sampled_from(list(Strategy)))
    def test_any_fit_pairwise_load_property(self, ts, strat):
        part = dagger_greedy(ts, strat)
        dag = transform_dagger(ts)
        loads = [
            sum((dag.by_id(tid).utilization for tid in b), F(0)) for b in part.bins
        ]
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
