from fractions import Fraction

import pytest
from hypothesis import given

from rtpack.errors import BadParam, EventExplosion, ValidationError
from rtpack.feasibility import edf_feasible_exact
from rtpack.model import taskset
from rtpack.simulate import simulate_edf_synchronous

from conftest import valid_tasksets

F = Fraction


class TestTraces:
    def test_saturated_single_task(self):
        trace = simulate_edf_synchronous(taskset([(1, 1, 1)]), F(3))
        assert trace.misses == ()
        assert trace.idle == ()
        assert trace.preemptions == 0

    def test_two_clashing_tasks_miss_at_one(self):
        trace = simulate_edf_synchronous(taskset([(1, 1, 2), (1, 1, 2)]), F(2))
        assert trace.misses == ((2, F(1)),)
        assert trace.idle == ((F(1), F(2)),)

    def test_adversary_odd_tasks_alone(self):
        odds = taskset([("1/4", 1, 4096), (3, 4, 4096), (12, 16, 4096), (48, 64, 4096)])
        trace = simulate_edf_synchronous(odds, F(4096))
        assert trace.misses == ()

    def test_speed_two_fixes_the_clash(self):
        trace = simulate_edf_synchronous(taskset([(1, 1, 2), (1, 1, 2)]), F(2), speed=F(2))
        assert trace.misses == ()

    def test_later_release_preempts(self):
        # short-deadline arrivals at 2 interrupt the long job
        ts = taskset([(2, 5, 10), (1, 1, 2)])
        trace = simulate_edf_synchronous(ts, F(5))
        assert trace.misses == ()
        assert trace.preemptions == 1

    def test_missed_job_is_dropped_and_sim_continues(self):
        ts = taskset([(2, 2, 2), (2, 2, 2)])
        trace = simulate_edf_synchronous(ts, F(4))
        assert trace.misses == ((2, F(2)), (2, F(4)))

    def test_schedulable_flag(self):
        assert simulate_edf_synchronous(taskset([(1, 1, 1)]), F(2)).schedulable
        assert not simulate_edf_synchronous(
            taskset([(1, 1, 2), (1, 1, 2)]), F(2)
        ).schedulable


class TestGuards:
    def test_invalid_set_refused(self):
        with pytest.raises(ValidationError):
            simulate_edf_synchronous(taskset([(5, 2, 4)]), F(4))

    def test_bad_horizon(self):
        with pytest.raises(BadParam):
            simulate_edf_synchronous(taskset([(1, 1, 1)]), F(0))

    def test_bad_speed(self):
        with pytest.raises(BadParam):
            simulate_edf_synchronous(taskset([(1, 1, 1)]), F(1), speed=F(0))

    @pytest.mark.parametrize("cap", [0, -3])
    def test_event_cap_below_one(self, cap):
        with pytest.raises(BadParam) as err:
            simulate_edf_synchronous(taskset([(1, 1, 1)]), F(1), event_cap=cap)
        assert str(err.value) == f"event cap must be at least 1, got {cap}"

    def test_event_cap(self):
        with pytest.raises(EventExplosion):
            simulate_edf_synchronous(taskset([(1, 1, 1)]), F(100), event_cap=5)

    def test_event_cap_admits_exactly_its_count(self):
        # one job per unit of time: a horizon of 3 takes exactly 3 events
        ts = taskset([(1, 1, 1)])
        assert simulate_edf_synchronous(ts, F(3), event_cap=3).schedulable
        with pytest.raises(EventExplosion, match="simulation exceeded 2 events"):
            simulate_edf_synchronous(ts, F(3), event_cap=2)


class TestAgreementWithExactTest:
    @given(valid_tasksets(max_n=4))
    def test_feasible_iff_no_miss(self, ts):
        verdict = edf_feasible_exact(ts)
        if verdict.feasible:
            trace = simulate_edf_synchronous(ts, verdict.horizon)
            assert trace.misses == ()
        else:
            trace = simulate_edf_synchronous(ts, verdict.witness)
            assert trace.misses != ()
            assert all(deadline <= verdict.witness for _, deadline in trace.misses)
