import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from rtpack import model
from rtpack.model import (
    DeadlineClass,
    IntView,
    Task,
    TaskSet,
    as_rational,
    classify,
    dbf,
    dbf_star,
    gamma_metric,
    lambda_metric,
    require_valid,
    task,
    taskset,
    transform_dagger,
    Violation,
    validate,
)

from rtpack.errors import ValidationError

from conftest import (
    rationals,
    tasksets_of_each_class,
    time_points,
    valid_tasks,
    valid_tasksets,
)

F = Fraction


class TestRationalConversion:
    def test_decimal_literal_is_exact(self):
        assert as_rational("0.25") == F(1, 4)

    def test_fraction_literal(self):
        assert as_rational("1/3") == F(1, 3)

    def test_int_passthrough(self):
        assert as_rational(7) == F(7)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            as_rational(0.1)

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            as_rational(True)

    def test_zero_denominator_is_a_value_error(self):
        with pytest.raises(ValueError, match="zero denominator"):
            as_rational("1/0")


class TestUtilization:
    def test_quarter(self):
        assert task(1, 2, 4).utilization == F(1, 4)

    def test_saturated(self):
        assert task(3, 3, 3).utilization == 1

    def test_tiny_long_period(self):
        assert task("1/4", 1, 4096).utilization == F(1, 16384)


class TestDbf:
    def test_before_deadline(self):
        assert dbf(task(2, 5, 7), F(4)) == 0

    def test_first_job_due(self):
        assert dbf(task(2, 5, 7), F(5)) == 2

    def test_two_jobs(self):
        assert dbf(task(2, 5, 7), F(12)) == 4

    def test_star_before_deadline(self):
        assert dbf_star(task(2, 5, 7), F(4)) == 0

    def test_star_at_deadline(self):
        assert dbf_star(task(2, 5, 7), F(5)) == 2

    def test_star_fractional(self):
        assert dbf_star(task(2, 5, 7), F(6)) == F(16, 7)

    @given(valid_tasks(), time_points())
    def test_dbf_below_star(self, tsk, t):
        assert dbf(tsk, t) <= dbf_star(tsk, t)

    @given(valid_tasks(), time_points(), time_points())
    def test_nondecreasing(self, tsk, t1, t2):
        lo, hi = min(t1, t2), max(t1, t2)
        assert dbf(tsk, lo) <= dbf(tsk, hi)
        assert dbf_star(tsk, lo) <= dbf_star(tsk, hi)

    @given(valid_tasks())
    def test_zero_below_and_c_at_deadline(self, tsk):
        below = tsk.d - F(1, 100)
        if below >= 0:
            assert dbf(tsk, below) == 0
            assert dbf_star(tsk, below) == 0
        assert dbf(tsk, tsk.d) == tsk.c
        assert dbf_star(tsk, tsk.d) == tsk.c

    @given(valid_tasks(), time_points())
    def test_period_shift_additivity(self, tsk, t):
        t = t + tsk.d  # ensure t >= D
        assert dbf(tsk, t + tsk.t) == dbf(tsk, t) + tsk.c


def reference_lambda(ts):
    return max(max(tsk.t / tsk.d, F(1)) for tsk in ts)


def reference_gamma(ts):
    return max(tsk.c / min(tsk.t, tsk.d) for tsk in ts)


def reference_class(ts):
    if all(tsk.d == tsk.t for tsk in ts):
        return DeadlineClass.IMPLICIT
    if all(tsk.d <= tsk.t for tsk in ts):
        return DeadlineClass.CONSTRAINED
    return DeadlineClass.ARBITRARY


class TestMetrics:
    def test_lambda_ratio(self):
        assert lambda_metric(taskset([(1, 2, 4)])) == 2

    def test_lambda_implicit_is_one(self):
        assert lambda_metric(taskset([(1, 3, 3)])) == 1

    def test_lambda_max_over_tasks(self):
        assert lambda_metric(taskset([(1, 4, 2), (1, 1, 5)])) == 5

    def test_gamma(self):
        assert gamma_metric(taskset([(1, 2, 4)])) == F(1, 2)

    def test_gamma_boundary(self):
        assert gamma_metric(taskset([(3, 3, 3)])) == 1

    def test_gamma_max_over_tasks(self):
        assert gamma_metric(taskset([(1, 4, 2), (1, 8, 8)])) == F(1, 2)

    @given(st.one_of(valid_tasksets(), tasksets_of_each_class()))
    def test_view_matches_fraction_references(self, ts):
        # lambda, gamma and the class compare ints of the integer view
        lam, gamma = lambda_metric(ts), gamma_metric(ts)
        assert (lam, gamma) == (reference_lambda(ts), reference_gamma(ts))
        assert isinstance(lam, F) and isinstance(gamma, F)
        assert classify(ts) is reference_class(ts)

    @pytest.mark.parametrize("metric", [lambda_metric, gamma_metric])
    def test_invalid_sets_are_refused(self, metric):
        # a negative deadline would flip the cross-multiplied comparison
        with pytest.raises(ValidationError):
            metric(TaskSet((Task(F(1), F(-1), F(2), id=1),)))


class TestTransform:
    def test_period_shrinks_to_deadline(self):
        out = transform_dagger(taskset([(2, 4, 10)]))
        assert out.tasks[0] == Task(F(2), F(4), F(4), id=1)

    def test_deadline_shrinks_to_period(self):
        out = transform_dagger(taskset([(1, 5, 3)]))
        assert out.tasks[0] == Task(F(1), F(3), F(3), id=1)

    def test_implicit_fixed_point(self):
        ts = taskset([(1, 3, 3)])
        assert transform_dagger(ts) == ts

    @given(valid_tasksets())
    def test_idempotent(self, ts):
        once = transform_dagger(ts)
        assert transform_dagger(once) == once

    @given(valid_tasksets())
    def test_tightened_utilization_is_density(self, ts):
        out = transform_dagger(ts)
        for before, after in zip(ts, out):
            assert after.utilization == before.c / min(before.t, before.d)
            assert after.d <= before.d
            assert after.t <= before.t
            assert after.id == before.id

    @given(valid_tasksets())
    def test_result_implicit_and_lambda_one(self, ts):
        out = transform_dagger(ts)
        assert classify(out) is DeadlineClass.IMPLICIT
        assert lambda_metric(out) == 1

    @given(valid_tasksets())
    def test_utilization_within_lambda_factor(self, ts):
        lam = lambda_metric(ts)
        out = transform_dagger(ts)
        for before, after in zip(ts, out):
            assert before.utilization >= after.utilization / lam


class TestClassify:
    def test_implicit(self):
        assert classify(taskset([(1, 3, 3)])) is DeadlineClass.IMPLICIT

    def test_constrained(self):
        assert classify(taskset([(1, 2, 3)])) is DeadlineClass.CONSTRAINED

    def test_arbitrary(self):
        assert classify(taskset([(1, 5, 3)])) is DeadlineClass.ARBITRARY

    def test_constrained_needs_all_tasks(self):
        assert (
            classify(taskset([(1, 3, 3), (1, 2, 3)])) is DeadlineClass.CONSTRAINED
        )


def reference_validate(ts):
    """validate's definition on the tasks' Fractions."""
    out = []
    for tsk in ts:
        if tsk.c <= 0:
            out.append(Violation(tsk.id, "c", f"C = {tsk.c} must be positive"))
        if tsk.d <= 0:
            out.append(Violation(tsk.id, "d", f"D = {tsk.d} must be positive"))
        if tsk.t <= 0:
            out.append(Violation(tsk.id, "t", f"T = {tsk.t} must be positive"))
        if tsk.t > 0 and tsk.c / tsk.t > 1:
            out.append(Violation(tsk.id, "c", f"C = {tsk.c} exceeds T = {tsk.t}"))
        if tsk.d > 0 and tsk.c / tsk.d > 1:
            out.append(Violation(tsk.id, "c", f"C = {tsk.c} exceeds D = {tsk.d}"))
    return out


@st.composite
def any_fields(draw):
    """Task sets with zero, negative and oversized fields."""
    field = st.builds(F, st.integers(-4, 8), st.integers(1, 3))
    n = draw(st.integers(1, 4))
    return TaskSet(tuple(Task(draw(field), draw(field), draw(field), i + 1) for i in range(n)))


class TestValidate:
    def test_clean(self):
        assert validate(taskset([(1, 2, 4)])) == []

    def test_density_violation(self):
        # C=5, D=2, T=4 breaches both C/D <= 1 and C/T <= 1: one record each
        out = validate(taskset([(5, 2, 4)]))
        assert {v.task_id for v in out} == {1}
        assert any("exceeds D" in v.message for v in out)
        assert any("exceeds T" in v.message for v in out)

    def test_utilization_violation(self):
        out = validate(taskset([(5, 6, 4)]))
        assert len(out) == 1 and "exceeds T" in out[0].message

    def test_nonpositive_fields(self):
        ts = TaskSet((Task(F(0), F(-1), F(0), id=1),))
        fields = {v.field for v in validate(ts)}
        assert fields == {"c", "d", "t"}

    @given(valid_tasksets())
    def test_generated_sets_are_clean(self, ts):
        assert validate(ts) == []

    def test_require_valid_raises_every_violation(self):
        ts = taskset([(5, 2, 4)])
        require_valid(taskset([(1, 2, 4)]))
        with pytest.raises(ValidationError) as err:
            require_valid(ts)
        assert err.value.violations == validate(ts)

    def test_require_valid_validates_a_set_once(self, monkeypatch):
        calls = []
        real = model.validate
        monkeypatch.setattr(model, "validate", lambda ts: calls.append(ts) or real(ts))
        ts = taskset([(5, 2, 4)])
        for _ in range(3):
            with pytest.raises(ValidationError):
                require_valid(ts)
        assert len(calls) == 1

    @settings(max_examples=200)
    @given(st.one_of(any_fields(), valid_tasksets()))
    def test_matches_fraction_reference_with_messages(self, ts):
        got, want = validate(ts), reference_validate(ts)
        assert got == want
        assert [str(v) for v in got] == [str(v) for v in want]

    def test_messages_print_the_fractions(self):
        ts = TaskSet((Task(F(5, 2), F(0), F(-1, 3), id=4), Task(F(3, 2), F(1, 2), F(1), id=5)))
        assert [str(v) for v in validate(ts)] == [
            "task 4: D = 0 must be positive",
            "task 4: T = -1/3 must be positive",
            "task 5: C = 3/2 exceeds T = 1",
            "task 5: C = 3/2 exceeds D = 1/2",
        ]


class TestTaskSet:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            TaskSet((Task(F(1), F(2), F(2), id=1), Task(F(1), F(2), F(2), id=1)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TaskSet(())

    def test_ids_assigned_in_order(self):
        ts = taskset([(1, 2, 2), (1, 3, 3)])
        assert [t.id for t in ts] == [1, 2]

    def test_by_id(self):
        ts = taskset([(1, 2, 2), (1, 3, 3)])
        assert ts.by_id(2).d == 3
        with pytest.raises(KeyError):
            ts.by_id(99)


class TestIntView:
    def test_scale_is_the_lcm_of_all_denominators(self):
        view = taskset([("1/2", "3/4", 2), ("1/3", 1, "5/6")]).ints
        assert view == IntView(12, (6, 4), (9, 12), (24, 10))

    def test_kept_and_invisible_to_equality_and_pickling(self):
        ts = taskset([("1/2", "3/4", 2)])
        assert ts.ints is ts.ints
        fresh = taskset([("1/2", "3/4", 2)])
        assert ts == fresh and hash(ts) == hash(fresh)
        copy = pickle.loads(pickle.dumps(ts))
        assert copy == ts and copy.ints == ts.ints

    @given(st.one_of(valid_tasksets(), tasksets_of_each_class()))
    def test_shares_and_densities_over_the_hyperperiods(self, ts):
        view = ts.ints
        periods = [tsk.t * view.scale for tsk in ts]
        spans = [min(tsk.d, tsk.t) * view.scale for tsk in ts]
        assert view.whole == math.lcm(*map(int, periods))
        assert view.span_whole == math.lcm(*map(int, spans))
        for tsk, share, dens in zip(ts, view.share, view.span_share):
            assert F(share, view.whole) == tsk.c / tsk.t
            assert F(dens, view.span_whole) == tsk.c / min(tsk.d, tsk.t)
        assert view.share is view.share and view.span_share is view.span_share

    @given(valid_tasksets())
    def test_values_are_the_scaled_fractions(self, ts):
        view = ts.ints
        for tsk, c, d, t in zip(ts, view.c, view.d, view.t):
            assert (tsk.c * view.scale, tsk.d * view.scale, tsk.t * view.scale) == (c, d, t)
