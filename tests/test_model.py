import math
import pickle
import re
import sys
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from rtpack import io, model
from rtpack.generators import GenParams, gen_random
from rtpack.io import parse_taskset
from rtpack.model import (
    DeadlineClass,
    Task,
    TaskSet,
    as_rational,
    classify,
    dbf,
    dbf_star,
    gamma_metric,
    lambda_metric,
    require_valid,
    taskset,
    Violation,
    validate,
)

from rtpack.errors import CoverageError, ValidationError
from rtpack.feasibility import verify_partition
from rtpack.partitioners import Partition

from conftest import (
    held_ints,
    ints_of,
    ints_per_pair,
    tasksets_of_each_class,
    tightened_utilizations,
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

    def test_fraction_is_returned_as_it_is(self):
        value = F(3, 7)
        assert as_rational(value) is value

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

    def test_decimal_exponents(self):
        assert as_rational("1e2") == 100
        assert as_rational("2.5e-3") == F(1, 400)
        assert as_rational("1E+3") == 1000
        assert as_rational("1e-0_004_299") == F(1, 10**4299)

    @pytest.mark.parametrize("huge", ["1e-999999999", "1e999999999", "1e-5000", " 2E+4301 "])
    def test_exponent_past_the_limit_is_a_value_error(self, huge):
        with pytest.raises(ValueError, match="exponent"):
            as_rational(huge)

    @pytest.mark.parametrize(
        "value",
        ["1e4299", "1e-4299", pytest.param("9" * 4300, id="9*4300"),
         pytest.param("1/" + "9" * 4300, id="1/9*4300"),
         # 4401 characters, 2201 digits: underscores are not counted
         pytest.param("1_" * 2200 + "1", id="1_*2200+1")],
    )  # fmt: skip
    def test_values_up_to_the_digit_limit_print(self, value):
        assert as_rational(str(as_rational(value))) == as_rational(value)

    @pytest.mark.parametrize(
        "huge",
        ["1e4300", "1e-4300", "-1e4300", pytest.param("9" * 4300 + "e4299", id="9*4300e4299"),
         # a part written with more than 4300 digits, whatever its value
         pytest.param("9" * 4301, id="9*4301"), pytest.param("1/" + "9" * 4301, id="1/9*4301"),
         pytest.param("0" * 4300 + "1", id="0*4300+1"),
         pytest.param("1." + "0" * 4301, id="1.0*4301"),
         pytest.param("1_" * 4300 + "1", id="1_*4300+1")],
    )  # fmt: skip
    def test_values_past_the_digit_limit_are_a_value_error(self, huge):
        with pytest.raises(ValueError) as exc:
            as_rational(huge)
        assert str(exc.value) == f"{huge[:40]!r} has more than 4300 digits"


def _as_rational_reference(value):
    """`as_rational` as it was before plain "p" and "p/q" literals got a
    direct path: every string goes through Fraction's own parser.  A part
    of more than 4300 digits as written is refused with rtpack's own
    message before the parse, where int() would name its own limit."""
    if isinstance(value, bool):
        raise TypeError("booleans are not rational quantities")
    if isinstance(value, float):
        raise TypeError("floats are rejected; pass a string or Fraction to stay exact")
    if isinstance(value, str) and ("e" in value or "E" in value):
        exp = value.lower().rpartition("e")[2].strip().lstrip("+-")
        exp = exp.replace("_", "").lstrip("0")
        if exp.isdecimal() and (len(exp) > 4 or int(exp) > model.MAX_EXPONENT):
            raise ValueError(f"exponent of {value[:40]!r} exceeds {model.MAX_EXPONENT}")
    if isinstance(value, str) and any(
        len(part.replace("_", "")) > model.MAX_EXPONENT for part in re.split(r"[^\d_]", value)
    ):
        raise ValueError(f"{value[:40]!r} has more than {model.MAX_EXPONENT} digits")
    try:
        out = Fraction(value)
    except ZeroDivisionError as exc:
        raise ValueError(f"zero denominator in {value!r}") from exc
    if isinstance(value, str) and (
        abs(out.numerator) >= model.DIGIT_LIMIT or out.denominator >= model.DIGIT_LIMIT
    ):
        raise ValueError(f"{value[:40]!r} has more than {model.MAX_EXPONENT} digits")
    return out


def _outcome(convert, value):
    try:
        return convert(value)
    except Exception as exc:
        return type(exc), str(exc)


class TestPlainLiteralPath:
    # "\u0663" is an Arabic-Indic three, a decimal digit that int() and
    # Fraction's parser accept; "\u00b2" is a superscript two, a digit to
    # str.isdigit that neither accepts
    @example("0/5")
    @example("007/8")
    @example("1/0")
    @example("0/000")
    @example("3/")
    @example("/3")
    @example(" 1/2 ")
    @example("1/2/3")
    @example("\u0663/7")
    @example("\u00b2")
    @example("9" * 4299)
    @example("9" * 4300)
    @example("9" * 4299 + "/7")
    @example("9" * 4300 + "/7")
    @example("0" * 4300 + "1")
    @settings(max_examples=500)
    @given(st.text(alphabet="0123456789/+-_.eE \t\u0663\u00b2", max_size=12))
    def test_same_as_fraction_parser(self, text):
        got, want = _outcome(as_rational, text), _outcome(_as_rational_reference, text)
        assert got == want
        assert type(got) is type(want)

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit"
    )
    @pytest.mark.parametrize("value", ["9" * 4301, "1/" + "9" * 4301])
    def test_digit_limit_holds_past_the_int_limit(self, value):
        # with int()'s own limit lifted, only as_rational's check refuses
        # a part of 4301 digits
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            with pytest.raises(ValueError, match="has more than 4300 digits"):
                as_rational(value)
        finally:
            sys.set_int_max_str_digits(limit)


class TestUtilization:
    def test_quarter(self):
        assert Task(F(1), F(2), F(4)).utilization == F(1, 4)

    def test_saturated(self):
        assert Task(F(3), F(3), F(3)).utilization == 1

    def test_tiny_long_period(self):
        assert Task(F(1, 4), F(1), F(4096)).utilization == F(1, 16384)

    @given(
        st.lists(
            st.tuples(
                st.fractions(-5, 20, max_denominator=12),
                st.fractions(-5, 20, max_denominator=12),
                st.fractions(-5, 20, max_denominator=12).filter(lambda t: t != 0),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_total_matches_the_fraction_sum(self, triples):
        # invalid sets too (C > T, D <= 0, negative values): the total is
        # the plain sum of C/T whatever validate says
        ts = taskset(triples)
        assert ts.total_utilization == sum((c / t for c, _, t in triples), F(0))

    @pytest.mark.parametrize("periods", [(0,), (2, 0), (0, F(1, 2))])
    def test_zero_period_raises_as_the_fraction_sum_does(self, periods):
        ts = taskset((1, 1, t) for t in periods)
        with pytest.raises(ZeroDivisionError):
            sum((tsk.c / tsk.t for tsk in ts), F(0))
        with pytest.raises(ZeroDivisionError):
            ts.total_utilization


class TestDbf:
    def test_before_deadline(self):
        assert dbf(Task(F(2), F(5), F(7)), F(4)) == 0

    def test_first_job_due(self):
        assert dbf(Task(F(2), F(5), F(7)), F(5)) == 2

    def test_two_jobs(self):
        assert dbf(Task(F(2), F(5), F(7)), F(12)) == 4

    def test_star_before_deadline(self):
        assert dbf_star(Task(F(2), F(5), F(7)), F(4)) == 0

    def test_star_at_deadline(self):
        assert dbf_star(Task(F(2), F(5), F(7)), F(5)) == 2

    def test_star_fractional(self):
        assert dbf_star(Task(F(2), F(5), F(7)), F(6)) == F(16, 7)

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
        # lambda, gamma and the class compare the set's ints
        lam, gamma = lambda_metric(ts), gamma_metric(ts)
        assert (lam, gamma) == (reference_lambda(ts), reference_gamma(ts))
        assert isinstance(lam, F) and isinstance(gamma, F)
        assert classify(ts) is reference_class(ts)

    @pytest.mark.parametrize("metric", [lambda_metric, gamma_metric])
    def test_invalid_sets_are_refused(self, metric):
        # a negative deadline would flip the cross-multiplied comparison
        with pytest.raises(ValidationError):
            metric(taskset([(1, -1, 2)]))


class TestTransform:
    @given(valid_tasksets())
    def test_utilization_within_lambda_factor(self, ts):
        lam = lambda_metric(ts)
        tightened = tightened_utilizations(ts)
        for tsk in ts:
            assert tsk.utilization >= tightened[tsk.id] / lam


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
    return taskset((draw(field), draw(field), draw(field)) for _ in range(n))


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
        ts = taskset([(0, -1, 0)])
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
        # tasks 4 and 5, after three valid ones
        ts = taskset([(1, 2, 2)] * 3 + [("5/2", 0, "-1/3"), ("3/2", "1/2", 1)])
        assert [str(v) for v in validate(ts)] == [
            "task 4: D = 0 must be positive",
            "task 4: T = -1/3 must be positive",
            "task 5: C = 3/2 exceeds T = 1",
            "task 5: C = 3/2 exceeds D = 1/2",
        ]


@st.composite
def valid_triple_lists(draw):
    """(c, d, t) of 1 to 5 valid tasks; a whole value is drawn as an int
    or a Fraction."""
    out = []
    for _ in range(draw(st.integers(1, 5))):
        tsk = draw(valid_tasks())
        c, d, t = (
            draw(st.sampled_from([x, int(x)])) if x.denominator == 1 else x
            for x in (tsk.c, tsk.d, tsk.t)
        )
        out.append((c, d, t))
    return tuple(out)


@st.composite
def triple_lists(draw):
    """(c, d, t) of 1 to 5 tasks, valid or with zero, negative and
    oversized fields, ints or Fractions."""
    if draw(st.booleans()):
        return draw(valid_triple_lists())
    field = st.one_of(st.integers(-3, 12), st.builds(F, st.integers(-6, 40), st.integers(1, 12)))
    n = draw(st.integers(1, 5))
    return tuple((draw(field), draw(field), draw(field)) for _ in range(n))


class TestTaskSet:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            taskset([])

    @pytest.mark.parametrize(
        "args", [((Task(F(1), F(2), F(2)),),), ((), "set"), ([(1, 2, 2)],), ()]
    )
    def test_only_the_builders_build_a_set(self, args):
        # a set is built by `taskset` or `_of_pairs`, never called
        with pytest.raises(TypeError):
            TaskSet(*args)

    def test_ids_assigned_in_order(self):
        ts = taskset([(1, 2, 2), (1, 3, 3)])
        assert [t.id for t in ts] == [1, 2]

    @given(
        st.lists(
            st.tuples(*[st.integers(-6, 40), st.integers(1, 12)] * 3), min_size=1, max_size=5
        ),
        st.sampled_from(["", "set"]),
    )
    @example([(1, 1, 2, 1, 5, 2)], "")
    def test_rows_build_the_set_of_their_fractions(self, rows, name):
        # rows hold unreduced pairs, and a triple may hold a whole value as
        # an int; the row builder and `taskset` build one set, and neither
        # keeps tasks
        ts = model._of_rows(rows, name)
        want = taskset(
            [tuple(F(n, d) if d > 1 else n for n, d in zip(row[0::2], row[1::2])) for row in rows],
            name,
        )
        assert ts == want and hash(ts) == hash(want)
        assert "tasks" not in vars(ts) and "tasks" not in vars(want)
        assert held_ints(ts) == ints_of(want.tasks) and len(ts) == len(want)
        assert list(ts) == list(want) and "tasks" not in vars(ts)
        assert [str(v) for v in ts.violations] == [str(v) for v in validate(want)]
        assert repr(ts) == repr(want)
        copy = pickle.loads(pickle.dumps(ts))
        assert copy == ts and held_ints(copy) == held_ints(ts)
        with pytest.raises(AttributeError):
            ts.name = "other"

    @settings(max_examples=100)
    @given(triple_lists(), st.sampled_from(["", "set"]))
    @example(((1, 2, F(5, 2)),), "")
    @example(((F(3), 2, 4), (F(1, 2), 1, 0)), "set")
    def test_holds_the_view_not_the_tasks(self, triples, name):
        ts, twin = taskset(triples, name), taskset(triples, name)
        assert "tasks" not in vars(ts)
        assert ts == twin and hash(ts) == hash(twin)
        assert ts != taskset(triples, name + "x")
        assert len(ts) == len(triples)
        if all(t != 0 for _, _, t in triples):
            assert ts.total_utilization == sum(F(c) / t for c, _, t in triples)
        else:
            with pytest.raises(ZeroDivisionError):
                ts.total_utilization
        exact = [Task(F(c), F(d), F(t), i) for i, (c, d, t) in enumerate(triples, start=1)]
        assert validate(ts) == reference_validate(exact)
        rows = tuple(tuple(str(F(x)) for x in triple) for triple in triples)
        assert repr(ts) == f"taskset({rows!r}, name={name!r})"
        assert "tasks" not in vars(ts) and "tasks" not in vars(twin)

    @given(valid_triple_lists(), st.data())
    def test_coverage_error_names_ids_without_tasks(self, triples, data):
        ts = taskset(triples)
        ids = range(1, len(triples) + 1)
        kept = data.draw(st.lists(st.sampled_from(ids), max_size=len(ids) - 1, unique=True))
        missing = sorted(set(ids) - set(kept))
        with pytest.raises(CoverageError) as err:
            verify_partition(ts, Partition(tuple((tid,) for tid in kept), "test"))
        assert str(err.value) == f"partition misses task ids {missing}"
        assert "tasks" not in vars(ts)

    @given(triple_lists())
    @example(((1, F(3, 2), 2), (F(1, 3), 1, 1)))
    def test_tasks_read_off_the_view_are_the_given_ones(self, triples):
        ts = taskset(triples)
        got = ts.tasks
        for i, (have, (c, d, t)) in enumerate(zip(got, triples, strict=True), start=1):
            assert (have.id, have.c, have.d, have.t) == (i, c, d, t)
            assert {type(have.c), type(have.d), type(have.t)} == {F}
        assert ts.tasks is got

    def test_repr_reads_the_tasks_without_keeping_them(self):
        ts = taskset([("1/2", 2, 4), (1, 3, 3)], "set")
        text = "taskset((('1/2', '2', '4'), ('1', '3', '3')), name='set')"
        assert repr(ts) == text and "tasks" not in vars(ts)

    @given(triple_lists(), st.text(max_size=5))
    @example(((F(-1, 2), 0, 12),), "a'\"\n")
    def test_repr_rebuilds_the_set(self, triples, name):
        # repr is the builder call, valid set or not, whatever the name
        ts = taskset(triples, name)
        assert eval(repr(ts), {"taskset": taskset}) == ts

    @pytest.mark.parametrize("field", ["c", "d", "t"])
    @pytest.mark.parametrize(
        "value, message",
        [
            (True, "booleans are not rational quantities"),
            (False, "booleans are not rational quantities"),
            (1.5, "floats are rejected; pass a string or Fraction to stay exact"),
            (2.0, "floats are rejected; pass a string or Fraction to stay exact"),
            (None, "argument should be a string or a Rational instance"),
            ([1], "argument should be a string or a Rational instance"),
        ],
    )
    def test_inexact_field_is_a_type_error(self, field, value, message):
        # the one public builder refuses, in any field of any task, a value
        # that is not an int, a Fraction or a literal
        fields = {"c": F(1), "d": F(2), "t": F(4), field: value}
        with pytest.raises(TypeError) as err:
            taskset([(1, 2, 4), (fields["c"], fields["d"], fields["t"])])
        assert str(err.value) == message

    @pytest.mark.parametrize("name", ["scale", "c", "d", "name", "tasks", "whole", "other"])
    def test_assignment_is_refused(self, name):
        ts = taskset([(1, 2, 2)])
        with pytest.raises(FrozenInstanceError) as err:
            setattr(ts, name, None)
        assert str(err.value) == f"cannot assign to field {name!r}"

    def test_deletion_is_refused(self):
        ts = taskset([(1, 2, 2)])
        with pytest.raises(FrozenInstanceError) as err:
            del ts.c
        assert str(err.value) == "cannot delete field 'c'"
        assert ts.c == (1,)

    def test_equality_with_another_type_is_not_implemented(self):
        ts = taskset([(1, 2, 2)])
        assert ts.__eq__(object()) is NotImplemented
        assert ts.__eq__(held_ints(ts) + (ts.name,)) is NotImplemented
        assert ts != object()

    def test_every_constructor_builds_one_set(self, monkeypatch):
        triples = [("1/2", 2, "5/2"), (3, 4, 4)]
        want = taskset([(F(1, 2), F(2), F(5, 2)), (F(3), F(4), F(4))], "set")
        assert [tsk.id for tsk in want] == [1, 2]

        # the parser, the generators and `taskset` build from flat pairs
        # they made valid: each set is the one `taskset` builds from the
        # Fractions of the same pairs
        built = []
        real = model._of_pairs

        def spy(nums, dens, name):
            ts = real(nums, dens, name)
            pairs = [x for pair in zip(nums, dens) for x in pair]
            built.append((ts, [tuple(pairs[k : k + 6]) for k in range(0, len(pairs), 6)], name))
            return ts

        for module in (model, io):
            monkeypatch.setattr(module, "_of_pairs", spy)
        doc = (
            '{"name": "doc", "tasks": [{"c": "1/2", "d": "2", "t": "2.5"},'
            ' {"c": 3, "d": "4e0", "t": "8/2"}]}'
        )
        parsed = parse_taskset(doc)
        for cls in DeadlineClass:
            gen_random(GenParams(seed=5, n=6, deadline_class=cls, utilization_target=Fraction(2)))
        assert taskset(triples, "set") == want
        monkeypatch.undo()
        assert [name for _, _, name in built] == ["doc", *["random-s5"] * 3, "set"]
        assert parsed == taskset(triples, "doc")
        for ts, rows, name in built:
            fractions = [(F(cn, cd), F(dn, dd), F(tn, td)) for cn, cd, dn, dd, tn, td in rows]
            assert ts == taskset(fractions, name)

    @pytest.mark.parametrize("row", [(1, 2), (1, 2, 2, 2)])
    def test_taskset_refuses_a_row_that_is_not_a_triple(self, row):
        with pytest.raises(ValueError):
            taskset([(1, 2, 2), row])

    @pytest.mark.parametrize(
        "value, message",
        [
            (True, "booleans are not rational quantities"),
            (0.5, "floats are rejected; pass a string or Fraction to stay exact"),
        ],
    )
    @pytest.mark.parametrize("field", [0, 1, 2])
    def test_taskset_refuses_inexact_values(self, field, value, message):
        row = [1, 2, 2]
        row[field] = value
        with pytest.raises(TypeError) as err:
            taskset([(1, 2, 2), tuple(row)])
        assert str(err.value) == message


# every derived term of a set, in an order in which a term's own reads of
# other terms come after those terms
LAZY_TERMS = ("tasks", "whole", "share", "offset", "span", "span_whole", "span_share",
              "violations", "dm_order")  # fmt: skip


class TestLazyTerms:
    """Each derived term of a set is computed on its first read and kept
    in the set's `__dict__`; the set stays frozen."""

    def test_each_term_computed_once_and_kept(self, monkeypatch):
        calls = dict.fromkeys(LAZY_TERMS, 0)
        for name in LAZY_TERMS:
            descriptor = vars(TaskSet)[name]
            assert getattr(TaskSet, name) is descriptor

            def counted(ts, name=name, func=descriptor.func):
                calls[name] += 1
                return func(ts)

            monkeypatch.setattr(descriptor, "func", counted)
        ts = taskset([("1/2", 2, "5/2"), (3, 4, 4), ("1/3", "7/2", 3)])
        assert not set(LAZY_TERMS) & set(vars(ts))
        for _ in range(3):
            values = {name: getattr(ts, name) for name in LAZY_TERMS}
        assert calls == dict.fromkeys(LAZY_TERMS, 1)
        assert {name: vars(ts)[name] for name in LAZY_TERMS} == values
        for name in LAZY_TERMS:
            with pytest.raises(FrozenInstanceError) as err:
                setattr(ts, name, None)
            assert str(err.value) == f"cannot assign to field {name!r}"

        # a pickle round-trip keeps the terms: the copy computes none again
        copy = pickle.loads(pickle.dumps(ts))
        assert {name: vars(copy)[name] for name in LAZY_TERMS} == values
        assert {name: getattr(copy, name) for name in LAZY_TERMS} == values
        assert calls == dict.fromkeys(LAZY_TERMS, 1)
        assert copy == ts and hash(copy) == hash(ts)


class TestIntegerValues:
    def test_scale_is_the_lcm_of_all_denominators(self):
        ts = taskset([("1/2", "3/4", 2), ("1/3", 1, "5/6")])
        assert held_ints(ts) == (12, (6, 4), (9, 12), (24, 10))

    def test_kept_and_invisible_to_equality_and_pickling(self):
        ts = taskset([("1/2", "3/4", 2)])
        assert ts.share is ts.share and ts.whole == 8
        fresh = taskset([("1/2", "3/4", 2)])
        assert "share" not in vars(fresh) and "whole" not in vars(fresh)
        assert ts == fresh and hash(ts) == hash(fresh)
        copy = pickle.loads(pickle.dumps(ts))
        assert copy == ts and held_ints(copy) == held_ints(ts)

    @given(st.one_of(valid_tasksets(), tasksets_of_each_class()))
    def test_shares_and_densities_over_the_hyperperiods(self, ts):
        periods = [tsk.t * ts.scale for tsk in ts]
        spans = [min(tsk.d, tsk.t) * ts.scale for tsk in ts]
        assert ts.whole == math.lcm(*map(int, periods))
        assert ts.span_whole == math.lcm(*map(int, spans))
        for tsk, share, off, dens in zip(ts, ts.share, ts.offset, ts.span_share):
            assert F(share, ts.whole) == tsk.c / tsk.t
            # the intercept of the dbf* line, at the set's scale
            assert F(off, ts.scale) == (tsk.c - tsk.c / tsk.t * tsk.d) * ts.whole
            assert F(dens, ts.span_whole) == tsk.c / min(tsk.d, tsk.t)
        assert ts.share is ts.share and ts.span_share is ts.span_share
        assert ts.offset is ts.offset

    @given(valid_tasksets(), st.data())
    def test_demand_lines_are_dbf_star(self, ts, data):
        for i, tsk in enumerate(ts):
            # from D on, dbf* is the line of share and offset over whole
            t = ts.d[i] + data.draw(st.integers(0, 3 * ts.t[i]))
            line = ts.share[i] * t + ts.offset[i]
            assert dbf_star(tsk, F(t, ts.scale)) * ts.scale * ts.whole == line
            # the tightened task (C, D', D'), D' = min(D, T), has the line
            # of span_share through the origin, which the dagger packer reads
            span = min(tsk.d, tsk.t)
            t = min(ts.d[i], ts.t[i]) + data.draw(st.integers(0, 3 * ts.t[i]))
            tight = dbf_star(Task(tsk.c, span, span, tsk.id), F(t, ts.scale))
            assert tight * ts.scale * ts.span_whole == ts.span_share[i] * t

    @given(valid_tasksets())
    def test_values_are_the_scaled_fractions(self, ts):
        for tsk, c, d, t in zip(ts, ts.c, ts.d, ts.t):
            assert (tsk.c * ts.scale, tsk.d * ts.scale, tsk.t * ts.scale) == (c, d, t)

    @settings(max_examples=200)
    @given(
        st.lists(
            st.tuples(*[st.integers(-40, 40), st.integers(1, 60)] * 3), min_size=1, max_size=6
        )
    )
    @example([(0, 4, 0, 6, 0, 2)])
    @example([(2, 4, -3, 6, 5, 10)])
    @example([(6, 4, 9, 6, 0, 12)])
    def test_one_normalization_is_the_per_pair_reduction(self, rows):
        # signed, zero and unreduced pairs: scaling by the lcm of the
        # denominators as given and dividing by one gcd gives the values
        # that reducing every pair first gives
        nums = [n for row in rows for n in row[0::2]]
        dens = [d for row in rows for d in row[1::2]]
        assert model._view_of(nums, dens) == ints_per_pair(nums, dens)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_every_builder_holds_the_five_values_alone(self, seed):
        fields = {"scale", "c", "d", "t", "name"}
        made = gen_random(GenParams(seed=seed, n=5, utilization_target=F(3, 2)))
        assert set(vars(made)) == fields
        by_triples = taskset(((tsk.c, tsk.d, tsk.t) for tsk in made), made.name)
        parsed = parse_taskset(io.serialize_taskset(made))
        assert set(vars(by_triples)) == fields
        # the parser validates the set it built and keeps the verdict
        assert set(vars(parsed)) == fields | {"violations"}
        for ts in (by_triples, parsed):
            assert ts == made and hash(ts) == hash(made)
            assert held_ints(ts) == held_ints(made)
            assert all(type(x) is int for x in (ts.scale, *ts.c, *ts.d, *ts.t))
