import json
from fractions import Fraction

import pytest
import hypothesis.strategies as st
from hypothesis import example, given

from rtpack.errors import ParseError, ValidationError
from rtpack.generators import DvpInstance, gen_best_fit_adversary, gen_random_dvp
from rtpack.io import parse_rational, parse_taskset, serialize_dvp, serialize_taskset
from rtpack.model import Task, TaskSet

from conftest import valid_tasksets

F = Fraction


class TestParseTaskset:
    def test_minimal(self):
        ts = parse_taskset(b'{"tasks":[{"c":"1","d":"2","t":"4"}]}')
        assert len(ts) == 1
        assert ts.tasks[0].c == 1 and ts.tasks[0].id == 1

    def test_decimal_is_exact(self):
        ts = parse_taskset(b'{"tasks":[{"c":"0.25","d":"1","t":"4096"}]}')
        assert ts.tasks[0].c == F(1, 4)

    def test_validation_rejects_dense_task(self):
        with pytest.raises(ValidationError) as err:
            parse_taskset(b'{"tasks":[{"c":"3","d":"2","t":"4"}]}')
        assert err.value.violations

    def test_ids_in_file_order(self):
        ts = parse_taskset(
            b'{"tasks":[{"c":"1","d":"9","t":"9"},{"c":"1","d":"2","t":"2"}]}'
        )
        assert [t.id for t in ts] == [1, 2]
        assert ts.tasks[0].d == 9

    def test_json_ints_accepted(self):
        ts = parse_taskset(b'{"tasks":[{"c":1,"d":2,"t":4}]}')
        assert ts.tasks[0].t == 4

    def test_json_floats_rejected(self):
        with pytest.raises(ParseError):
            parse_taskset(b'{"tasks":[{"c":0.25,"d":1,"t":4}]}')

    def test_missing_field(self):
        with pytest.raises(ParseError) as err:
            parse_taskset(b'{"tasks":[{"c":"1","d":"2"}]}')
        assert "task 1" in str(err.value)

    def test_bad_json(self):
        with pytest.raises(ParseError):
            parse_taskset(b"{nope")

    def test_bad_shapes(self):
        with pytest.raises(ParseError):
            parse_taskset(b"[]")
        with pytest.raises(ParseError):
            parse_taskset(b'{"tasks": []}')
        with pytest.raises(ParseError):
            parse_taskset(b'{"tasks": [42]}')

    def test_bad_rational_string(self):
        with pytest.raises(ParseError):
            parse_taskset(b'{"tasks":[{"c":"one","d":"2","t":"4"}]}')
        with pytest.raises(ParseError):
            parse_taskset(b'{"tasks":[{"c":"1/0","d":"2","t":"4"}]}')


class TestRoundTrip:
    @given(valid_tasksets())
    def test_taskset_round_trip(self, ts):
        assert parse_taskset(serialize_taskset(ts)) == ts

    def test_adversary_round_trip_with_huge_values(self):
        ts = gen_best_fit_adversary(8)
        assert parse_taskset(serialize_taskset(ts)) == ts

    def test_dvp_round_trip(self):
        dvp = gen_random_dvp(11, 6)
        doc = json.loads(serialize_dvp(dvp))
        vectors = tuple(
            (parse_rational(v1), parse_rational(v2)) for v1, v2 in doc["vectors"]
        )
        assert DvpInstance(vectors) == dvp

    def test_serialized_form_is_strings(self):
        text = serialize_taskset(parse_taskset(b'{"tasks":[{"c":"0.25","d":"1","t":"2"}]}'))
        assert '"c": "1/4"' in text


names = st.one_of(st.sampled_from(['say "hi"', "back\\slash", "\x00\t\n", "é ☃", ""]), st.text())
values = st.one_of(
    st.sampled_from([F(0), F(1), F(1, 2), F(10**60 + 1, 3)]),
    st.fractions(max_denominator=10**9),
)
unit_values = st.fractions(min_value=0, max_value=1, max_denominator=10**9).filter(bool)


def vector(pair):
    """A dominated vector from two values in (0, 1]: v2 = 0 when they tie."""
    lo, hi = sorted(pair)
    return (lo, hi if hi > lo else F(0))


class TestSerializedBytes:
    """The writers lay out lines by template; they must keep the bytes of
    `json.dumps(doc, indent=2)`."""

    @example("", ((F(1), F(1), F(2)),))
    @example('a "b"\\', ((F(1), F(2), F(2)), (F(1), F(2), F(2)), (F(3), F(2), F(5))))
    @given(names, st.lists(st.tuples(values, values, values), min_size=1, max_size=5))
    def test_taskset_same_bytes_as_json_dumps(self, name, cdt):
        ts = TaskSet(tuple(Task(c, d, t, id=i) for i, (c, d, t) in enumerate(cdt)), name=name)
        doc = {
            "name": name,
            "tasks": [{"c": str(c), "d": str(d), "t": str(t)} for c, d, t in cdt],
        }
        assert serialize_taskset(ts) == json.dumps(doc, indent=2) + "\n"

    @example([])
    @example([(F(1, 2), F(0)), (F(1, 2), F(1)), (F(1, 2), F(0))])
    @given(st.lists(st.tuples(unit_values, unit_values).map(vector), max_size=5))
    def test_dvp_same_bytes_as_json_dumps(self, vectors):
        doc = {"vectors": [[str(v1), str(v2)] for v1, v2 in vectors]}
        assert serialize_dvp(DvpInstance(tuple(vectors))) == json.dumps(doc, indent=2) + "\n"


class TestParseRational:
    def test_forms(self):
        assert parse_rational("3/4") == F(3, 4)
        assert parse_rational("0.125") == F(1, 8)
        assert parse_rational(7) == 7

    def test_rejections(self):
        for bad in (True, 0.5, [1], "x", "1/0"):
            with pytest.raises(ParseError):
                parse_rational(bad)

    def test_decimal_exponents(self):
        assert parse_rational("1e2") == 100
        assert parse_rational("2.5e-3") == F(1, 400)

    def test_huge_exponent_refused_naming_where(self):
        with pytest.raises(ParseError, match="task 1, field 'c'.*exponent"):
            parse_rational("1e-999999999", where="task 1, field 'c'")
