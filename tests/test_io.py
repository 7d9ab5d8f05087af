from fractions import Fraction

import pytest
from hypothesis import given

from rtpack.errors import ParseError, ValidationError
from rtpack.generators import DvpInstance, gen_best_fit_adversary, gen_random_dvp
from rtpack.io import (
    parse_dvp,
    parse_rational,
    parse_taskset,
    serialize_dvp,
    serialize_taskset,
)

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
        assert parse_dvp(serialize_dvp(dvp)) == dvp

    def test_serialized_form_is_strings(self):
        text = serialize_taskset(parse_taskset(b'{"tasks":[{"c":"0.25","d":"1","t":"2"}]}'))
        assert '"c": "1/4"' in text


class TestParseRational:
    def test_forms(self):
        assert parse_rational("3/4") == F(3, 4)
        assert parse_rational("0.125") == F(1, 8)
        assert parse_rational(7) == 7

    def test_rejections(self):
        for bad in (True, 0.5, [1], "x"):
            with pytest.raises(ParseError):
                parse_rational(bad)


class TestParseDvp:
    def test_list_of_pairs_form(self):
        dvp = parse_dvp(b'{"vectors": [["3/10", "3/5"], ["1/4", "0"]]}')
        assert dvp.vectors == ((F(3, 10), F(3, 5)), (F(1, 4), F(0)))

    def test_bad_pair(self):
        with pytest.raises(ParseError):
            parse_dvp(b'{"vectors": [["1/2"]]}')
        with pytest.raises(ParseError):
            parse_dvp(b'{"nope": 1}')

    @pytest.mark.parametrize("vectors", ["5", '"3/10"', '{"v": 1}', "null"])
    def test_vectors_must_be_a_list(self, vectors):
        with pytest.raises(ParseError, match='"vectors" must be a list'):
            parse_dvp('{"vectors": %s}' % vectors)
