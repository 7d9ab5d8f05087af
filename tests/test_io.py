import json
from fractions import Fraction
from pathlib import Path

import pytest
import hypothesis.strategies as st
from hypothesis import example, given, settings

import rtpack.io as io_mod
from rtpack.errors import ParseError, ValidationError
from rtpack.feasibility import edf_feasible_exact
from rtpack.generators import DvpInstance, gen_best_fit_adversary, gen_random_dvp
from rtpack.io import (
    load_json,
    parse_rational,
    parse_taskset,
    serialize_dvp,
    serialize_taskset,
)
from rtpack.model import TaskSet, require_valid, taskset

from conftest import held_ints, ints_of, valid_tasksets

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

    @pytest.mark.parametrize(
        "doc, message",
        [({"name": "a", "tasks": [{"c": 1, "d": 2, "t": 4}], "nme": "b"},
          "task set: unknown key 'nme'"),
         ({"tasks": [{"c": 1, "d": 2, "t": 4, "id": 7}]}, "task 1: unknown key 'id'"),
         ({"tasks": [{"c": 1, "d": 2, "t": 4}, {"c": 1, "D": 2, "d": 2, "t": 4}]},
          "task 2: unknown key 'D'")],
    )  # fmt: skip
    def test_unknown_key_refused_naming_it(self, doc, message):
        with pytest.raises(ParseError) as err:
            parse_taskset(json.dumps(doc))
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "text, message",
        [('{"tasks": [{"c": "5", "d": "2", "t": "4", "c": "1"}]}', "task 1: repeated key 'c'"),
         ('{"tasks": [{"c": 1, "d": 2, "t": 4}, {"c": 1, "d": 2, "t": 4, "t": 4}]}',
          "task 2: repeated key 't'"),
         ('{"name": "a", "tasks": [{"c": 1, "d": 2, "t": 4}], "name": "b"}',
          "task set: repeated key 'name'"),
         ('{"tasks": [{"c": "9", "d": "2", "t": "4"}], "tasks": [{"c": 1, "d": 2, "t": 4}]}',
          "task set: repeated key 'tasks'"),
         # a backslash: the quote count cannot tell
         ('{"name": "a\\"b", "tasks": [{"c": 1, "d": 2, "t": 4, "d": "2"}]}',
          "task 1: repeated key 'd'"),
         ('{"tasks": [{"c": {"x": 1, "x": 2}, "c": 1, "d": 2, "t": 4}]}',
          "task 1: repeated key 'c'")],
    )  # fmt: skip
    @pytest.mark.parametrize("encode", [str, str.encode], ids=["str", "bytes"])
    def test_repeated_key_refused_naming_it(self, text, message, encode):
        with pytest.raises(ParseError) as err:
            parse_taskset(encode(text))
        assert str(err.value) == message

    def test_bad_json(self):
        with pytest.raises(ParseError):
            parse_taskset(b"{nope")

    def test_byte_order_mark_refused_as_json_words_it(self):
        data = '\ufeff{"tasks":[{"c":"1","d":"2","t":"4"}]}'
        with pytest.raises(ParseError) as err:
            parse_taskset(data.encode("utf-8"))
        with pytest.raises(ValueError) as want:
            json.loads(data)
        assert str(err.value) == f"invalid JSON task set: {want.value}"

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

    @pytest.mark.parametrize(
        "value",
        [pytest.param("9" * 4301, id="9*4301"), pytest.param("1/" + "9" * 4301, id="1/9*4301"),
         pytest.param("0" * 4300 + "1", id="0*4300+1")],
    )  # fmt: skip
    def test_part_past_the_digit_limit_refused_naming_the_field(self, value):
        doc = json.dumps({"tasks": [{"c": "1", "d": "2", "t": value}]})
        with pytest.raises(ParseError) as err:
            parse_taskset(doc)
        assert str(err.value) == (
            f"task 1, field 't': not a rational literal: {value[:40]!r} has more than 4300 digits"
        )

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_json_integer_past_the_digit_limit_refused(self, sign):
        big = sign + "9" * 4301
        with pytest.raises(ParseError) as err:
            parse_taskset('{"tasks": [{"c": 1, "d": 2, "t": %s}]}' % big)
        assert str(err.value) == f"invalid JSON task set: {big[:40]!r} has more than 4300 digits"

    def test_json_integer_at_the_digit_limit_is_its_string(self):
        big = "9" * 4300
        written = parse_taskset('{"tasks": [{"c": 1, "d": 2, "t": %s}]}' % big)
        assert written == parse_taskset('{"tasks": [{"c": 1, "d": 2, "t": "%s"}]}' % big)
        assert written.t == (int(big),)
        assert load_json(f"[{big}, -{big}]", "list") == [int(big), -int(big)]


def _parse_taskset_reference(data):
    """`parse_taskset` as it was before task sets were built straight from
    int pairs: one Fraction per value through `parse_rational`,
    then `taskset(triples, name)`."""
    doc = load_json(data, "task set")
    if not isinstance(doc, dict) or "tasks" not in doc:
        raise ParseError('document must be an object with a "tasks" list')
    raw_tasks = doc["tasks"]
    if not isinstance(raw_tasks, list) or not raw_tasks:
        raise ParseError('"tasks" must be a nonempty list')
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise ParseError('"name" must be a string')
    tasks = []
    for i, entry in enumerate(raw_tasks, start=1):
        if not isinstance(entry, dict):
            raise ParseError(f"task {i}: expected an object")
        fields = {}
        for key in ("c", "d", "t"):
            if key not in entry:
                raise ParseError(f"task {i}: missing field {key!r}")
            fields[key] = parse_rational(entry[key], where=f"task {i}, field {key!r}")
        tasks.append((fields["c"], fields["d"], fields["t"]))
    ts = taskset(tasks, name)
    require_valid(ts)
    return ts


def _parsed(parse, data):
    try:
        return parse(data)
    except (ParseError, ValidationError) as exc:
        return type(exc), str(exc)


@st.composite
def spelled(draw, lo, hi):
    """A JSON value num/den, num in [lo, hi], in one of the spellings a
    task-set file may hold; one in twenty is zero, negative or not a
    rational at all."""
    num, den = draw(st.integers(lo, hi)), draw(st.integers(1, 6))
    k = draw(st.integers(1, 4))
    if draw(st.integers(0, 19)):
        return draw(
            st.sampled_from(
                [
                    f"{num}/{den}",
                    f"{num * k}/{den * k}",  # unreduced, "2/4"
                    f"{num * k:03d}/{den * k}",  # leading zeros, "006/8"
                    f"{num}",
                    f"{num:04d}",
                    num,  # a JSON int
                    f"{num}.{den}",  # a decimal
                    f"{num}.{den}e-1",  # exponents
                    f"{num}E+1",
                    f"+{num}/{den}",  # a sign
                    f" {num}/{den} ",
                    f"{num}_0/{den}",
                ]
            )
        )
    return draw(
        st.sampled_from(
            [f"0/{den}", 0, -num, f"-{num}", f"{num}/0", f"{num}//{den}", "",
             True, num + 0.5, None, [num, den]]  # fmt: skip
        )
    )


@st.composite
def taskset_documents(draw):
    """Task-set documents, mostly valid: small C, larger D and T, with a
    task sometimes missing a field or not an object, and a name sometimes
    missing or not a string."""
    tasks = []
    for _ in range(draw(st.integers(0, 5))):
        entry = {"c": draw(spelled(1, 3)), "d": draw(spelled(1, 24)), "t": draw(spelled(1, 24))}
        if draw(st.integers(0, 19)) == 0:
            del entry[draw(st.sampled_from("cdt"))]
        tasks.append(entry if draw(st.integers(0, 29)) else 7)
    doc = {"tasks": tasks}
    name = draw(st.sampled_from([None, "", "set"])) if draw(st.integers(0, 9)) else 5
    if name is not None:
        doc["name"] = name
    return json.dumps(doc)


class TestRepeatedKeyCheck:
    """A text with no backslash that repeats no key is decoded once, so
    that the repeated-key check costs a quote count."""

    @settings(max_examples=200)
    @given(st.one_of(taskset_documents(), taskset_documents().map(str.encode)))
    def test_plain_documents_decoded_once(self, data):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(io_mod, "_PAIRS_DECODER", None)  # a second decode raises
            _parsed(parse_taskset, data)

    @pytest.mark.parametrize("name", ["bf_adversary_k4.json", "speedup_gap_n3.json"])
    def test_written_documents_decoded_once(self, monkeypatch, name):
        monkeypatch.setattr(io_mod, "_PAIRS_DECODER", None)
        data = (Path(__file__).parent / "golden" / name).read_bytes()
        ts = parse_taskset(data)
        assert parse_taskset(serialize_taskset(ts)) == ts

    def test_escaped_text_without_a_repeat_kept(self):
        ts = parse_taskset(b'{"name": "a\\"\\u00e9", "tasks": [{"c": 1, "d": 2, "t": 4}]}')
        assert ts.name == 'a"\u00e9' and ts.d == (2,)


class TestParseIntoTheIntegerView:
    """`parse_taskset` reads plain literals as ints and builds the set
    straight from their int pairs; it must give the set, or the error,
    of a Fraction per value."""

    @example('{"tasks": [{"c": "2/4", "d": "006/8", "t": "3/9"}]}')
    @example('{"tasks": [{"c": "0/5", "d": "1", "t": "1"}]}')
    @example('{"tasks": [{"c": "1/0", "d": "1", "t": "1"}]}')
    @example('{"tasks": [{"c": "1", "d": 2, "t": "4.0"}, {"c": "1/2", "d": "1e1", "t": "+3"}]}')
    @example('{"tasks": [{"c": "3", "d": "2/1", "t": "4"}, {"c": "0", "d": "-1", "t": "0/7"}]}')
    @settings(max_examples=400)
    @given(taskset_documents())
    def test_same_set_or_error_as_a_fraction_per_value(self, data):
        got, want = _parsed(parse_taskset, data), _parsed(_parse_taskset_reference, data)
        if isinstance(want, tuple):
            assert got == want
            return
        assert isinstance(got, TaskSet)
        assert (held_ints(got), got.name, len(got)) == (held_ints(want), want.name, len(want))
        assert got == want

    @given(valid_tasksets())
    def test_no_task_built_until_read(self, ts):
        data = serialize_taskset(ts)
        got = parse_taskset(data)
        edf_feasible_exact(got)
        assert len(got) == len(ts) and "tasks" not in vars(got)
        assert got.tasks == _parse_taskset_reference(data).tasks
        assert [tsk.id for tsk in got.tasks] == list(range(1, len(ts) + 1))
        assert held_ints(got) == ints_of(got.tasks)


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
        ts = taskset(cdt, name)
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
