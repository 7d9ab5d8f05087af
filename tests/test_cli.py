import functools
import io
import itertools
import json
import os
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from rtpack import cli, generators
from rtpack.bench import FAMILIES, parse_config, resolve_instances
from rtpack.cli import _check_doc, _partition_doc, _simulate_doc, dispatch
from rtpack.errors import RtpackError
from rtpack.feasibility import FeasibilityVerdict
from rtpack.generators import gen_random_dvp
from rtpack.io import serialize_dvp, serialize_taskset
from rtpack.model import as_rational, taskset
from rtpack.oracle import DEFAULT_ORACLE_CAP
from rtpack.partitioners import Partition
from rtpack.simulate import SimTrace

GOLDEN = Path(__file__).parent / "golden"
sys.path.insert(0, str(GOLDEN.parent.parent / "perfbench"))
from workloads import Request  # noqa: E402


def run(capsys, *args):
    rc = dispatch(list(args))
    out = capsys.readouterr()
    return rc, out.out, out.err


class TestGenerate:
    def test_adversary_then_partition_pipeline(self, tmp_path, capsys):
        out = tmp_path / "bf4.json"
        rc, _, _ = run(capsys, "generate", "--family", "bf-adversary", "--k", "4", "-o", str(out))
        assert rc == 0
        rc, text, _ = run(capsys, "partition", str(out), "--algo", "dm", "--strategy", "bf")
        assert rc == 0
        doc = json.loads(text)
        assert doc["m"] == 4
        assert doc["bins"] == [[1, 2], [3, 4], [5, 6], [7, 8]]

    def test_random_family_seeded(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        args = (
            "generate", "--family", "random", "--n", "5", "--seed", "9",
            "--target-u", "3/2", "--class", "implicit", "-o", str(out),
        )
        assert run(capsys, *args)[0] == 0
        first = out.read_bytes()
        assert run(capsys, *args)[0] == 0
        assert out.read_bytes() == first

    def test_dvp_family_with_vector_dump(self, tmp_path, capsys):
        tasks_out = tmp_path / "dvp.json"
        vec_out = tmp_path / "vectors.json"
        rc, _, _ = run(
            capsys, "generate", "--family", "dvp", "--n", "4", "--seed", "2",
            "--dvp-out", str(vec_out), "-o", str(tasks_out),
        )
        assert rc == 0
        assert vec_out.read_text() == serialize_dvp(gen_random_dvp(2, 4))
        assert "tasks" in json.loads(tasks_out.read_text())

    @pytest.mark.parametrize("extra", [[], ["--den-bound", "5"]])
    def test_vector_dump_draws_once(self, tmp_path, capsys, monkeypatch, extra):
        # the task set and the vector file come from one seeded draw
        seeds = []

        class Counted(random.Random):
            def __init__(self, x=None):
                seeds.append(x)
                super().__init__(x)

        monkeypatch.setattr(generators, "random", SimpleNamespace(Random=Counted))
        tasks_out, vec_out = tmp_path / "dvp.json", tmp_path / "vectors.json"
        rc, _, _ = run(
            capsys, "generate", "--family", "dvp", "--n", "4", "--seed", "2", *extra,
            "--dvp-out", str(vec_out), "-o", str(tasks_out),
        )  # fmt: skip
        assert (rc, seeds) == (0, ["rtpack-dvp:2"])
        monkeypatch.undo()
        q = int(extra[1]) if extra else generators.DEFAULT_DENOMINATOR_BOUND
        dvp = gen_random_dvp(2, 4, q)
        assert vec_out.read_text() == serialize_dvp(dvp)
        assert tasks_out.read_text() == serialize_taskset(generators.dvp_to_tasks(dvp, "dvp-s2"))

    def test_dvp_set_named_by_its_seed(self, capsys):
        # as the bench names the family's instances, and `random` its sets
        docs = [run(capsys, "generate", "--family", "dvp", "--n", "3", "--seed", s)[1] for s in "12"]
        assert [json.loads(doc)["name"] for doc in docs] == ["dvp-s1", "dvp-s2"]

    @pytest.mark.parametrize(
        "flags,message",
        [(["--family", "bf-adversary", "--k", "4", "--seed", "7"],
          "error: bf-adversary: unknown key 'seed'\n"),
         (["--family", "bf-adversary", "--k", "4", "--seed", "7", "--den-bound", "3"],
          "error: bf-adversary: unknown key 'seed'\n"),
         (["--family", "speedup-gap", "--n", "3", "--eps", "1/2", "--k", "4"],
          "error: speedup-gap: unknown key 'k'\n"),
         (["--family", "dvp", "--n", "4", "--target-u", "3/2"],
          "error: dvp: unknown key 'target_u'\n"),
         (["--family", "dvp", "--n", "4", "--class", "implicit"],
          "error: dvp: unknown key 'class'\n")],
    )  # fmt: skip
    def test_flag_its_family_does_not_take_exit_two(self, capsys, flags, message):
        # refused by the bench's instance check, in its words
        assert run(capsys, "generate", *flags) == (2, "", message)

    @pytest.mark.parametrize(
        "flags", [["--family", "random", "--n", "4"], ["--family", "bf-adversary", "--k", "4"]]
    )
    def test_vector_dump_needs_the_dvp_family(self, tmp_path, capsys, flags):
        vec_out = tmp_path / "vectors.json"
        message = f"error: --dvp-out needs --family dvp, not {flags[1]}\n"
        assert run(capsys, "generate", *flags, "--dvp-out", str(vec_out)) == (2, "", message)
        assert list(tmp_path.iterdir()) == []

    def test_missing_parameter_is_an_error(self, capsys):
        rc, _, err = run(capsys, "generate", "--family", "bf-adversary")
        assert rc == 2 and "error" in err

    def test_long_period_is_not_a_parameter(self, tmp_path, capsys):
        # the adversaries' long period is always K^(K+2): "h" is an unknown
        # config key, and `--h` an unrecognized argument, not `--help`
        doc = {"instances": [{"family": "bf-adversary", "k": 4, "h": 4096}],
               "algorithms": [{"algo": "dm"}]}  # fmt: skip
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        assert run(capsys, "bench", "--config", str(config)) == (
            2, "", "error: instance 1 (bf-adversary): unknown key 'h'\n"
        )
        rc, text, err = run(capsys, "generate", "--family", "bf-adversary", "--k", "4", "--h", "4096")
        assert (rc, text) == (2, "")
        assert err.endswith("rtpack: error: unrecognized arguments: --h 4096\n")

    def test_dvp_denominator_bound_below_two_exit_two(self, capsys):
        rc, _, err = run(capsys, "generate", "--family", "dvp", "--n", "3", "--den-bound", "1")
        assert rc == 2 and "denominator_bound" in err

    @pytest.mark.parametrize(
        "flags,message",
        [(["--family", "dvp", "--n", "0"], "error: need n >= 1, got 0\n"),
         (["--family", "random", "--n", "4", "--den-bound", "0"],
          "error: denominator bound must be at least 1\n")],
    )  # fmt: skip
    def test_size_below_one_exit_two(self, capsys, flags, message):
        assert run(capsys, "generate", *flags) == (2, "", message)

    @pytest.mark.parametrize(
        "family,flags,params",
        [("bf-adversary", ["--k", "5"], {"k": 5}),
         ("wf-adversary", ["--k", "4"], {"k": 4}),
         ("speedup-gap", ["--n", "4", "--eps", "1/3"], {"n": 4, "eps": "1/3"}),
         ("random", ["--n", "5"], {"n": 5}),
         ("random", ["--n", "5", "--seed", "3", "--target-u", "3/2", "--class", "arbitrary",
                     "--den-bound", "6"],
          {"n": 5, "seed": 3, "target_u": "3/2", "class": "arbitrary", "den_bound": 6}),
         ("dvp", ["--n", "4"], {"n": 4}),
         ("dvp", ["--n", "4", "--seed", "2", "--den-bound", "5"], {"n": 4, "seed": 2, "den_bound": 5})],
    )  # fmt: skip
    def test_bytes_equal_bench_expansion(self, capsys, family, flags, params):
        # the bench's own run path: a one-instance config, expanded
        rc, text, _ = run(capsys, "generate", "--family", family, *flags)
        doc = {"instances": [{"family": family, **params}], "algorithms": [{"algo": "dm"}]}
        [(_, _, ts)] = resolve_instances(parse_config(json.dumps(doc)))
        assert rc == 0 and text == serialize_taskset(ts)

    def test_every_generated_family_covered(self):
        tested = {"bf-adversary", "wf-adversary", "speedup-gap", "random", "dvp"}
        assert tested == set(FAMILIES) - {"file"}

    def test_stdout_when_no_output_file(self, capsys):
        rc, text, _ = run(capsys, "generate", "--family", "speedup-gap", "--n", "2", "--eps", "1/4")
        assert rc == 0 and json.loads(text)["name"] == "speedup-gap-n2"

    def test_no_tmp_file_left_behind(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        run(capsys, "generate", "--family", "wf-adversary", "--k", "4", "-o", str(out))
        assert out.exists()
        assert not (tmp_path / "x.json.tmp").exists()
        # a write whose rename fails, onto a directory, removes its temp file
        outdir = tmp_path / "outdir"
        outdir.mkdir()
        rc, _, err = run(capsys, "generate", "--family", "bf-adversary", "--k", "4", "-o", str(outdir))
        assert rc == 2 and err.startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["outdir", "x.json"]
        assert list(outdir.iterdir()) == []


class TestCheck:
    def test_feasible_exit_zero(self, capsys):
        rc, text, _ = run(
            capsys, "check", str(GOLDEN / "speedup_gap_n3.json"), "--speed", "3/2"
        )
        assert rc == 0
        assert json.loads(text)["feasible"] is True

    def test_infeasible_exit_one_with_witness(self, capsys):
        rc, text, _ = run(capsys, "check", str(GOLDEN / "speedup_gap_n3.json"))
        assert rc == 1
        assert json.loads(text)["witness"] == "2"

    def test_out_of_memory_exit_two(self, capsys, monkeypatch):
        # exit 1 would read as "infeasible"
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "edf_feasible_exact", exhausted)
        path = str(GOLDEN / "speedup_gap_n3.json")
        assert run(capsys, "check", path) == (2, "", "error: out of memory\n")

    def test_missing_file_exit_two(self, capsys):
        rc, _, err = run(capsys, "check", "no-such-file.json")
        assert rc == 2 and "error" in err

    @pytest.mark.parametrize("speed", ["abc", "1/0", "0", "-1/2"])
    def test_bad_speed_exit_two(self, capsys, speed):
        rc, _, err = run(capsys, "check", str(GOLDEN / "speedup_gap_n3.json"), "--speed", speed)
        assert rc == 2 and "speed" in err

    @pytest.mark.parametrize("speed,rc", [("1e4299", 0), ("1e-4299", 1)])
    def test_speed_at_the_digit_limit_runs(self, capsys, speed, rc):
        got, text, _ = run(capsys, "check", str(GOLDEN / "speedup_gap_n3.json"), "--speed", speed)
        assert got == rc and json.loads(text)["speed"] == str(as_rational(speed))

    @pytest.mark.parametrize(
        "value",
        ["1e4300", "1e-4300", pytest.param("9" * 4300 + "e4299", id="9*4300e4299"),
         pytest.param("9" * 4301, id="9*4301"), pytest.param("1/" + "9" * 4301, id="1/9*4301"),
         pytest.param("0" * 4300 + "1", id="0*4300+1")],
    )  # fmt: skip
    def test_value_past_the_digit_limit_exit_two_naming_it(self, tmp_path, capsys, value):
        rc, _, err = run(capsys, "check", str(GOLDEN / "speedup_gap_n3.json"), "--speed", value)
        assert rc == 2 and "argument --speed" in err
        doc = tmp_path / "huge.json"
        doc.write_text(json.dumps({"tasks": [{"c": "1", "d": value, "t": "1"}]}))
        rc, _, err = run(capsys, "check", str(doc))
        assert rc == 2 and "task 1, field 'd'" in err and "has more than 4300 digits" in err

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_json_integer_past_the_digit_limit_exit_two_naming_it(self, tmp_path, capsys, sign):
        big = sign + "9" * 4301
        doc = tmp_path / "huge.json"
        doc.write_text('{"tasks": [{"c": 1, "d": 2, "t": %s}]}' % big)
        rc, out, err = run(capsys, "check", str(doc))
        assert (rc, out) == (2, "")
        assert err == f"error: invalid JSON task set: {big[:40]!r} has more than 4300 digits\n"
        assert "set_int_max_str_digits" not in err

    def test_unknown_key_exit_two_naming_it(self, tmp_path, capsys):
        doc = tmp_path / "extra.json"
        doc.write_text('{"tasks": [{"c": 1, "d": 2, "t": 4}, {"c": 1, "d": 2, "t": 4, "x": 0}]}')
        assert run(capsys, "check", str(doc)) == (2, "", "error: task 2: unknown key 'x'\n")

    def test_invalid_set_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"tasks":[{"c":"3","d":"2","t":"4"}]}')
        rc, _, err = run(capsys, "check", str(bad))
        assert rc == 2 and "C = 3 exceeds D = 2" in err

    @pytest.mark.parametrize("cap", ["-5", "0"])
    def test_point_cap_below_one_exit_two_naming_it(self, capsys, cap):
        rc, text, err = run(
            capsys, "check", str(GOLDEN / "speedup_gap_n3.json"), "--point-cap", cap
        )
        assert (rc, text) == (2, "")
        assert err == f"error: point cap must be at least 1, got {cap}\n"

    @pytest.mark.parametrize(
        "argv",
        # argparse refuses the value before the file is opened
        [["check", "set.json", "--speed"], ["simulate", "set.json", "--horizon", "12", "--speed"],
         ["simulate", "set.json", "--horizon"], ["generate", "--family", "speedup-gap", "--eps"],
         ["generate", "--family", "random", "--target-u"]],
        ids=lambda argv: f"{argv[0]} {argv[-1]}",
    )  # fmt: skip
    @pytest.mark.parametrize(
        "value,reason",
        [("1/0", "zero denominator in '1/0'"), ("1e4300", "'1e4300' has more than 4300 digits"),
         ("abc", "Invalid literal for Fraction: 'abc'")],
    )  # fmt: skip
    def test_rational_flag_error_gives_the_reason(self, capsys, argv, value, reason):
        rc, text, err = run(capsys, *argv, value)
        assert (rc, text) == (2, "")
        assert f"argument {argv[-1]}: {reason}\n" in err and "as_rational" not in err

    @pytest.mark.parametrize("speed", ["1", "3/2"])
    def test_unreduced_and_mixed_literals_give_the_same_bytes(self, tmp_path, capsys, speed):
        # the golden speedup-gap set with every value written three more
        # ways: unreduced "p/q", decimals and JSON ints
        doc = json.loads((GOLDEN / "speedup_gap_n3.json").read_text())
        values = [Fraction(task[key]) for task in doc["tasks"] for key in "cdt"]
        assert all(v.denominator == 1 for v in values), "decimals and ints need whole values"
        want = run(capsys, "check", str(GOLDEN / "speedup_gap_n3.json"), "--speed", speed)
        spellings = {
            "unreduced": lambda v, k: f"{v.numerator * (k + 2)}/{v.denominator * (k + 2)}",
            "decimal": lambda v, k: f"{v.numerator}.{'0' * (k + 1)}",
            "ints": lambda v, k: v.numerator,
        }
        for form, spell in spellings.items():
            values_left = iter(values)
            tasks = [{key: spell(next(values_left), i) for key in "cdt"}
                     for i, _ in enumerate(doc["tasks"])]  # fmt: skip
            path = tmp_path / f"{form}.json"
            path.write_text(json.dumps({"name": doc["name"], "tasks": tasks}))
            assert run(capsys, "check", str(path), "--speed", speed) == want, form

    def test_horizon_cap_is_not_a_flag(self, capsys):
        rc, text, err = run(
            capsys, "check", str(GOLDEN / "speedup_gap_n3.json"), "--horizon-cap", "5"
        )
        assert (rc, text) == (2, "")
        assert "unrecognized arguments: --horizon-cap 5" in err


class TestPartition:
    def test_oracle_cap_exit_two(self, tmp_path, capsys):
        ts = taskset([(1, 100, 100)] * (DEFAULT_ORACLE_CAP + 1), name="wide")
        f = tmp_path / "wide.json"
        f.write_text(serialize_taskset(ts))
        rc, _, err = run(capsys, "partition", str(f), "--algo", "oracle")
        assert rc == 2 and "cap" in err

    @pytest.mark.parametrize("cap", ["-1", "0"])
    def test_oracle_cap_below_one_exit_two_naming_it(self, capsys, cap):
        rc, text, err = run(
            capsys, "partition", str(GOLDEN / "bf_adversary_k4.json"), "--algo", "oracle",
            "--n-cap", cap,
        )
        assert (rc, text) == (2, "")
        assert err == f"error: oracle cap must be at least 1, got {cap}\n"

    def test_cap_is_not_read_from_the_environment(self, tmp_path, capsys, monkeypatch):
        ts = taskset([(1, 100, 100)] * (DEFAULT_ORACLE_CAP + 1), name="wide")
        f = tmp_path / "wide.json"
        f.write_text(serialize_taskset(ts))
        monkeypatch.setenv("RTP_NCAP", str(DEFAULT_ORACLE_CAP + 1))
        rc, _, err = run(capsys, "partition", str(f), "--algo", "oracle")
        assert rc == 2 and "cap" in err
        monkeypatch.setenv("RTP_NCAP", "abc")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"instances": [], "algorithms": [{"algo": "dm"}]}))
        rc, _, _ = run(capsys, "bench", "--config", str(cfg))
        assert rc == 0

    def test_malformed_env_cap_ignored_where_unused(self, capsys, monkeypatch):
        monkeypatch.setenv("RTP_NCAP", "abc")
        rc, text, _ = run(capsys, "check", str(GOLDEN / "speedup_gap_n3.json"), "--speed", "3/2")
        assert rc == 0 and text == (GOLDEN / "check_speedup_n3.json").read_text()
        rc, _, _ = run(capsys, "partition", str(GOLDEN / "bf_adversary_k4.json"), "--algo", "dm")
        assert rc == 0
        rc, _, _ = run(
            capsys, "partition", str(GOLDEN / "bf_adversary_k4.json"), "--algo", "oracle",
            "--n-cap", "8",
        )
        assert rc == 0

    def test_dagger(self, capsys):
        rc, text, _ = run(
            capsys, "partition", str(GOLDEN / "speedup_gap_n3.json"), "--algo", "dagger"
        )
        assert rc == 0 and json.loads(text)["m"] == 3


class TestSimulate:
    def test_schedulable_exit_zero(self, capsys):
        rc, text, _ = run(
            capsys, "simulate", str(GOLDEN / "speedup_gap_n3.json"),
            "--horizon", "12", "--speed", "3/2",
        )
        assert rc == 0 and json.loads(text)["schedulable"] is True

    def test_miss_exit_one(self, capsys):
        rc, text, _ = run(
            capsys, "simulate", str(GOLDEN / "speedup_gap_n3.json"), "--horizon", "12"
        )
        assert rc == 1
        assert json.loads(text)["misses"]

    def test_event_cap_zero_exit_two_naming_it(self, capsys):
        rc, text, err = run(
            capsys, "simulate", str(GOLDEN / "speedup_gap_n3.json"),
            "--horizon", "12", "--event-cap", "0",
        )
        assert (rc, text) == (2, "")
        assert err == "error: event cap must be at least 1, got 0\n"


times = st.fractions(min_value=0, max_value=10**6, max_denominator=10**3)


class TestSimulateDoc:
    @example("", Fraction(1), SimTrace(Fraction(12), (), 0, ()))
    @example(
        "gap", Fraction(3, 2),
        SimTrace(Fraction(7), ((2, Fraction(5, 2)),), 3, ((Fraction(0), Fraction(1)),)),
    )  # fmt: skip
    @given(
        st.text(),
        times.filter(bool),
        st.builds(
            SimTrace,
            times,
            st.lists(st.tuples(st.integers(), times), max_size=4).map(tuple),
            st.integers(min_value=0),
            st.lists(st.tuples(times, times), max_size=4).map(tuple),
        ),
    )
    def test_same_bytes_as_json_dumps(self, name, speed, trace):
        doc = {
            "name": name,
            "horizon": str(trace.horizon),
            "speed": str(speed),
            "schedulable": trace.schedulable,
            "misses": [{"task": tid, "deadline": str(d)} for tid, d in trace.misses],
            "preemptions": trace.preemptions,
            "idle": [[str(a), str(b)] for a, b in trace.idle],
        }
        assert _simulate_doc(name, speed, trace) == json.dumps(doc, indent=2)


class TestCheckDoc:
    @example("", Fraction(1), FeasibilityVerdict(True, None, Fraction(0), 0))
    @example(
        'q"uote \\ \u00e9 \x07', Fraction(3, 2),
        FeasibilityVerdict(False, Fraction(2), Fraction(12), 5),
    )  # fmt: skip
    @given(
        st.text(),
        times.filter(bool),
        st.builds(
            FeasibilityVerdict, st.booleans(), st.none() | times, times, st.integers(min_value=0)
        ),
    )
    def test_same_bytes_as_json_dumps(self, name, speed, verdict):
        doc = {
            "name": name,
            "speed": str(speed),
            "feasible": verdict.feasible,
            "witness": None if verdict.witness is None else str(verdict.witness),
            "horizon": str(verdict.horizon),
            "points_checked": verdict.points_checked,
        }
        assert _check_doc(name, speed, verdict) == json.dumps(doc, indent=2)


class TestPartitionDoc:
    @example(Partition((), "dm", "ff"))
    @example(Partition(((3, 1), (), (2,)), "oracle"))
    @given(
        st.builds(
            Partition,
            st.lists(
                st.lists(st.integers(min_value=1), max_size=4).map(tuple), max_size=4
            ).map(tuple),
            st.text(),
            st.none() | st.text(),
        )
    )
    def test_same_bytes_as_json_dumps(self, part):
        doc = {
            "algorithm": part.algorithm,
            "strategy": part.strategy,
            "m": part.m,
            "bins": [list(b) for b in part.bins],
        }
        assert _partition_doc(part) == json.dumps(doc, indent=2) + "\n"


class TestOutputLayout:
    def test_every_document_keeps_the_json_dumps_layout(self, tmp_path, capsys):
        # the writers lay out lines by template; each document must equal
        # json.dumps(json.loads(text), indent=2) + "\n" byte for byte
        odd = tmp_path / "odd.json"  # a name json.dumps must escape
        odd.write_text(r'{"name": "q\"uote \\ \u00e9", "tasks": [{"c": "1", "d": "2", "t": "4"}]}')
        cfg, report = tmp_path / "cfg.json", tmp_path / "report.json"
        cfg.write_text(json.dumps({
            "instances": [{"family": "bf-adversary", "k": 4},
                          {"family": "speedup-gap", "n": 6, "eps": "1/2"},
                          {"family": "random", "count": 3, "n": 14, "seed": 2,
                           "target_u": "5/2", "class": "arbitrary"},
                          {"family": "file", "path": str(odd)}],
            "algorithms": [{"algo": "dm", "strategy": "bf"}, {"algo": "dagger"}],
            "oracle": True, "n_cap": 12, "timing": True,
        }))  # fmt: skip
        gap, rand = str(tmp_path / "gap.json"), str(tmp_path / "random.json")
        assert run(capsys, "bench", "--config", str(cfg), "-o", str(report))[0] == 0
        assert run(capsys, "generate", "--family", "speedup-gap", "--n", "200", "--eps", "1/2",
                   "-o", gap)[0] == 0  # fmt: skip
        assert run(capsys, "generate", "--family", "random", "--n", "12", "--seed", "2",
                   "--target-u", "5/2", "--class", "arbitrary", "-o", rand)[0] == 0  # fmt: skip
        docs = [report.read_text(), Path(gap).read_text()]
        for code, argv in [
            (0, ["check", str(odd), "--speed", "3/2"]),
            (1, ["check", str(odd), "--speed", "1/4"]),  # with its witness
            (0, ["partition", gap, "--algo", "dm", "--strategy", "bf"]),
            (0, ["partition", gap, "--algo", "dagger"]),
            (0, ["partition", rand, "--algo", "oracle"]),
        ]:
            rc, text, _ = run(capsys, *argv)
            assert rc == code
            docs.append(text)
        for text in docs:
            assert text == json.dumps(json.loads(text), indent=2) + "\n"


class TestBench:
    def test_end_to_end_csv(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "instances": [{"family": "bf-adversary", "k": 4}],
            "algorithms": [{"algo": "dm", "strategy": "bf"}],
            "oracle": True,
            "timing": False,
        }))
        out = tmp_path / "report.csv"
        rc, _, _ = run(capsys, "bench", "--config", str(cfg), "-o", str(out))
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert cells[0] == "bf-adversary-k4"
        assert cells[9] == "4" and cells[10] == "2" and cells[11] == "2"

    def test_threads_flag_gone_and_key_ignored(self, tmp_path, capsys):
        doc = {
            "instances": [{"family": "bf-adversary", "k": 4},
                          {"family": "wf-adversary", "k": 4}],
            "algorithms": [{"algo": "dm", "strategy": "bf"}],
            "oracle": True,
            "timing": False,
        }
        plain, keyed = tmp_path / "plain.json", tmp_path / "keyed.json"
        plain.write_text(json.dumps(doc))
        keyed.write_text(json.dumps({**doc, "threads": 3}))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, "bench", "--config", str(plain), "--threads", "3")[0] == 2
        assert run(capsys, "bench", "--config", str(plain), "-o", str(out1))[0] == 0
        assert run(capsys, "bench", "--config", str(keyed), "-o", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_format_inferred(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "instances": [{"family": "speedup-gap", "n": 3, "eps": "1/2"}],
            "algorithms": [{"algo": "dagger", "strategy": "ff"}],
            "oracle": True,
            "timing": False,
        }))
        out = tmp_path / "report.json"
        rc, _, _ = run(capsys, "bench", "--config", str(cfg), "-o", str(out))
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["rows"][0]["M"] == 3 and doc["rows"][0]["m_star"] == 3


    def test_format_flag_overrides_the_json_suffix(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "instances": [{"family": "speedup-gap", "n": 3, "eps": "1/2"}],
            "algorithms": [{"algo": "dagger"}],
            "timing": False,
        }))  # fmt: skip
        out = tmp_path / "r.json"
        rc, _, _ = run(capsys, "bench", "--config", str(cfg), "--format", "csv", "-o", str(out))
        lines = out.read_text().splitlines()
        assert rc == 0 and len(lines) == 2
        assert lines[0].startswith("instance,family,N,")
        assert lines[1].startswith("speedup-gap-n3,speedup-gap,3,")

    def test_file_glob_matching_nothing_exit_two(self, tmp_path, capsys):
        pattern = str(tmp_path / "none*.json")
        cfg = tmp_path / "cfg.json"
        instances = [{"family": "file", "path": pattern}]
        cfg.write_text(json.dumps({"instances": instances, "algorithms": [{"algo": "dm"}]}))
        rc, out, err = run(capsys, "bench", "--config", str(cfg))
        assert (rc, out) == (2, "")
        assert err == f"error: instance 1 (file): no files match {pattern!r}\n"

    def test_file_rows_named_by_their_sets(self, tmp_path, capsys):
        # two generated dvp files keep their seeds' names as bench rows
        for seed in "12":
            out = str(tmp_path / f"set{seed}.json")
            assert run(capsys, "generate", "--family", "dvp", "--n", "3", "--seed", seed, "-o", out)[0] == 0
        cfg = tmp_path / "cfg.json"
        instances = [{"family": "file", "path": str(tmp_path / "set*.json")}]
        cfg.write_text(json.dumps({"instances": instances, "algorithms": [{"algo": "dm"}]}))
        rc, text, _ = run(capsys, "bench", "--config", str(cfg), "--format", "csv")
        assert rc == 0
        assert [line.split(",")[0] for line in text.splitlines()[1:]] == ["dvp-s1", "dvp-s2"]

    def test_file_error_names_the_file_exit_two(self, tmp_path, capsys):
        # the task-set error keeps its wording, after the file's path
        (tmp_path / "ok.json").write_text('{"tasks": [{"c": 1, "d": 2, "t": 2}]}')
        (tmp_path / "bad.json").write_text('{"tasks": [{"c": 1, "d": 2, "t": 2, "x": 1}]}')
        cfg = tmp_path / "cfg.json"
        instances = [{"family": "file", "path": str(tmp_path / "*.json")}]
        cfg.write_text(json.dumps({"instances": instances, "algorithms": [{"algo": "dm"}]}))
        rc, out, err = run(capsys, "bench", "--config", str(cfg))
        assert (rc, out) == (2, "")
        bad = tmp_path / "bad.json"
        assert err == f"error: instance 1 (file): {bad}: task 1: unknown key 'x'\n"

    @pytest.mark.parametrize(
        "text, where",
        [('{"instances": [{"family": "bf-adversary", "k": 4}], '
          '"algorithms": [{"algo": "dm"}], "n_cap": 2, "n_cap": 12}',
          "config: repeated key 'n_cap'"),
         ('{"instances": [{"family": "bf-adversary", "k": 4, "k": 5}], '
          '"algorithms": [{"algo": "dm"}]}',
          "instance 1: repeated key 'k'"),
         ('{"instances": [{"family": "bf-adversary", "k": 4}], '
          '"algorithms": [{"algo": "dm"}, {"algo": "dm", "algo": "dagger"}]}',
          "algorithm 2: repeated key 'algo'")],
        ids=["config", "instance", "algorithm"],
    )  # fmt: skip
    def test_repeated_config_key_exit_two_naming_it(self, tmp_path, capsys, text, where):
        # a repeated key would otherwise take its last value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        assert run(capsys, "bench", "--config", str(cfg)) == (2, "", f"error: {where}\n")

    def test_json_integer_past_the_digit_limit_exit_two_naming_it(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        seed = "9" * 4301
        cfg.write_text(
            '{"instances": [{"family": "random", "n": 3, "seed": %s}], '
            '"algorithms": [{"algo": "dm"}]}' % seed
        )
        rc, out, err = run(capsys, "bench", "--config", str(cfg))
        assert (rc, out) == (2, "")
        assert err == f"error: invalid JSON config: {seed[:40]!r} has more than 4300 digits\n"
        assert "set_int_max_str_digits" not in err

    @pytest.mark.parametrize(
        "entry", [{"family": "speedup-gap", "n": 3, "eps": 0.1}, {"family": "bf-adversary", "k": 4.7}]
    )
    def test_inexact_config_value_exit_two(self, tmp_path, capsys, entry):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"instances": [entry], "algorithms": [{"algo": "dm"}]}))
        rc, _, err = run(capsys, "bench", "--config", str(cfg))
        assert rc == 2 and "instance 1" in err

    @pytest.mark.parametrize(
        "doc,where",
        [({"instances": [{"family": "nope", "n": 3}]}, "instance 1 (nope): unknown family"),
         ({"instances": [{"family": "bf-adversary", "k": 4, "bogus": 1}]},
          "instance 1 (bf-adversary): unknown key 'bogus'"),
         ({"instances": [{"family": "random", "n": 3, "class": "sporadic"}]},
          "instance 1 (random), 'class': unknown class"),
         ({"algorithms": [{"algo": "nope"}]}, "algorithm 1: unknown algorithm 'nope'"),
         ({"algorithms": [{"algo": "dm", "strategy": "xx"}]},
          "algorithm 1 (dm): unknown strategy 'xx'"),
         ({"oracle": "false"}, "oracle"),
         ({"timing": "no"}, "timing"),
         ({"algorithms": [{"algo": "dm"}, {"algo": "dm", "stratgy": "bf"}]},
          "algorithm 2: unknown key 'stratgy'"),
         ({"orcale": False}, "config: unknown key 'orcale'"),
         ({"n_cap": 0}, "n_cap: oracle cap must be at least 1, got 0"),
         ({"n_cap": -1}, "n_cap: oracle cap must be at least 1, got -1")],
    )  # fmt: skip
    def test_parse_time_rejection_exit_two(self, tmp_path, capsys, doc, where):
        base = {"instances": [{"family": "bf-adversary", "k": 4}], "algorithms": [{"algo": "dm"}]}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**base, **doc}))
        rc, out, err = run(capsys, "bench", "--config", str(cfg))
        assert rc == 2 and out == "" and where in err

    @pytest.mark.parametrize(
        "entry,where",
        [({"family": "bf-adversary", "k": 3}, "instance 2 (bf-adversary): need integer k >= 4"),
         ({"family": "random", "n": 2, "target_u": 3},
          "instance 2 (random): target 3 impossible with 2 tasks")],
    )  # fmt: skip
    def test_generator_error_names_its_instance(self, tmp_path, capsys, entry, where):
        instances = [{"family": "bf-adversary", "k": 4}, entry]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"instances": instances, "algorithms": [{"algo": "dm"}]}))
        rc, out, err = run(capsys, "bench", "--config", str(cfg))
        assert rc == 2 and out == "" and where in err

    @pytest.mark.parametrize("count", [0, -2])
    @pytest.mark.parametrize("family", ["random", "dvp"])
    def test_count_below_one_exit_two(self, tmp_path, capsys, family, count):
        instances = [{"family": "bf-adversary", "k": 4}, {"family": family, "n": 3, "count": count}]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"instances": instances, "algorithms": [{"algo": "dm"}]}))
        rc, out, err = run(capsys, "bench", "--config", str(cfg))
        where = f"instance 2 ({family}): count must be at least 1, got {count}"
        assert rc == 2 and out == "" and where in err

    def test_oracle_error_noted_and_run_goes_on(self, tmp_path, capsys):
        # C = T/2 and D = 3T/4 for T = 2^40 and 2^40 + 1: U = 1 and the
        # density is 4/3, so the oracle sweeps both tasks together to
        # their hyperperiod, which passes the default cap of 2^64
        periods = (2**40, 2**40 + 1)
        ts = taskset([(Fraction(t, 2), Fraction(3 * t, 4), t) for t in periods], name="huge")
        (tmp_path / "huge.json").write_text(serialize_taskset(ts))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "instances": [{"family": "file", "path": str(tmp_path / "huge.json")},
                          {"family": "speedup-gap", "n": 3, "eps": "1/2"}],
            "algorithms": [{"algo": "dm"}, {"algo": "dagger"}],
            "timing": False,
        }))  # fmt: skip
        out = tmp_path / "report.json"
        rc, _, err = run(capsys, "bench", "--config", str(cfg), "-o", str(out))
        hp = periods[0] * periods[1]
        assert rc == 0 and err == f"note: huge/oracle: hyperperiod {hp} exceeds cap {2**64}\n"
        rows = json.loads(out.read_text())["rows"]
        assert [(r["instance"], r["m_star"]) for r in rows] == [
            ("huge", None), ("huge", None), ("speedup-gap-n3", 3), ("speedup-gap-n3", 3)
        ]
        rc, _, err = run(capsys, "partition", str(tmp_path / "huge.json"), "--algo", "oracle")
        assert rc == 2 and "exceeds cap" in err


class TestDeterminismGoldens:
    """Reruns must be byte-identical, and must match the committed goldens."""

    @pytest.mark.parametrize(
        "golden,args",
        [
            ("bf_adversary_k4.json", ("generate", "--family", "bf-adversary", "--k", "4")),
            ("wf_adversary_k4.json", ("generate", "--family", "wf-adversary", "--k", "4")),
            ("speedup_gap_n3.json", ("generate", "--family", "speedup-gap", "--n", "3", "--eps", "1/2")),
        ],
    )
    def test_generate_bytes(self, tmp_path, capsys, golden, args):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run(capsys, *args, "-o", str(out1))[0] == 0
        assert run(capsys, *args, "-o", str(out2))[0] == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_bytes() == (GOLDEN / golden).read_bytes()

    def test_generate_dvp_pair_bytes(self, tmp_path, capsys):
        # the pair the CI smoke step compares against
        args = ("generate", "--family", "dvp", "--n", "6", "--seed", "3")
        for run_dir in (tmp_path / "a", tmp_path / "b"):
            run_dir.mkdir()
            tasks, vectors = run_dir / "tasks.json", run_dir / "vectors.json"
            assert run(capsys, *args, "--dvp-out", str(vectors), "-o", str(tasks))[0] == 0
            assert tasks.read_bytes() == (GOLDEN / "dvp_n6_s3.json").read_bytes()
            assert vectors.read_bytes() == (GOLDEN / "dvp_n6_s3_vectors.json").read_bytes()

    @pytest.mark.parametrize(
        "golden,args",
        [
            (
                "partition_bf_k4.json",
                ("partition", str(GOLDEN / "bf_adversary_k4.json"), "--algo", "dm", "--strategy", "bf"),
            ),
            *(
                (
                    f"partition_dagger_{strategy}_n4.json",
                    ("partition", str(GOLDEN / "dagger_fits_n4.json"), "--algo", "dagger", "--strategy", strategy),
                )
                # the three strategies give three different partitions here
                for strategy in ("ff", "bf", "wf")
            ),
            (
                "partition_oracle_k4.json",
                ("partition", str(GOLDEN / "bf_adversary_k4.json"), "--algo", "oracle"),
            ),
            (
                "check_speedup_n3.json",
                ("check", str(GOLDEN / "speedup_gap_n3.json"), "--speed", "3/2"),
            ),
            (
                "simulate_speedup_n3.json",
                ("simulate", str(GOLDEN / "speedup_gap_n3.json"), "--horizon", "12", "--speed", "3/2"),
            ),
        ],
    )
    def test_command_stdout_bytes(self, capsys, golden, args):
        rc1, out1, _ = run(capsys, *args)
        rc2, out2, _ = run(capsys, *args)
        assert rc1 == rc2 == 0
        assert out1 == out2
        assert out1 == (GOLDEN / golden).read_text()

    @pytest.mark.parametrize("suffix", ["json", "csv"])
    def test_bench_report_bytes(self, tmp_path, capsys, suffix):
        # CI runs the installed console script on the same config
        cfg = GOLDEN / "bench_mixed_config.json"
        out = tmp_path / f"report.{suffix}"
        assert run(capsys, "bench", "--config", str(cfg), "-o", str(out))[0] == 0
        assert out.read_bytes() == (GOLDEN / f"bench_mixed.{suffix}").read_bytes()

    @pytest.mark.parametrize("suffix", ["json", "csv"])
    def test_bench_report_bytes_across_classes_flags_and_errors(self, tmp_path, capsys, suffix):
        # random sets of every deadline class whose targets need the scaling
        # pass (implicit at den_bound 2) or the closest-set fallback (n = 3,
        # U = 1/2 at den_bound 1); n_cap 8 leaves dvp-s2 (N = 9) without an
        # optimum
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "instances": [
                {"family": "random", "n": 5, "count": 2, "seed": 0,
                 "class": "implicit", "target_u": "3/2", "den_bound": 2},
                {"family": "random", "n": 3, "seed": 0, "class": "implicit",
                 "target_u": "1/2", "den_bound": 1},
                {"family": "random", "n": 5, "count": 2, "seed": 0,
                 "class": "constrained", "target_u": "3"},
                {"family": "random", "n": 5, "count": 2, "seed": 0,
                 "class": "arbitrary", "target_u": "3"},
                {"family": "dvp", "n": 6, "seed": 1},
                {"family": "dvp", "n": 9, "seed": 2},
                {"family": "bf-adversary", "k": 4},
                {"family": "wf-adversary", "k": 4},
            ],
            "algorithms": [{"algo": "dm", "strategy": s} for s in ("ff", "bf", "wf")]
            + [{"algo": "dagger", "strategy": s} for s in ("ff", "wf")],
            "oracle": True,
            "n_cap": 8,
            "timing": False,
        }))  # fmt: skip
        out = tmp_path / f"report.{suffix}"
        rc, _, err = run(capsys, "bench", "--config", str(cfg), "-o", str(out))
        assert rc == 0
        assert "dvp-s2/oracle: N = 9 exceeds the oracle cap 8" in err
        assert out.read_bytes() == (GOLDEN / f"bench_classes.{suffix}").read_bytes()


def _full_parser_dispatch(argv) -> int:
    """`dispatch` with every argv through a full parser built for it."""
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (RtpackError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _answer(route, argv) -> tuple[int, str, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr):
        code = route(argv)
    return code, stdout.getvalue(), stderr.getvalue()


# CLI tokens for the routing test; no `-o`, so nothing is written, and
# every value stays small, so each request is quick
ROUTE_GAP = str(GOLDEN / "speedup_gap_n3.json")
ROUTE_COMMANDS = ["check", "partition", "generate", "bench", "simulate", "frobnicate"]
ROUTE_FLAGS = [
    "--speed", "--sp", "--speed=3/2", "--point-cap", "--point",
    "--algo", "--strategy", "--n-cap", "--horizon", "--event-cap",
    "--family", "--n", "--eps", "--class", "--target-u", "--config",
]  # fmt: skip
ROUTE_VALUES = [
    "3/2", "1/2", "2", "6", "0", "-1", "-1/2", "1/0", "abc", "zz",
    "dm", "oracle", "bf", "speedup-gap", "implicit",
]  # fmt: skip
# with the values that the plain read must hand to argparse: a type's
# refusal, a choice miss, a value starting with "-" and a repeated flag
ROUTE_PAIRS = [
    ("--speed", "3/2"), ("--sp", "3/2"), ("--point-cap", "6"), ("--point", "1000"),
    ("--speed", "1/0"), ("--point-cap", "abc"), ("--speed", "-1/2"),
    ("--speed", "3/2", "--speed", "1/2"),
    ("--algo", "dm"), ("--algo", "oracle"), ("--strategy", "bf"), ("--strategy", "zz"),
    ("--n-cap", "6"), ("--horizon", "6"), ("--event-cap", "6"),
    ("--family", "speedup-gap"), ("--n", "2"), ("--eps", "1/2"), ("--target-u", "1/2"),
    ("--class", "implicit"), ("--class", "bogus"), ("--config", ROUTE_GAP),
]  # fmt: skip
# each command with its required arguments
ROUTE_HEADS = [
    ("check", ROUTE_GAP), ("partition", ROUTE_GAP, "--algo", "dm"),
    ("partition", ROUTE_GAP, "--algo", "oracle"), ("simulate", ROUTE_GAP, "--horizon", "6"),
    ("generate", "--family", "speedup-gap", "--n", "2", "--eps", "1/2"),
    ("bench", "--config", ROUTE_GAP),
]  # fmt: skip
ROUTE_TOKENS = [
    *ROUTE_COMMANDS, *ROUTE_FLAGS, *ROUTE_VALUES,
    ROUTE_GAP, str(GOLDEN / "missing.json"),
    "-h", "--h", "--help", "--", "--frobnicate", "",
]  # fmt: skip
ROUTE_ARGVS = st.one_of(
    st.lists(st.sampled_from(ROUTE_TOKENS), max_size=6),
    # a command (with its required arguments), flag-value pairs, then any tokens
    st.builds(
        lambda head, pairs, rest: [*head, *(a for pair in pairs for a in pair), *rest],
        st.sampled_from([*ROUTE_HEADS, *((c,) for c in ROUTE_COMMANDS)]),
        st.lists(
            st.one_of(
                st.sampled_from(ROUTE_PAIRS),
                st.tuples(st.sampled_from(ROUTE_FLAGS), st.sampled_from(ROUTE_VALUES)),
            ),
            max_size=3,
        ),
        st.lists(st.sampled_from(ROUTE_TOKENS), max_size=2),
    ),
)

class TestDispatch:
    def test_unknown_command(self, capsys):
        assert dispatch(["frobnicate"]) == 2
        capsys.readouterr()

    def test_no_args(self, capsys):
        assert dispatch([]) == 2
        capsys.readouterr()

    def test_shared_parser_carries_no_state(self, monkeypatch, capsys, tmp_path):
        # each request through the one parser must answer as through a
        # parser built for it alone, whatever requests came before
        gap, k4 = str(GOLDEN / "speedup_gap_n3.json"), str(GOLDEN / "bf_adversary_k4.json")
        requests = [
            ["check", gap, "--frobnicate"],
            ["check", gap, "--speed", "3/2"],
            ["check", gap],
            ["generate", "--family", "random", "--n", "5"],
            ["--help"],
            ["partition", k4, "--algo", "oracle"],
            ["check", str(tmp_path / "missing.json")],
        ]

        def answers(parser):
            monkeypatch.setattr(cli, "_shared_parser", parser)
            return [(dispatch(argv), *capsys.readouterr()) for argv in requests]

        shared = answers(functools.cache(cli.build_parser))
        fresh = answers(cli.build_parser)
        assert [rc for rc, _, _ in shared] == [2, 0, 1, 0, 0, 0, 2]
        assert shared == fresh

    def test_check_looks_up_its_layers_at_call_time(self, monkeypatch, capsys):
        # the benchmark's traced pass swaps these two module globals
        calls = []

        def spy(name, fn):
            def call(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return call

        monkeypatch.setattr(cli, "parse_taskset", spy("parse", cli.parse_taskset))
        monkeypatch.setattr(
            cli, "edf_feasible_exact", spy("check", cli.edf_feasible_exact)
        )
        for _ in range(2):
            assert dispatch(["check", str(GOLDEN / "speedup_gap_n3.json")]) == 1
        capsys.readouterr()
        assert calls == ["parse", "check"] * 2

    def test_leftover_arguments_refused_by_the_top_level_parser(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        assert run(capsys, "check", ROUTE_GAP, "--frobnicate", "x") == (2, "", (
            "usage: rtpack [-h] {check,partition,generate,bench,simulate} ...\n"
            "rtpack: error: unrecognized arguments: --frobnicate x\n"
        ))

    def test_subcommand_errors_name_the_subcommand(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")
        assert run(capsys, "check") == (2, "", (
            "usage: rtpack check [-h] [--speed SPEED] [--point-cap POINT_CAP] file\n"
            "rtpack check: error: the following arguments are required: file\n"
        ))

    def test_abbreviated_flag_reads_as_the_flag_it_abbreviates(self, capsys):
        want = run(capsys, "check", ROUTE_GAP, "--speed", "3/2")
        assert want[0] == 0 and run(capsys, "check", ROUTE_GAP, "--sp", "3/2") == want

    @settings(max_examples=400, deadline=None)
    @given(ROUTE_ARGVS)
    @example(["check", ROUTE_GAP, "--sp", "3/2"])
    @example(["check", ROUTE_GAP, "--point", "1000", "--speed=1/2"])
    @example(["partition", ROUTE_GAP, "--algo", "dm", "--strategy", "bf"])
    @example(["simulate", ROUTE_GAP, "--horizon", "6", "--speed=3/2"])
    @example(["generate", "--family", "speedup-gap", "--n", "2", "--eps", "1/2"])
    @example(["check", "--", "--frobnicate"])
    @example(["--", "check", ROUTE_GAP])
    @example(["check", ROUTE_GAP, "--speed", "1/0"])
    @example(["check", ROUTE_GAP, "--speed", "-1/2"])
    @example(["check", ROUTE_GAP, "--speed", "3/2", "--speed", "1/2"])
    @example(["partition", ROUTE_GAP, "--algo", "dm", "--strategy", "zz"])
    @example(["partition", ROUTE_GAP])
    @example(["generate", "--family", "random", "--n", "2", "--class", "bogus"])
    @example(["generate", "--family", "random", "--n", "2", "--class", "implicit",
              "--target-u", "1/2"])  # fmt: skip
    @example(["bench", "--config", "-x"])
    def test_answers_as_the_full_parser(self, argv):
        assert _answer(dispatch, argv) == _answer(_full_parser_dispatch, argv)

    @settings(max_examples=400, deadline=None)
    @given(ROUTE_ARGVS)
    def test_plain_read_is_the_parse_of_the_command(self, argv):
        command = cli._shared_parser().commands.get(argv[0]) if argv else None
        args = None if command is None else command.read_plain(argv[1:])
        if args is not None:
            want, extra = command.parse_known_args(argv[1:])
            assert extra == [] and vars(args) == vars(want)

    @pytest.mark.parametrize("head", ROUTE_HEADS, ids=lambda head: " ".join(head[:1] + head[2:]))
    def test_plain_read_takes_each_command_s_defaults(self, head):
        command = cli._shared_parser().commands[head[0]]
        args = command.read_plain(list(head[1:]))
        assert args is not None
        assert vars(args) == vars(command.parse_known_args(list(head[1:]))[0])

    @pytest.mark.parametrize("speed", ["1", "3/2"])
    def test_reads_every_cli_check_request_without_argparse(self, speed):
        # the benchmark's cli-check requests, in every order of their parts
        argv = Request("request-0", "random", ROUTE_GAP, speed, None).argv
        assert argv == ["check", ROUTE_GAP, "--speed", speed, "--point-cap", "1000"]
        command = cli._shared_parser().commands["check"]
        for parts in itertools.permutations([argv[1:2], argv[2:4], argv[4:6]]):
            rest = [token for part in parts for token in part]
            args = command.read_plain(rest)
            assert args is not None
            assert vars(args) == vars(command.parse_known_args(rest)[0])

    @pytest.mark.parametrize("argv", [
        ["check", ROUTE_GAP, "--speed", "1/0"],
        ["check", ROUTE_GAP, "--point-cap", "abc"],
        ["partition", ROUTE_GAP, "--algo", "zz"],
        ["generate", "--family", "random", "--class", "bogus"],
        ["check", ROUTE_GAP, "--speed", "-1/2"],
        ["bench", "--config", "-x"],
        ["check", ROUTE_GAP, "--speed"],
        ["partition", ROUTE_GAP],
        ["bench", "--format", "json"],
        ["check"],
        ["check", ROUTE_GAP, ROUTE_GAP],
        ["check", ROUTE_GAP, "--speed", "3/2", "--speed", "1/2"],
        ["bench", "-o", "x", "--output", "y", "--config", ROUTE_GAP],
        ["check", ROUTE_GAP, "-h"],
        ["check", "--", ROUTE_GAP],
        ["check", ROUTE_GAP, "--sp", "3/2"],
        ["check", ROUTE_GAP, "--speed=3/2"],
    ], ids=lambda argv: " ".join(a.replace(ROUTE_GAP, "FILE") for a in argv))  # fmt: skip
    def test_plain_read_hands_back(self, argv):
        assert cli._shared_parser().commands[argv[0]].read_plain(argv[1:]) is None



# Exit-code fuzzing: whatever the documents and the environment hold, a
# command returns 0, 1 or 2 and raises nothing.  Integers stay small and
# rationals have small denominators, so a well-formed draw stays cheap to
# solve; strings hold no glob characters, so a "file" instance matches no
# file.
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["", "abc", "1/0", "-1", "0", "1/2", "3/2", "0.5", "2", "1e2", "x/2"]),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.sampled_from(["c", "k", "x"]), st.integers(0, 3), max_size=2),
)
TASK_DOCS = st.one_of(
    st.dictionaries(st.sampled_from(["c", "d", "t", "x"]), JUNK, max_size=4),
    st.fixed_dictionaries(
        {"c": st.sampled_from(["1/2", 1, "1/3"]), "d": st.sampled_from([1, 2, "3/2"]),
         "t": st.sampled_from([1, 2, 3, "5/2"])},
        optional={"id": JUNK, "C": JUNK},
    ),
    JUNK,
)
TASKSET_DOCS = st.one_of(
    st.fixed_dictionaries(
        {"tasks": st.lists(TASK_DOCS, max_size=4)}, optional={"name": JUNK, "nme": JUNK}
    ),
    st.dictionaries(st.sampled_from(["tasks", "name"]), JUNK, max_size=2),
    JUNK,
)
# a value of a well-formed instance, or junk
PLAUSIBLE = st.one_of(st.integers(1, 6), st.sampled_from(["1/2", "3/2", "implicit"]), JUNK)
INSTANCE_DOCS = st.one_of(
    st.fixed_dictionaries(
        {"family": st.one_of(
            st.sampled_from(["bf-adversary", "wf-adversary", "speedup-gap", "random", "dvp", "file", "nope"]),
            JUNK,
        )},
        optional={
            key: PLAUSIBLE
            for key in ("k", "n", "seed", "count", "eps", "target_u", "den_bound", "class", "path")
        },
    ),
    JUNK,
)
ALGORITHM_DOCS = st.fixed_dictionaries(
    {"algo": st.one_of(st.sampled_from(["dm", "dagger"]), JUNK)},
    optional={"strategy": st.one_of(st.sampled_from(["ff", "bf", "wf"]), JUNK)},
)
CONFIG_DOCS = st.one_of(
    st.fixed_dictionaries(
        {
            "instances": st.one_of(st.lists(INSTANCE_DOCS, min_size=1, max_size=2), JUNK),
            "algorithms": st.one_of(
                st.lists(ALGORITHM_DOCS, min_size=1, max_size=2),
                st.lists(st.one_of(ALGORITHM_DOCS, JUNK), max_size=2),
                JUNK,
            ),
        },
        optional={key: PLAUSIBLE for key in ("oracle", "n_cap", "threads", "timing")},
    ),
    JUNK,
)
DOC = "{doc}"  # stands for the path of the fuzzed document in an argv
TASKSET_COMMANDS = [
    ("check", DOC, "--point-cap", "1000"),
    ("check", DOC, "--speed", "3/2", "--point-cap", "1000"),
    ("partition", DOC, "--algo", "dm", "--strategy", "bf"),
    ("partition", DOC, "--algo", "dagger"),
    ("partition", DOC, "--algo", "oracle"),
    ("simulate", DOC, "--horizon", "6", "--event-cap", "2000"),
]
BENCH_COMMAND = ("bench", "--config", DOC, "--format", "json")
# CLI flags: each value is a plausible one or junk; integers stay small (k,
# n <= 8) so that a well-formed draw stays quick to generate or solve
FLAG_JUNK = st.sampled_from(
    ["", "abc", "-1", "0", "2", "1/0", "1/2", "0.5", "1e2", "x/2", "-1/3", "implicit", "file"]
)


def _flag(*plausible):
    """A flag value: plausible in about four draws of five, else junk."""
    return st.integers(0, 4).flatmap(lambda i: FLAG_JUNK if i == 4 else st.sampled_from(plausible))


def _argv(*head):
    return lambda flags, tail=(): [*head, *(a for f, v in flags.items() for a in (f, v)), *tail]


GENERATE_ARGV = st.builds(
    _argv("generate"),
    st.fixed_dictionaries(
        {"--family": _flag(*(f for f in FAMILIES if f != "file"))},
        optional={"--k": _flag("4", "5", "8"), "--n": _flag("1", "3", "8"),
                  "--eps": _flag("1/2", "1/3"),
                  "--seed": _flag("0", "7"), "--target-u": _flag("1/2", "1", "3/2"),
                  "--class": _flag("implicit", "constrained", "arbitrary"),
                  "--den-bound": _flag("2", "8")},
    ),
    st.sampled_from([(), ("--dvp-out", DOC)]),
)
PARTITION_ARGV = st.builds(
    _argv("partition", DOC),
    st.fixed_dictionaries(
        {"--algo": _flag("dm", "dagger", "oracle")},
        optional={"--strategy": _flag("ff", "bf", "wf"), "--n-cap": _flag("2", "8", "12")},
    ),
)
PARTITION_DOCS = st.one_of(
    st.sampled_from([(GOLDEN / name).read_text() for name in ("bf_adversary_k4.json",
                                                              "speedup_gap_n3.json")]),
    TASKSET_DOCS,
)  # fmt: skip


def _fuzz_dispatch(argv, doc):
    """dispatch(argv) with DOC replaced by the path of a file holding doc
    (JSON-encoded unless a string); output is discarded."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(doc if isinstance(doc, str) else json.dumps(doc))
        with open(os.devnull, "w") as sink:
            with redirect_stdout(sink), redirect_stderr(sink):
                return dispatch([path if arg == DOC else arg for arg in argv])


class TestExitCodeFuzz:
    @settings(max_examples=150)
    @given(
        st.sampled_from(TASKSET_COMMANDS),
        st.one_of(TASKSET_DOCS, st.text(max_size=40)),
    )
    def test_taskset_documents(self, argv, doc):
        assert _fuzz_dispatch(argv, doc) in (0, 1, 2)

    @settings(max_examples=150)
    @given(st.one_of(CONFIG_DOCS, st.text(max_size=40)))
    def test_bench_configs(self, doc):
        assert _fuzz_dispatch(BENCH_COMMAND, doc) in (0, 2)

    @settings(max_examples=150)
    @given(GENERATE_ARGV)
    def test_generate_flags(self, argv):
        assert _fuzz_dispatch(argv, "") in (0, 2)

    @settings(max_examples=150)
    @given(PARTITION_ARGV, PARTITION_DOCS)
    def test_partition_flags(self, argv, doc):
        assert _fuzz_dispatch(argv, doc) in (0, 2)

    @pytest.mark.parametrize("argv", [("check", DOC), BENCH_COMMAND])
    def test_deeply_nested_document(self, argv):
        # json raises RecursionError, not a decode error, past its nesting limit
        assert _fuzz_dispatch(argv, "[" * 100_000) == 2
