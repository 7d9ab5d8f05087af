import json
import os
from pathlib import Path

import pytest

from rtpack.cli import dispatch
from rtpack.io import serialize_taskset
from rtpack.model import taskset

GOLDEN = Path(__file__).parent / "golden"


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
        assert "vectors" in json.loads(vec_out.read_text())
        assert "tasks" in json.loads(tasks_out.read_text())

    def test_missing_parameter_is_an_error(self, capsys):
        rc, _, err = run(capsys, "generate", "--family", "bf-adversary")
        assert rc == 2 and "error" in err

    def test_stdout_when_no_output_file(self, capsys):
        rc, text, _ = run(capsys, "generate", "--family", "speedup-gap", "--n", "2", "--eps", "1/4")
        assert rc == 0 and json.loads(text)["name"] == "speedup-gap-n2"

    def test_no_tmp_file_left_behind(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        run(capsys, "generate", "--family", "wf-adversary", "--k", "4", "-o", str(out))
        assert out.exists()
        assert not (tmp_path / "x.json.tmp").exists()


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

    def test_missing_file_exit_two(self, capsys):
        rc, _, err = run(capsys, "check", "no-such-file.json")
        assert rc == 2 and "error" in err

    def test_invalid_set_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"tasks":[{"c":"3","d":"2","t":"4"}]}')
        rc, _, err = run(capsys, "check", str(bad))
        assert rc == 2 and "C/D" in err


class TestPartition:
    def test_oracle_cap_exit_two(self, tmp_path, capsys):
        ts = taskset([(1, 100, 100)] * 13, name="wide")
        f = tmp_path / "wide.json"
        f.write_text(serialize_taskset(ts))
        rc, _, err = run(capsys, "partition", str(f), "--algo", "oracle")
        assert rc == 2 and "cap" in err

    def test_env_override_raises_cap(self, tmp_path, capsys, monkeypatch):
        ts = taskset([(1, 100, 100)] * 13, name="wide")
        f = tmp_path / "wide.json"
        f.write_text(serialize_taskset(ts))
        monkeypatch.setenv("RTP_NCAP", "13")
        rc, text, _ = run(capsys, "partition", str(f), "--algo", "oracle")
        assert rc == 0
        assert json.loads(text)["m"] == 1

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

    def test_threads_flag_keeps_output_identical(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "instances": [{"family": "bf-adversary", "k": 4},
                          {"family": "wf-adversary", "k": 4}],
            "algorithms": [{"algo": "dm", "strategy": "bf"}],
            "oracle": True,
            "timing": False,
        }))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(capsys, "bench", "--config", str(cfg), "-o", str(out1))[0] == 0
        assert run(capsys, "bench", "--config", str(cfg), "--threads", "3", "-o", str(out2))[0] == 0
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


    @pytest.mark.parametrize(
        "entry", [{"family": "speedup-gap", "n": 3, "eps": 0.1}, {"family": "bf-adversary", "k": 4.7}]
    )
    def test_inexact_config_value_exit_two(self, tmp_path, capsys, entry):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"instances": [entry], "algorithms": [{"algo": "dm"}]}))
        rc, _, err = run(capsys, "bench", "--config", str(cfg))
        assert rc == 2 and "instance 1" in err


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

    @pytest.mark.parametrize(
        "golden,args",
        [
            (
                "partition_bf_k4.json",
                ("partition", str(GOLDEN / "bf_adversary_k4.json"), "--algo", "dm", "--strategy", "bf"),
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


class TestDispatch:
    def test_unknown_command(self, capsys):
        assert dispatch(["frobnicate"]) == 2
        capsys.readouterr()

    def test_no_args(self, capsys):
        assert dispatch([]) == 2
        capsys.readouterr()
