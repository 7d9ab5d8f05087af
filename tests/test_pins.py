"""Byte and count pins of the benchmark's inputs, and CLI runs that must
end in bounded time.

The ratio-sweep and cli-check inputs are built by the benchmark's own
`perfbench/workloads.py`, imported read-only.  A pin moves only with a
change that states why and lists old -> new in CHANGES.md.
"""

import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from rtpack import feasibility
from rtpack.cli import dispatch

ROOT = Path(__file__).resolve().parent.parent
GAP = str(ROOT / "tests" / "golden" / "speedup_gap_n3.json")
sys.path.insert(0, str(ROOT / "perfbench"))
from spans import Tracer  # noqa: E402
from workloads import ALGORITHMS, CheckWorkload, ratio_sweep_instances  # noqa: E402


def run_cli(*argv, timeout, cwd=None):
    """(exit code, stdout, stderr) of `python -m rtpack.cli *argv` on the
    checkout's `src/`; raises `subprocess.TimeoutExpired` past `timeout`
    seconds."""
    done = subprocess.run(
        [sys.executable, "-m", "rtpack.cli", *argv], capture_output=True, text=True,
        timeout=timeout, cwd=cwd, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )  # fmt: skip
    return done.returncode, done.stdout, done.stderr


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A directory of the task sets the bounded-time runs read."""
    path = tmp_path_factory.mktemp("bounded")
    (path / "huge.json").write_text('{"tasks": [{"c": "1e-999999999", "d": "1", "t": "1"}]}')
    # a JSON integer of 4301 digits
    (path / "digits.json").write_text('{"tasks": [{"c": 1, "d": 2, "t": ' + "9" * 4301 + "}]}")
    # a near-critical arbitrary-deadline set (U ~ 1, den-bound 100) whose
    # demand sweep runs past the default cap of 10^7 points
    near = ["generate", "--family", "random", "--n", "10", "--class", "arbitrary",
            "--target-u", "1", "--den-bound", "100", "--seed", "0", "-o", str(path / "near.json")]  # fmt: skip
    assert dispatch(near) == 0
    # constrained sets (N = 20 and 22) on which an unpruned witness search
    # in input order runs for tens of seconds to minutes
    for name, args in (("oracle-n20.json", ["--n", "20", "--target-u", "5", "--den-bound", "100", "--seed", "0"]),
                       ("oracle-n22.json", ["--n", "22", "--target-u", "11/2", "--seed", "2"])):  # fmt: skip
        assert dispatch(["generate", "--family", "random", "--class", "constrained", *args,
                         "-o", str(path / name)]) == 0  # fmt: skip
    return path


def bounded(name, argv, timeout, code, expect=""):
    return pytest.param(argv, timeout, code, expect, id=name)


# each run: its argv, run in the `inputs` directory, its timeout in
# seconds, its exit code, and a text its stderr holds or the sha256 of
# its stdout
BOUNDED_RUNS = [
    bounded("huge-exponent-task", ["check", "huge.json"], 20, 2),
    bounded("huge-exponent-speed", ["check", GAP, "--speed", "1e999999999"], 20, 2),
    bounded("json-integer-4301-digits", ["check", "digits.json"], 20, 2, "has more than 4300 digits"),
    *(bounded(f"unprintable-{args[1]}", ["generate", *args], 20, 2)
      for args in (["--family", "bf-adversary", "--k", "20000"],
                   ["--family", "wf-adversary", "--k", "20000"],
                   ["--family", "speedup-gap", "--n", "40000", "--eps", "1/2"])),  # fmt: skip
    bounded("printable-bf-adversary-k1000", ["generate", "--family", "bf-adversary", "--k", "1000"], 20, 0),
    bounded("simulate-event-cap", ["simulate", GAP, "--horizon", "1e9"], 20, 2,
            "simulation exceeded 1000000 events"),  # fmt: skip
    bounded("check-point-cap", ["check", "near.json"], 30, 2, "demand sweep exceeded 10000000 points"),
    # 333,333 deadline misses; the sha256 of json.dumps(doc, indent=2) of
    # this trace, which the simulate writer must reproduce byte for byte
    bounded("simulate-trace-bytes", ["simulate", GAP, "--horizon", "1e6"], 20, 1,
            "bb54e28514f5266b66264678d6afec46640b9016a15639e8af44ded9a65f6c71"),  # fmt: skip
    bounded("oracle-witness-n20", ["partition", "oracle-n20.json", "--algo", "oracle"], 20, 0,
            "e1347f348e2293e7247f8923cd7255a8d74c5780e8b7532ddc800ef72d5e726e"),  # fmt: skip
    bounded("oracle-witness-n22", ["partition", "oracle-n22.json", "--algo", "oracle", "--n-cap", "22"],
            20, 0, "d492ba0dd466dec16ca11ef076590c225df777c1f9eebe7401fdbf768edc57b4"),  # fmt: skip
]


@pytest.mark.parametrize("argv, timeout, code, expect", BOUNDED_RUNS)
def test_bounded_time_run(inputs, argv, timeout, code, expect):
    rc, out, err = run_cli(*argv, timeout=timeout, cwd=inputs)
    assert rc == code, err
    if len(expect) == 64:
        assert hashlib.sha256(out.encode()).hexdigest() == expect
    else:
        assert expect in err


# per seed: the sha256 of the bench report of the three ratio-sweep
# batches with all six algorithms, and over those batches the bins that
# reach the exact test past the density accept and the share refusal and
# the demand sweeps.  Verification and the oracle both reach the exact
# test through `feasibility.bin_feasible`, so each bin is decided once.
@pytest.mark.parametrize("seed, report_sha256, bins_past_gates, sweeps", [
    (1, "b4abda557fadedf80cb39d099aa277b320a771175b33d4105d1323191723ad1c", 3629, 1472),
    (2, "7907bcd7fe953299e5a362906dc51ecf4270a0fcaed8d590d60056ffff8fff55", 3313, 1267),
], ids=["seed1", "seed2"])  # fmt: skip
def test_ratio_sweep_report(tmp_path, monkeypatch, seed, report_sha256, bins_past_gates, sweeps):
    counts = {"exact": 0, "sweeps": 0}

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(feasibility, "feasible_past_gates", counted("exact", feasibility.feasible_past_gates))
    monkeypatch.setattr(feasibility, "_sweep_first_failure", counted("sweeps", feasibility._sweep_first_failure))
    instances = [spec for b in range(3) for spec in ratio_sweep_instances(seed, b)]
    cfg, report = tmp_path / "cfg.json", tmp_path / "report.json"
    cfg.write_text(json.dumps({"instances": instances, "algorithms": ALGORITHMS,
                               "n_cap": 16, "timing": False}))  # fmt: skip
    assert dispatch(["bench", "--config", str(cfg), "-o", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == report_sha256
    assert (counts["exact"], counts["sweeps"]) == (bins_past_gates, sweeps)


# per seed: the sha256 of every request's exit code, stdout and stderr, in
# order, over all six batches of the benchmark's cli-check requests
@pytest.mark.parametrize("seed, pin", [
    (1, "5aa703cbb32de8973ae6f08618ec722a630c5bb903fa396adc9186546b635d56"),
    (2, "761d43aeffa31578ad770ed3847aa6d0666b3669c221a1dc390a9f49498ab247"),
], ids=["seed1", "seed2"])  # fmt: skip
def test_cli_check_requests(seed, pin):
    workload = CheckWorkload()
    h = hashlib.sha256()
    with tempfile.TemporaryDirectory() as work:
        for batch in range(workload.batches):
            for req in workload.build(seed, batch, work, Tracer()):
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    code = dispatch(req.argv)
                h.update(f"{code}\0{out.getvalue()}\0{err.getvalue()}\0".encode())
    assert h.hexdigest() == pin


# the work counters of one traced benchmark pass; seed 2 is a seed that no
# change was tuned on
@pytest.mark.parametrize("workload, seed, counters", [
    ("ratio-sweep", 1, {"oracle.nodes": 949, "oracle.levels": 153, "feasibility.verify.bins": 2496,
                        "partitioners.dm.bins": 1117, "partitioners.dagger.bins": 1379,
                        "generators.tasks": 930, "bench.emit.bytes": 244901}),
    ("ratio-sweep", 2, {"oracle.nodes": 758, "oracle.levels": 153, "feasibility.verify.bins": 2517,
                        "partitioners.dm.bins": 1115, "partitioners.dagger.bins": 1402,
                        "generators.tasks": 930, "bench.emit.bytes": 244247}),
    ("cli-check", 1, {"feasibility.check.points": 3510, "feasibility.check.infeasible": 116,
                      "feasibility.check.capped": 1, "io.parse.bytes": 147928}),
], ids=["ratio-sweep-seed1", "ratio-sweep-seed2", "cli-check-seed1"])  # fmt: skip
def test_traced_benchmark_pass(workload, seed, counters, tmp_path):
    # run.py keeps its work and spans beside its own copy of `src/`, so the
    # pass runs on a copy under tmp_path and leaves the checkout as it was
    for tree in ("perfbench", "src"):
        shutil.copytree(ROOT / tree, tmp_path / tree, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, cwd=tmp_path,
    )  # fmt: skip
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True, done.stderr
    assert {name: result["metrics"][name]["value"] for name in counters} == counters
    assert (tmp_path / ".perfbench-out" / f"spans-{workload}-s{seed}.json").is_file()
