"""`scripts/bench_pairs.py`: the summary of paired benchmark runs, with the
perfbench runs replaced by fixed results."""

import json
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
pairs = runpy.run_path(str(ROOT / "scripts" / "bench_pairs.py"))

LOWER = {"name": "wall_s", "better": "lower", "bound": 0.24}
HIGHER = {"name": "ops_per_s", "better": "higher", "bound": 0.24}


class TestSummarize:
    def test_lower_is_better(self):
        parent = [1.0, 1.15, 1.2, 1.25, 1.4]
        change = [0.9, 1.0, 1.3, 1.0, 1.0]
        got = pairs["summarize"](LOWER, parent, change)
        assert got["parent_median"] == 1.2 and got["change_median"] == 1.0
        assert got["change_better_pairs"] == 4 and got["pairs"] == 5
        assert got["parent_quartiles"] == [1.15, 1.25]
        assert got["change_pct"] == -16.67
        assert got["median_gap"] == pytest.approx(0.2) and got["gap_exceeds_parent_iqr"]
        assert got["within_bound"]

    def test_higher_is_better_and_ties_are_no_win(self):
        got = pairs["summarize"](HIGHER, [10.0, 10.0, 10.0], [10.0, 11.0, 7.0])
        assert got["change_better_pairs"] == 1
        assert not got["gap_exceeds_parent_iqr"] and got["within_bound"]

    @pytest.mark.parametrize("metric, parent, change", [
        (LOWER, [1.0, 1.01, 0.99, 1.0], [1.2, 1.21, 1.19, 1.2]),
        (HIGHER, [1.0, 1.01, 0.99, 1.0], [0.8, 0.81, 0.79, 0.8]),
    ])  # fmt: skip
    def test_a_gap_on_the_worse_side_is_no_gain(self, metric, parent, change):
        got = pairs["summarize"](metric, parent, change)
        assert got["change_better_pairs"] == 0
        assert got["median_gap"] > got["parent_iqr"]
        assert not got["gap_exceeds_parent_iqr"]

    @pytest.mark.parametrize("metric, change, within", [
        (LOWER, 1.24, True), (LOWER, 1.25, False),
        (HIGHER, 0.76, True), (HIGHER, 0.75, False),
    ])  # fmt: skip
    def test_bound_is_relative_to_the_parent_median(self, metric, change, within):
        assert pairs["summarize"](metric, [1.0], [change])["within_bound"] is within


def fake_runs(monkeypatch, wall_s: dict, correct=True):
    """Replace perfbench runs by results whose `wall_s` is
    `wall_s[side][seed]`, recording the order of the runs."""
    order = []

    def run_once(checkout, workload, seed, seconds):
        order.append((checkout, seed))
        if not correct:
            raise RuntimeError(f"{checkout}: {workload} seed {seed} is not correct")
        value = wall_s[checkout][seed]
        return {
            "correct": True, "attempted": 10, "failed": 0,
            "metrics": {"wall_s": {"value": value}, "ops_per_s": {"value": 10 / value},
                        "peak_rss_mib": {"value": 40.0}, "setup_s": {"value": 0.2}},
        }  # fmt: skip

    monkeypatch.setitem(pairs["main"].__globals__, "run_once", run_once)
    return order


class TestMain:
    def test_alternates_sides_and_writes_every_metric(self, tmp_path, monkeypatch):
        parent, change = str(tmp_path / "parent"), str(tmp_path / "change")
        Path(parent).mkdir()
        (Path(parent) / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
        walls = {parent: {1: 1.0, 2: 1.2, 3: 1.1}, change: {1: 0.9, 2: 1.0, 3: 1.2}}
        order = fake_runs(monkeypatch, walls)
        out = tmp_path / "bench.json"
        argv = [parent, change, "--workload", "cli-check", "--seeds", "1", "2", "3",
                "-o", str(out)]  # fmt: skip
        assert pairs["main"](argv) == 0
        assert order == [(parent, 1), (change, 1), (change, 2), (parent, 2), (parent, 3),
                         (change, 3)]  # fmt: skip
        doc = json.loads(out.read_text())
        assert doc["seeds"] == [1, 2, 3] and doc["parent"] is None
        record = doc["workloads"]["cli-check"]
        assert set(record) == {"wall_s", "ops_per_s", "peak_rss_mib", "setup_s", "operations"}
        assert record["wall_s"]["parent"] == [1.0, 1.2, 1.1]
        assert record["wall_s"]["change_better_pairs"] == 2
        assert record["operations"]["change"]["attempted_per_run"] == [10, 10, 10]

    def test_a_run_that_is_not_correct_stops_the_script(self, tmp_path, monkeypatch, capsys):
        fake_runs(monkeypatch, {}, correct=False)
        out = tmp_path / "bench.json"
        argv = [str(ROOT), str(ROOT), "--workload", "cli-check", "--seeds", "1", "-o", str(out)]
        assert pairs["main"](argv) == 1
        assert "is not correct" in capsys.readouterr().err
        assert not out.exists()
