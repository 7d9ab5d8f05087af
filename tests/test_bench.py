import json
import math
import threading
from fractions import Fraction

import pytest

from rtpack.bench import (
    BenchReport,
    BenchRow,
    ExperimentConfig,
    check_bounds,
    emit_report,
    parse_config,
    parse_report,
    run_experiment,
    spec,
)
from rtpack.errors import ParseError
from rtpack.generators import gen_best_fit_adversary
from rtpack.model import gamma_metric

F = Fraction


def make_row(**overrides):
    base = dict(
        instance="x",
        family="random",
        n=4,
        deadline_class="implicit",
        lam=F(1),
        gamma=F(1, 2),
        utilization=F(3, 2),
        algorithm="dagger",
        strategy="ff",
        m=3,
        m_star=2,
        violations=(),
        runtime_ms=0.0,
    )
    base.update(overrides)
    return BenchRow(**base)


class TestRunExperiment:
    def test_adversary_family_rows(self):
        cfg = ExperimentConfig(
            instances=tuple(spec("bf-adversary", k=k) for k in (4, 5, 6)),
            algorithms=(("dm", "bf"),),
            oracle=True,
            n_cap=12,
            timing=False,
        )
        report = run_experiment(cfg)
        assert [(r.m, r.m_star) for r in report.rows] == [(4, 2), (5, 2), (6, 2)]
        assert [r.ratio for r in report.rows] == [F(2), F(5, 2), F(3)]
        assert report.errors == ()
        assert all(r.violations == () or all(v.startswith("soft:") for v in r.violations) for r in report.rows)

    def test_random_implicit_ratios_within_two(self):
        cfg = ExperimentConfig(
            instances=(
                spec(
                    "random",
                    count=50,
                    n=8,
                    seed=7,
                    target_u="3/2",
                    **{"class": "implicit"},
                ),
            ),
            algorithms=(("dagger", "ff"),),
            oracle=True,
            timing=False,
        )
        report = run_experiment(cfg)
        assert len(report.rows) == 50
        for row in report.rows:
            assert row.lam == 1
            assert row.ratio is not None and row.ratio <= 2
            assert not any(v.startswith("hard") for v in row.violations)

    def test_empty_instances_empty_report(self):
        cfg = ExperimentConfig(instances=(), algorithms=(("dm", "ff"),))
        report = run_experiment(cfg)
        assert report.rows == ()

    def test_oracle_cap_recorded_as_error(self):
        cfg = ExperimentConfig(
            instances=(spec("bf-adversary", k=7),),
            algorithms=(("dm", "bf"),),
            oracle=True,
            n_cap=8,
            timing=False,
        )
        report = run_experiment(cfg)
        assert len(report.errors) == 1 and "cap" in report.errors[0]
        assert report.rows[0].m_star is None and report.rows[0].ratio is None

    def test_oracle_invariants_on_rows(self):
        cfg = ExperimentConfig(
            instances=(spec("random", count=6, n=5, seed=3, target_u="2"),),
            algorithms=(("dm", "ff"), ("dagger", "wf")),
            oracle=True,
            timing=False,
        )
        report = run_experiment(cfg)
        for row in report.rows:
            assert row.m_star is not None
            assert row.m_star <= row.m
            assert row.m_star >= math.ceil(row.utilization)

    def test_runs_start_no_thread(self, monkeypatch):
        def refuse(self):
            raise AssertionError("run_experiment started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        base = {
            "instances": [
                {"family": "bf-adversary", "k": 4},
                {"family": "wf-adversary", "k": 4},
                {"family": "speedup-gap", "n": 3, "eps": "1/2"},
            ],
            "algorithms": [{"algo": "dm", "strategy": "bf"},
                           {"algo": "dagger", "strategy": "ff"}],
            "oracle": True,
            "timing": False,
        }
        outputs = set()
        for extra in ({"threads": 4}, {"threads": 1}, {}):
            report = run_experiment(parse_config(json.dumps({**base, **extra})))
            assert report.rows and not report.errors
            outputs.add((emit_report(report, "json"), emit_report(report, "csv")))
        assert len(outputs) == 1

    def test_at_least_one_algorithm_required(self):
        with pytest.raises(ParseError):
            ExperimentConfig(instances=(), algorithms=())

    @pytest.mark.parametrize(
        "algorithms,match",
        [((("nope", None),), "algorithm 1: unknown algorithm 'nope'"),
         ((("dm", "bf"), ("dagger", "xx")), "algorithm 2 \\(dagger\\): unknown strategy 'xx'")],
    )  # fmt: skip
    def test_python_built_algorithms_checked(self, algorithms, match):
        with pytest.raises(ParseError, match=match):
            ExperimentConfig(instances=(), algorithms=algorithms)


class TestCheckBounds:
    def test_within_bound(self):
        report = BenchReport(rows=(make_row(m=3, m_star=2, lam=F(1)),))
        assert check_bounds(report) == []

    def test_hard_violation(self):
        report = BenchReport(rows=(make_row(m=5, m_star=2, lam=F(1)),))
        flags = check_bounds(report)
        assert len(flags) == 1 and "hard" in flags[0]

    def test_adversary_rows_consistent_with_asymptotic_blowup(self):
        # ratio K/2 with gamma close to 1: 2/(1-gamma) must dominate K/2
        for k in (4, 5, 6):
            ts = gen_best_fit_adversary(k)
            gamma = gamma_metric(ts)
            assert gamma == 1 - F(1, k)
            assert F(2, 1) / (1 - gamma) >= F(k, 2)

    def test_soft_flag_reported(self):
        row = make_row(algorithm="dm", m=9, m_star=1, gamma=F(1, 2), lam=F(1))
        flags = check_bounds(BenchReport(rows=(row,)))
        assert len(flags) == 1 and "soft" in flags[0]


class TestEmit:
    def test_empty_csv_has_header_only(self):
        data = emit_report(BenchReport(rows=()), "csv").decode()
        lines = data.strip().split("\n")
        assert len(lines) == 1
        assert lines[0].split(",")[0] == "instance"

    def test_one_row_csv_shape(self):
        data = emit_report(BenchReport(rows=(make_row(),)), "csv").decode()
        lines = data.strip().split("\n")
        assert len(lines) == 2
        assert len(lines[0].split(",")) == 14
        assert len(lines[1].split(",")) == 14

    def test_rationals_rendered_exactly(self):
        data = emit_report(BenchReport(rows=(make_row(),)), "csv").decode()
        assert "3/2" in data

    def test_json_round_trip(self):
        report = BenchReport(rows=(make_row(), make_row(instance="y", m_star=None)))
        assert parse_report(emit_report(report, "json")) == report

    @pytest.mark.parametrize("data", [b"{", b'{"rows": [{}]}', b"[]", b"\xff"])
    def test_malformed_report_is_a_parse_error(self, data):
        with pytest.raises(ParseError):
            parse_report(data)

    def test_json_round_trip_with_live_timings(self):
        cfg = ExperimentConfig(
            instances=(spec("bf-adversary", k=4),),
            algorithms=(("dm", "bf"),),
            oracle=True,
            timing=True,
        )
        report = run_experiment(cfg)
        assert parse_report(emit_report(report, "json")) == BenchReport(
            rows=report.rows, errors=report.errors
        )

    def test_emission_deterministic(self):
        report = BenchReport(rows=(make_row(),))
        assert emit_report(report, "csv") == emit_report(report, "csv")
        assert emit_report(report, "json") == emit_report(report, "json")

    @pytest.mark.parametrize("ms", [0.0, 0.0005, 0.0015, 1.2345, 2.675, 1e-7, 12345.6789])
    def test_csv_runtime_cell_has_three_decimals(self, ms):
        data = emit_report(BenchReport(rows=(make_row(runtime_ms=ms),)), "csv").decode()
        assert data.split("\n")[1].split(",")[-1] == f"{ms:.3f}"

    def test_decimal_convenience_column(self):
        data = emit_report(BenchReport(rows=(make_row(),)), "json").decode()
        assert '"ratio_decimal": "1.500000"' in data

    def test_unknown_format(self):
        with pytest.raises(ParseError):
            emit_report(BenchReport(rows=()), "xml")


class TestConfigParsing:
    def test_full_config(self):
        cfg = parse_config(
            b"""
            {
              "instances": [
                {"family": "bf-adversary", "k": 4},
                {"family": "random", "count": 2, "n": 5, "seed": 9, "target_u": "3/2"}
              ],
              "algorithms": [{"algo": "dm", "strategy": "bf"}, {"algo": "dagger"}],
              "oracle": true,
              "n_cap": 10,
              "timing": false,
              "threads": 2
            }
            """
        )
        assert len(cfg.instances) == 2
        assert cfg.algorithms == (("dm", "bf"), ("dagger", None))
        assert cfg.n_cap == 10 and cfg.threads == 2 and cfg.timing is False
        report = run_experiment(cfg)
        assert len(report.rows) == 6

    def test_malformed(self):
        with pytest.raises(ParseError):
            parse_config(b"{")
        with pytest.raises(ParseError):
            parse_config(b"{}")
        with pytest.raises(ParseError):
            parse_config(b'{"instances": [], "algorithms": [{}]}')

    @pytest.mark.parametrize(
        "entry,missing",
        [({"family": "bf-adversary"}, "k"), ({"family": "wf-adversary", "h": 5}, "k"),
         ({"family": "speedup-gap", "n": 3}, "eps"), ({"family": "random"}, "n"),
         ({"family": "dvp", "seed": 1}, "n"), ({"family": "file"}, "path")],
    )  # fmt: skip
    def test_family_keys_required(self, entry, missing):
        doc = {"instances": [entry], "algorithms": [{"algo": "dm"}]}
        with pytest.raises(ParseError, match=f"missing '{missing}'"):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize(
        "entry,match",
        [({"family": "nope", "n": 3}, "instance 1 \\(nope\\): unknown family 'nope'"),
         ({"family": "bf-adversary", "k": 4, "bogus": 1},
          "instance 1 \\(bf-adversary\\): unknown key 'bogus'"),
         ({"family": "speedup-gap", "n": 3, "eps": "1/2", "seed": 1},
          "instance 1 \\(speedup-gap\\): unknown key 'seed'"),
         ({"family": "random", "n": 3, "class": "sporadic"},
          "instance 1 \\(random\\), 'class': unknown class 'sporadic'"),
         ({"family": "random", "n": 3, "class": ["implicit"]}, "unknown class")],
    )  # fmt: skip
    def test_unknown_family_key_or_class(self, entry, match):
        doc = {"instances": [entry], "algorithms": [{"algo": "dm"}]}
        with pytest.raises(ParseError, match=match):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize(
        "doc,match",
        [({"orcale": False}, "config: unknown key 'orcale'"),
         ({"thread": 2}, "config: unknown key 'thread'"),
         ({"algorithms": [{"algo": "dm", "stratgy": "bf"}]},
          "algorithm 1: unknown key 'stratgy'"),
         ({"algorithms": [{"algo": "dm"}, {"algo": "dagger", "strategy": "ff", "fit": "bf"}]},
          "algorithm 2: unknown key 'fit'"),
         ({"algorithms": [{"algo": "dm"}, "dagger"]}, "algorithm 2: expected an object")],
    )  # fmt: skip
    def test_unknown_config_or_algorithm_key(self, doc, match):
        # a misspelled key is refused, not dropped in favor of the default
        base = {"instances": [], "algorithms": [{"algo": "dm"}]}
        with pytest.raises(ParseError, match=match):
            parse_config(json.dumps({**base, **doc}))

    @pytest.mark.parametrize("key", ["oracle", "timing"])
    @pytest.mark.parametrize("value", ["false", "no", 0, 1, None])
    def test_switches_must_be_json_booleans(self, key, value):
        doc = {"instances": [], "algorithms": [{"algo": "dm"}], key: value}
        with pytest.raises(ParseError, match=key):
            parse_config(json.dumps(doc))

    def test_family_must_be_a_string(self):
        doc = {"instances": [{"family": ["random"]}], "algorithms": [{"algo": "dm"}]}
        with pytest.raises(ParseError, match="family must be a string"):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize(
        "key,value",
        [("eps", 0.1), ("eps", True), ("eps", None), ("eps", "x/2"), ("n", 4.7),
         ("n", True), ("n", "4"), ("n", 4.0)],
    )  # fmt: skip
    def test_instance_values_must_be_exact(self, key, value):
        entry = {"family": "speedup-gap", "n": 3, "eps": "1/2", key: value}
        doc = {"instances": [entry], "algorithms": [{"algo": "dm"}]}
        with pytest.raises(ParseError, match=f"instance 1 \\(speedup-gap\\), '{key}'"):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize(
        "entry",
        [{"family": "bf-adversary", "k": 4.7}, {"family": "bf-adversary", "k": 4, "h": 1e9},
         {"family": "random", "n": 5, "target_u": 1.5}, {"family": "random", "n": 5, "seed": 1.0},
         {"family": "random", "n": 5, "count": "2"}, {"family": "dvp", "n": 5, "den_bound": 8.0}],
    )  # fmt: skip
    def test_every_family_key_checked(self, entry):
        doc = {"instances": [entry], "algorithms": [{"algo": "dm"}]}
        with pytest.raises(ParseError):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize(
        "key,value",
        [("n_cap", 10.5), ("n_cap", False), ("threads", "2"), ("threads", 2.0),
         ("alpha_slack", 0.5), ("alpha_slack", [1])],
    )  # fmt: skip
    def test_top_level_values_must_be_exact(self, key, value):
        doc = {"instances": [], "algorithms": [{"algo": "dm"}], key: value}
        with pytest.raises(ParseError, match=key):
            parse_config(json.dumps(doc))

    def test_exact_values_parse_to_rationals(self):
        cfg = parse_config(json.dumps({
            "instances": [{"family": "speedup-gap", "n": 3, "eps": "0.5"},
                          {"family": "bf-adversary", "k": 4, "h": 4096}],
            "algorithms": [{"algo": "dm"}],
            "alpha_slack": "3/2",
        }))  # fmt: skip
        assert cfg.instances[0].get("eps") == F(1, 2)
        assert cfg.instances[1].get("h") == F(4096)
        assert cfg.alpha_slack == F(3, 2)

    def test_python_built_specs_keep_working(self):
        cfg = ExperimentConfig(
            instances=(
                spec("speedup-gap", n=3, eps=F(1, 2)),
                spec("speedup-gap", n=3, eps="1/2"),
                spec("random", n=4, seed=2, target_u=F(3, 2)),
            ),
            algorithms=(("dm", "ff"),),
            timing=False,
        )
        rows = run_experiment(cfg).rows
        assert len(rows) == 3 and rows[0].m == rows[1].m == 3

    def test_determinism_end_to_end(self):
        raw = b"""
        {
          "instances": [{"family": "wf-adversary", "k": 4},
                        {"family": "dvp", "count": 2, "n": 5, "seed": 1}],
          "algorithms": [{"algo": "dm", "strategy": "wf"}],
          "timing": false
        }
        """
        a = emit_report(run_experiment(parse_config(raw)), "csv")
        b = emit_report(run_experiment(parse_config(raw)), "csv")
        assert a == b
