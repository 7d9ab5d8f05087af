import csv
import io
import json
import math
import re
import runpy
import sys
import threading
import time
from dataclasses import FrozenInstanceError, fields, replace
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import example, given

import rtpack.bench as bench_mod
from rtpack.bench import (
    ALGORITHMS,
    CSV_COLUMNS,
    BenchReport,
    BenchRow,
    ExperimentConfig,
    _bounds,
    _decimal6,
    _row_violations,
    emit_report,
    parse_config,
    resolve_instances,
    run_experiment,
    spec,
)
from rtpack.errors import BadParam, ParseError
from rtpack.generators import gen_best_fit_adversary
from rtpack.io import serialize_taskset
from rtpack.model import DeadlineClass, gamma_metric, taskset
from rtpack.oracle import optimal_partition_bruteforce
from rtpack.partitioners import Strategy

F = Fraction
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


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


_PAIRS = [(algo, strat) for algo in ALGORITHMS for strat in (None, "ff", "bf", "wf")]


@st.composite
def configs(draw):
    """Small experiment configs over seeded and fixed families, with the
    oracle on and timing off."""
    n = draw(st.integers(2, 8))
    random_spec = spec(
        "random",
        n=n,
        seed=draw(st.integers(0, 10**6)),
        count=draw(st.integers(1, 3)),
        target_u=F(n, draw(st.integers(1, 4))),
        den_bound=draw(st.sampled_from([4, 8, 100])),
        **{"class": draw(st.sampled_from([c.value for c in DeadlineClass]))},
    )
    fixed = st.sampled_from([
        spec("dvp", n=n, seed=draw(st.integers(0, 10**6)), count=2),
        spec("bf-adversary", k=4),
        spec("wf-adversary", k=4),
        spec("speedup-gap", n=n, eps=F(1, 2)),
    ])  # fmt: skip
    instances = draw(st.lists(st.one_of(st.just(random_spec), fixed), min_size=1, max_size=3))
    algorithms = draw(st.lists(st.sampled_from(_PAIRS), min_size=1, max_size=4, unique=True))
    return ExperimentConfig(
        instances=tuple(instances), algorithms=tuple(algorithms), timing=False
    )


class TestRunExperiment:
    def test_run_algorithm_refuses_an_unknown_algorithm(self):
        with pytest.raises(ParseError, match="unknown algorithm 'bogus'"):
            bench_mod.run_algorithm(taskset([(1, 2, 2)]), "bogus", None)

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

    def test_rows_are_the_dataclass_rows(self):
        """Rows built by one `__dict__` update are the rows `BenchRow(**fields)`
        builds: equal field for field, in hash and in repr, and still
        frozen."""
        cfg = ExperimentConfig(
            instances=(
                spec("random", count=3, n=5, seed=3, target_u="2", **{"class": "arbitrary"}),
                spec("bf-adversary", k=7),  # past the oracle cap: no m*
                spec("speedup-gap", n=4, eps=F(1, 2)),
            ),
            algorithms=(("dm", None), ("dagger", "bf"), ("dm", "wf")),
            oracle=True,
            n_cap=8,
        )
        rows = run_experiment(cfg).rows
        assert len(rows) == 15 and {r.m_star is None for r in rows} == {True, False}
        for row in rows:
            twin = BenchRow(**{f.name: getattr(row, f.name) for f in fields(BenchRow)})
            assert vars(row) == vars(twin)
            assert row == twin and hash(row) == hash(twin) and repr(row) == repr(twin)
            assert replace(row, m=row.m + 1) == replace(twin, m=twin.m + 1) != row
            with pytest.raises(FrozenInstanceError):
                row.m = 0
            assert row == twin

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

    def test_errors_list_the_oracle_first(self, tmp_path):
        # U = 1 and a density sum of 7/6, so dm puts both tasks in one bin
        # and its verification, like the oracle's pair test, sweeps to the
        # hyperperiod, which passes the cap of 2^64; dagger opens two bins
        a, b = 2**40, 2**40 + 1
        ts = taskset([(F(a, 2), F(3 * a, 4), a), (F(b, 2), 2 * b, b)], name="huge")
        (tmp_path / "huge.json").write_text(serialize_taskset(ts))
        cfg = ExperimentConfig(
            instances=(spec("file", path=str(tmp_path / "huge.json")),),
            algorithms=(("dm", None), ("dagger", None), ("dm", "bf")),
            timing=False,
        )
        report = run_experiment(cfg)
        overflow = f"hyperperiod {a * b} exceeds cap {2**64}"
        assert report.errors == (
            f"huge/oracle: {overflow}",
            f"huge/dm-None: {overflow}",
            f"huge/dm-bf: {overflow}",
        )
        assert [(r.algorithm, r.m, r.m_star, r.violations) for r in report.rows] == [
            ("dagger", 2, None, ())
        ]

    @given(configs())
    def test_same_rows_as_the_unhinted_oracle(self, cfg):
        # the oracle as it ran before it was passed the partitioners' bins
        # and the instance's verdict store
        def unhinted(ts, n_cap, upper=None, store=None):
            return optimal_partition_bruteforce(ts, n_cap)

        report = run_experiment(cfg)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bench_mod, "optimal_partition_bruteforce", unhinted)
            plain = run_experiment(cfg)
        assert report == plain

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

    @pytest.mark.parametrize("count", [0, -2])
    @pytest.mark.parametrize("family", ["random", "dvp"])
    def test_count_below_one_refused(self, family, count):
        cfg = ExperimentConfig(
            instances=(spec(family, n=3, count=count),), algorithms=(("dm", "ff"),)
        )
        where = f"instance 1 \\({family}\\): count must be at least 1, got {count}"
        with pytest.raises(BadParam, match=where):
            run_experiment(cfg)

    def test_file_with_an_unknown_key_names_its_instance_and_task(self, tmp_path):
        (tmp_path / "a.json").write_text('{"tasks": [{"c": 1, "d": 2, "t": 2, "id": 1}]}')
        cfg = ExperimentConfig(
            instances=(spec("file", path=str(tmp_path / "a.json")),), algorithms=(("dm", "ff"),)
        )
        where = f"instance 1 (file): {tmp_path / 'a.json'}: task 1: unknown key 'id'"
        with pytest.raises(ParseError, match=re.escape(where)):
            run_experiment(cfg)

    def test_unreadable_file_names_its_instance_and_path(self, tmp_path):
        (tmp_path / "a.json").write_text('{"tasks": [{"c": 1, "d": 2, "t": 2}]}')
        (tmp_path / "sub.json").mkdir()
        cfg = ExperimentConfig(
            instances=(spec("bf-adversary", k=4), spec("file", path=str(tmp_path / "*.json"))),
            algorithms=(("dm", "ff"),),
        )
        where = f"instance 2 (file): cannot read '{tmp_path / 'sub.json'}'"
        with pytest.raises(ParseError, match=re.escape(where)):
            run_experiment(cfg)

    @pytest.mark.parametrize(
        "family, params, name",
        [("bf-adversary", {"k": 20000}, "k = 20000"),
         ("wf-adversary", {"k": 10**9}, "k = 1000000000"),
         ("speedup-gap", {"n": 40000, "eps": "1/2"}, "n = 40000")],
    )  # fmt: skip
    def test_unprintable_instance_names_its_instance(self, family, params, name):
        cfg = ExperimentConfig(
            instances=(spec(family, **params),), algorithms=(("dm", "ff"),)
        )
        with pytest.raises(BadParam, match=f"instance 1 \\({family}\\): {name} "):
            run_experiment(cfg)

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

    # entries that are not (algo, strategy) pairs: too short, too long, and
    # a bare string where the tuple of pairs belongs
    @pytest.mark.parametrize(
        "algorithms,match",
        [((("dm",),), "algorithm 1: expected an \\(algo, strategy\\) pair, got \\('dm',\\)"),
         ((("dm", "ff", "x"),), "algorithm 1: expected an \\(algo, strategy\\) pair, got \\('dm', 'ff', 'x'\\)"),
         (("dm",), "algorithm 1: expected an \\(algo, strategy\\) pair, got 'dm'")],
        ids=["one-item", "three-items", "bare-string"],
    )  # fmt: skip
    def test_python_built_algorithm_entries_must_be_pairs(self, algorithms, match):
        with pytest.raises(ParseError, match=match):
            ExperimentConfig(instances=(), algorithms=algorithms)

    @pytest.mark.parametrize(
        "entry", [{"family": "random", "n": 3}, ("random", (("n", 3),)), "random", None]
    )
    def test_python_built_instance_entries_must_be_specs(self, entry):
        message = f"instance 2: expected an instance spec (bench.spec), got {entry!r}"
        with pytest.raises(ParseError) as err:
            ExperimentConfig(instances=(spec("random", n=3), entry), algorithms=(("dm", "ff"),))
        assert str(err.value) == message

    @pytest.mark.parametrize("value", [None, 5, "dm"])
    def test_python_built_instances_must_be_a_sequence(self, value):
        match = f"config: 'instances' must be a list, got {value!r}"
        with pytest.raises(ParseError, match=match):
            ExperimentConfig(instances=value, algorithms=(("dm", "ff"),))

    @pytest.mark.parametrize("value", [None, 5, "dm"])
    def test_python_built_algorithms_must_be_a_sequence(self, value):
        match = f"config: 'algorithms' must be a list, got {value!r}"
        with pytest.raises(ParseError, match=match):
            ExperimentConfig(instances=(), algorithms=value)


def flags(row, verified=True):
    bounds = _bounds(row.lam, row.gamma, row.m_star)
    return _row_violations(row.algorithm, row.m, row.m_star, verified, *bounds)


class TestCheckBounds:
    """The bound flags a row gets at run time; they are emitted in its
    JSON `violations`."""

    def test_within_bound(self):
        assert flags(make_row(m=3, m_star=2, lam=F(1))) == ()

    def test_hard_violation(self):
        assert flags(make_row(m=5, m_star=2, lam=F(1))) == (
            "hard: M=5 exceeds 2*lambda*M*=4",
        )

    def test_adversary_rows_consistent_with_asymptotic_blowup(self):
        # ratio K/2 with gamma close to 1: 2/(1-gamma) must dominate K/2
        for k in (4, 5, 6):
            ts = gen_best_fit_adversary(k)
            gamma = gamma_metric(ts)
            assert gamma == 1 - F(1, k)
            assert F(2, 1) / (1 - gamma) >= F(k, 2)

    def test_soft_flag_reported(self):
        row = make_row(algorithm="dm", m=9, m_star=1, gamma=F(1, 2), lam=F(1))
        assert flags(row) == ("soft: M=9 exceeds asymptotic bound 5",)

    def test_failed_verification_is_hard(self):
        assert flags(make_row(m=3, m_star=2), verified=False) == (
            "hard: partition failed exact verification",
        )

    def test_below_optimum_is_hard(self):
        assert flags(make_row(algorithm="dm", m=1, m_star=2)) == (
            "hard: M=1 below the optimum 2",
        )

    def test_a_count_at_its_bound_is_not_flagged(self):
        # 2*lambda*m* = 2 * 3/4 * 3 = 9/2; 2/(1-gamma)*m* + 1 = 10/3 + 1 = 13/3
        row = make_row(lam=F(3, 4), gamma=F(2, 5), m_star=3)
        assert flags(make_row(algorithm="dagger", m=4, m_star=2, lam=F(1))) == ()
        assert flags(make_row(algorithm="dm", m=5, m_star=1, gamma=F(1, 2))) == ()
        assert flags(replace(row, algorithm="dagger", m=4)) == ()
        assert flags(replace(row, algorithm="dagger", m=5)) == (
            "hard: M=5 exceeds 2*lambda*M*=9/2",
        )
        assert flags(replace(row, algorithm="dm", m_star=1, m=4)) == ()
        assert flags(replace(row, algorithm="dm", m_star=1, m=5)) == (
            "soft: M=5 exceeds asymptotic bound 13/3",
        )

    @example("dagger", 4, 2, F(1), F(1, 2))
    @example("dm", 5, 1, F(1), F(1, 2))
    @example("dm", 9, 2, F(1), F(1))
    @given(
        st.sampled_from(ALGORITHMS),
        st.integers(0, 40),
        st.one_of(st.none(), st.integers(0, 40)),
        st.fractions(min_value=0, max_denominator=50),
        st.fractions(min_value=0, max_value=1, max_denominator=50),
    )
    def test_same_flags_as_fraction_arithmetic(self, algorithm, m, m_star, lam, gamma):
        want = []
        if m_star is not None:
            if algorithm == "dagger" and m > 2 * lam * m_star:
                want.append(f"hard: M={m} exceeds 2*lambda*M*={2 * lam * m_star}")
            dm_bound = 2 / (1 - gamma) * m_star + 1 if gamma < 1 else None
            if algorithm == "dm" and dm_bound is not None and m > dm_bound:
                want.append(f"soft: M={m} exceeds asymptotic bound {dm_bound}")
            if m < m_star:
                want.append(f"hard: M={m} below the optimum {m_star}")
        bounds = _bounds(lam, gamma, m_star)
        assert _row_violations(algorithm, m, m_star, True, *bounds) == tuple(want)

    def test_no_optimum_checks_only_verification(self):
        assert flags(make_row(m=9, m_star=None)) == ()
        assert flags(make_row(m=9, m_star=None), verified=False) == (
            "hard: partition failed exact verification",
        )


class TestRatioExperimentScript:
    def test_failed_verification_counts_as_hard(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(bench_mod, "verify_partition", lambda ts, part, store: False)
        argv = ["ratio_experiment.py", "--count", "1", "--n", "4", "-o", str(tmp_path / "r.csv")]
        monkeypatch.setattr(sys, "argv", argv)
        with pytest.raises(SystemExit) as exc:
            runpy.run_path(str(SCRIPTS / "ratio_experiment.py"), run_name="__main__")
        assert exc.value.code == 1
        out = capsys.readouterr().out
        # 3 instances (one per class) times 6 algorithm-strategy pairs
        assert "hard bound violations: 18\n" in out
        assert "/dagger-ff: hard: partition failed exact verification" in out

    def test_run_without_hard_flags_exits_zero(self, tmp_path, monkeypatch, capsys):
        argv = ["ratio_experiment.py", "--count", "1", "--n", "4", "-o", str(tmp_path / "r.csv")]
        monkeypatch.setattr(sys, "argv", argv)
        with pytest.raises(SystemExit) as exc:
            runpy.run_path(str(SCRIPTS / "ratio_experiment.py"), run_name="__main__")
        assert exc.value.code == 0
        assert "hard bound violations: 0\n" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags,message",
        [(["--target-u", "x/2"],
          "error: instance 1 (random), 'target_u': not a rational literal: "),
         (["--count", "0"], "error: instance 1 (random): count must be at least 1, got 0\n")],
    )  # fmt: skip
    def test_bad_input_exits_two(self, tmp_path, monkeypatch, capsys, flags, message):
        # 2 is the error code; 1 would read as "a hard flag was printed"
        argv = ["ratio_experiment.py", "--n", "4", *flags, "-o", str(tmp_path / "r.csv")]
        monkeypatch.setattr(sys, "argv", argv)
        with pytest.raises(SystemExit) as exc:
            runpy.run_path(str(SCRIPTS / "ratio_experiment.py"), run_name="__main__")
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith(message)

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_refused_n_names_the_flag(self, tmp_path, monkeypatch, capsys, n):
        out = tmp_path / "r.csv"
        monkeypatch.setattr(sys, "argv", ["ratio_experiment.py", "--n", n, "-o", str(out)])
        with pytest.raises(SystemExit) as exc:
            runpy.run_path(str(SCRIPTS / "ratio_experiment.py"), run_name="__main__")
        assert exc.value.code == 2
        assert f"error: argument --n: must be at least 1, got {n}\n" in capsys.readouterr().err
        assert not out.exists()


class TestAdversaryTableScript:
    def run(self, monkeypatch, *flags):
        monkeypatch.setattr(sys, "argv", ["adversary_table.py", *flags])
        with pytest.raises(SystemExit) as exc:
            runpy.run_path(str(SCRIPTS / "adversary_table.py"), run_name="__main__")
        return exc.value.code

    def test_writes_the_table(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "a.csv"
        assert self.run(monkeypatch, "--k-max", "4", "-o", str(out)) == 0
        assert "bf-adversary-k4" in capsys.readouterr().out
        assert out.read_bytes().count(b"\n") == 7  # header, 2 instances x 3 algorithms

    @pytest.mark.parametrize("k_max", ["0", "3"])
    def test_k_max_below_four_exits_two(self, tmp_path, monkeypatch, capsys, k_max):
        # 0 used to end in a traceback (exit 1) and 3 in an empty table (exit 0)
        out = tmp_path / "a.csv"
        assert self.run(monkeypatch, "--k-max", k_max, "-o", str(out)) == 2
        err = capsys.readouterr().err
        assert f"error: argument --k-max: must be at least 4, got {k_max}\n" in err
        assert not out.exists()

    def test_refusal_exits_two(self, tmp_path, monkeypatch, capsys):
        def refuse(cfg):
            raise ParseError("refused")

        monkeypatch.setattr(bench_mod, "run_experiment", refuse)
        assert self.run(monkeypatch, "--k-max", "4", "-o", str(tmp_path / "a.csv")) == 2
        assert capsys.readouterr().err == "error: refused\n"


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


# names and messages that json.dumps must escape: quotes, backslashes,
# control characters and non-ASCII text
AWKWARD = ['say "hi"', "back\\slash", "tab\tnew\nline\x00\x1f\x7f", "λ≤2 ☃ \U0001f600", ""]
texts = st.one_of(st.sampled_from(AWKWARD), st.text())
rationals = st.one_of(
    st.fractions(max_denominator=10**6), st.integers(-(10**40), 10**40).map(F)
)


@st.composite
def bench_rows(draw, names):
    return BenchRow(
        *draw(st.sampled_from(names)),
        n=draw(st.integers(min_value=0)),
        deadline_class=draw(st.sampled_from([c.value for c in DeadlineClass])),
        lam=draw(rationals),
        gamma=draw(st.one_of(st.just(F(1)), rationals)),  # 1: no asymptotic bound
        utilization=draw(rationals),
        algorithm=draw(st.sampled_from(ALGORITHMS)),
        strategy=draw(st.one_of(st.none(), st.sampled_from([s.value for s in Strategy]))),
        m=draw(st.integers(0, 40)),
        m_star=draw(st.one_of(st.none(), st.integers(0, 40))),
        violations=tuple(draw(st.lists(texts, max_size=3))),
        runtime_ms=draw(
            st.one_of(
                st.sampled_from([0.0, 1234.567, 1e16, 1e-7]),
                st.floats(min_value=0, allow_nan=False, allow_infinity=False),
            )
        ),
    )


@st.composite
def reports(draw):
    """Rows drawn from a few (instance, family) pairs, so that runs of rows
    share an instance as they do in a real report."""
    names = draw(st.lists(st.tuples(texts, texts), min_size=1, max_size=3))
    rows = draw(st.lists(bench_rows(names), max_size=6))
    return BenchReport(rows=tuple(rows), errors=tuple(draw(st.lists(texts, max_size=3))))


def _row_docs(rows):
    """The reference JSON object of each row, read off its fields and
    properties one row at a time; both report formats must write these
    values.  `ratio`, `ratio_decimal`, `bound_2lambda` and
    `bound_asymptotic` are derived from the others."""
    for row in rows:
        ratio, asym = row.ratio, row.bound_asymptotic
        yield {
            "instance": row.instance,
            "family": row.family,
            "N": row.n,
            "class": row.deadline_class,
            "lambda": str(row.lam),
            "gamma": str(row.gamma),
            "U": str(row.utilization),
            "algorithm": row.algorithm,
            "strategy": row.strategy,
            "M": row.m,
            "m_star": row.m_star,
            "ratio": None if ratio is None else str(ratio),
            "ratio_decimal": None if ratio is None else _decimal6(ratio),
            "bound_2lambda": str(row.bound_2lambda),
            "bound_asymptotic": None if asym is None else str(asym),
            "violations": list(row.violations),
            "runtime_ms": round(row.runtime_ms, 3),
        }


# consecutive rows of one (instance, family) that each differ from the one
# before in one other instance field, so that a report writer that keys
# an instance's rendered lines on fewer fields repeats stale lines
SAME_NAME_RUN = BenchReport(
    rows=(
        make_row(instance="a"),
        make_row(instance="a", n=5),
        make_row(instance="a", n=5, deadline_class="constrained"),
        make_row(instance="a", n=5, deadline_class="constrained", lam=F(3, 2)),
        make_row(instance="a", n=5, deadline_class="constrained", lam=F(3, 2), gamma=F(1, 3)),
        make_row(instance="a", n=5, deadline_class="constrained", lam=F(3, 2), gamma=F(1, 3),
                 utilization=F(5, 2)),
    )
)  # fmt: skip


class TestEmitJson:
    """The JSON report is laid out by template; it must keep the bytes of
    `json.dumps(doc, indent=2)` of the `_row_docs` document."""

    @example(BenchReport(rows=()))
    @example(BenchReport(rows=(), errors=('x/oracle: "cap" \\ \n é',)))
    @example(SAME_NAME_RUN)
    @example(BenchReport(rows=(make_row(runtime_ms=0.0), make_row(runtime_ms=-0.0))))
    @example(
        BenchReport(
            rows=(
                make_row(instance="a", family="file"),
                make_row(instance="a", family="random", strategy=None, m_star=None),
                make_row(instance="b\\", gamma=F(1), violations=("hard: M=3", 'q"')),
                make_row(instance="b\\", runtime_ms=1e16, m=0, m_star=0),  # 0, not null
            )
        )
    )
    @given(reports())
    def test_same_bytes_as_json_dumps(self, report):
        doc = {"rows": list(_row_docs(report.rows)), "errors": list(report.errors)}
        want = (json.dumps(doc, indent=2) + "\n").encode()
        assert emit_report(report, "json") == want

    def test_soft_flag_bytes(self):
        # a DM row past 2/(1-gamma)*m* + 1 = 5, flagged as a run flags it
        row = make_row(algorithm="dm", m=6, m_star=1)
        report = BenchReport(rows=(replace(row, violations=flags(row)),))
        assert emit_report(report, "json") == b"""{
  "rows": [
    {
      "instance": "x",
      "family": "random",
      "N": 4,
      "class": "implicit",
      "lambda": "1",
      "gamma": "1/2",
      "U": "3/2",
      "algorithm": "dm",
      "strategy": "ff",
      "M": 6,
      "m_star": 1,
      "ratio": "6",
      "ratio_decimal": "6.000000",
      "bound_2lambda": "2",
      "bound_asymptotic": "4",
      "violations": [
        "soft: M=6 exceeds asymptotic bound 5"
      ],
      "runtime_ms": 0.0
    }
  ],
  "errors": []
}
"""

    def test_real_run_with_timings(self):
        cfg = ExperimentConfig(
            instances=(
                spec("bf-adversary", k=4),
                spec("speedup-gap", n=6, eps=F(1, 2)),
                spec("random", n=18, seed=3, count=2, target_u=F(5, 2), **{"class": "arbitrary"}),
            ),
            algorithms=(("dm", "bf"), ("dagger", None)),
            n_cap=8,
            timing=True,
        )
        report = run_experiment(cfg)
        assert report.errors and any(r.runtime_ms for r in report.rows)
        doc = {"rows": list(_row_docs(report.rows)), "errors": list(report.errors)}
        assert emit_report(report, "json") == (json.dumps(doc, indent=2) + "\n").encode()


def csv_reference(report: BenchReport) -> bytes:
    """`csv.writer` over the CSV_COLUMNS of the reference row documents: a
    missing value as an empty cell, runtime_ms with three decimals."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for doc in _row_docs(report.rows):
        doc["runtime_ms"] = f"{doc['runtime_ms']:.3f}"
        writer.writerow(["" if doc[key] is None else str(doc[key]) for key in CSV_COLUMNS])
    return buf.getvalue().encode("utf-8")


class TestEmitCsv:
    @example(BenchReport(rows=()))
    @example(SAME_NAME_RUN)
    @given(reports())
    def test_same_bytes_as_csv_writer(self, report):
        assert emit_report(report, "csv") == csv_reference(report)


def decimal6_reference(value: Fraction) -> str:
    """The `ratio_decimal` rendering through the decimal module: the
    quotient to 60 significant digits, quantized half-to-even."""
    with localcontext() as ctx:
        ctx.prec = 60
        dec = Decimal(value.numerator) / Decimal(value.denominator)
        return str(dec.quantize(Decimal("0.000001"), rounding=ROUND_HALF_EVEN))


class TestDecimal6:
    @pytest.mark.parametrize(
        "value, want",
        [
            (F(1, 2000000), "0.000000"),  # ties go to the even neighbour
            (F(3, 2000000), "0.000002"),
            (F(5, 2000000), "0.000002"),
            (F(2000001, 2000000), "1.000000"),
            (F(2000003, 2000000), "1.000002"),
            (F(1, 3), "0.333333"),
            (F(2, 3), "0.666667"),
            (F(0), "0.000000"),
            (F(7), "7.000000"),
            (F(-1, 3), "-0.333333"),
            (F(-1, 3000000), "-0.000000"),
        ],
    )
    def test_pinned_values_match_the_decimal_rendering(self, value, want):
        assert _decimal6(value) == decimal6_reference(value) == want

    @given(st.integers(1, 10**30 - 1), st.integers(1, 10**12))
    def test_matches_the_decimal_rendering(self, num, den):
        value = F(num, den)
        assert _decimal6(value) == decimal6_reference(value)


def refusal(doc: dict) -> str:
    """The message of the ParseError with which both entry points refuse
    `doc`: `parse_config` reading it as JSON, and ExperimentConfig built from
    `spec` calls in Python."""
    with pytest.raises(ParseError) as from_json:
        parse_config(json.dumps(doc))
    with pytest.raises(ParseError) as from_python:
        ExperimentConfig(
            instances=tuple(spec(**entry) for entry in doc["instances"]),
            algorithms=tuple((a["algo"], a.get("strategy")) for a in doc["algorithms"]),
            **{k: v for k, v in doc.items() if k not in ("instances", "algorithms")},
        )
    assert str(from_python.value) == str(from_json.value)
    return str(from_json.value)


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

    @pytest.mark.parametrize("n_cap", [0, -1])
    def test_oracle_cap_below_one_refused(self, n_cap):
        want = f"n_cap: oracle cap must be at least 1, got {n_cap}"
        doc = {"instances": [], "algorithms": [{"algo": "dm"}], "n_cap": n_cap}
        with pytest.raises(ParseError) as err:
            parse_config(json.dumps(doc))
        assert str(err.value) == want
        with pytest.raises(ParseError) as err:
            ExperimentConfig(instances=(), algorithms=(("dm", None),), n_cap=n_cap)
        assert str(err.value) == want

    def test_malformed(self):
        with pytest.raises(ParseError):
            parse_config(b"{")
        with pytest.raises(ParseError):
            parse_config(b"{}")
        with pytest.raises(ParseError):
            parse_config(b'{"instances": [], "algorithms": [{}]}')

    @pytest.mark.parametrize(
        "entry,missing",
        [({"family": "bf-adversary"}, "k"), ({"family": "wf-adversary"}, "k"),
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
         ({"alpha_slack": "-14"}, "config: unknown key 'alpha_slack'"),
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
        assert refusal(doc) == f"{key}: expected true or false, got {value!r}"

    def test_family_must_be_a_string(self):
        doc = {"instances": [{"family": ["random"]}], "algorithms": [{"algo": "dm"}]}
        with pytest.raises(ParseError, match="family must be a string"):
            parse_config(json.dumps(doc))

    @pytest.mark.parametrize(
        "key,value",
        [("eps", 0.1), ("eps", True), ("eps", None), ("eps", "x/2"), ("n", 4.7),
         ("n", True), ("n", "4"), ("n", 4.0), ("n", 4.9)],
    )  # fmt: skip
    def test_instance_values_must_be_exact(self, key, value):
        entry = {"family": "speedup-gap", "n": 3, "eps": "1/2", key: value}
        doc = {"instances": [entry], "algorithms": [{"algo": "dm"}]}
        assert refusal(doc).startswith(f"instance 1 (speedup-gap), '{key}': ")

    def test_huge_exponent_refused_at_once(self):
        # a spec built in Python used to take this literal and spend seconds
        # at run time before failing
        entry = {"family": "speedup-gap", "n": 3, "eps": "1e20000000"}
        start = time.perf_counter()
        message = refusal({"instances": [entry], "algorithms": [{"algo": "dm"}]})
        assert time.perf_counter() - start < 0.5
        assert "exponent of '1e20000000' exceeds 4300" in message

    @pytest.mark.parametrize(
        "entry",
        [{"family": "bf-adversary", "k": 4.7},
         {"family": "random", "n": 5, "target_u": 1.5}, {"family": "random", "n": 5, "seed": 1.0},
         {"family": "random", "n": 5, "count": "2"}, {"family": "dvp", "n": 5, "den_bound": 8.0},
         {"family": "random", "n": 4.9}, {"family": "file", "path": 5}],
    )  # fmt: skip
    def test_every_family_key_checked(self, entry):
        doc = {"instances": [entry], "algorithms": [{"algo": "dm"}]}
        assert refusal(doc).startswith(f"instance 1 ({entry['family']}), '")

    @pytest.mark.parametrize(
        "key,value",
        [("n_cap", 10.5), ("n_cap", False), ("threads", "2"), ("threads", 2.0)],
    )  # fmt: skip
    def test_top_level_values_must_be_exact(self, key, value):
        doc = {"instances": [], "algorithms": [{"algo": "dm"}], key: value}
        assert refusal(doc).startswith(f"{key}: ")

    @pytest.mark.parametrize(
        "doc,message",
        [({"algorithms": [{"algo": "dm"}]}, "config: missing 'instances'"),
         ({"instances": []}, "config: missing 'algorithms'"),
         ({"instances": 5, "algorithms": [{"algo": "dm"}]}, "config: 'instances' must be a list"),
         ({"instances": [], "algorithms": {"algo": "dm"}}, "config: 'algorithms' must be a list"),
         ({"instances": [], "algorithms": [{"algo": "dm"}, {"strategy": "bf"}]},
          "algorithm 2: missing 'algo'"),
         ({"instances": [{"n": 3}], "algorithms": [{"algo": "dm"}]},
          "instance 1: missing 'family'"),
         ({"instances": ["random"], "algorithms": [{"algo": "dm"}]},
          "instance 1: expected an object, got 'random'")],
    )  # fmt: skip
    def test_missing_or_misshapen_entries_named(self, doc, message):
        with pytest.raises(ParseError) as err:
            parse_config(json.dumps(doc))
        assert str(err.value) == message

    def test_exact_values_parse_to_rationals(self):
        cfg = parse_config(json.dumps({
            "instances": [{"family": "speedup-gap", "n": 3, "eps": "0.5"}],
            "algorithms": [{"algo": "dm"}],
        }))  # fmt: skip
        assert dict(cfg.instances[0].params)["eps"] == F(1, 2)

    @pytest.mark.parametrize(
        "family, defaults",
        [("random", {"seed": 0, "count": 1, "class": "constrained", "target_u": 1, "den_bound": 8}),
         ("dvp", {"seed": 0, "count": 1, "den_bound": 8})],
    )  # fmt: skip
    def test_specs_stored_completed_with_family_defaults(self, family, defaults):
        def config(**params):
            doc = {"instances": [{"family": family, **params}], "algorithms": [{"algo": "dm"}]}
            return parse_config(json.dumps(doc))

        cfg = config(n=3)
        assert dict(cfg.instances[0].params) == {"n": 3, **defaults}
        assert resolve_instances(cfg) == resolve_instances(config(n=3, **defaults))

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

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_timings_are_opt_in(self, fmt):
        # a config with no "timing" key gives the same bytes on every run
        raw = b"""
        {
          "instances": [{"family": "speedup-gap", "n": 5, "eps": "1/2"},
                        {"family": "random", "count": 3, "n": 6, "seed": 4}],
          "algorithms": [{"algo": "dm", "strategy": "bf"}, {"algo": "dagger"}]
        }
        """
        assert parse_config(raw).timing is False
        runs = [emit_report(run_experiment(parse_config(raw)), fmt) for _ in range(2)]
        assert runs[0] == runs[1]
        assert all(r.runtime_ms == 0.0 for r in run_experiment(parse_config(raw)).rows)
