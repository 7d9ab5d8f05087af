#!/usr/bin/env python3
"""Mutation check: every listed mutant must make its tests fail.

A mutant names a file of the package, an exact source snippet that must
occur in it once, the snippet's replacement and the tests that should
catch it.  For each mutant the script copies `src/`, `tests/` and
`perfbench/` (with `README.md` and `BENCHMARK.json`, which tests read)
into a fresh temporary directory, so that a selection may name the pin
tests that import the benchmark's workloads.  It applies the mutant to
the copy (the checkout is never changed), runs the tests there under
pytest with `-x` and a fixed `--hypothesis-seed`, and prints "killed"
when a test fails and "survived" when all pass.  The same tests are
first run on an unmutated copy and must pass, so that a kill is the
mutant's doing.  A snippet that no longer matches is reported, not
skipped, so that a refactor updates this list instead of silently losing
a mutant.

Exits 1 on a survivor, a snippet that does not match, or a run that
neither passes nor fails cleanly (a collection or usage error), else 0.
Needs pytest and hypothesis, as the test suite does.

    python scripts/mutants.py
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
HYPOTHESIS_SEED = 0
EXACT_TESTS = ("tests/test_feasibility.py", "tests/test_oracle.py")
TREES = ("src", "tests", "perfbench")
FILES = ("README.md", "BENCHMARK.json")


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    snippet: str
    replacement: str
    tests: tuple[str, ...]


FEASIBILITY = "src/rtpack/feasibility.py"
MODEL = "src/rtpack/model.py"
BENCH = "src/rtpack/bench.py"
PARTITIONERS = "src/rtpack/partitioners.py"
ORACLE = "src/rtpack/oracle.py"
GENERATORS = "src/rtpack/generators.py"
CLI = "src/rtpack/cli.py"
HANDS_BACK = ("tests/test_cli.py::TestDispatch::test_plain_read_hands_back",)
UNKNOWN_KEY = ("tests/test_io.py::TestParseTaskset::test_unknown_key_refused_naming_it",)
REPEATED_KEY = ("tests/test_io.py::TestParseTaskset::test_repeated_key_refused_naming_it",)
CONFIG_REPEATED_KEY = ("tests/test_cli.py::TestBench::test_repeated_config_key_exit_two_naming_it",)

MUTANTS = (
    Mutant(
        "density accept <= made <",
        FEASIBILITY,
        "    if density <= ts.span_whole:\n        return True\n",
        "    if density < ts.span_whole:\n        return True\n",
        EXACT_TESTS,
    ),
    Mutant(
        "share refusal > made >=",
        FEASIBILITY,
        "    if load > ts.whole:\n        return False\n",
        "    if load >= ts.whole:\n        return False\n",
        EXACT_TESTS,
    ),
    Mutant(
        "verdict store write dropped",
        FEASIBILITY,
        "        verdict = store[mask] = feasible_past_gates(",
        "        verdict = feasible_past_gates(",
        EXACT_TESTS,
    ),
    Mutant(
        "two-task certificate <= made <",
        FEASIBILITY,
        "if ts.offset[a] + ts.offset[b] <= d_b * (whole - load):",
        "if ts.offset[a] + ts.offset[b] < d_b * (whole - load):",
        EXACT_TESTS,
    ),
    Mutant(
        "two-task refutation > made >=",
        FEASIBILITY,
        "((d_b - ts.d[a]) // ts.t[a] + 1) > d_b:",
        "((d_b - ts.d[a]) // ts.t[a] + 1) >= d_b:",
        EXACT_TESTS,
    ),
    Mutant(
        "two-task load < whole gate dropped",
        FEASIBILITY,
        "if len(positions) == 2 and load < whole:",
        "if len(positions) == 2:",
        EXACT_TESTS,
    ),
    Mutant(
        "pair order reversed",
        FEASIBILITY,
        "        if d[b] < d[a]:",
        "        if d[b] > d[a]:",
        ("tests/test_feasibility.py", "tests/test_pins.py::test_ratio_sweep_report"),
    ),
    Mutant(
        "density order left empty",
        ORACLE,
        "    by_density += _by_density(search.ts)\n",
        "",
        ("tests/test_oracle.py",),
    ),
    Mutant(
        "witness completion check dropped",
        ORACLE,
        "fits and search.dfs(later, 0, trial[:], m_star)",
        "fits",
        ("tests/test_oracle.py",),
    ),
    Mutant(
        "fitting line test <= made <",
        PARTITIONERS,
        "                if line <= room:\n",
        "                if line < room:\n",
        ("tests/test_partitioners.py", "tests/test_pins.py::test_ratio_sweep_report"),
    ),
    Mutant(
        "JSON-integer digit bound > made >=",
        "src/rtpack/io.py",
        '    if len(text) - text.startswith("-") > MAX_EXPONENT:\n',
        '    if len(text) - text.startswith("-") >= MAX_EXPONENT:\n',
        ("tests/test_io.py",),
    ),
    Mutant(
        "simulator event cap > made >=",
        "src/rtpack/simulate.py",
        "        if events > event_cap:\n",
        "        if events >= event_cap:\n",
        ("tests/test_simulate.py", "tests/test_pins.py::test_bounded_time_run[simulate-event-cap]"),
    ),
    Mutant(
        "Lemma-1 strict-work bound <= made <",
        FEASIBILITY,
        "    return strict_work <= scale and",
        "    return strict_work < scale and",
        ("tests/test_feasibility.py",),
    ),
    Mutant(
        "D for min(D, T) in the density terms",
        MODEL,
        "        return tuple(map(min, self.d, self.t))\n",
        "        return self.d\n",
        ("tests/test_model.py", "tests/test_partitioners.py"),
    ),
    Mutant(
        "TaskSet() refusal dropped",
        MODEL,
        "    def __init__(self, *args, **kwargs):\n"
        '        raise TypeError("a TaskSet is built by taskset(triples, name)")\n\n',
        "",
        ("tests/test_model.py::TestTaskSet::test_only_the_builders_build_a_set",),
    ),
    Mutant(
        "set values left at the lcm of the denominators as given",
        MODEL,
        "    g = math.gcd(scale, *scaled)\n",
        "    g = 1\n",
        ("tests/test_model.py::TestIntegerValues",),
    ),
    Mutant(
        "plain-literal zero-denominator guard made always true",
        MODEL,
        "                if q:\n",
        "                if True:\n",
        ("tests/test_model.py", "tests/test_io.py"),
    ),
    Mutant(
        "plain-literal fast path taken for a non-ASCII digit",
        MODEL,
        "len(value) <= MAX_EXPONENT and value.isascii():\n",
        "len(value) <= MAX_EXPONENT:\n",
        ("tests/test_model.py::TestPlainLiteralPath",),
    ),
    Mutant(
        "JSON-integer digit bound counting the sign",
        "src/rtpack/io.py",
        '    if len(text) - text.startswith("-") > MAX_EXPONENT:\n',
        "    if len(text) > MAX_EXPONENT:\n",
        ("tests/test_io.py::TestParseTaskset",),
    ),
    Mutant(
        "fitting slope test <= made <",
        PARTITIONERS,
        "            if b[0] <= slope_room:\n",
        "            if b[0] < slope_room:\n",
        ("tests/test_partitioners.py::TestDmAdmissionEdges",),
    ),
    Mutant(
        "dagger packs utilizations, not densities",
        PARTITIONERS,
        "ts.span_whole, ts.span_share,",
        "ts.whole, ts.share,",
        ("tests/test_partitioners.py::TestDaggerGreedy", "tests/test_pins.py::test_ratio_sweep_report"),
    ),
    Mutant(
        "draw rejection >= made >",
        GENERATORS,
        "    while r >= w:\n",
        "    while r > w:\n",
        ("tests/test_generators.py::TestRandom::test_draw_rule_matches_randint",),
    ),
    Mutant(
        "sweep restart step's point-cap check dropped",
        FEASIBILITY,
        "            checked += 1\n            if checked > point_cap:\n"
        "                raise _explosion(ts, point_cap, bound)\n            seg += 1\n",
        "            checked += 1\n            seg += 1\n",
        ("tests/test_feasibility.py::TestExactTest::test_point_cap_counts_the_kinks_passed_over",),
    ),
    Mutant(
        "above-speed sweep slack divided by 3",
        FEASIBILITY,
        "else sum(map(cost.__getitem__, positions)) * whole - offset)",
        "else (sum(map(cost.__getitem__, positions)) * whole - offset) // 3)",
        ("tests/test_feasibility.py::TestHorizon",),
    ),
    Mutant(
        "dagger bound flag > made >=",
        BENCH,
        "m * dagger_bound[1] > dagger_bound[0]",
        "m * dagger_bound[1] >= dagger_bound[0]",
        ("tests/test_bench.py::TestCheckBounds",),
    ),
    Mutant(
        "DM asymptotic bound flag > made >=",
        BENCH,
        "m * dm_bound[1] > dm_bound[0] + dm_bound[1]",
        "m * dm_bound[1] >= dm_bound[0] + dm_bound[1]",
        ("tests/test_bench.py::TestCheckBounds",),
    ),
    Mutant(
        "share lookup's exact-midpoint fallback dropped",
        GENERATORS,
        "            if mids[j] != x:\n                return nums[j], dens[j]\n",
        "            return nums[j], dens[j]\n",
        ("tests/test_generators.py::TestShareLimiter::test_midpoint_ties",),
    ),
    Mutant(
        "adversary period exponent off by one",
        GENERATORS,
        "    h = pw[k + 2]\n",
        "    h = pw[k + 1]\n",
        ("tests/test_pins.py::test_family_bytes[bf-adversary]",),
    ),
    Mutant(
        "dvp periods left unreduced in H",
        GENERATORS,
        "    hn = math.lcm(*(pn // math.gcd(pn, pd) for pn, pd in periods))\n",
        "    hn = math.lcm(*(pn for pn, pd in periods))\n",
        ("tests/test_generators.py::TestDvp::test_mapping_matches_fraction_reference_on_draws",),
    ),
    Mutant(
        "GenParams bool refusal dropped",
        GENERATORS,
        "        if isinstance(value, bool) or not isinstance(value, kind):\n",
        "        if not isinstance(value, kind):\n",
        ("tests/test_generators.py::TestRandom::test_inexact_or_mistyped_number_is_a_type_error",),
    ),
    Mutant(
        "GenParams seed check dropped",
        GENERATORS,
        '_PARAM_KINDS = {"seed": int, "n": int,',
        '_PARAM_KINDS = {"n": int,',
        ("tests/test_generators.py::TestRandom::test_inexact_or_mistyped_number_is_a_type_error",),
    ),
    Mutant(
        "vector and Lemma-1 generators' bool refusal dropped",
        GENERATORS,
        "        if isinstance(value, bool) or not isinstance(value, kind):\n",
        "        if not isinstance(value, kind):\n",
        ("tests/test_generators.py::TestDvp::test_mistyped_number_is_a_type_error",
         "tests/test_generators.py::TestLemma1Shaped::test_mistyped_number_is_a_type_error"),
    ),
    Mutant(
        "instance entry spec check dropped",
        BENCH,
        "            if not isinstance(sp, InstanceSpec):\n",
        "            if False:\n",
        ("tests/test_bench.py::TestRunExperiment::test_python_built_instance_entries_must_be_specs",),
    ),
    Mutant(
        "generate flag abbreviations allowed",
        CLI,
        "allow_abbrev=False",
        "allow_abbrev=True",
        ("tests/test_cli.py::TestGenerate::test_long_period_is_not_a_parameter",),
    ),
    Mutant(
        "report instance lines keyed without N",
        BENCH,
        "        k = (row.instance, row.family, row.n, row.deadline_class,\n",
        "        k = (row.instance, row.family, row.deadline_class,\n",
        ("tests/test_bench.py::TestEmitJson",),
    ),
    Mutant(
        "plain argv read skips the choices check",
        CLI,
        "if action.choices is not None and value not in action.choices:",
        "if False:",
        HANDS_BACK,
    ),
    Mutant(
        "plain argv read takes a value starting with -",
        CLI,
        'if action is None or value[:1] == "-" or action in strings:',
        "if action is None or action in strings:",
        HANDS_BACK,
    ),
    Mutant(
        "plain argv read skips the required-flag check",
        CLI,
        "if len(values) != len(positionals) or not required <= strings.keys():",
        "if len(values) != len(positionals):",
        HANDS_BACK,
    ),
    Mutant(
        "lazy term not stored",
        MODEL,
        "        value = obj.__dict__[self.name] = self.func(obj)\n",
        "        value = self.func(obj)\n",
        ("tests/test_model.py::TestLazyTerms",),
    ),
    Mutant(
        "task-set document's unknown key allowed",
        "src/rtpack/io.py",
        '    if len(doc) > 1 + ("name" in doc):\n',
        "    if False:\n",
        UNKNOWN_KEY,
    ),
    Mutant(
        "task's unknown key allowed",
        "src/rtpack/io.py",
        "        if len(entry) != 3:\n",
        "        if False:\n",
        UNKNOWN_KEY,
    ),
    Mutant(
        "instance's unknown key allowed",
        BENCH,
        "        if key not in required and key not in optional:\n"
        '            raise ParseError(f"{where}: unknown key {key!r}")\n',
        "",
        ("tests/test_cli.py::TestGenerate::test_flag_its_family_does_not_take_exit_two",),
    ),
    Mutant(
        "task-set repeated key allowed",
        "src/rtpack/io.py",
        '                raise ParseError(f"{where}: repeated key {obj.key!r}")\n',
        "                pass\n",
        REPEATED_KEY,
    ),
    Mutant(
        "repeated-key quote count made always true",
        "src/rtpack/io.py",
        "    return backslash not in data and data.count(quote) == 2 * strings\n",
        "    return True\n",
        REPEATED_KEY,
    ),
    Mutant(
        "repeated-key quote count made always false",
        "src/rtpack/io.py",
        "    return backslash not in data and data.count(quote) == 2 * strings\n",
        "    return False\n",
        ("tests/test_io.py::TestRepeatedKeyCheck",),
    ),
    Mutant(
        "config repeated key allowed",
        BENCH,
        "    if doc.__class__ is _Repeated:\n",
        "    if False:\n",
        CONFIG_REPEATED_KEY,
    ),
    Mutant(
        "config entry's repeated key allowed",
        BENCH,
        "        if entry.__class__ is _Repeated:\n",
        "        if False:\n",
        CONFIG_REPEATED_KEY,
    ),
    Mutant(
        "partition id 0 accepted",
        FEASIBILITY,
        "            if tid.__class__ is not int or not 0 < tid <= n:\n",
        "            if tid.__class__ is not int or not 0 <= tid <= n:\n",
        ("tests/test_feasibility.py::TestVerifyPartition::test_unknown_id",),
    ),
    Mutant(
        "generate --dvp-out family check dropped",
        CLI,
        '    if args.dvp_out is not None and args.family != "dvp":\n',
        "    if False:\n",
        ("tests/test_cli.py::TestGenerate::test_vector_dump_needs_the_dvp_family",),
    ),
    Mutant(
        "package init imports a module",
        "src/rtpack/__init__.py",
        'approximation-ratio bench harness."""\n',
        'approximation-ratio bench harness."""\n\nfrom . import bench\n',
        ("tests/test_source.py::TestLayering",),
    ),
    Mutant(
        "validate's accept without its C <= T pass",
        MODEL,
        "    if min(c) > 0 and all(map(le, c, d)) and all(map(le, c, t)):\n",
        "    if min(c) > 0 and all(map(le, c, d)):\n",
        ("tests/test_model.py::TestValidate",),
    ),
    Mutant(
        "set values divided by g only when g > 2",
        MODEL,
        "    if g > 1:\n",
        "    if g > 2:\n",
        ("tests/test_model.py::TestIntegerValues",),
    ),
    Mutant(
        "best and worst fit rankings swapped",
        PARTITIONERS,
        "Strategy.BEST_FIT: gt, Strategy.WORST_FIT: lt}",
        "Strategy.BEST_FIT: lt, Strategy.WORST_FIT: gt}",
        ("tests/test_partitioners.py",),
    ),
    Mutant(
        "GenParams target bound > made >=",
        GENERATORS,
        "        if un > n * ud:\n",
        "        if un >= n * ud:\n",
        ("tests/test_generators.py::TestRandom::test_target_range_boundaries",),
    ),
    Mutant(
        "GenParams fast path taken for any target type",
        GENERATORS,
        "            and target.__class__ in (Fraction, int)\n",
        "",
        ("tests/test_generators.py::TestRandom::test_inexact_or_mistyped_number_is_a_type_error",),
    ),
    Mutant(
        "dvp v1 < v2 made <=",
        GENERATORS,
        "if c and not (a * d < c * b and c <= d):",
        "if c and not (a * d <= c * b and c <= d):",
        ("tests/test_generators.py::TestDvp::test_range_boundaries",),
    ),
    Mutant(
        "dvp type check skipped for a vector with one Fraction",
        GENERATORS,
        "if v1.__class__ is not Fraction or v2.__class__ is not Fraction:",
        "if v1.__class__ is not Fraction and v2.__class__ is not Fraction:",
        ("tests/test_generators.py::TestDvp::test_inexact_coordinate_is_a_type_error",),
    ),
    Mutant(
        "out-of-memory catch narrowed to nothing",
        CLI,
        "    except MemoryError:\n",
        "    except ():\n",
        ("tests/test_cli.py::TestCheck::test_out_of_memory_exit_two",),
    ),
)


def run_tests(tests: tuple[str, ...], mutant: Mutant | None = None) -> int:
    """pytest's exit code on `tests`, run on a fresh copy of TREES and
    FILES with `mutant`, if given, applied to the copy."""
    with tempfile.TemporaryDirectory(prefix="rtpack-mutant-") as work:
        for tree in TREES:
            shutil.copytree(
                ROOT / tree, Path(work, tree), ignore=shutil.ignore_patterns("__pycache__")
            )
        for name in FILES:
            shutil.copy(ROOT / name, work)
        if mutant is not None:
            target = Path(work, mutant.path)
            target.write_text(
                target.read_text(encoding="utf-8").replace(mutant.snippet, mutant.replacement),
                encoding="utf-8",
            )
        env = dict(os.environ, PYTHONPATH=str(Path(work, "src")), PYTHONDONTWRITEBYTECODE="1")
        argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                f"--hypothesis-seed={HYPOTHESIS_SEED}", *tests]  # fmt: skip
        return subprocess.run(
            argv, cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        ).returncode


def main() -> int:
    bad = []
    for tests in dict.fromkeys(m.tests for m in MUTANTS):
        code = run_tests(tests)
        print(f"unmutated {' '.join(tests)}: pytest exit {code}")
        if code != 0:
            print("the unmutated tests must pass; no mutant was run")
            return 1
    for mutant in MUTANTS:
        found = (ROOT / mutant.path).read_text(encoding="utf-8").count(mutant.snippet)
        if found != 1:
            outcome = f"snippet found {found} times in {mutant.path}, not once"
        else:
            code = run_tests(mutant.tests, mutant)
            outcome = {0: "survived", 1: "killed"}.get(code, f"pytest exit {code}")
        print(f"{mutant.name}: {outcome}")
        if outcome != "killed":
            bad.append(mutant.name)
    print(f"{len(MUTANTS) - len(bad)} of {len(MUTANTS)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
