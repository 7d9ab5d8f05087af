"""Checks on the package's source text, with the stdlib `ast` module."""

import argparse
import ast
import dataclasses
import importlib
import re
from pathlib import Path

import pytest

import rtpack
from rtpack import cli, model

SRC = Path(__file__).parent.parent / "src" / "rtpack"
README = (SRC.parent.parent / "README.md").read_text(encoding="utf-8")
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement of `source` (other than
    `from __future__`) that no expression of it reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


class TestImports:
    def test_modules_found(self):
        assert {p.name for p in MODULES} >= {"feasibility.py", "model.py", "bench.py"}

    @pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
    def test_every_import_is_used(self, path):
        assert unused_imports(path.read_text()) == []

    @pytest.mark.parametrize(
        "source, unused",
        [
            ("from .model import TaskSet, Task\nx: TaskSet\n", ["line 1: Task"]),
            ("import os.path\nos.sep\n", []),
            ("import json as js\n", ["line 1: js"]),
            ("from __future__ import annotations\n", []),
            ("from typing import Optional\ndef f(a: Optional[int]): pass\n", []),
        ],
    )  # fmt: skip
    def test_finds_unused_names(self, source, unused):
        assert unused_imports(source) == unused


SWEEP_TERMS = {"share", "whole", "offset", "span_share", "span_whole"}


def package_imports(source: str) -> set[str]:
    """The package modules that `source` imports from, as written:
    `.model` for a relative import, `rtpack.model` for an absolute one."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if node.level or module.partition(".")[0] == "rtpack":
                found.add(module)
        elif isinstance(node, ast.Import):
            found |= {a.name for a in node.names if a.name.partition(".")[0] == "rtpack"}
    return found


def sweep_terms_read(source: str) -> set[str]:
    """The terms of the demand sweep that `source` names."""
    tree = ast.parse(source)
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return names & SWEEP_TERMS


class TestSimulatorIndependence:
    """The simulator cross-checks the demand sweep, so it must not share
    the sweep's code or its precomputed terms."""

    SOURCE = (SRC / "simulate.py").read_text()

    def test_imports_only_errors_and_model(self):
        assert package_imports(self.SOURCE) == {".errors", ".model"}

    def test_reads_no_sweep_terms(self):
        assert sweep_terms_read(self.SOURCE) == set()

    @pytest.mark.parametrize(
        "source, imports, terms",
        [
            ("from .feasibility import _bound\n", {".feasibility"}, set()),
            ("from . import feasibility\n", {"."}, set()),
            ("import rtpack.feasibility\nimport heapq\n", {"rtpack.feasibility"}, set()),
            ("from rtpack.model import TaskSet\n", {"rtpack.model"}, set()),
            ("from fractions import Fraction\nx = ts.c\n", set(), set()),
            ("x = ts.share[0] + other.whole\n", set(), {"share", "whole"}),
            ("y = span_whole * sum(ts.span_share)\n", set(), {"span_share", "span_whole"}),
        ],
    )  # fmt: skip
    def test_finds_imports_and_terms(self, source, imports, terms):
        assert package_imports(source) == imports
        assert sweep_terms_read(source) == terms


def cli_flags() -> list[tuple[str, list[str]]]:
    """(command, option strings) of every optional, non-help action of
    each subcommand of `cli.build_parser()`."""
    parser = cli.build_parser()
    [commands] = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return [
        (name, action.option_strings)
        for name, sub in commands.choices.items()
        for action in sub._actions
        if action.option_strings and not isinstance(action, argparse._HelpAction)
    ]


# the heads of the dotted names that README.md must spell as they are:
# the package, its modules and the classes of `rtpack.model`
API_HEADS = {"rtpack", *(p.stem for p in MODULES)} | {
    name for name, value in vars(model).items()
    if isinstance(value, type) and value.__module__ == model.__name__
}  # fmt: skip


def api_names(text: str) -> list[str]:
    """The backticked dotted names of `text`, such as `TaskSet.dm_order`
    or `bench.INSTANCE_KEYS()`, whose head is in API_HEADS, without a
    trailing "()"."""
    found = re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(\))?`", text)
    return sorted({name for name in found if name.partition(".")[0] in API_HEADS})


def resolves(name: str) -> bool:
    """Whether `name`, whose head is in API_HEADS, is found by getattr from
    its head.  A dataclass field without a default is no class attribute:
    it counts as found, and the walk stops there."""
    head, *rest = name.split(".")
    if head == "rtpack":
        obj = rtpack
    elif (SRC / f"{head}.py").exists():
        obj = importlib.import_module(f"rtpack.{head}")
    else:
        obj = getattr(model, head)
    for part in rest:
        if not hasattr(obj, part):
            fields = dataclasses.fields(obj) if dataclasses.is_dataclass(obj) else ()
            return part in {f.name for f in fields}
        obj = getattr(obj, part)
    return True


class TestReadme:
    def test_api_names_found(self):
        names = {"TaskSet.dm_order", "TaskSet.span", "bench.INSTANCE_KEYS", "rtpack.oracle"}
        assert names <= set(api_names(README))

    @pytest.mark.parametrize("name", api_names(README))
    def test_every_api_name_resolves(self, name):
        assert resolves(name), f"README.md names {name}, which is not in the package"

    @pytest.mark.parametrize(
        "text, names, found",
        [("`TaskSet.of_ratios` and `model.gone()`", ["TaskSet.of_ratios", "model.gone"], [False, False]),
         ("`TaskSet.c.real`, `io.parse_taskset()`, `rtpack.model`", ["TaskSet.c.real", "io.parse_taskset", "rtpack.model"], [True, True, True]),
         ("`Task.c.x`, `TaskSet.whole.y`, `TaskSet.ints`", ["Task.c.x", "TaskSet.whole.y", "TaskSet.ints"], [False, False, False]),
         ("`json.dumps`, `fractions.Fraction`, `BENCHMARK.json`, `TestReadme.x`", [], []),
         ("`bench.spec(\"random\")` and ``", [], [])],
    )  # fmt: skip
    def test_finds_and_resolves_names(self, text, names, found):
        assert api_names(text) == sorted(names)
        assert [resolves(name) for name in names] == found

    def test_flags_found(self):
        assert ("check", ["--point-cap"]) in cli_flags()

    @pytest.mark.parametrize(
        "command, options",
        [pytest.param(c, o, id=f"{c} {o[-1]}") for c, o in cli_flags()],
    )
    def test_every_flag_is_documented(self, command, options):
        # a whole flag: `--h` is not found in `--horizon`
        assert any(
            re.search(re.escape(opt) + r"(?![\w-])", README) for opt in options
        ), f"{command} {options[-1]} is not in README.md"

    # the README's CLI examples and their documented exit codes; the bench
    # config is the README's own "Bench config" example
    EXAMPLES = [
        (0, "generate --family bf-adversary --k 4 -o bf4.json"),
        (0, "generate --family speedup-gap --n 3 --eps 1/2 -o gap.json"),
        (0, "generate --family random --n 8 --seed 7 --target-u 3/2 --class constrained -o r.json"),
        (0, "check gap.json --speed 3/2"),
        (1, "check gap.json"),
        (0, "partition bf4.json --algo dm --strategy bf"),
        (0, "partition bf4.json --algo oracle"),
        (0, "simulate gap.json --horizon 12 --speed 3/2"),
        (0, "bench --config experiment.json -o report.csv"),
    ]

    def test_cli_examples_exit_as_documented(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        config = re.search(r"### Bench config\n\n```json\n(.*?)```", README, re.S).group(1)
        (tmp_path / "experiment.json").write_text(config)
        assert [cli.dispatch(argv.split()) for _, argv in self.EXAMPLES] == [
            rc for rc, _ in self.EXAMPLES
        ]
        capsys.readouterr()


class TestPackaging:
    def test_console_script_target_is_callable(self):
        tomllib = pytest.importorskip("tomllib")  # in the stdlib from Python 3.11
        with open(SRC.parent.parent / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        module, _, name = scripts["rtpack"].partition(":")
        assert callable(getattr(importlib.import_module(module), name))
