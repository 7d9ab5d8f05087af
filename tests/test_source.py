"""Checks on the package's source text, with the stdlib `ast` module."""

import argparse
import ast
import re
from pathlib import Path

import pytest

from rtpack import cli

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
            ("from .model import IntView, Task\nx: IntView\n", ["line 1: Task"]),
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
    """The integer-view terms of the demand sweep that `source` names."""
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
            ("from rtpack.model import IntView\n", {"rtpack.model"}, set()),
            ("from fractions import Fraction\nx = view.c\n", set(), set()),
            ("x = ts.ints.share[0] + view.whole\n", set(), {"share", "whole"}),
            ("y = span_whole * sum(view.span_share)\n", set(), {"span_share", "span_whole"}),
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


class TestReadme:
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
