"""Checks on the package's source text, with the stdlib `ast` module."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "rtpack"
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
