"""`scripts/code_lines.py`: the code-line count of a source text and of a
package directory."""

import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
counter = runpy.run_path(str(ROOT / "scripts" / "code_lines.py"))

SOURCE = '''"""Module docstring,
on two lines."""

import math  # a comment on a code line


class A:
    """Class docstring."""

    # a comment line
    x = """a string
that is not a docstring"""

    def f(self):
        """Function
        docstring."""
        return (
            math.pi
        )


async def g():
    """One line."""
    pass
'''


class TestCodeLines:
    def test_counts_code_lines_of_a_source(self):
        # import, class, the two lines of `x`, def, the three of `return`,
        # async def and pass; no docstring, comment or blank line
        assert counter["code_lines"](SOURCE) == 10

    def test_docstring_lines(self):
        assert counter["docstring_lines"](SOURCE) == {1, 2, 8, 15, 16, 23}

    def test_prints_each_module_and_the_total(self, tmp_path, capsys):
        (tmp_path / "b.py").write_text(SOURCE)
        (tmp_path / "a.py").write_text("x = 1\n\n# note\n")
        (tmp_path / "notes.txt").write_text("x = 1\n")
        assert counter["main"]([str(tmp_path)]) == 0
        assert capsys.readouterr().out == "a.py: 1\nb.py: 10\ntotal: 11\n"
