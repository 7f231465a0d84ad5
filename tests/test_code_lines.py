"""`benchmarks/code_lines.py` counts code-only lines: no blanks, comments
or docstrings, and a string that is no docstring on every line it spans."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

MODULE = '''"""A module docstring
over two lines."""

import os  # a trailing comment

# a comment line


class A:
    """A class docstring."""

    x = 1

    def f(self):
        """A function
        docstring."""
        text = """a string
that is no docstring"""
        return (text,
                os.sep)
'''


def test_counts_code_only_lines():
    # import, class, x, def, the string's two lines, the return's two lines
    assert code_lines.code_lines(MODULE) == 8


def test_reports_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text("x = 1\n\n# no code\ny = '''two\nlines'''\n")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["a.py", "8"], ["b.py", "3"], ["total", "11"]]
