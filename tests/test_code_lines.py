"""The code-line counter in ``tools/code_lines.py``."""

import importlib.util
import pathlib
import subprocess
import sys

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

MODULE = '''"""Module docstring,
over two lines."""

# a comment line
import math  # a trailing comment


class Shape:
    """Class docstring."""

    def area(self):
        """Method docstring."""
        return math.pi


TEXT = """a string that is not a docstring
counts every line"""
'''


def test_docstrings_comments_and_blank_lines_do_not_count():
    # import, class, def, return and the two lines of TEXT
    assert code_lines.code_lines(MODULE) == 6


def test_prints_each_module_and_the_total(tmp_path):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# done\n")
    out = subprocess.run(
        [sys.executable, str(TOOL), str(tmp_path)], capture_output=True, text=True, check=True
    ).stdout
    assert out.splitlines() == ["     6  a.py", "     1  pkg/b.py", "     7  total"]
