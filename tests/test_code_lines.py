"""The code-line count of tools/code_lines.py on one canned module."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""The module docstring,
on two lines."""

import os  # a trailing comment leaves its line a code line


# a comment-only line
def join(x):
    """The function docstring."""
    text = """a multi-line string
that is no docstring"""
    return os.path.join(
        x,

        text,
    )
'''
# counted: import, def, the two lines of text, return, x, text and ")"
EXPECTED = 8


def test_code_lines_of_a_canned_module(tmp_path, capsys):
    path = tmp_path / "canned.py"
    path.write_text(SOURCE, encoding="utf-8")
    assert code_lines.code_lines(path) == EXPECTED
    code_lines.main(["code_lines.py", str(tmp_path)])
    assert capsys.readouterr().out.splitlines() == [f"{EXPECTED:6d}  canned.py", f"{EXPECTED:6d}  total"]
