"""Count the code lines of the package: the non-blank lines of
src/hermcycles/*.py that are neither comments nor docstrings.

A line counts when a token other than a comment starts or runs on it;
docstrings (of the module, classes and functions) are found with ast and
their lines left out.  Standard library only.

    python3 tools/code_lines.py [DIR]   # DIR defaults to src/hermcycles
"""

import ast
import sys
import tokenize
from pathlib import Path

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of code lines of one Python file."""
    text = path.read_text(encoding="utf-8")
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    docstrings.update(range(body[0].lineno, body[0].end_lineno + 1))
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _SKIPPED:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv):
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src" / "hermcycles"
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")


if __name__ == "__main__":
    main(sys.argv)
