"""Count the code lines of Python source: no docstrings, comments or blank lines.

A line counts when a token other than a comment, a line break or an
indentation change starts, ends or runs across it.  A docstring is taken to
be any statement made of one string literal alone, the first statement of a
module, class or function or not.  ``python tests/code_lines.py`` prints
the total over ``src/rfim/*.py``.
"""

from __future__ import annotations

import io
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines in the Python ``source``."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []  # the logical line read so far
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.NEWLINE:
            if not (len(statement) == 1 and statement[0].type == tokenize.STRING):
                for t in statement:
                    lines.update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in SKIPPED:
            statement.append(tok)
    return len(lines)


def package_lines() -> int:
    """The number of code lines in ``src/rfim/*.py``, in total."""
    package = Path(__file__).resolve().parent.parent / "src" / "rfim"
    return sum(code_lines(path.read_text()) for path in package.glob("*.py"))


if __name__ == "__main__":
    print(package_lines())
