"""The README's library example runs as written and prints what it says."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_snippet() -> str:
    """The one ```python block of the README."""
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1, blocks
    return blocks[0]


def test_library_snippet_prints_its_comments():
    code = library_snippet()
    # Each print line states its output in a trailing "# ..." comment.
    expected = [line.partition("#")[2].strip()
                for line in code.splitlines() if line.startswith("print(")]
    assert expected == ["1", "12 10", "12"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    assert out.getvalue().splitlines() == expected
