"""The README's library example runs and prints what its comments say."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs_and_prints_what_its_comments_say():
    section = README.read_text(encoding="utf-8").split("\n## Library example\n", 1)[1]
    (code,) = re.findall(r"^```python\n(.*?)^```$", section.split("\n## ", 1)[0], re.S | re.M)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, f"{README.name} (Library example)", "exec"), {})
    lines = out.getvalue().splitlines()
    assert len(lines) == 6
    assert lines[1] == "True"  # check_q_invariance(R).passed at one point
    assert lines[4] == "[ True  True]"  # check_q_invariance(Rs).passed at two points
    assert lines[-1] == "(2, 2)"
