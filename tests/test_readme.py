"""The README's Library example runs as written."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    # the score, then one line per reported optimum: all 4 of Himmelblau's
    assert lines[0] == ("Score(peaks_found=4, peak_ratio=1.0, static_f1=1.0, "
                        "f1_harmonic=1.0, evaluations_used=50000)")
    assert len(lines) == 5
    assert all(line.endswith(" 200.0") for line in lines[1:])
