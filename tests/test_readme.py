"""The README's Library example runs as written, its parameter table
names every module constant of the algorithm at its value, and its
literal table names the function that holds each literal."""

import ast
import contextlib
import importlib
import inspect
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


def _module_constants(module):
    """The upper-case names a module assigns at its top level."""
    tree = ast.parse(Path(module.__file__).read_text())
    return {t.id for node in tree.body if isinstance(node, ast.Assign)
            for t in node.targets
            if isinstance(t, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", t.id)}


def test_parameter_table_names_every_constant():
    rows = re.findall(r"^\| `(\w+)\.(\w+)` \| `([^`]+)` \|", README.read_text(),
                      re.MULTILINE)
    modules = ("amalgam", "orchestrator", "hillvalley", "scoring")
    listed = {(m, name) for m, name, _ in rows}
    want = {(m, name) for m in modules
            for name in _module_constants(importlib.import_module(f"hillvallea.{m}"))}
    assert len(rows) == len(listed) == 22
    assert listed == want
    for m, name, value in rows:
        module = importlib.import_module(f"hillvallea.{m}")
        assert eval(value, {"__builtins__": {}}) == getattr(module, name), name


# Each literal of the README's literal table, with its code as written in
# the function that its row names.
LITERALS = {"8 + ⌈2√d⌉": "8 + math.ceil(2.0 * math.sqrt(dimension))",
            "0.5": "0.5 * (spec.upper - spec.lower)",
            "8": "8 * max_attempts"}


def test_literal_table_names_where_each_literal_is():
    table = re.search(r"^\| Literal \| Where \|.*?\n\n", README.read_text(),
                      re.MULTILINE | re.DOTALL).group()
    rows = re.findall(r"^\| `([^`]+)` \| ([^|]+) \|", table, re.MULTILINE)
    assert [literal for literal, _ in rows] == list(LITERALS)
    modules = [importlib.import_module(f"hillvallea.{m}")
               for m in ("orchestrator", "hillvalley")]
    for literal, where in rows:
        # the row's last name in backticks is the function, "(d)" aside
        name = re.findall(r"`(\w+)[^`]*`", where)[-1]
        function = next(getattr(m, name) for m in modules if hasattr(m, name))
        assert LITERALS[literal] in inspect.getsource(function), literal
