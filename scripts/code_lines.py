"""Count the code lines of Python source trees, per module and in total.

A code line is a line that holds part of a token other than a comment,
and is not part of a docstring (of a module, class or function); blank
lines, comment lines and docstrings are not counted.

    python scripts/code_lines.py src                  # one tree
    python scripts/code_lines.py BASE/src HEAD/src    # side by side

Modules are named by their path under each tree, so two checkouts of
the same tree line up row by row.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NON_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def count_tree(root: Path) -> dict[str, int]:
    return {path.relative_to(root).as_posix(): code_lines(path.read_text())
            for path in sorted(root.rglob("*.py"))}


def main(roots: list[str]) -> int:
    if not roots:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    counts = [count_tree(Path(r)) for r in roots]
    modules = sorted(set().union(*counts))
    width = max(len(m) for m in modules + ["total"])
    print(f"{'module':<{width}}" + "".join(f"  {r:>12}" for r in roots))
    for m in modules:
        cells = (str(c[m]) if m in c else "-" for c in counts)
        print(f"{m:<{width}}" + "".join(f"  {cell:>12}" for cell in cells))
    print(f"{'total':<{width}}" + "".join(f"  {sum(c.values()):>12}" for c in counts))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
