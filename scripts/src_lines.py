#!/usr/bin/env python3
"""Line counts of the package source.

Prints the physical and the logic line count of every Python file under
src/ and their totals.  A logic line holds code: blank lines, comment-only
lines and the lines of docstrings (a string that opens a module, class or
function body) do not count.
"""
import argparse
import ast
import io
import os
import tokenize

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_lines(text: str):
    """(physical, logic) line counts of one Python source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
                            tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER):
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(text.splitlines()), len(code - _docstring_lines(ast.parse(text)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--src", default=SRC, help="source tree to count")
    args = parser.parse_args()
    paths = sorted(os.path.join(d, f) for d, _, files in os.walk(args.src)
                   for f in files if f.endswith(".py"))
    header = f"{'physical':>8s} {'logic':>6s}  file"
    print(header)
    print("-" * len(header))
    totals = [0, 0]
    for path in paths:
        with open(path, encoding="utf-8") as f:
            counts = count_lines(f.read())
        totals = [a + b for a, b in zip(totals, counts)]
        print(f"{counts[0]:8d} {counts[1]:6d}  {os.path.relpath(path, args.src)}")
    print(f"{totals[0]:8d} {totals[1]:6d}  total")


if __name__ == "__main__":
    main()
