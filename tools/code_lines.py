"""Count the code lines of ``src/`` per module and in total.

A code line is a line that holds a token of Python code: docstrings (the
leading string of a module, class or function), comments and blank lines
do not count, nor does a line that only continues a docstring.  Docstrings
are found with ``ast``, the remaining tokens with ``tokenize``.

    python tools/code_lines.py               # this tree
    python tools/code_lines.py --base HEAD~1 # this tree against a revision

With ``--base`` it also counts ``src/`` of the revision, exported with
``git archive`` into a temporary directory as ``tools/cli_identity.py``
does, and prints both counts and their difference.  ``--base HEAD`` with a
clean tree is an A/A run that must read a difference of 0.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tempfile
import tokenize
from pathlib import Path

from cli_identity import ROOT, export

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """Line numbers covered by the docstrings of a module and its classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - skip)


def count(src: Path) -> dict:
    """Code lines of every module under ``src``, keyed by its path relative to ``src``."""
    return {path.relative_to(src).as_posix(): code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(src.rglob("*.py"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="git revision to compare with, e.g. HEAD~1")
    args = parser.parse_args(argv)
    tree = count(ROOT / "src")
    if args.base is None:
        for module, n in tree.items():
            print(f"{n:6d}  {module}")
        print(f"{sum(tree.values()):6d}  total")
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        base = count(export(args.base, Path(tmp)))
    print(f"{args.base:>8}    tree  change  module")
    for module in sorted(base.keys() | tree.keys()):
        b, t = base.get(module, 0), tree.get(module, 0)
        print(f"{b:8d}  {t:6d}  {t - b:+6d}  {module}")
    b, t = sum(base.values()), sum(tree.values())
    print(f"{b:8d}  {t:6d}  {t - b:+6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
