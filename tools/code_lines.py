"""Count the code lines of each ``src/bisrnet`` module.

A code line holds a token that is neither a comment nor part of a
docstring. Docstrings are found with ``ast`` (the first statement of a
module, class or function, when it is a string), tokens with
``tokenize``; a token that spans several lines holds each of them.

    python tools/code_lines.py [package directory]

prints one ``<lines> <module>`` row per module, sorted by name, then the
total.
"""

import ast
import io
import os
import sys
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENDMARKER, tokenize.ENCODING}
PACKAGE = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src", "bisrnet")


def docstring_starts(tree):
    """The (line, column) at which each docstring's string token starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                starts.add((body[0].lineno, body[0].col_offset))
    return starts


def code_lines(path):
    with open(path, "rb") as fh:
        source = fh.read()
    docs = docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in SKIP and tok.start not in docs:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    package = argv[0] if argv else PACKAGE
    total = 0
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            count = code_lines(os.path.join(package, name))
            total += count
            print(f"{count:5d} {name}")
    print(f"{total:5d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
