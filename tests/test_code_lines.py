"""``tools/code_lines.py``, the code-line count of the package."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def test_one_row_per_module_then_their_total(capsys):
    package = ROOT / "src" / "bisrnet"
    assert code_lines.main([str(package)]) == 0
    *rows, (total, label) = (line.split() for line in capsys.readouterr().out.splitlines())
    assert label == "total"
    assert [name for _, name in rows] == sorted(p.name for p in package.glob("*.py"))
    assert int(total) == sum(int(count) for count, _ in rows)


def test_docstrings_and_comments_are_not_code(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        '"""A module\ndocstring."""\n'
        "\n"
        "# a comment\n"
        "x = 1  # a trailing comment\n"
        'y = """a string\nthat is not a docstring"""\n'
        "\n"
        "\n"
        "def f():\n"
        '    """A function docstring."""\n'
        "    return (x +\n"
        "            1)\n"
    )
    # x = ..., both lines of y = ..., def, and both lines of the return.
    assert code_lines.code_lines(path) == 6
