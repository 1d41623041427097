"""The repository's tools hold to their own rules."""

from __future__ import annotations

import runpy
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_src_lines_gives_each_line_of_each_module_one_kind(capsys):
    # tools/src_lines.py prints one row per src/fanolink module, then a
    # total row: the four kinds of a module add up to its line count, and
    # each column of the total is the sum of the rows'.
    runpy.run_path(str(ROOT / "tools" / "src_lines.py"), run_name="__main__")
    header, *rows, total = capsys.readouterr().out.splitlines()
    assert header.split() == ["file", "all", "code", "docstring", "comment", "blank"]
    counts = {name: list(map(int, numbers)) for name, *numbers in map(str.split, rows)}
    modules = sorted((ROOT / "src" / "fanolink").glob("*.py"))
    assert list(counts) == [path.name for path in modules] and len(rows) == len(modules)
    for path in modules:
        lines, code, docstring, comment, blank = counts[path.name]
        assert code + docstring + comment + blank == lines == path.read_bytes().count(b"\n"), path
    name, *numbers = total.split()
    assert name == "total"
    assert list(map(int, numbers)) == [sum(column) for column in zip(*counts.values())]
