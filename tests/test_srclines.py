"""tools/srclines.py gives each line of a module one kind: code,
docstring, comment or blank."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))
import srclines  # noqa: E402


def test_each_modules_kinds_sum_to_its_line_count():
    paths = sorted(srclines.SRC.glob("*.py"))
    assert paths
    for path in paths:
        counts = srclines.count(path.read_text(encoding="utf-8"))
        assert counts["lines"] == path.read_bytes().count(b"\n")
        assert sum(counts[kind] for kind in srclines.KINDS) == counts["lines"]


def test_a_line_is_of_one_kind():
    source = ('"""Doc\n'
              '\n'
              'more."""\n'
              '\n'
              'import os  # a trailing comment: code\n'
              '# a comment\n'
              '\n'
              'def f():\n'
              '    """One."""\n'
              '    return ("s",\n'
              '            "t")\n')
    assert srclines.count(source) == {"lines": 11, "code": 4,
                                      "docstring": 4, "comment": 1,
                                      "blank": 2}
