"""Print the line counts of every module of src/noisylab/ and their total:
lines, then code, docstring, comment and blank lines, one row each.

    python3 tools/srclines.py

It takes no options. Each line is of exactly one kind, found with the
stdlib tokenizer: code if it holds a token that is neither a comment nor a
docstring (a statement that is a lone string), else docstring if a
docstring covers it, else comment if it holds a comment, else blank. So the
four kinds sum to the lines, and a line of code with a trailing comment is
code.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "noisylab"
KINDS = ("code", "docstring", "comment", "blank")
LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENDMARKER}


def count(source):
    """{"lines": n, "code": ..., "docstring": ..., "comment": ...,
    "blank": ...} for one module's source text."""
    n = len(source.splitlines())
    kind = [None] * (n + 2)  # by line number, from 1
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    for i, tok in enumerate(tokens):
        if tok.type in LAYOUT:
            continue
        rows = range(tok.start[0], tok.end[0] + 1)
        if tok.type == tokenize.COMMENT:
            new = "comment"
        elif (tok.type == tokenize.STRING
              and (i == 0 or tokens[i - 1].type in LAYOUT)
              and tokens[i + 1].type in (tokenize.NEWLINE,
                                         tokenize.ENDMARKER)):
            new = "docstring"
        else:
            new = "code"
        for r in rows:  # code wins over docstring, which wins over comment
            if kind[r] is None or KINDS.index(new) < KINDS.index(kind[r]):
                kind[r] = new
    kinds = kind[1:n + 1]
    return {"lines": n, **{k: kinds.count(k) for k in KINDS[:3]},
            "blank": kinds.count(None)}


def main():
    rows = [(path.name, count(path.read_text(encoding="utf-8")))
            for path in sorted(SRC.glob("*.py"))]
    rows.append(("total", {k: sum(c[k] for _, c in rows)
                           for k in ("lines",) + KINDS}))
    print(f"{'module':<16}" + "".join(f"{k:>10}" for k in ("lines",) + KINDS))
    for name, c in rows:
        print(f"{name:<16}" + "".join(f"{c[k]:>10,}"
                                      for k in ("lines",) + KINDS))


if __name__ == "__main__":
    sys.exit(main())
