"""Count the lines of src/fanolink by kind: python3 tools/src_lines.py (no options).

Each line has one kind, read from its tokens (tokenize): code if it holds
any token but a comment or a docstring, else docstring if a string that is
a statement of its own spans it, else comment if it holds one, else blank.
"""

import pathlib
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "fanolink"
KINDS = ("all", "code", "docstring", "comment", "blank")
SKIP = (tokenize.ENCODING, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER)


def count(path: pathlib.Path) -> list[int]:
    """The line count of each of KINDS in one file."""
    with path.open("rb") as file:
        tokens = [t for t in tokenize.tokenize(file.readline) if t.type != tokenize.NL]
    rows = {"code": set(), "docstring": set(), "comment": set()}
    for i, tok in enumerate(tokens):
        if tok.type not in SKIP:
            alone = tokens[i - 1].type in SKIP and tokens[i + 1].type == tokenize.NEWLINE
            kind = "comment" if tok.type == tokenize.COMMENT else "code"
            kind = "docstring" if tok.type == tokenize.STRING and alone else kind
            rows[kind].update(range(tok.start[0], tok.end[0] + 1))
    lines = len(path.read_text(encoding="utf-8").splitlines())
    code, docstring = rows["code"], rows["docstring"] - rows["code"]
    comment = rows["comment"] - code - docstring
    return [lines, len(code), len(docstring), len(comment), lines - len(code | docstring | comment)]


totals = [0] * len(KINDS)
print(f"{'file':<14}" + "".join(f"{kind:>10}" for kind in KINDS))
for path in sorted(SRC.glob("*.py")):
    counts = count(path)
    totals = [a + b for a, b in zip(totals, counts)]
    print(f"{path.name:<14}" + "".join(f"{n:>10}" for n in counts))
print(f"{'total':<14}" + "".join(f"{n:>10}" for n in totals))
