"""Code, docstring, comment and blank lines of each src/fha module.

A docstring line lies in a module, class or function docstring; a comment
line holds a comment and no code; a blank line holds only whitespace
outside a docstring; every other line is code. The four columns add up to
``wc -l`` per module.

    python3 scripts/line_counts.py [package directory, default src/fha]
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
          tokenize.COMMENT}
DEFS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def split(source: str) -> dict:
    """The line numbers of each kind in ``source``, counted."""
    doc = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DEFS) and ast.get_docstring(node, clean=False) is not None:
            doc.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code, comment = set(), set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type == tokenize.COMMENT:
            comment.add(tok.start[0])
        elif tok.type not in LAYOUT:
            code.update(range(tok.start[0], tok.end[0] + 1))
    code -= doc
    lines = source.splitlines()
    blank = {i for i, line in enumerate(lines, start=1) if not line.strip()} - doc
    return {"code": len(code), "docstring": len(doc), "comment": len(comment - code - doc),
            "blank": len(blank), "total": len(lines)}


def main(argv) -> int:
    root = Path(argv[0] if argv else "src/fha")
    kinds = ("code", "docstring", "comment", "blank", "total")
    print(f"{'module':<14}" + "".join(f"{k:>10}" for k in kinds))
    totals = dict.fromkeys(kinds, 0)
    for path in sorted(root.glob("*.py")):
        counts = split(path.read_text(encoding="utf-8"))
        print(f"{path.name:<14}" + "".join(f"{counts[k]:>10}" for k in kinds))
        for k in kinds:
            totals[k] += counts[k]
    print(f"{'total':<14}" + "".join(f"{totals[k]:>10,}" for k in kinds))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
