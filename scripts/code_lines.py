#!/usr/bin/env python3
"""Count the code lines of `src/vtknot/*.py`.

A code line holds at least one token that is not a comment, a line break
or indentation (by `tokenize`) and is not part of a docstring (the string
that opens a module, class or function, found by `ast`).  So blank lines,
comment lines and docstrings do not count.  Prints one row per file with
its code lines and its `wc -l` line count, then the totals:

    python3 scripts/code_lines.py
"""

import ast
import io
import pathlib
import tokenize

ROOT = pathlib.Path(__file__).resolve().parents[1]
SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                out.update(range(first.lineno, first.end_lineno + 1))
    return out


def code_lines(text):
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def main():
    total_code = total_wc = 0
    for path in sorted((ROOT / "src" / "vtknot").glob("*.py")):
        text = path.read_text(encoding="utf-8")
        code, wc = code_lines(text), text.count("\n")
        total_code += code
        total_wc += wc
        print("%-14s %6d code %6d wc" % (path.name, code, wc))
    print("%-14s %6d code %6d wc" % ("total", total_code, total_wc))


if __name__ == "__main__":
    main()
