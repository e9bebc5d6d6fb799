#!/usr/bin/env python3
"""Line counts of the package's modules.

For each module of a package directory (default: src/mviefact) and in
total, prints all lines and code lines. A code line holds a token other
than a comment, a blank or a docstring; a docstring is a string literal
that stands alone as a statement. A token spanning lines makes each of
them a code line.

    python scripts/src_lines.py [PACKAGE_DIR]
"""

import argparse
import os
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count_lines(path):
    """(all lines, code lines) of the Python source file at path."""
    with open(path, "rb") as f:
        source = f.read()
        f.seek(0)
        tokens = list(tokenize.tokenize(f.readline))
    code, statement = set(), []
    for tok in tokens:
        if tok.type not in LAYOUT:
            statement.append(tok)
        elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if not all(t.type == tokenize.STRING for t in statement):
                for t in statement:
                    code.update(range(t.start[0], t.end[0] + 1))
            statement = []
    return len(source.splitlines()), len(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("package", nargs="?",
                    default=os.path.join(ROOT, "src", "mviefact"))
    args = ap.parse_args()
    names = sorted(n for n in os.listdir(args.package) if n.endswith(".py"))
    rows = [(n, *count_lines(os.path.join(args.package, n))) for n in names]
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>6}  {code:>6}")


if __name__ == "__main__":
    main()
