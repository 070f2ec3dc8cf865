#!/usr/bin/env python3
"""Fail on polymorphic comparison in the simulator core.

    python3 tools/lint_compare.py [ROOT]

A bare `max`, `min` or `compare` in OCaml code is Stdlib's polymorphic
version: on ints it goes through `compare_val` instead of one machine
compare, and as a fold argument it is a closure call per element.  This
scans the .ml files of lib/{sim,cache,tilelink,l1,l2,mem,cpu,core,audit}, with
comments, strings and character literals blanked, and reports every bare
use.  Qualified names (`Int.max`, `Perm.compare`, `Stdlib.min` on floats),
labels (`~compare`), longer identifiers (`max_int`) and definitions
(`let max t = ...`, `and compare ...`) pass.  Exit status 1 when any use
is found, 0 otherwise.
"""

import re
import sys
from pathlib import Path

DIRS = ["sim", "cache", "tilelink", "l1", "l2", "mem", "cpu", "core", "audit"]
BARE = re.compile(r"(?<![\w.'~?])(max|min|compare)(?![\w'])")
DEFINITION = re.compile(r"\b(let|and)(\s+rec)?\s*$")
CHAR = re.compile(r"'(?:\\(?:[\\'\"ntbr ]|[0-9]{3}|x[0-9a-fA-F]{2}|o[0-7]{3})|[^\\'\n])'")


def blank(text):
    """The text with comments, strings and char literals turned to spaces
    (newlines kept, so line numbers stay)."""
    out = []
    i, n, depth = 0, len(text), 0
    keep = lambda s: "".join(c if c == "\n" else " " for c in s)
    while i < n:
        if text.startswith("(*", i):
            depth += 1
            out.append("  ")
            i += 2
        elif depth and text.startswith("*)", i):
            depth -= 1
            out.append("  ")
            i += 2
        elif text[i] == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            out.append(keep(text[i : j + 1]))
            i = j + 1
        elif text[i] == "'" and (m := CHAR.match(text, i)):
            out.append(keep(m.group(0)))
            i = m.end()
        else:
            out.append(text[i] if not depth or text[i] == "\n" else " ")
            i += 1
    return "".join(out)


def main():
    root = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent)
    found = 0
    for d in DIRS:
        for path in sorted((root / "lib" / d).glob("*.ml")):
            source = path.read_text()
            lines = source.splitlines()
            for no, line in enumerate(blank(source).splitlines(), 1):
                for m in BARE.finditer(line):
                    if DEFINITION.search(line[: m.start()]):
                        continue
                    found += 1
                    print(f"{path.relative_to(root)}:{no}: bare {m.group(1)}: {lines[no - 1].strip()}")
    if found:
        print(f"lint_compare: {found} polymorphic max/min/compare; use Int.max, Int.min, "
              "Int.compare or the type's own compare", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
