#!/usr/bin/env python3
"""Fail on an export that no program file names by its qualified name.

    python3 tools/lint_exports.py [ROOT]

Every `val v` in a lib/**/*.mli belongs to a module: the file's own (`M`
for m.mli) or, inside `module N : sig ... end`, the submodule `N`.  The
export is used when some .ml/.mli under lib bin bench perfbench tools
test examples, other than its module's own m.ml and m.mli, names it as

  - `M.v`, through any path (`Skipit_sim.Stats.Sample.add` names
    `Sample.add`) or a module alias (`module S = Skipit_core.System`
    makes `S.create` name `System.create`; an alias declared in another
    file counts too);
  - a bare `v` inside a local open `M.( ... )`, `M.[ ... ]` or `M.{ ... }`;
  - a bare `v` anywhere in a file that has `open M`, `let open M in` or
    `include M`.

Comments, strings and character literals are blanked first.  Every
unused export is printed as `  FILE: M.v`.

An export that only files under test/ name is test-only code in lib/: it
fails too, unless tools/test_seams.txt lists it (one `M.v` per line, as
printed here; `#` starts a comment).  A listed name that a program file
names, or that no interface exports, fails as stale.  The exit status is
1 when anything fails, 0 otherwise.
"""

import re
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from lint_compare import blank  # noqa: E402

PROGRAM = ["lib", "bin", "bench", "perfbench", "tools", "examples"]
TESTS = "test"
SEAMS = Path("tools") / "test_seams.txt"
UPPER = r"[A-Z][\w']*"
LOWER = r"[a-z_][\w']*"
ALIAS = re.compile(rf"\bmodule\s+({UPPER})\s*=\s*({UPPER}(?:\s*\.\s*{UPPER})*)")
QUALIFIED = re.compile(rf"(\.\s*)?\b({UPPER})\s*\.\s*({LOWER})")
LOCAL_OPEN = re.compile(rf"(\.\s*)?\b({UPPER})\s*\.\s*([(\[{{])")
OPEN = re.compile(rf"\b(?:open!?|include)\s+({UPPER}(?:\s*\.\s*{UPPER})*)")
WORD = re.compile(rf"(?<![\w'.]){LOWER}")
TOKEN = re.compile(rf"\bmodule\s+({UPPER})\s*:\s*sig\b|\bsig\b|\bend\b|\bval\s+({LOWER})")
CLOSE = {"(": ")", "[": "]", "{": "}"}


def last(path):
    return re.split(r"\s*\.\s*", path)[-1]


def exports(mli, text):
    """(module, val) pairs of an interface, submodules included."""
    stack, out = [mli.stem.capitalize()], []
    for m in TOKEN.finditer(text):
        if m.group(0).startswith("module"):
            stack.append(m.group(1))
        elif m.group(0) == "sig":
            stack.append(stack[-1])
        elif m.group(0) == "end":
            stack.pop()
        else:
            out.append((stack[-1], m.group(2)))
    return out


def span(text, start, opener):
    """The text from [start] to the bracket closing [opener]."""
    depth, i = 1, start
    while i < len(text) and depth:
        depth += (text[i] == opener) - (text[i] == CLOSE[opener])
        i += 1
    return text[start:i]


def uses(text, local, global_aliases):
    """The qualified names (module, val) a file's text can refer to."""

    def targets(name, inner=False):
        # A file's own aliases rebind only a path's first component.
        if name in local and not inner:
            return {local[name]}
        return {name} | global_aliases.get(name, set())

    names = set()
    for m in QUALIFIED.finditer(text):
        for t in targets(m.group(2), m.group(1)):
            names.add((t, m.group(3)))
    for m in LOCAL_OPEN.finditer(text):
        inner = span(text, m.end(), m.group(3))
        for t in targets(m.group(2), m.group(1)):
            names.update((t, w) for w in WORD.findall(inner))
    opened = {t for m in OPEN.finditer(text) for t in targets(last(m.group(1)))}
    if opened:
        words = set(WORD.findall(text))
        names.update((t, w) for t in opened for w in words)
    return names


def seams(root):
    """The (module, val) pairs tools/test_seams.txt lists, with their line."""
    out = {}
    path = root / SEAMS
    if path.exists():
        for n, line in enumerate(path.read_text().splitlines(), 1):
            name = line.split("#", 1)[0].strip()
            if name:
                module, _, val = name.rpartition(".")
                out[(module, val)] = n
    return out


def main():
    root = Path(sys.argv[1] if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent)
    files = sorted(
        p
        for d in PROGRAM + [TESTS]
        for p in (root / d).rglob("*.ml*")
        if p.suffix in (".ml", ".mli") and "_build" not in p.parts
    )
    texts = {p: blank(p.read_text()) for p in files}
    local_aliases = {
        p: {a: last(b) for a, b in ALIAS.findall(t)} for p, t in texts.items()
    }
    global_aliases = defaultdict(set)
    for aliases in local_aliases.values():
        for a, b in aliases.items():
            if a != b:
                global_aliases[a].add(b)
    used_by = {p: uses(t, local_aliases[p], global_aliases) for p, t in texts.items()}
    is_test = {p: p.parts[len(root.parts)] == TESTS for p in files}
    listed = seams(root)
    exported, dead, test_only, stale = set(), [], [], []
    for mli in files:
        if mli.suffix != ".mli" or mli.parts[len(root.parts)] != "lib":
            continue
        own = {mli, mli.with_suffix(".ml")}
        for name in sorted(set(exports(mli, texts[mli]))):
            exported.add(name)
            users = [p for p in files if p not in own and name in used_by[p]]
            line = f"  {mli.relative_to(root)}: {name[0]}.{name[1]}"
            if not users:
                dead.append(line)
            elif all(is_test[p] for p in users):
                if name not in listed:
                    test_only.append(line)
            elif name in listed:
                n = listed[name]
                stale.append(f"  {SEAMS}:{n}: {name[0]}.{name[1]} (a program file names it)")
    for name, n in sorted(listed.items(), key=lambda kv: kv[1]):
        if name not in exported:
            stale.append(f"  {SEAMS}:{n}: {name[0]}.{name[1]} (no interface exports it)")
    for title, lines in [
        ("exports no other file names:", dead),
        (f"exports only test/ names (delete them, or list them in {SEAMS}):", test_only),
        (f"stale entries in {SEAMS}:", stale),
    ]:
        if lines:
            print(title)
            print("\n".join(lines))
    return 1 if dead or test_only or stale else 0


if __name__ == "__main__":
    sys.exit(main())
