#!/usr/bin/env python3
"""Flat profile from sampler.c's output: samples per function, heaviest first.

    python3 tools/hostprof/symbolize.py hostprof.out [--top N] [--by module]

`--by module` sums the samples per OCaml module (`Skipit_l1.Dcache`,
`Stdlib.Hashtbl`, ...) instead, with the OCaml runtime, the GC, libc and
every other symbol that is not OCaml code in one `runtime` row and the
repository's C stubs (`skipit_*`) in a `C stubs` row.

Each PC is mapped through the recorded /proc/self/maps to its object file
and looked up in that object's `nm -n` symbol table (dynamic symbols for
stripped shared libraries).  Symbol addresses are taken to equal file
offsets plus the mapping's load bias, which holds for the usual one-to-one
PT_LOAD layout of executables and shared libraries.
"""
import argparse, bisect, collections, re, subprocess, sys


def symbols(path):
    for flags in (["-n", "--defined-only"], ["-n", "-D", "--defined-only"]):
        r = subprocess.run(["nm", *flags, path], capture_output=True, text=True)
        syms = [(int(a, 16), n) for a, k, n in
                (l.split(None, 2) for l in r.stdout.splitlines() if l.count(" ") >= 2)
                if k in "TtWw"]
        if syms:
            return [a for a, _ in syms], [n for _, n in syms]
    return [], []


def pretty(name):
    m = re.match(r"caml(.*?)(_\d+)?$", name)
    return m.group(1).replace("__", ".") if m and "__" in name else name


def module_of(name):
    """The OCaml module a symbol belongs to, or a row for code outside OCaml."""
    if name.startswith("caml") and "__" in name:
        return pretty(name).rsplit(".", 1)[0]
    return "C stubs" if name.startswith("skipit_") else "runtime"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("profile")
    ap.add_argument("--top", type=int, default=40)
    ap.add_argument("--by", choices=("function", "module"), default="function",
                    help="one row per function (default) or per OCaml module")
    args = ap.parse_args()
    maps, pcs = [], []
    with open(args.profile) as f:
        for line in f:
            if line.startswith("--"):
                break
            parts = line.split()
            if len(parts) >= 6 and "x" in parts[1]:
                lo, hi = (int(x, 16) for x in parts[0].split("-"))
                maps.append((lo, hi, lo - int(parts[2], 16), parts[5]))
        pcs = [int(l, 16) for l in f if l.strip()]
    tables, counts = {}, collections.Counter()
    for pc in pcs:
        where = next((m for m in maps if m[0] <= pc < m[1]), None)
        if where is None:
            counts["? (unmapped)"] += 1
            continue
        if where[3] not in tables:
            tables[where[3]] = symbols(where[3])
        addrs, names = tables[where[3]]
        i = bisect.bisect_right(addrs, pc - where[2]) - 1
        if args.by == "module":
            counts[module_of(names[i]) if i >= 0 else "runtime"] += 1
            continue
        obj = where[3].rsplit("/", 1)[-1]
        counts[f"{pretty(names[i]) if i >= 0 else '?'}  [{obj}]"] += 1
    total = max(1, len(pcs))
    print(f"{len(pcs)} samples")
    for name, n in counts.most_common(args.top):
        print(f"{100 * n / total:6.2f}% {n:8d}  {name}")


if __name__ == "__main__":
    sys.exit(main())
