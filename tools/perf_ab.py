#!/usr/bin/env python3
"""Paired A/B of the repository benchmark: a base tree against a head tree.

    python3 tools/perf_ab.py BASE_CHECKOUT HEAD_CHECKOUT
    python3 tools/perf_ab.py BASE.jsonl HEAD.jsonl

Given two checkouts, runs `perfbench/run.py --seed N --seconds SECONDS` in
each, PAIRS times (seeds 1..PAIRS), alternating which tree goes first, and
keeps the last line of every run (correct, attempted, failed, metrics).
Given two files holding one such line per run, compares those instead.

For every workload/metric of BENCHMARK.json's end_to_end list it prints the
median and quartiles of base and of head, the change of the medians, and
the bound.  A metric is WORSE when the head median is worse than the base
median by more than the bound, and unresolved when the base runs' own
quartile spread is wider than the bound (unless every head run reads
better than every base run): such runs cannot tell a change within the
bound from noise.  Exit status: 1 when a metric is WORSE or unresolved,
when a head run reports correct: false, or when head fails a larger share
of operations than base; 2 when a run produced no result line; 0
otherwise.
"""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
SECONDS = 5
ROOT = Path(__file__).resolve().parent.parent


def die(msg):
    print(f"perf_ab: {msg}", file=sys.stderr)
    sys.exit(2)


def run(checkout, seed):
    cmd = [sys.executable, "perfbench/run.py", "--seed", str(seed), "--seconds", str(SECONDS)]
    print(f"perf_ab: {checkout}: {' '.join(cmd[1:])}", file=sys.stderr, flush=True)
    r = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode not in (0, 1) or not lines:
        die(f"{checkout}: perfbench/run.py exited {r.returncode} without a result")
    return json.loads(lines[-1])


def collect(base, head):
    if Path(base).is_dir():
        sides = [(base, []), (head, [])]
        for i in range(PAIRS):
            for tree, runs in sides if i % 2 == 0 else sides[::-1]:
                runs.append(run(tree, seed=i + 1))
        print(f"host cores {os.cpu_count()}, {PAIRS} pairs, {SECONDS} s each")
        return sides[0][1], sides[1][1]
    read = lambda p: [json.loads(l) for l in Path(p).read_text().splitlines() if l.strip()]
    return read(base), read(head)


def quartiles(xs):
    return statistics.quantiles(xs, n=4) if len(xs) > 1 else [xs[0]] * 3


def failed_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def main():
    if len(sys.argv) != 3:
        die(__doc__)
    base, head = collect(sys.argv[1], sys.argv[2])
    bounds = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    print(f"{len(base)} base and {len(head)} head runs")
    problems = []
    for key in base[0]["metrics"]:
        m = next((b for b in bounds if key.rsplit("/", 1)[-1] == b["name"]), None)
        if m is None:
            continue
        if any(key not in r["metrics"] for r in head):
            problems.append(f"{key} is missing from a head run")
            continue
        bs = [r["metrics"][key]["value"] for r in base]
        hs = [r["metrics"][key]["value"] for r in head]
        (b1, b, b3), (h1, h, h3) = quartiles(bs), quartiles(hs)
        sign = 1 if m["better"] == "lower" else -1
        change = (h - b) / b if b else 0.0
        worse = sign * change
        spread = (b3 - b1) / b if b else 0.0
        all_better = max(sign * x for x in hs) < min(sign * x for x in bs)
        if worse > m["bound"]:
            verdict = "WORSE"
            problems.append(f"{key} is {worse:.1%} worse (bound {m['bound']:.0%})")
        elif spread > m["bound"] and not all_better:
            verdict = "unresolved"
            problems.append(f"{key} is unresolved: base quartile spread {spread:.1%} "
                            f"is wider than the bound {m['bound']:.0%}")
        else:
            verdict = "ok"
        b_text, h_text = f"{b:10.4g} ({b1:.4g}-{b3:.4g})", f"{h:10.4g} ({h1:.4g}-{h3:.4g})"
        print(f"{key:30s} base {b_text:26s} head {h_text:26s} {change:+7.1%}  "
              f"bound {m['bound']:.0%}  {verdict}")
    if not all(r["correct"] for r in head):
        problems.append("a head run reports correct: false")
    if failed_share(head) > failed_share(base):
        problems.append(f"failed share {failed_share(head):.3g} > base {failed_share(base):.3g}")
    for p in problems:
        print(f"FAIL: {p}")
    print("PASS" if not problems else f"FAIL: {len(problems)} problem(s)")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
