#!/usr/bin/env python3
"""The repository benchmark: one command that builds the simulator, runs a
workload and reports its end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --seed N                 # every workload
    python3 perfbench/run.py --check                  # BENCHMARK.json vs harness

Run from anywhere inside a full checkout; paths resolve from this file.
Each measurement runs in a child process of perfbench/perf.exe, one at a
time: this script only builds, spawns, waits and aggregates.  The last line
of standard output is one JSON object (correct, attempted, failed,
metrics); the lines before it print every metric as
`workload metric value unit` with its quartiles and sample count.  Exit
status: 0 when every correctness check passed, 1 when one failed, 2 when
the benchmark could not run at all (incomplete tree, build failure,
crashed child) -- in that case no result line is printed.
"""

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ".bench_build"
EXE = ROOT / BUILD_DIR / "default" / HERE.name / "perf.exe"
OUT_DIR = HERE / "out"

# Set-up is timed from spawn to the child's "ready" line; the median of
# this many spawns, scaled by the median host speed measured between them
# (every SPEED_EVERY-th spawn), is reported.
SETUP_SPAWNS = 51
SPEED_EVERY = 10
# A run must end within 180 s; leave room for the build check and exit.
# (The first run in a fresh checkout also builds, which is not counted.)
RUN_DEADLINE_S = 170.0
# Host seconds one run spends beyond --seconds, averaged over untraced
# runs (build check, set-up spawns and host-speed measurements, warm-up
# trial, the last trial overrunning the budget: about 3-5 s) and traced
# ones (plus the traced trial and the layer probes: about 15-25 s).  --check uses it to verify that
# the 4 + 22 x workloads runs of an evaluation fit its time budget.
RUN_OVERHEAD_S = 6.0
BUILDS_S = 2 * 300.0
TOTAL_BUDGET_S = 3420.0

# The end-to-end metrics this script computes (see run_workload); their
# units, directions and bounds are those of BENCHMARK.json.
END_TO_END_NAMES = {"trial_s", "sim_ops_per_s", "setup_s", "peak_rss_mb"}

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH_RE = re.compile(r"[A-Za-z0-9_./-]{1,200}")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def die(msg):
    log(f"perfbench: {msg}")
    sys.exit(2)


def build():
    missing = [p for p in ("dune-project", "lib", f"{HERE.name}/perf.ml")
               if not (ROOT / p).exists()]
    if missing:
        die(f"incomplete source tree (missing {', '.join(missing)}); "
            "run from a full checkout")
    # The dune cache lives outside the checkout; keep every write inside it.
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--display", "quiet", f"./{HERE.name}/perf.exe"]
    try:
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True, timeout=900)
    except (OSError, subprocess.TimeoutExpired) as e:
        die(f"build did not run: {e}")
    if r.returncode != 0:
        log(r.stdout)
        die("build failed")


def harness_table(exe):
    r = subprocess.run([str(exe), "--list-metrics"], stdout=subprocess.PIPE,
                       text=True, timeout=60, check=True)
    return json.loads(r.stdout)


def check_spec(spec_path, table):
    """Problems with BENCHMARK.json: its own limits, then its agreement
    with the harness (workloads, metric table, per-layer map)."""
    problems = []

    def need(cond, msg):
        if not cond:
            problems.append(msg)
        return cond

    raw = Path(spec_path).read_bytes()
    need(len(raw) <= 64 * 1024, "BENCHMARK.json is larger than 64 KiB")
    spec = json.loads(raw)
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if not need(isinstance(spec, dict) and set(spec) == keys,
                f"top-level keys must be exactly {sorted(keys)}"):
        return problems

    def relative(p):
        return not p.startswith("/") and ".." not in p.split("/")

    cmd = spec["command"]
    need(isinstance(cmd, list) and 1 <= len(cmd) <= 32
         and all(isinstance(c, str) and len(c) <= 200 and relative(c) for c in cmd),
         "command must be 1-32 relative strings of at most 200 characters")
    paths = spec["paths"]
    need(isinstance(paths, list) and 1 <= len(paths) <= 16
         and all(isinstance(p, str) and PATH_RE.fullmatch(p) and relative(p) for p in paths),
         "paths must be 1-16 relative directory names")
    need(HERE.name in [p.rstrip("/") for p in paths], f"paths must hold {HERE.name}")
    rs = spec["run_seconds"]
    need(type(rs) is int and 1 <= rs <= 60, "run_seconds must be a whole number in 1..60")

    def entries(key, lo, hi, fields):
        xs = spec[key]
        if not need(isinstance(xs, list) and lo <= len(xs) <= hi,
                    f"{key} must hold {lo}..{hi} entries"):
            return []
        for x in xs:
            if need(isinstance(x, dict) and set(x) == fields,
                    f"{key} entry {x} must have exactly the keys {sorted(fields)}"):
                need(isinstance(x["name"], str) and NAME_RE.fullmatch(x["name"]),
                     f"{key}: bad name {x['name']!r}")
        return [x for x in xs if isinstance(x, dict) and set(x) == fields]

    workloads = entries("workloads", 2, 8, {"name", "why"})
    e2e = entries("end_to_end", 1, 16, {"name", "unit", "better", "bound"})
    per_layer = entries("per_layer", 1, 128, {"name", "unit", "better"})
    for w in workloads:
        need(isinstance(w["why"], str) and 0 < len(w["why"]) <= 200 and "\n" not in w["why"],
             f"workload {w['name']}: why must be one line of at most 200 characters")
    for m in e2e + per_layer:
        need(isinstance(m["unit"], str) and UNIT_RE.fullmatch(m["unit"]),
             f"{m['name']}: bad unit {m['unit']!r}")
        need(m["better"] in ("lower", "higher"), f"{m['name']}: better must be lower or higher")
    for m in e2e:
        b = m["bound"]
        need(type(b) in (int, float) and 0 < b <= 0.25, f"{m['name']}: bound must be in (0, 0.25]")
    names = [x["name"] for x in workloads + e2e + per_layer]
    need(len(names) == len(set(names)), "every name must be used once")
    setup = [m for m in e2e if m["name"] == "setup_s"]
    if need(len(setup) == 1, "end_to_end must hold setup_s"):
        need(setup[0]["unit"] == "s" and setup[0]["better"] == "lower",
             "setup_s must be in s, lower is better")
        need(all(setup[0]["bound"] >= m["bound"] for m in e2e), "setup_s must have the largest bound")

    # Agreement with the harness.
    need([(w["name"], w["why"]) for w in workloads]
         == [(w["name"], w["why"]) for w in table["workloads"]],
         "workloads differ from perf.exe's workload table")
    e2e_names = {m["name"] for m in e2e}
    need(e2e_names == END_TO_END_NAMES,
         f"end_to_end must name exactly the metrics run.py computes: {sorted(END_TO_END_NAMES)}")
    need([(m["name"], m["unit"], m["better"]) for m in per_layer]
         == [(m["name"], m["unit"], m["better"]) for m in table["per_layer"]],
         "per_layer differs from perf.exe's metric table")
    wnames = {w["name"] for w in table["workloads"]}
    results = {m["name"] for m in table["per_layer"] if m["role"] == "result"}
    for m in table["per_layer"]:
        if m["role"] == "result":
            need(m.get("workload") in wnames, f"{m['name']}: result of an unknown workload")
            continue
        targets = e2e_names if m["role"] == "host" else results
        need(m["moves"], f"{m['name']}: names no metric it moves")
        for t in m["moves"]:
            metric, _, w = t.partition("@")
            need(metric in targets and w in wnames,
                 f"{m['name']}: moves unknown {'end-to-end' if m['role'] == 'host' else 'result'} "
                 f"metric or workload {t!r}")
        need(set(m["steady"]) <= wnames, f"{m['name']}: steady names an unknown workload")

    runs = 4 + 22 * len(workloads)
    if type(rs) is int:
        total = runs * (rs + RUN_OVERHEAD_S) + BUILDS_S
        need(total <= TOTAL_BUDGET_S,
             f"{runs} runs of {rs}+{RUN_OVERHEAD_S:g} s plus builds take {total:.0f} s "
             f"> {TOTAL_BUDGET_S:g} s")
    return problems


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def child_cmd(workload, seed):
    return [str(EXE), "--workload", workload, "--seed", str(seed)]


def setup_seconds(workload, seed):
    """Spawn -> "ready" of one child that exits after set-up."""
    t0 = time.perf_counter()
    p = subprocess.Popen(child_cmd(workload, seed) + ["--setup-only"], cwd=ROOT,
                         stdout=subprocess.PIPE, text=True)
    try:
        line = p.stdout.readline()
        t1 = time.perf_counter()
        p.stdout.read()
        rc = p.wait(timeout=60)
    finally:
        if p.poll() is None:
            p.kill()
            p.wait()
    if line.strip() != "ready" or rc != 0:
        die(f"{workload}: set-up child failed (exit {rc})")
    return t1 - t0


def host_speed():
    """This host's speed relative to the reference host (perf.exe --calibrate)."""
    try:
        r = subprocess.run([str(EXE), "--calibrate"], cwd=ROOT, stdout=subprocess.PIPE,
                           text=True, timeout=60)
        if r.returncode == 0:
            return float(r.stdout)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        pass
    die("perf.exe --calibrate failed")


def measure(workload, seed, seconds, traced, deadline):
    cmd = child_cmd(workload, seed) + ["--seconds", str(seconds)]
    if traced:
        cmd.append("--traced")
    p = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = p.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        die(f"{workload}: child did not finish within the run's time limit")
    finally:
        if p.poll() is None:
            p.kill()
            p.wait()
    lines = out.splitlines()
    if p.returncode != 0 or len(lines) < 2 or lines[0] != "ready":
        die(f"{workload}: child failed (exit {p.returncode})")
    return json.loads(lines[-1])


def run_workload(workload, seed, seconds, traced, table, end_to_end, deadline):
    units = {m["name"]: m["unit"] for m in table["per_layer"]}
    setups, speeds = [], []
    if not traced:
        for i in range(SETUP_SPAWNS):
            setups.append(setup_seconds(workload, seed))
            if i % SPEED_EVERY == SPEED_EVERY // 2:
                speeds.append(host_speed())
    child = measure(workload, seed, seconds, traced, deadline)
    trials = child["trials"]
    if traced:
        metrics = {k: {"value": v, "unit": units[k]} for k, v in child["layers"].items()}
        for k, m in metrics.items():
            print(f"{workload} {k} {m['value']:.6g} {m['unit']}")
    else:
        setup_speed = statistics.median(speeds)
        scaled_setups = [s * setup_speed for s in setups]
        # value, then the samples whose quartiles are printed beside it
        values = {
            "trial_s": (child["trial_s"], [t["trial_s"] for t in trials]),
            "sim_ops_per_s": (child["sim_ops_per_s"], [t["ops"] / t["trial_s"] for t in trials]),
            "setup_s": (statistics.median(scaled_setups), scaled_setups),
            "peak_rss_mb": (child["peak_rss_mb"], [child["peak_rss_mb"]]),
        }
        metrics = {}
        for m in end_to_end:
            value, xs = values[m["name"]]
            q1, q3 = quartiles(xs)
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"{workload} {m['name']} {value:.6g} {m['unit']} "
                  f"q1 {q1:.6g} q3 {q3:.6g} n {len(xs)}")
        print(f"{workload} as measured: wall_s {child['wall_s']:.6g} s, "
              f"setup {statistics.median(setups):.6g} s; host speed {child['speed']:.4g} "
              f"in trials, {setup_speed:.4g} in set-up")
    print(f"{workload} sim_digest {child['sim_digest']}")
    for f in child["failures"]:
        print(f"{workload} FAILED {f}")
    for name, ok in child["checks"].items():
        if not ok:
            print(f"{workload} CHECK FAILED {name}")
    correct = not child["failures"] and all(child["checks"].values())
    return {
        "correct": correct,
        "attempted": child["attempted"],
        "failed": len(child["failures"]),
        "metrics": metrics,
        "sim_digest": child["sim_digest"],
        "checks": child["checks"],
        "wall_s": child["wall_s"],
        "speed": child["speed"],
        "trials": trials,
        "setup_s": setups,
        "setup_speed": speeds,
    }


def main():
    # On SIGTERM, unwind through the `finally` blocks that stop the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--check", action="store_true", help="check BENCHMARK.json and exit")
    ap.add_argument("--spec", default=str(ROOT / "BENCHMARK.json"))
    ap.add_argument("--exe", help="perf.exe to use for --check (default: build it)")
    args = ap.parse_args()

    if args.check and args.exe:
        exe = Path(args.exe).resolve()
    else:
        build()
        exe = EXE
    table = harness_table(exe)
    problems = check_spec(args.spec, table)
    if args.check:
        for p in problems:
            log(f"BENCHMARK.json: {p}")
        sys.exit(1 if problems else 0)
    if problems:
        die("BENCHMARK.json disagrees with the harness; run with --check")

    names = [w["name"] for w in table["workloads"]]
    if args.workload == "all":
        chosen = names
    elif args.workload in names:
        chosen = [args.workload]
    else:
        die(f"unknown workload {args.workload!r} (one of {', '.join(names)})")
    spec = json.loads(Path(args.spec).read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    results = {}
    for w in chosen:
        # The deadline starts after the build, which may take longer on a
        # fresh checkout; each workload gets a full run's time.
        deadline = time.monotonic() + RUN_DEADLINE_S
        results[w] = run_workload(w, args.seed, seconds, args.trace == 1, table,
                                  spec["end_to_end"], deadline)

    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "results.json", "w") as f:
        json.dump({"seed": args.seed, "seconds": seconds, "trace": args.trace,
                   "workloads": results}, f, indent=1)
    if len(chosen) == 1:
        metrics = results[chosen[0]]["metrics"]
    else:
        metrics = {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
