#!/bin/sh
# Repo health check: full build + test suite, plus a guard against ever
# staging dune build artifacts again (the _build/ tree was removed from
# version control and is covered by .gitignore).
set -eu
cd "$(dirname "$0")"

if git diff --cached --name-only --diff-filter=d 2>/dev/null | grep -q "^_build/"; then
  echo "check.sh: _build/ files are staged; unstage them (git restore --staged _build)" >&2
  exit 1
fi

# Build mode: the default profile (dune-workspace) must compile lib/
# without -opaque, so calls across modules can be inlined, and with dune's
# dev warning set as errors (the root dune file's env stanza), and C
# stubs with warnings as errors.
args=$(dune rules lib/sim/.skipit_sim.objs/native/skipit_sim__Rng.cmx | sed 's/^ *//')
if printf '%s\n' "$args" | grep -qxF -e -opaque; then
  echo "check.sh: lib/ is compiled with -opaque (is dune-workspace missing?)" >&2
  exit 1
fi
for flag in '@1..3@5..28@30..39@43@46..47@49..57@61..62-40' -strict-sequence \
  -strict-formats -short-paths -keep-locs -g; do
  printf '%s\n' "$args" | grep -qxF -e "$flag" \
    || { echo "check.sh: lib/ is compiled without $flag" >&2; exit 1; }
done
# The same env stanza makes C stub warnings errors, for every stub in lib/.
for stub in $(find lib -name '*.c' | sort); do
  dune rules "${stub%.c}.o" | sed 's/^ *//' | grep -qxF -e -Werror \
    || { echo "check.sh: $stub is compiled without -Werror" >&2; exit 1; }
done

# One fork path: crash trials copy worlds with the typed copy_into, so
# Marshal stays out of lib/ (tests may still use it as the oracle).
if grep -rnw Marshal lib/; then
  echo "check.sh: Marshal appears under lib/; copy worlds with copy_into" >&2
  exit 1
fi

# One strategy vocabulary: persist strategies are named in Ds_bench alone,
# which serve, fleet, the figures and the crash campaign all read.
if grep -rln -- '-> "link-and-persist"' lib/ | grep -vx lib/workload/ds_bench.ml; then
  echo "check.sh: a strategy name table outside lib/workload/ds_bench.ml; use Ds_bench.spec_name" >&2
  exit 1
fi

# No polymorphic max/min/compare in the simulator core: on ints they cost
# a compare_val call (and a closure as a fold argument) where Int.max is
# one instruction.  Comments, definitions and qualified names pass.
python3 tools/lint_compare.py

# No dead exports: every val in a lib/ interface is named by some file
# other than its own module's .ml/.mli, by its qualified name (M.v through
# any path or module alias, or a bare v under a local or plain open of M).
# Delete an export nobody uses.
python3 tools/lint_exports.py || { echo "check.sh: dead exports (above)" >&2; exit 1; }

dune build
dune runtest
# The host profiler's sampler (tools/hostprof) is C outside the OCaml
# build graph's libraries; building its alias keeps it compiling.
dune build @tools/hostprof/hostprof

# Workload smoke: one skewed+churned serve run must conserve requests
# (served + shed = offered, no leaked waiting-room slots).
dune exec bin/skipit_sim.exe -- serve --quick --keys zipf:0.99 --churn 4000 \
  --mix 80:20 --seed 11 | grep -q "conservation: ok" \
  || { echo "check.sh: workload smoke failed (no conservation line)" >&2; exit 1; }

echo "check.sh: OK"
