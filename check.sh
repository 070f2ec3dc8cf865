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
# The same env stanza makes C stub warnings errors.
dune rules lib/sim/rng_stubs.o | sed 's/^ *//' | grep -qxF -e -Werror \
  || { echo "check.sh: lib/sim/rng_stubs.c is compiled without -Werror" >&2; exit 1; }

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
