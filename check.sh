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
