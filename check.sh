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

# One hook per hierarchy event: the hierarchy emits Trace events and
# Metrics windows its series off them (Metrics.start's Trace listener), so
# no hierarchy file names Metrics.
if grep -rnw Metrics lib/l1 lib/l2 lib/mem lib/tilelink lib/cpu lib/core; then
  echo "check.sh: Metrics named in the hierarchy (above); the hierarchy emits Trace events and Metrics reads them" >&2
  exit 1
fi

# One strategy vocabulary: persist strategies are named in Ds_bench alone,
# which serve, fleet, the figures and the crash campaign all read.
if grep -rln -- '-> "link-and-persist"' lib/ | grep -vx lib/workload/ds_bench.ml; then
  echo "check.sh: a strategy name table outside lib/workload/ds_bench.ml; use Ds_bench.spec_name" >&2
  exit 1
fi

# One durability judge: durable linearizability, and the verdict on a
# snapshot walk that loops, are checked and worded in Dlin alone, which the
# crash campaign and the fleet both call.
if grep -rlE 'durably-inserted|durably-deleted|phantom element|acked-prefix|amnesty|snapshot walk loops' lib/ \
  | grep -vx lib/audit/dlin.ml; then
  echo "check.sh: a durability verdict outside lib/audit/dlin.ml; judge it with Dlin" >&2
  exit 1
fi

# One structural judge: the hierarchy's inclusion, single-writer and
# skip-safety rules are checked and worded in Invariant.check_all alone,
# which the campaign, the Auditor, the fleet, the tests and the examples
# call.
if grep -rnE 'check_coherence|check_inclusion|check_invariants' lib bin examples; then
  echo "check.sh: a second structural checker (above); judge the hierarchy with Invariant.check_all" >&2
  exit 1
fi

# One per-dispatch callback: the Auditor observes from a run's stop
# predicate (Auditor.tick, in Campaign.run and Recovery.run), so neither
# System nor Thread carries an audit hook of its own.
if grep -rnE 'set_audit_hook|maybe_audit' lib bin examples; then
  echo "check.sh: an audit hook in the simulator (above); tick the Auditor from the run's stop predicate" >&2
  exit 1
fi

# One timed path: the untimed memory port (a flat word table with no
# caches and no clock) sizes the crash campaign's boundaries and nothing
# else, so no figure, serve, fleet or crash run can pick it up.  It may be
# named only where it is defined and in the campaign.
if grep -rnE '\.untimed\b|\buntimed[[:space:]]*\(\)' lib bin bench examples tools perfbench \
  --include='*.ml' --include='*.mli' \
  | grep -vE '^lib/persist/mem_port\.mli?:|^lib/audit/campaign\.ml:'; then
  echo "check.sh: the untimed memory port named outside lib/audit/campaign.ml (above); timed paths use Mem_port.timed" >&2
  exit 1
fi

# No polymorphic max/min/compare in the simulator core: on ints they cost
# a compare_val call (and a closure as a fold argument) where Int.max is
# one instruction.  Comments, definitions and qualified names pass.
python3 tools/lint_compare.py

# No dead exports: every val in a lib/ interface is named by some file
# other than its own module's .ml/.mli, by its qualified name (M.v through
# any path or module alias, or a bare v under a local or plain open of M).
# Delete an export nobody uses.  One that only test/ names fails as well,
# unless tools/test_seams.txt lists it with its reason.
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
