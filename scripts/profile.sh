#!/usr/bin/env bash
# Profiles the payment_scaling hot loop under `perf`, so PRs can cite
# flamegraph-driven deltas instead of guessing at hotspots.
#
# The bench's `--profile [n]` mode pins one synthetic instance and its
# churned round (2 % of the users re-bid) and clears them in turn on a
# persistent arena in a tight loop for ~60 s — a stable target to hang a
# sampler on. Each clear delta-patches the index, re-runs the allocation
# and searches the critical bids of the winners the churn reaches; the
# others carry over from the round before, and the loop prints how many
# did. With `perf` installed this records and reports; with
# FLAMEGRAPH_DIR pointing at Brendan Gregg's FlameGraph scripts it also
# renders an SVG. Without `perf` it still runs the loop and prints
# wall-clock throughput, so the script degrades gracefully in containers
# without perf_event access.
#
# Usage:
#   scripts/profile.sh [n]        # profile churned warm clears at n users (default 10k)
#   PERF_OUT=perf.data scripts/profile.sh 100000
#
# For stage-level flames of a *recorded run* (no perf needed), feed a
# flight-recorder event snapshot through the trace CLI instead:
#   mcs-obs report events.json --flame | "${FLAMEGRAPH_DIR}/flamegraph.pl"
# — same collapsed-stack format this script pipes perf output into.
set -euo pipefail
cd "$(dirname "$0")/.."

N="${1:-10000}"
PERF_OUT="${PERF_OUT:-target/payment_scaling-perf.data}"

echo "==> building the bench target (release)"
cargo bench -p mcs-bench --bench payment_scaling --no-run
BIN="$(ls -t target/release/deps/payment_scaling-* 2>/dev/null \
  | grep -v '\.d$' | head -1)"
if [[ -z "${BIN}" ]]; then
  echo "profile: bench binary not found under target/release/deps" >&2
  exit 1
fi

if ! command -v perf >/dev/null 2>&1; then
  echo "==> perf not available; running the pinned loop unprofiled"
  "${BIN}" --profile "${N}"
  echo "profile: install perf (linux-tools) to record a flamegraph"
  exit 0
fi

echo "==> perf record: ${BIN} --profile ${N}"
if ! perf record -F 197 -g -o "${PERF_OUT}" -- "${BIN}" --profile "${N}"; then
  echo "==> perf record failed (perf_event may be restricted here);"
  echo "    falling back to the unprofiled loop"
  "${BIN}" --profile "${N}"
  exit 0
fi

echo "==> hottest symbols"
perf report -i "${PERF_OUT}" --stdio --percent-limit 1 | head -40

if [[ -n "${FLAMEGRAPH_DIR:-}" ]] \
  && [[ -x "${FLAMEGRAPH_DIR}/stackcollapse-perf.pl" ]] \
  && [[ -x "${FLAMEGRAPH_DIR}/flamegraph.pl" ]]; then
  SVG="target/payment_scaling-flame.svg"
  perf script -i "${PERF_OUT}" \
    | "${FLAMEGRAPH_DIR}/stackcollapse-perf.pl" \
    | "${FLAMEGRAPH_DIR}/flamegraph.pl" > "${SVG}"
  echo "==> flamegraph: ${SVG}"
else
  echo "==> set FLAMEGRAPH_DIR to render an SVG (perf data kept at ${PERF_OUT})"
fi
