#!/usr/bin/env bash
# Long-form chaos sweeps: the chaos and campaign scenarios of the corpus
# re-seeded over many seeds (each seed draws a new bid stream and, for
# a drawn [chaos] plan, a new fault plan), each verified clean and
# bitwise deterministic across worker/payment-thread counts.
#
#   scripts/fuzz.sh              # default seed sweep (~a minute)
#   scripts/fuzz.sh --scenarios  # scenario-corpus sweep instead
#   scripts/fuzz.sh --cluster    # geo-sharded deployment sweep
#   SEEDS="1 2 3" scripts/fuzz.sh
#
# A failing run prints its scenario, seed and fingerprint; replay it with
#   cargo run --release -p mcs-harness --bin mcs-fuzz -- \
#     --scenario NAME --seed S
set -euo pipefail
cd "$(dirname "$0")/.."

SEEDS="${SEEDS:-1 2 3 5 8 13 21 34}"
SCENARIOS="chaos-single-task chaos-multi-task chaos-campaign"

cargo build --release -p mcs-harness

if [ "${1:-}" = "--scenarios" ]; then
  # Sweep the shipped scenario corpus: every scenario must run clean,
  # hold its pinned baseline bitwise across the worker matrix, and
  # pass the online SP sweep where it declares a [strategy] section.
  status=0
  for toml in scenarios/*.toml; do
    name="$(basename "$toml" .toml)"
    if ! target/release/mcs-fuzz --scenario "$name" --verify-determinism; then
      status=1
    fi
  done
  if [ "$status" -ne 0 ]; then
    echo "fuzz: scenario sweep FAILED (see violations above)"
    exit "$status"
  fi
  echo "fuzz: scenario corpus clean and deterministic."
  exit 0
fi

if [ "${1:-}" = "--cluster" ]; then
  # Deployment sweep: the whole corpus through the cluster battery at
  # several node counts and band partitions. Every cell must be bitwise
  # the 1-node run, survive the three chaos faults, and (once per
  # configuration) match a real-socket TCP deployment.
  status=0
  for nodes in 2 3 5 8; do
    for bands in 4 6 8; do
      if ! target/release/mcs-fuzz \
          --cluster --nodes "$nodes" --bands "$bands" --verify-determinism; then
        status=1
      fi
    done
  done
  if [ "$status" -ne 0 ]; then
    echo "fuzz: cluster sweep FAILED (see violations above)"
    exit "$status"
  fi
  echo "fuzz: cluster deployments equivalent, chaos survived."
  exit 0
fi

status=0
for seed in $SEEDS; do
  for scenario in $SCENARIOS; do
    if ! target/release/mcs-fuzz \
        --scenario "$scenario" --seed "$seed" --verify-determinism; then
      status=1
    fi
  done
done

if [ "$status" -ne 0 ]; then
  echo "fuzz: FAILED (see violations above)"
  exit "$status"
fi
echo "fuzz: every re-seeded chaos scenario clean and deterministic."
