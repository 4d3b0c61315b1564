#!/usr/bin/env bash
# The full local CI gate: formatting, lints, release build, tests.
# Run from anywhere; operates on the workspace root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
# Not --all: that would also format the vendored stand-in crates in
# vendor/, which are path dependencies rather than workspace members.
cargo fmt -- --check

echo "==> one digest (FNV-1a written once under crates/)"
# Every fingerprint and checksum hashes through mcs_obs::digest. A second
# copy of the algorithm could drift from the first, so the FNV-1a offset
# basis may appear in one file only.
FNV_FILES="$(grep -rliE 'cbf2_?9ce4_?8422_?2325' crates || true)"
if [ "$(printf '%s' "${FNV_FILES}" | grep -c .)" -gt 1 ]; then
  echo "FNV-1a offset basis found in more than one file under crates/:"
  echo "${FNV_FILES}"
  exit 1
fi

echo "==> one binary reader (from_le_bytes only in mcs_obs::codec)"
# The MCSTRACE log and the MCSCLST1 wire protocol both decode through
# mcs_obs::codec::Reader; a second hand-rolled reader is a second place
# for truncation checks to drift.
LE_FILES="$(grep -rl 'from_le_bytes' crates || true)"
if [ -n "${LE_FILES}" ] && [ "${LE_FILES}" != "crates/obs/src/codec.rs" ]; then
  echo "from_le_bytes found outside crates/obs/src/codec.rs:"
  echo "${LE_FILES}"
  exit 1
fi

echo "==> one seed mixer (SplitMix64 written once under crates/)"
# Every seeded stream derives through mcs_obs::digest::mix64, so the
# SplitMix64 multiplier may appear in one file. crates/sim is exempt: its
# experiment RNG is a different, additive mix whose seeds drive every
# reproduced figure, and switching it would change them all.
MIX_FILES="$(grep -rliE 'bf58_?476d_?1ce4_?e5b9' crates --exclude-dir=sim || true)"
if [ "$(printf '%s' "${MIX_FILES}" | grep -c .)" -gt 1 ]; then
  echo "SplitMix64 multiplier found in more than one file under crates/:"
  echo "${MIX_FILES}"
  exit 1
fi

echo "==> one bid rule (IngestError's bid variants named only in mcs_platform::ingest)"
# The engine's intake and the cluster's router apply one bid rule,
# mcs_platform::ingest::Bid::check; a hand copy of it could drift from the
# original. Outside test code, only crates/platform/src/ingest.rs may name
# (so construct) the variants the rule returns. Each file under a src/
# directory counts up to its first #[cfg(test)] line; tests/ directories
# are test code throughout.
RULE_FILES="$(find crates -path '*/src/*' -name '*.rs' | sort | while read -r file; do
  awk '/#\[cfg\(test\)\]/ { exit }
       /IngestError::(InvalidCost|InvalidPos|EmptyTaskSet|UnknownTask|DuplicateTask)/ { print FILENAME; exit }' "${file}"
done)"
if [ -n "${RULE_FILES}" ] && [ "${RULE_FILES}" != "crates/platform/src/ingest.rs" ]; then
  echo "IngestError bid-rule variants named outside crates/platform/src/ingest.rs:"
  echo "${RULE_FILES}"
  exit 1
fi

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test -q --workspace

echo "==> worker-count determinism (platformd --workers 1 vs --workers 4)"
# The served path must not depend on how many threads clear it. Each
# shape (single-task, and multi-task with --multi 4) runs once on one
# worker with one payment thread and once on four of each; after the
# timing lines are filtered out, the outputs must diff empty.
# --snapshot-every 4 drains every fourth round, so one shard pool serves
# five drains on the same parked helpers.
# The multi-task shape also prints the clearing kernel's work counters
# (--profile). Which worker took which round decides the arena-history
# counters, so those lines are dropped; heap pops, stale re-evaluations
# and probe counts must still diff empty, which catches an exclusion run
# whose resumed work depends on the payment thread that priced it.
DET_DIR="$(mktemp -d)"
trap 'rm -rf "${DET_DIR}"' EXIT
ARENA_HISTORY='"(prepares|reuse_hits|sync_patched|sync_reflattened|seed_rebuilds|users_patched|users_appended|[a-z_]*resident_bytes)"'
for shape in single-task multi-task; do
  SHAPE_ARGS=()
  [ "${shape}" = multi-task ] && SHAPE_ARGS=(--multi 4 --profile)
  for workers in 1 4; do
    cargo run --release -p mcs-campaign --bin platformd -- \
      --rounds 20 --users 12 --snapshot-every 4 --seed 9 "${SHAPE_ARGS[@]}" \
      --workers "${workers}" --payment-threads "${workers}" \
      | grep -v -E 'ns|rounds/s|bids/s|in [0-9.]+m?s|"at":' \
      | grep -v -E "${ARENA_HISTORY}" \
      > "${DET_DIR}/${shape}-w${workers}.log"
  done
  diff "${DET_DIR}/${shape}-w1.log" "${DET_DIR}/${shape}-w4.log" || {
    echo "determinism: ${shape} output differs between 1 and 4 workers"; exit 1; }
done
grep -q '"heap_pops": [1-9]' "${DET_DIR}/multi-task-w1.log" || {
  echo "determinism: the multi-task run printed no kernel work counters"; exit 1; }
rm -rf "${DET_DIR}"
trap - EXIT
echo "determinism: 1 and 4 workers diff empty, single- and multi-task, kernel work included"

echo "==> paper claims (repro --quick verify)"
# Figures 5(a), 6, 8 and 9 run the FPTAS and the single-task critical
# bids end to end; every claim the reproduction checks must still hold.
# The exit status is the verdict; the grep pins the summary line.
REPRO_OUT="$(cargo run --release -p mcs-sim --bin repro -- --quick verify)"
echo "${REPRO_OUT}" | tail -1
echo "${REPRO_OUT}" | grep -q '^9/9 claims reproduced$' || {
  echo "repro verify: expected 9/9 claims reproduced"; exit 1; }

echo "==> payment_scaling bench smoke (scripts/bench.sh --smoke)"
# Bitwise fast/reference/warm-arena equivalence (multi-task, and the
# single-task prepared round against clone-and-rerun at n = 24 and 96)
# plus a timed n=10k end-to-end clear on the arena path.
bash scripts/bench.sh --smoke

echo "==> perfbench outcome gate (perfbench/run.py --workload all, seeds 1-10)"
# Every serving-path workload, briefly, at every recorded seed: each run
# folds the winners, quote and payout bits of a fixed round prefix into a
# digest and exits 1 when it differs from perfbench/digests.json, so a
# change that moves any outcome bit on the served path fails here. A run
# keeps going until its prefix is folded, so the short --seconds does
# not shrink what is checked.
for seed in 1 2 3 4 5 6 7 8 9 10; do
  python3 perfbench/run.py --workload all --seed "${seed}" --seconds 0.5 --trace 0
done

echo "==> scenario corpus smoke (mcs-fuzz --scenario all)"
# Every shipped scenario in scenarios/ must load, run clean at several
# worker × payment-thread combinations, match its pinned [baseline]
# bitwise, and (where a [strategy] section is present) survive the
# online strategy-proofness sweep. A scenario without a committed
# baseline fails this tier. The corpus carries the chaos runs too:
# seeded fault plans over the single- and multi-task mechanisms
# (chaos-single-task, chaos-multi-task, which also sheds), the overload
# soak (bounded backlog, every shed and deferred bid accounted), and the
# closed loop under chaos (chaos-campaign, closed-loop oracles).
cargo run --release -p mcs-harness --bin mcs-fuzz -- \
  --scenario all --verify-determinism

echo "==> chaos seed exploration (mcs-fuzz --seed 7 / --seed 42)"
# The two engine chaos scenarios re-seeded: a new seed draws a new bid
# stream and a new fault plan, so these runs have no pinned baseline;
# they must run clean and fingerprint identically across the worker ×
# payment-thread matrix.
for seed in 7 42; do
  for scenario in chaos-single-task chaos-multi-task; do
    cargo run --release -p mcs-harness --bin mcs-fuzz -- \
      --scenario "${scenario}" --seed "${seed}" --verify-determinism
  done
done

echo "==> cluster equivalence smoke (mcs-fuzz --scenario all --cluster --nodes 3 --verify-determinism)"
# Every pinned scenario deployed as a geo-sharded cluster: a 1-node and
# a 3-node loopback run (plus 2/4/8 under --verify-determinism) must
# produce bitwise-identical fingerprints, the in-process mirror oracle
# must agree, the three cluster chaos faults (node loss, partition,
# duplicate delivery) must fail over / quarantine / dedup without a
# silently divergent bit, and a TCP deployment over real ephemeral-port
# sockets must match loopback exactly (transport equivalence).
cargo run --release -p mcs-harness --bin mcs-fuzz -- \
  --scenario all --cluster --nodes 3 --verify-determinism

echo "==> cluster e2e smoke (platformd --nodes)"
# The same seed through 1-node and 3-node platformd cluster deployments
# must print the same deployment-invariant fingerprint.
CLUSTER_DIR="$(mktemp -d)"
trap 'rm -rf "${CLUSTER_DIR}"' EXIT
cargo run --release -p mcs-campaign --bin platformd -- \
  --nodes 1 --rounds 16 --users 24 --multi 4 --seed 42 \
  | tee "${CLUSTER_DIR}/one.log" | tail -1
cargo run --release -p mcs-campaign --bin platformd -- \
  --nodes 3 --rounds 16 --users 24 --multi 4 --seed 42 \
  | tee "${CLUSTER_DIR}/three.log" | tail -1
ONE="$(grep '^cluster: fingerprint' "${CLUSTER_DIR}/one.log")"
THREE="$(grep '^cluster: fingerprint' "${CLUSTER_DIR}/three.log")"
[ -n "${ONE}" ] && [ "${ONE}" = "${THREE}" ] || {
  echo "cluster smoke: 1-node (${ONE}) != 3-node (${THREE})"; exit 1; }
rm -rf "${CLUSTER_DIR}"
trap - EXIT
echo "cluster smoke: 1-node and 3-node deployments agree bitwise"

echo "==> campaign_convergence bench smoke (--test)"
cargo bench -p mcs-bench --bench campaign_convergence -- --test

echo "==> campaign e2e smoke (platformd --campaign, --workers 1 vs --workers 4)"
# A 30%-failure campaign must reach full coverage through residual
# re-auctions (each run's exit status asserts coverage), and its summary
# line, fingerprint included, must be the same at 1 and at 4 workers.
CAMPAIGN_DIR="$(mktemp -d)"
trap 'rm -rf "${CAMPAIGN_DIR}"' EXIT
for workers in 1 4; do
  cargo run --release -p mcs-campaign --bin platformd -- \
    --campaign --campaign-rounds 16 --failure-rate 0.3 --seed 42 \
    --workers "${workers}" --payment-threads "${workers}" \
    | tee "${CAMPAIGN_DIR}/w${workers}.log" | grep '^campaign: '
done
ONE="$(grep '^campaign: .* fingerprint ' "${CAMPAIGN_DIR}/w1.log")"
FOUR="$(grep '^campaign: .* fingerprint ' "${CAMPAIGN_DIR}/w4.log")"
[ -n "${ONE}" ] && [ "${ONE}" = "${FOUR}" ] || {
  echo "campaign smoke: 1 worker (${ONE}) != 4 workers (${FOUR})"; exit 1; }
rm -rf "${CAMPAIGN_DIR}"
trap - EXIT
echo "campaign smoke: 1 and 4 workers print the same summary"

echo "==> metrics endpoint smoke (platformd --metrics-addr --profile --slo-budget)"
# Serve a short run on a fixed port, scrape every endpoint, and check the
# Prometheus payload is well-formed. Scraping uses bash's /dev/tcp so the
# gate has no dependency on curl. Admission control is engaged with a
# watermark below the synthesized backlog so the shed counters are
# exercised live; the rounds are multi-task (--multi) because only the
# greedy multi-task path runs on the arena-backed clearing kernel whose
# profiling counters --profile drains into the mcs_kernel_* families; a
# deliberately generous SLO budget rides along and must report zero
# breaches — this run is calm by that budget's definition.
METRICS_PORT=19464
SMOKE_DIR="$(mktemp -d)"
cat > "${SMOKE_DIR}/slo-budget.json" <<'SLO'
{
  "max_ns_per_bid": 1e12,
  "stage_p99": [{"stage": "shard", "max_p99_ns": 1000000000000}]
}
SLO
cargo run --release -p mcs-campaign --bin platformd -- \
  --rounds 12 --users 10 --snapshot-every 6 --multi 3 \
  --admission-high 25 --admission-low 10 --clear-budget 8 \
  --profile --slo-budget "${SMOKE_DIR}/slo-budget.json" \
  --metrics-addr "127.0.0.1:${METRICS_PORT}" --hold-ms 4000 \
  > "${SMOKE_DIR}/platformd.log" &
PLATFORMD_PID=$!
trap 'kill "${PLATFORMD_PID}" 2>/dev/null || true; rm -rf "${SMOKE_DIR}"' EXIT
sleep 1
scrape() {
  exec 3<>"/dev/tcp/127.0.0.1/${METRICS_PORT}" || return 1
  printf 'GET %s HTTP/1.0\r\n\r\n' "$1" >&3
  cat <&3
  exec 3<&- 3>&-
}
for attempt in 1 2 3 4 5; do
  if PROM="$(scrape /metrics 2>/dev/null)" && [ -n "${PROM}" ]; then break; fi
  sleep 1
done
JSON="$(scrape /metrics.json)"
HEALTH="$(scrape /healthz)"
SLO_REPORT="$(scrape /slo)"
wait "${PLATFORMD_PID}"
trap 'rm -rf "${SMOKE_DIR}"' EXIT
echo "${PROM}" | grep -q '^mcs_bids_received_total ' || {
  echo "metrics smoke: mcs_bids_received_total missing"; exit 1; }
echo "${PROM}" | grep -q '^mcs_rounds_cleared_total ' || {
  echo "metrics smoke: mcs_rounds_cleared_total missing"; exit 1; }
echo "${PROM}" | grep -q '^mcs_stage_p99_ns{stage="allocate"}' || {
  echo "metrics smoke: labelled stage gauges missing"; exit 1; }
echo "${PROM}" | grep -q '^mcs_overpayment_ratio ' || {
  echo "metrics smoke: economics gauges missing"; exit 1; }
echo "${PROM}" | grep -Eq '^mcs_bids_shed_total [1-9]' || {
  echo "metrics smoke: mcs_bids_shed_total missing or zero under overload"; exit 1; }
echo "${PROM}" | grep -Eq '^mcs_rounds_partial_total [1-9]' || {
  echo "metrics smoke: mcs_rounds_partial_total missing or zero under overload"; exit 1; }
if echo "${PROM}" | grep -Eqi ' [+-]?(nan|inf)$'; then
  echo "metrics smoke: non-finite sample in Prometheus payload"; exit 1
fi
echo "${JSON}" | grep -q '"economics"' || {
  echo "metrics smoke: JSON snapshot missing economics"; exit 1; }
echo "${PROM}" | grep -q '^mcs_kernel_prepares_total ' || {
  echo "metrics smoke: kernel profiler families missing under --profile"; exit 1; }
echo "${PROM}" | grep -Eq '^mcs_kernel_heap_pops_total [1-9]' || {
  echo "metrics smoke: mcs_kernel_heap_pops_total missing or zero"; exit 1; }
echo "${HEALTH}" | grep -q '"status":"ok"' || {
  echo "metrics smoke: /healthz not ok: ${HEALTH}"; exit 1; }
echo "${HEALTH}" | grep -q '"rounds_cleared"' || {
  echo "metrics smoke: /healthz missing rounds_cleared"; exit 1; }
echo "${SLO_REPORT}" | grep -q '"breaches":\[\]' || {
  echo "metrics smoke: SLO breaches under a generous budget: ${SLO_REPORT}"; exit 1; }
grep -q 'slo: .* breached' "${SMOKE_DIR}/platformd.log" || {
  echo "metrics smoke: platformd printed no SLO verdict"; exit 1; }
if grep -q 'SLO BREACH' "${SMOKE_DIR}/platformd.log"; then
  echo "metrics smoke: platformd reported a breach in a calm run"; exit 1
fi
rm -rf "${SMOKE_DIR}"
trap - EXIT
echo "metrics smoke: all four endpoints healthy, SLO verdict clean"

echo "==> trace analysis smoke (mcs-fuzz --record-trace + mcs-obs)"
# Record the calm-baseline scenario's checksummed drive log, render it
# with mcs-obs, and require the trace to diff clean against itself —
# exit 0 from `diff` is the determinism contract CI leans on.
OBS_DIR="$(mktemp -d)"
trap 'rm -rf "${OBS_DIR}"' EXIT
cargo run --release -p mcs-harness --bin mcs-fuzz -- \
  --scenario calm-baseline --record-trace "${OBS_DIR}/calm.trace"
REPORT="$(cargo run --release -p mcs-obs --bin mcs-obs -- report "${OBS_DIR}/calm.trace")"
echo "${REPORT}" | grep -q 'MCSTRACE drive log' || {
  echo "trace smoke: mcs-obs report did not recognise the drive log"; exit 1; }
cargo run --release -p mcs-obs --bin mcs-obs -- \
  diff "${OBS_DIR}/calm.trace" "${OBS_DIR}/calm.trace" || {
  echo "trace smoke: a trace must diff clean against itself"; exit 1; }
rm -rf "${OBS_DIR}"
trap - EXIT
echo "trace smoke: report rendered, self-diff identical"

echo "CI green."
