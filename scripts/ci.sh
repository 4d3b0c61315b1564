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

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test -q --workspace

echo "==> payment_scaling bench smoke (scripts/bench.sh --smoke)"
# Bitwise fast/reference/warm-arena equivalence plus a timed n=10k
# end-to-end clear on the arena path.
bash scripts/bench.sh --smoke

echo "==> perfbench outcome gate (perfbench/run.py --workload all --seed 1)"
# Every serving-path workload, briefly, at seed 1: each run folds the
# winners, quote and payout bits of a fixed round prefix into a digest
# and exits 1 when it differs from perfbench/digests.json, so a change
# that moves any outcome bit on the served path fails here.
python3 perfbench/run.py --workload all --seed 1 --seconds 2 --trace 0

echo "==> chaos smoke (mcs-fuzz --ci-smoke)"
cargo run --release -p mcs-harness --bin mcs-fuzz -- --ci-smoke

echo "==> overload soak smoke (mcs-fuzz --soak --ci-smoke)"
# Every round oversubscribed 10x: the backlog must stay bounded by the
# watermark, every shed bid must be accounted, partial clears must
# quarantine their deferred tail, and the fingerprint must stay
# deterministic across worker counts.
cargo run --release -p mcs-harness --bin mcs-fuzz -- --soak --ci-smoke

echo "==> closed-loop campaign smoke (mcs-fuzz --campaign --ci-smoke)"
# Seeded auction campaigns across failure rates, with and without chaos
# faults layered on: residual monotonicity, termination, calibration
# sanity, payout conservation, and fingerprint determinism must all hold.
cargo run --release -p mcs-harness --bin mcs-fuzz -- --campaign --ci-smoke

echo "==> scenario corpus smoke (mcs-fuzz --scenario all)"
# Every shipped scenario in scenarios/ must load, run clean at several
# worker × payment-thread combinations, match its pinned [baseline]
# bitwise, and (where a [strategy] section is present) survive the
# online strategy-proofness sweep. A scenario without a committed
# baseline fails this tier.
cargo run --release -p mcs-harness --bin mcs-fuzz -- \
  --scenario all --verify-determinism

echo "==> cluster equivalence smoke (mcs-fuzz --cluster --nodes 3 --verify-determinism)"
# Every pinned scenario deployed as a geo-sharded cluster: a 1-node and
# a 3-node loopback run (plus 2/4/8 under --verify-determinism) must
# produce bitwise-identical fingerprints, the in-process mirror oracle
# must agree, the three cluster chaos faults (node loss, partition,
# duplicate delivery) must fail over / quarantine / dedup without a
# silently divergent bit, and a TCP deployment over real ephemeral-port
# sockets must match loopback exactly (transport equivalence).
cargo run --release -p mcs-harness --bin mcs-fuzz -- \
  --cluster --nodes 3 --verify-determinism

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

echo "==> campaign e2e smoke (platformd --campaign)"
# A 30%-failure campaign must reach full coverage through residual
# re-auctions; exit status asserts coverage.
cargo run --release -p mcs-campaign --bin platformd -- \
  --campaign --campaign-rounds 16 --failure-rate 0.3 --seed 42

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
