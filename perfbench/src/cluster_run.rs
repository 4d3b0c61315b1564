//! The cluster workload: one `Cluster::run_round` per round over a
//! loopback deployment, driven by one thread.
//!
//! The traced phase swaps the stock loopback for [`TracedLoopback`],
//! which performs the same exchange step by step with the public wire
//! codec and `NodeServer::handle`, timing each step.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use mcs_cluster::wire::{
    decode_request, decode_response, encode_request, encode_response, frame, unframe,
};
use mcs_cluster::{
    ground_truth, route_bids, Cluster, ClusterConfig, ClusterOutcome, Endpoint, NodeServer,
    NodeTransport, QuarantineCause, Request, Response, Role, TaskSite, Topology, TransportError,
};
use mcs_core::types::{Task, TaskId};
use mcs_mobility::grid::{Cell as GridCell, CityGrid};
use mcs_platform::ingest::Bid;

use crate::digest::{fold_round, quarantined, RunDigest};
use crate::report::{end_to_end, Metric, Partition, Report};
use crate::stats::{ns, peak_rss_mib, process_cpu, ratio, Slices};
use crate::{more_setups, warmup_s, Options};

/// The cluster workload.
#[derive(Debug)]
pub struct ClusterWorkload {
    pub topology: Topology,
    pub config: ClusterConfig,
    /// Rounds folded into the outcome digest.
    pub digest_rounds: usize,
    /// The rounds' bids, cycled through.
    pub rounds: Vec<Vec<Bid>>,
}

/// An 8×4 grid cut into `bands` vertical bands, each publishing two
/// tasks at `requirement`: task `2b` at the band's top-left cell and
/// task `2b + 1` at its bottom-right cell.
pub fn band_topology(bands: u32, requirement: f64) -> Topology {
    let width = 2 * bands;
    let grid = CityGrid::new(width, 4, 1.0);
    let sites = (0..bands)
        .flat_map(|b| {
            [
                (2 * b, GridCell { x: 2 * b, y: 0 }),
                (2 * b + 1, GridCell { x: 2 * b + 1, y: 3 }),
            ]
        })
        .map(|(task, cell)| TaskSite {
            task: Task::with_requirement(TaskId::new(task), requirement)
                .expect("valid requirement"),
            cell,
        })
        .collect();
    Topology::bands(grid, bands as usize, sites).expect("bands tile the grid")
}

/// Time and bytes spent in each step of the node exchanges.
#[derive(Debug, Default, Clone, Copy)]
struct TransportSpans {
    calls: Duration,
    codec: Duration,
    clear: Duration,
    replicate: Duration,
    other: Duration,
    bytes: u64,
}

/// A loopback transport that times each step of the exchange: encode,
/// frame, unframe and decode on both legs, and the node's `handle`.
pub struct TracedLoopback {
    replicas: BTreeMap<(u32, Role), RefCell<NodeServer>>,
    spans: Cell<TransportSpans>,
}

impl TracedLoopback {
    /// The same deployment `Cluster::loopback` builds: a primary and a
    /// follower per node.
    pub fn new(topology: &Topology, config: &ClusterConfig) -> Self {
        let mut replicas = BTreeMap::new();
        for node in 0..config.nodes {
            for (role, primary) in [(Role::Primary, true), (Role::Follower, false)] {
                let server = NodeServer::new(topology, config.params, config.nodes, node, primary);
                replicas.insert((node, role), RefCell::new(server));
            }
        }
        TracedLoopback {
            replicas,
            spans: Cell::new(TransportSpans::default()),
        }
    }
}

fn protocol(error: impl std::fmt::Display) -> TransportError {
    TransportError::Protocol(error.to_string())
}

impl NodeTransport for TracedLoopback {
    fn call(&self, endpoint: Endpoint, request: &Request) -> Result<Response, TransportError> {
        let start = Instant::now();
        let server = self
            .replicas
            .get(&(endpoint.node, endpoint.role))
            .ok_or(TransportError::Unreachable(endpoint))?;
        let mut spans = self.spans.get();

        let t = Instant::now();
        let sent = frame(&encode_request(request));
        let decoded = unframe(&sent).and_then(decode_request).map_err(protocol)?;
        spans.codec += t.elapsed();

        let t = Instant::now();
        let response = server.borrow_mut().handle(&decoded);
        let handled = t.elapsed();
        match request {
            Request::Clear { .. } => spans.clear += handled,
            Request::PullDelta { .. } | Request::ApplyDelta { .. } => spans.replicate += handled,
            _ => spans.other += handled,
        }

        let t = Instant::now();
        let returned = frame(&encode_response(&response));
        let result = unframe(&returned)
            .and_then(decode_response)
            .map_err(protocol);
        spans.codec += t.elapsed();

        spans.bytes += (sent.len() + returned.len()) as u64;
        spans.calls += start.elapsed();
        self.spans.set(spans);
        result
    }
}

/// The running outcome digest of a phase.
struct Digest {
    open: Option<RunDigest>,
    value: Option<u64>,
    /// The deployment-invariant fingerprint after the digest rounds.
    fingerprint: u64,
    peak_rss_mb: f64,
}

impl Digest {
    fn new() -> Self {
        Digest {
            open: Some(RunDigest::default()),
            value: None,
            fingerprint: 0,
            peak_rss_mb: 0.0,
        }
    }

    /// Folds the settled sub-rounds of `round` while the digest is open;
    /// closes it with the ledger total after the last digest round.
    fn fold(&mut self, outcome: &ClusterOutcome, round: u64, limit: usize, mutate: bool) -> bool {
        let Some(open) = self.open.as_mut() else {
            return false;
        };
        for (&(r, shard), cleared) in outcome.results.range((round, 0)..(round + 1, 0)) {
            let payouts = &outcome.settlements[&(r, shard)].payouts;
            let key = [r, u64::from(shard)];
            open.push(fold_round(&key, cleared, payouts, mutate && r == 0));
        }
        for quarantine in outcome.quarantines.iter().filter(|q| q.round == round) {
            open.push(quarantined(&[quarantine.round]));
        }
        if round + 1 < limit as u64 {
            return false;
        }
        let open = self.open.take().expect("digest is open");
        self.value = Some(open.finish(outcome.ledger.total_paid()));
        self.peak_rss_mb = peak_rss_mib();
        true
    }
}

/// What one phase (set-up, warm-up, timed loop) measured.
struct Phase {
    digest: u64,
    fingerprint: u64,
    setup_s: Vec<f64>,
    slices: Slices,
    peak_rss_mb: f64,
    /// Over the whole phase.
    attempted: u64,
    failed: u64,
    /// The timed loop only, from here on.
    run_round: Duration,
    route: Duration,
    transport: TransportSpans,
    rounds: u64,
    submitted: u64,
    accepted: u64,
    straddlers: u64,
    settled: u64,
}

/// Bids of `round` that did not settle: rejected at routing, or in a
/// quarantined sub-round.
fn unsettled(outcome: &ClusterOutcome, round: u64, rejected: usize, submitted: usize) -> u64 {
    let mut lost = rejected as u64;
    for quarantine in outcome.quarantines.iter().filter(|q| q.round == round) {
        lost = match quarantine.cause {
            QuarantineCause::Shard { bidders, .. } => lost + bidders,
            QuarantineCause::Partition { .. } => submitted as u64,
        };
    }
    lost.min(submitted as u64)
}

fn run_phase<T: NodeTransport>(
    wl: &ClusterWorkload,
    opts: &Options,
    build: impl Fn() -> Cluster<T>,
    spans: impl Fn(&Cluster<T>) -> TransportSpans,
    traced: bool,
    seconds: f64,
) -> Phase {
    let round_bids = |k: usize| &wl.rounds[k % wl.rounds.len()];
    let mut digest = Digest::new();
    let mut setup_s = Vec::new();
    let mut built = None;
    while more_setups(&setup_s, !opts.trace) {
        drop(built.take());
        let start = Instant::now();
        let mut cluster = build();
        cluster.run_round(round_bids(0)).expect("protocol holds");
        setup_s.push(start.elapsed().as_secs_f64());
        built = Some(cluster);
    }
    let mut cluster = built.expect("at least one set-up");
    let first = round_bids(0);
    let mut attempted = first.len() as u64;
    let mut failed = unsettled(cluster.outcome(), 0, 0, first.len());
    if digest.fold(cluster.outcome(), 0, wl.digest_rounds, opts.mutate) {
        digest.fingerprint = cluster.fingerprint();
    }

    // Unmeasured warm-up rounds, then the timed loop. The loop outlasts
    // its seconds if the digest rounds have not all settled yet.
    let warm_end = Instant::now() + Duration::from_secs_f64(warmup_s(seconds));
    let deadline = warm_end + Duration::from_secs_f64(seconds);
    let mut spans_before = None;
    let mut slices = Slices::new(seconds);
    let (mut run_round, mut route) = (Duration::ZERO, Duration::ZERO);
    let (mut rounds, mut submitted, mut accepted, mut straddlers, mut settled) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut k = 1usize;
    while Instant::now() < deadline || digest.value.is_none() {
        let measuring = Instant::now() >= warm_end;
        if measuring && spans_before.is_none() {
            spans_before = Some(spans(&cluster));
        }
        let bids = round_bids(k);
        k += 1;
        if traced && measuring {
            // Route once more outside the measured step: the cost of the
            // routing `run_round` performs, and the straddler share.
            let t = Instant::now();
            let routed = route_bids(cluster.topology(), bids);
            route += t.elapsed();
            accepted += routed.accepted() as u64;
            straddlers += routed.straddlers.len() as u64;
        }
        let cpu_start = process_cpu();
        let start = Instant::now();
        let report = cluster.run_round(bids).expect("protocol holds");
        let elapsed = start.elapsed();
        let cpu_used = process_cpu() - cpu_start;
        // Bookkeeping below is outside the measured step.
        if digest.fold(
            cluster.outcome(),
            report.round,
            wl.digest_rounds,
            opts.mutate,
        ) {
            digest.fingerprint = cluster.fingerprint();
        }
        let lost = unsettled(cluster.outcome(), report.round, report.rejected, bids.len());
        attempted += bids.len() as u64;
        failed += lost;
        if !measuring {
            continue;
        }
        submitted += bids.len() as u64;
        settled += bids.len() as u64 - lost;
        rounds += 1;
        run_round += elapsed;
        let latency_ms = elapsed.as_secs_f64() * 1e3;
        slices.push(elapsed, cpu_used, bids.len() as u64 - lost, &[latency_ms]);
    }
    let before = spans_before.expect("the timed loop ran");
    let after = spans(&cluster);
    Phase {
        digest: digest.value.expect("digest closes within the run"),
        fingerprint: digest.fingerprint,
        setup_s,
        slices,
        peak_rss_mb: digest.peak_rss_mb,
        attempted,
        failed,
        run_round,
        route,
        transport: TransportSpans {
            calls: after.calls - before.calls,
            codec: after.codec - before.codec,
            clear: after.clear - before.clear,
            replicate: after.replicate - before.replicate,
            other: after.other - before.other,
            bytes: after.bytes - before.bytes,
        },
        rounds,
        submitted,
        accepted,
        straddlers,
        settled,
    }
}

/// Checks the digest rounds against the transport-free
/// `mcs_cluster::ground_truth` oracle.
fn check_ground_truth(wl: &ClusterWorkload, phase: &Phase, report: &mut Report) {
    let rounds: Vec<_> = (0..wl.digest_rounds)
        .map(|k| wl.rounds[k % wl.rounds.len()].clone())
        .collect();
    let truth = ground_truth(&wl.topology, wl.config.params, &rounds);
    let mut digest = Digest::new();
    for round in 0..wl.digest_rounds as u64 {
        digest.fold(&truth, round, wl.digest_rounds, false);
    }
    let expected = digest.value.expect("oracle digest closes");
    report.check(
        "ground_truth",
        expected == phase.digest && truth.fingerprint() == phase.fingerprint,
        format!(
            "digest {:016x} vs oracle {:016x}; fingerprint {:016x} vs oracle {:016x}",
            phase.digest,
            expected,
            phase.fingerprint,
            truth.fingerprint()
        ),
    );
}

pub fn run(wl: &ClusterWorkload, opts: &Options) -> Report {
    let mut report = Report::default();
    let seconds = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let plain = run_phase(
        wl,
        opts,
        || Cluster::loopback(wl.topology.clone(), wl.config),
        |_| TransportSpans::default(),
        false,
        seconds,
    );
    report.digest = plain.digest;
    report.digest_rounds = wl.digest_rounds;
    report.attempted = plain.attempted;
    report.failed = plain.failed;
    report.rounds = plain.rounds;
    report.check(
        "settled",
        plain.settled > 0,
        format!("{} bids settled in {} rounds", plain.settled, plain.rounds),
    );
    if opts.expect_digest.is_none() {
        check_ground_truth(wl, &plain, &mut report);
    }
    if !opts.trace {
        report.metrics = end_to_end(plain.setup_s, &plain.slices, plain.peak_rss_mb);
        return report;
    }

    let traced = run_phase(
        wl,
        opts,
        || {
            let transport = TracedLoopback::new(&wl.topology, &wl.config);
            Cluster::new(wl.topology.clone(), wl.config, transport)
        },
        |cluster| cluster.transport().spans.get(),
        true,
        seconds,
    );
    report.check(
        "traced_equals_untraced",
        traced.digest == plain.digest && traced.fingerprint == plain.fingerprint,
        format!(
            "untraced {:016x}/{:016x}, traced {:016x}/{:016x}",
            plain.digest, plain.fingerprint, traced.digest, traced.fingerprint
        ),
    );
    report.attempted += traced.attempted;
    report.failed += traced.failed;
    let b = traced.settled as f64;
    let t = traced.transport;
    let (run_round, route, calls) = (ns(traced.run_round), ns(traced.route), ns(t.calls));
    let (codec, clear, replicate, other) = (ns(t.codec), ns(t.clear), ns(t.replicate), ns(t.other));
    report.partitions = vec![
        Partition::of(
            "run_round",
            run_round,
            vec![("cluster.route", route), ("transport", calls)],
            "cluster.coordinator_self",
        ),
        Partition::of(
            "transport",
            calls,
            vec![
                ("cluster.codec", codec),
                ("cluster.node_clear", clear),
                ("cluster.replicate", replicate),
                ("cluster.node_other", other),
            ],
            "cluster.transport.unattributed",
        ),
    ];
    let plain_rate = ratio(plain.settled as f64, plain.run_round.as_secs_f64());
    let traced_rate = ratio(b, traced.run_round.as_secs_f64());
    report.metrics = vec![
        Metric::new(
            "cluster.route.ns_per_bid",
            "ns",
            ratio(route, traced.submitted as f64),
        ),
        Metric::new(
            "cluster.straddler_frac",
            "frac",
            ratio(traced.straddlers as f64, traced.accepted as f64),
        ),
        Metric::new("cluster.codec.ns_per_bid", "ns", ratio(codec, b)),
        Metric::new("cluster.wire_bytes_per_bid", "B", ratio(t.bytes as f64, b)),
        Metric::new("cluster.node_clear.ns_per_bid", "ns", ratio(clear, b)),
        Metric::new(
            "cluster.replicate.ns_per_round",
            "ns",
            ratio(replicate, traced.rounds as f64),
        ),
        Metric::new(
            "cluster.coordinator_self.ns_per_bid",
            "ns",
            ratio(run_round - route - calls, b),
        ),
        Metric::new(
            "cluster.transport.unattributed_ns_per_bid",
            "ns",
            ratio(calls - codec - clear - replicate - other, b),
        ),
        Metric::new(
            "obs.tracing_overhead_frac",
            "frac",
            1.0 - ratio(traced_rate, plain_rate),
        ),
    ];
    report
}
