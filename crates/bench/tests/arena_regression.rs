//! Pinned-seed regression for the arena path at n = 10k: one synthetic
//! 50-task instance cleared end to end (allocation + whole-round
//! payments) through a persistent [`ClearContext`], digested with FNV-1a
//! and pinned. A change to the engine's float evaluation order, heap
//! tie-breaking, or delta-patch logic shows up here as a digest mismatch
//! long before it would surface in a campaign. Beside each digest, the
//! kernel's counted work (heap pops, stale re-evaluations, probes, index
//! syncs, critical bids carried over) is pinned exactly: one context
//! clears sequentially here, so the counts are deterministic, and a
//! change that adds work fails this test even when every outcome bit
//! holds.

use mcs_bench::{rebid, synthetic_multi_task};
use mcs_core::indexed::{ClearContext, ProfCounters};
use mcs_core::multi_task::MultiTaskMechanism;
use mcs_core::types::TypeProfile;
use mcs_obs::digest::Fnv1a;

const N: usize = 10_000;
const TASKS: usize = 50;
const SEED: u64 = 4242;

/// FNV-1a over a word stream, each word as its little-endian bytes.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hasher = Fnv1a::new();
    for word in words {
        hasher.write_u64(word);
    }
    hasher.finish()
}

/// Clears `profile` on `context` and digests `(winner id, critical PoS
/// bits)` in id order.
fn clear_digest(
    mechanism: &MultiTaskMechanism,
    context: &mut ClearContext,
    profile: &TypeProfile,
) -> (usize, u64) {
    let criticals = mechanism
        .allocate_with(context, profile)
        .expect("instance is feasible")
        .criticals()
        .expect("winners have critical bids");
    let digest = fnv(criticals
        .iter()
        .flat_map(|(user, pos)| [user.index() as u64, pos.value().to_bits()]));
    (criticals.len(), digest)
}

/// Drains `context`'s kernel counters, leaving out the resident-bytes
/// gauge (an allocator capacity, not counted work).
fn counted_work(context: &mut ClearContext) -> ProfCounters {
    ProfCounters {
        resident_bytes: 0,
        ..context.take_prof()
    }
}

#[test]
fn arena_clear_at_ten_thousand_users_is_pinned() {
    let profile = synthetic_multi_task(N, TASKS, 0.8, SEED);
    let mechanism = MultiTaskMechanism::new(10.0).expect("valid alpha");

    // Round 1: cold arena (first prepare flattens the profile).
    let mut context = ClearContext::new();
    let (winners, digest) = clear_digest(&mechanism, &mut context, &profile);

    // The pinned values. If an intentional engine change moves them,
    // re-pin — but only after explaining why the floats moved.
    assert_eq!(winners, 11, "winner count moved at n = {N}");
    assert_eq!(
        digest, 0xf9b6_1a94_7820_aedb,
        "critical-bid digest moved at n = {N}"
    );
    // The cold clear's counted work: one reflattening prepare, then the
    // allocation run and each winner's exclusion run resumed from it.
    assert_eq!(
        counted_work(&mut context),
        ProfCounters {
            prepares: 1,
            sync_reflattened: 1,
            seed_rebuilds: 1,
            heap_pops: 189_173,
            stale_reevals: 189_092,
            probes_requested: 660,
            probes_saved_loss_scan: 660,
            ..ProfCounters::default()
        },
        "cold clear's kernel work moved at n = {N}"
    );

    // Round 2: the same population re-published at a lower requirement —
    // the residual re-auction shape. The persistent arena delta-patches;
    // a fresh context is the oracle.
    let relaxed = synthetic_multi_task(N, TASKS, 0.75, SEED);
    let warm = clear_digest(&mechanism, &mut context, &relaxed);
    // Only requirements changed, so the sync patches no user row, and
    // no critical bid of round 1 carries over.
    assert_eq!(
        counted_work(&mut context),
        ProfCounters {
            prepares: 1,
            sync_patched: 1,
            seed_rebuilds: 1,
            heap_pops: 155_259,
            stale_reevals: 155_194,
            probes_requested: 600,
            probes_saved_loss_scan: 600,
            ..ProfCounters::default()
        },
        "warm clear's kernel work moved at n = {N}"
    );
    let fresh = clear_digest(&mechanism, &mut ClearContext::new(), &relaxed);
    assert_eq!(warm, fresh, "delta-patched round diverged from rebuild");

    // Round 3: 2 % of the rows re-bid in place (every 50th user takes the
    // row another draw gives her), requirements as round 2 left them.
    // Winners whose θ₋ᵢ run no churned row reaches keep their critical
    // bids; the rest are searched again. Here no churned row is a pick of
    // any winner's run or beats one, so all ten bids carry over and the
    // round costs its allocation run alone.
    let redrawn = synthetic_multi_task(N, TASKS, 0.75, SEED + 1);
    let churned = rebid(&relaxed, &redrawn, |i| i % 50 == 0);
    let carried = clear_digest(&mechanism, &mut context, &churned);
    assert_eq!(
        counted_work(&mut context),
        ProfCounters {
            prepares: 1,
            sync_patched: 1,
            seed_rebuilds: 1,
            users_patched: 200,
            heap_pops: 17_581,
            stale_reevals: 17_571,
            criticals_reused: 10,
            ..ProfCounters::default()
        },
        "churned clear's kernel work moved at n = {N}"
    );
    let fresh = clear_digest(&mechanism, &mut ClearContext::new(), &churned);
    assert_eq!(
        carried, fresh,
        "carried-over critical bids diverged from rebuild"
    );
}
