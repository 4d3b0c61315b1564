//! Merging per-shard trace rings into one cluster timeline.
//!
//! Each cluster region shard records its own flight-recorder ring with a
//! logical clock, so two shards' `seq`/`at` values are incomparable —
//! shard 3's event 17 says nothing about shard 5's event 17.
//! [`merge_shard_traces`] imposes the cluster's canonical order:
//! events sort by `(round, shard, per-shard seq)` and are renumbered
//! with fresh global `seq`/`at` logical clocks. The result is
//! deterministic for any arrival order of the per-shard snapshots, so
//! merged cluster traces diff cleanly across runs and deployments.

use crate::event::TraceEvent;

/// One event of a merged cluster timeline: the shard it came from plus
/// the renumbered event.
#[derive(Debug, Clone, PartialEq)]
pub struct MergedTraceEvent {
    /// The shard (region) whose engine recorded the event.
    pub shard: u32,
    /// The event, with `seq` and `at` renumbered to the global logical
    /// clock (0, 1, 2, …) in canonical order.
    pub event: TraceEvent,
}

/// Merges per-shard trace snapshots into one canonically-ordered,
/// renumbered timeline.
///
/// Events are ordered by `(round, shard, original seq)` — all of round
/// 0 before all of round 1, shards ascending within a round, each
/// shard's own recording order within that. `seq` and `at` are then
/// reassigned from the global logical clock. Input order of the shard
/// snapshots does not matter; duplicate shard ids merge stably.
pub fn merge_shard_traces(shards: &[(u32, Vec<TraceEvent>)]) -> Vec<MergedTraceEvent> {
    let mut merged: Vec<MergedTraceEvent> = shards
        .iter()
        .flat_map(|(shard, events)| {
            events.iter().map(|event| MergedTraceEvent {
                shard: *shard,
                event: event.clone(),
            })
        })
        .collect();
    merged.sort_by_key(|entry| (entry.event.round, entry.shard, entry.event.seq));
    for (index, entry) in merged.iter_mut().enumerate() {
        entry.event.seq = index as u64;
        entry.event.at = index as u64;
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Stage};

    fn event(seq: u64, round: u64, kind: EventKind) -> TraceEvent {
        TraceEvent {
            seq,
            at: seq,
            kind,
            stage: Some(Stage::Shard),
            round,
            a: 0,
            b: 0,
            c: 0,
        }
    }

    #[test]
    fn merge_orders_by_round_then_shard_then_seq() {
        let shard2 = vec![
            event(0, 0, EventKind::RoundClosed),
            event(1, 1, EventKind::RoundClosed),
        ];
        let shard0 = vec![
            event(0, 0, EventKind::RoundCleared),
            event(1, 1, EventKind::RoundCleared),
        ];
        let merged = merge_shard_traces(&[(2, shard2), (0, shard0)]);
        let order: Vec<(u64, u32)> = merged
            .iter()
            .map(|entry| (entry.event.round, entry.shard))
            .collect();
        assert_eq!(order, vec![(0, 0), (0, 2), (1, 0), (1, 2)]);
        // Renumbered to a fresh global logical clock.
        let seqs: Vec<u64> = merged.iter().map(|entry| entry.event.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        assert!(merged.iter().all(|entry| entry.event.at == entry.event.seq));
    }

    #[test]
    fn merge_is_invariant_to_snapshot_arrival_order() {
        let a = vec![
            event(0, 0, EventKind::RoundClosed),
            event(1, 2, EventKind::RoundCleared),
        ];
        let b = vec![event(0, 1, EventKind::RoundClosed)];
        let forward = merge_shard_traces(&[(0, a.clone()), (1, b.clone())]);
        let reverse = merge_shard_traces(&[(1, b), (0, a)]);
        assert_eq!(forward, reverse);
    }

    #[test]
    fn empty_inputs_merge_to_nothing() {
        assert!(merge_shard_traces(&[]).is_empty());
        assert!(merge_shard_traces(&[(3, Vec::new())]).is_empty());
    }
}
