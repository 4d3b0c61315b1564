//! The trace vocabulary: pipeline stages, event kinds, and the
//! fixed-width [`TraceEvent`] every recorder slot holds.
//!
//! Events are deliberately *flat*: one `u64` timestamp, one kind byte,
//! one optional stage byte, a round id, and three opaque `u64` payload
//! words whose meaning depends on the kind (see [`EventKind`]). Flat
//! events fit a fixed number of atomic words, which is what lets the
//! [`FlightRecorder`](crate::ring::FlightRecorder) stay lock-free and
//! allocation-free on the recording path.

use serde::{Deserialize, Serialize};

/// The serving pipeline's stages, in round-lifecycle order.
///
/// This is the *shared* stage vocabulary: the platform's latency
/// histograms and the flight recorder's span events both index by it, so
/// a latency spike and a trace span always name the same thing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Stage {
    /// Bid validation and deduplication.
    Ingest,
    /// Closing a round into an auction instance: each `tick` or `flush`
    /// call that finds the open round holding bids, whether or not it
    /// closes it. A round closed on capacity inside `submit` is timed
    /// under [`Stage::Ingest`] instead.
    Batch,
    /// End-to-end round clearing inside a shard worker (winner
    /// determination + payments + execution draws).
    Shard,
    /// Winner determination only (a sub-span of [`Stage::Shard`]).
    Allocate,
    /// Critical-bid payments / reward quoting only (a sub-span of
    /// [`Stage::Shard`]).
    Pay,
    /// Applying execution-contingent payouts to the ledger.
    Settle,
    /// Admission-control shedding decisions (overload only). Appended
    /// after the original six stages so previously recorded stage codes
    /// stay stable; logically it sits *before* [`Stage::Ingest`] in the
    /// pipeline — a shed bid is never validated.
    Shed,
}

impl Stage {
    /// Every stage. The first six are in pipeline order; [`Stage::Shed`]
    /// is appended last to keep historical stage codes stable even
    /// though admission control runs before ingest.
    pub const ALL: [Stage; 7] = [
        Stage::Ingest,
        Stage::Batch,
        Stage::Shard,
        Stage::Allocate,
        Stage::Pay,
        Stage::Settle,
        Stage::Shed,
    ];

    /// Dense index of this stage within [`Stage::ALL`].
    pub fn index(self) -> usize {
        match self {
            Stage::Ingest => 0,
            Stage::Batch => 1,
            Stage::Shard => 2,
            Stage::Allocate => 3,
            Stage::Pay => 4,
            Stage::Settle => 5,
            Stage::Shed => 6,
        }
    }

    /// Lower-case stage name, as used in metric labels and span events.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Ingest => "ingest",
            Stage::Batch => "batch",
            Stage::Shard => "shard",
            Stage::Allocate => "allocate",
            Stage::Pay => "pay",
            Stage::Settle => "settle",
            Stage::Shed => "shed",
        }
    }

    /// The stage at `index` in [`Stage::ALL`], for wire codecs that
    /// ship stages as their index.
    pub fn from_index(index: usize) -> Option<Stage> {
        Stage::ALL.get(index).copied()
    }
}

/// What a [`TraceEvent`] records. The payload words `a`/`b`/`c` carry the
/// kind-specific data listed per variant; unused words are zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// A bid passed validation and joined the round. `a` = user id,
    /// `b` = declared cost as `f64` bits, `c` = declared task count.
    BidAdmitted,
    /// One `(task, PoS)` entry of an admitted bid, emitted right after
    /// its [`EventKind::BidAdmitted`]. `a` = user id, `b` = task id,
    /// `c` = declared PoS as `f64` bits.
    BidTask,
    /// A bid was rejected at ingest. `a` = user id, `b` = declared cost
    /// as `f64` bits, `c` = 0.
    BidRejected,
    /// The batcher closed the round. `a` = admitted bidder count.
    RoundClosed,
    /// A pipeline stage began working on the round (`stage` is set).
    StageEnter,
    /// A pipeline stage finished the round (`stage` is set).
    /// `a` = elapsed nanoseconds in wall-clock mode, 0 in logical mode
    /// (wall durations would make logical-mode dumps nondeterministic).
    StageExit,
    /// The round cleared. `a` = winner count, `b` = social cost as `f64`
    /// bits.
    RoundCleared,
    /// The degrade path quarantined the round. `a` = bidder count.
    RoundQuarantined,
    /// The round's payouts were posted to the ledger. `a` = winners
    /// paid, `b` = settlement total as `f64` bits.
    RoundSettled,
    /// Admission control shed a bid before validation (the bid's
    /// declared type is *never* read). `a` = arrival sequence number,
    /// `b` = shed-reason code, `c` = backlog depth at the decision.
    BidShed,
    /// The round exceeded its clearing budget and was split: the
    /// admitted prefix cleared, the remainder was quarantined.
    /// `a` = cleared prefix size, `b` = deferred bidder count.
    RoundPartialClear,
    /// A campaign runner opened a campaign round (`round` is the engine
    /// round id it will clear under). `a` = campaign round index,
    /// `b` = open task count, `c` = total residual requirement
    /// (contribution) as `f64` bits.
    CampaignRoundOpened,
    /// Settlement left residual requirement and the campaign enqueued a
    /// re-auction round restricted to the uncovered tasks. `round` is the
    /// engine round id that was just settled. `a` = uncovered task count,
    /// `b` = total residual requirement as `f64` bits, `c` = successful
    /// executions absorbed this round.
    ResidualReauction,
    /// A `PosCalibrator` screened a bid for admission. `a` = user id,
    /// `b` = declared any-task PoS as `f64` bits, `c` = calibrated
    /// any-task PoS as `f64` bits (equal to `b` when calibration is off
    /// or the user has no usable history).
    PosCalibrated,
    /// The SLO watchdog observed a budget violation (see `crate::slo`).
    /// Purely diagnostic — a breach never alters clearing. `stage` is
    /// set for per-stage latency breaches. `a` = breached budget code
    /// (see `SloKind::code`), `b` = observed value as `f64` bits,
    /// `c` = budget limit as `f64` bits.
    SloBreach,
}

impl EventKind {
    const ALL: [EventKind; 15] = [
        EventKind::BidAdmitted,
        EventKind::BidTask,
        EventKind::BidRejected,
        EventKind::RoundClosed,
        EventKind::StageEnter,
        EventKind::StageExit,
        EventKind::RoundCleared,
        EventKind::RoundQuarantined,
        EventKind::RoundSettled,
        EventKind::BidShed,
        EventKind::RoundPartialClear,
        EventKind::CampaignRoundOpened,
        EventKind::ResidualReauction,
        EventKind::PosCalibrated,
        EventKind::SloBreach,
    ];

    /// Stable numeric code of this kind (its position in the fixed
    /// `ALL` table), used by recorder slots and wire codecs.
    pub fn code(self) -> u64 {
        EventKind::ALL
            .iter()
            .position(|&k| k == self)
            .expect("every kind is in ALL") as u64
    }

    /// The kind for a [`EventKind::code`] value, `None` if out of range.
    pub fn from_code(code: u64) -> Option<EventKind> {
        EventKind::ALL.get(code as usize).copied()
    }
}

/// Sentinel for "no stage" in the packed kind/stage word.
const NO_STAGE: u64 = 0xFF;

/// An event as handed to [`FlightRecorder::record`](crate::ring::FlightRecorder::record):
/// everything except the sequence number and timestamp, which the
/// recorder assigns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RawEvent {
    /// What happened.
    pub kind: EventKind,
    /// The stage, for span events.
    pub stage: Option<Stage>,
    /// The round the event belongs to.
    pub round: u64,
    /// First kind-specific payload word.
    pub a: u64,
    /// Second kind-specific payload word.
    pub b: u64,
    /// Third kind-specific payload word.
    pub c: u64,
}

impl RawEvent {
    /// A non-span event for `round` with payloads `a`, `b`, `c`.
    pub fn new(kind: EventKind, round: u64, a: u64, b: u64, c: u64) -> Self {
        RawEvent {
            kind,
            stage: None,
            round,
            a,
            b,
            c,
        }
    }

    /// A [`EventKind::StageEnter`] span event.
    pub fn enter(stage: Stage, round: u64) -> Self {
        RawEvent {
            kind: EventKind::StageEnter,
            stage: Some(stage),
            round,
            a: 0,
            b: 0,
            c: 0,
        }
    }

    /// A [`EventKind::StageExit`] span event carrying `elapsed_ns`
    /// (pass 0 in logical-clock mode).
    pub fn exit(stage: Stage, round: u64, elapsed_ns: u64) -> Self {
        RawEvent {
            kind: EventKind::StageExit,
            stage: Some(stage),
            round,
            a: elapsed_ns,
            b: 0,
            c: 0,
        }
    }

    /// Packs kind and stage into one word for a recorder slot.
    pub(crate) fn tag(&self) -> u64 {
        let stage = self.stage.map_or(NO_STAGE, |s| s.index() as u64);
        self.kind.code() | (stage << 8)
    }
}

/// A decoded trace event, as returned by recorder snapshots and carried
/// by post-mortems.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Position in the recorder's total order (monotone per recorder;
    /// renumbered from 0 in per-round post-mortem traces).
    pub seq: u64,
    /// Timestamp: nanoseconds since the recorder's epoch in wall-clock
    /// mode, the sequence number itself in logical mode.
    pub at: u64,
    /// What happened.
    pub kind: EventKind,
    /// The stage, for span events.
    pub stage: Option<Stage>,
    /// The round the event belongs to.
    pub round: u64,
    /// First kind-specific payload word (see [`EventKind`]).
    pub a: u64,
    /// Second kind-specific payload word.
    pub b: u64,
    /// Third kind-specific payload word.
    pub c: u64,
}

impl TraceEvent {
    /// Rebuilds an event from a slot's packed words; `None` if the tag
    /// word is corrupt (possible only after a torn read the seqlock
    /// failed to detect, which the recorder treats as a dropped slot).
    pub(crate) fn decode(seq: u64, words: [u64; 6]) -> Option<TraceEvent> {
        let [at, tag, round, a, b, c] = words;
        let kind = EventKind::from_code(tag & 0xFF)?;
        let stage_code = (tag >> 8) & 0xFF;
        let stage = if stage_code == NO_STAGE {
            None
        } else {
            Some(Stage::from_index(stage_code as usize)?)
        };
        Some(TraceEvent {
            seq,
            at,
            kind,
            stage,
            round,
            a,
            b,
            c,
        })
    }

    /// The slot words this event packs into.
    pub(crate) fn encode(raw: &RawEvent, at: u64) -> [u64; 6] {
        [at, raw.tag(), raw.round, raw.a, raw.b, raw.c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_indices_are_dense_and_named() {
        for (i, stage) in Stage::ALL.iter().enumerate() {
            assert_eq!(stage.index(), i);
            assert_eq!(Stage::from_index(i), Some(*stage));
            assert!(!stage.name().is_empty());
        }
        assert_eq!(Stage::from_index(7), None);
    }

    #[test]
    fn events_round_trip_through_slot_words() {
        let raw = RawEvent::exit(Stage::Pay, 17, 12345);
        let words = TraceEvent::encode(&raw, 99);
        let event = TraceEvent::decode(7, words).unwrap();
        assert_eq!(event.seq, 7);
        assert_eq!(event.at, 99);
        assert_eq!(event.kind, EventKind::StageExit);
        assert_eq!(event.stage, Some(Stage::Pay));
        assert_eq!(event.round, 17);
        assert_eq!(event.a, 12345);
    }

    #[test]
    fn non_span_events_have_no_stage() {
        let raw = RawEvent::new(EventKind::BidAdmitted, 3, 1, 2.5f64.to_bits(), 2);
        let event = TraceEvent::decode(0, TraceEvent::encode(&raw, 0)).unwrap();
        assert_eq!(event.stage, None);
        assert_eq!(f64::from_bits(event.b), 2.5);
    }

    #[test]
    fn corrupt_tags_decode_to_none() {
        assert_eq!(TraceEvent::decode(0, [0, 200, 0, 0, 0, 0]), None);
        assert_eq!(TraceEvent::decode(0, [0, (9 << 8), 0, 0, 0, 0]), None);
    }

    #[test]
    fn events_serialize_to_json() {
        let event = TraceEvent::decode(1, TraceEvent::encode(&RawEvent::enter(Stage::Shard, 4), 1))
            .unwrap();
        let json = serde_json::to_string(&event).unwrap();
        assert!(json.contains("StageEnter"));
        assert!(json.contains("Shard"));
        let back: TraceEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(back, event);
    }
}
