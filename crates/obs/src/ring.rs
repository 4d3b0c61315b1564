//! The flight recorder: a lock-free, fixed-capacity ring of trace
//! events.
//!
//! ## Design
//!
//! The recorder is a classic black-box: a pre-allocated array of slots
//! that the pipeline writes forever, overwriting the oldest events once
//! full. Recording must never block the serving path and must never
//! allocate, so each slot is a tiny seqlock built from plain atomics:
//!
//! * A writer claims a slot by CAS-ing its version word from the
//!   previous generation's (even) value to this generation's *odd*
//!   value, stores the six event words, then publishes the (even)
//!   done-version. Slot indices come from one `fetch_add` on a global
//!   head counter, so writers on different slots never touch the same
//!   memory. A run of events ([`FlightRecorder::record_run`], one bid's
//!   admission and its tasks) takes consecutive sequence numbers with
//!   one `fetch_add`, so no other writer's events land inside it.
//! * A reader snapshots a slot by reading the version, the words, and
//!   the version again; a changed or odd version means a write was in
//!   flight and the slot is retried, then skipped. Because every word is
//!   individually atomic this is safe Rust — a torn read is *detected*,
//!   never undefined behaviour.
//! * The only contention case is a writer that stalls for a whole ring
//!   lap while another writer laps onto its slot; the CAS claim fails
//!   and the event is counted in [`FlightRecorder::collisions`] instead
//!   of corrupting the slot.
//!
//! ## Clocks
//!
//! In [`ClockMode::Wall`] events carry nanoseconds since the recorder's
//! creation — what an operator wants; a run reads the clock once and
//! stamps all its events with that reading. In [`ClockMode::Logical`] the
//! timestamp *is* the sequence number: traces become a pure function of
//! the recorded event order, so deterministic harnesses (see
//! `mcs-harness`) get bitwise-stable dumps for any worker count.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::event::{RawEvent, TraceEvent};

/// How the recorder timestamps events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockMode {
    /// Nanoseconds since the recorder was created.
    Wall,
    /// The event's own sequence number — deterministic across runs.
    Logical,
}

/// One seqlock slot: a version word plus the six event words.
#[derive(Debug)]
struct Slot {
    /// 0 = never written; odd = write in flight; even `(seq + 1) << 1` =
    /// event `seq` is stable in this slot.
    version: AtomicU64,
    words: [AtomicU64; 6],
}

impl Slot {
    fn new() -> Self {
        Slot {
            version: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// A lock-free, fixed-capacity ring buffer of [`TraceEvent`]s.
///
/// All memory is allocated up front in [`FlightRecorder::new`]; the
/// recording path performs no allocation and takes no lock. A recorder
/// with capacity 0 is disabled: recording is a no-op and snapshots are
/// empty.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Box<[Slot]>,
    head: AtomicU64,
    collisions: AtomicU64,
    mode: ClockMode,
    epoch: Instant,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` events (0 disables it).
    pub fn new(capacity: usize, mode: ClockMode) -> Self {
        FlightRecorder {
            slots: (0..capacity).map(|_| Slot::new()).collect(),
            head: AtomicU64::new(0),
            collisions: AtomicU64::new(0),
            mode,
            epoch: Instant::now(),
        }
    }

    /// A disabled recorder: records nothing, reports nothing.
    pub fn disabled() -> Self {
        FlightRecorder::new(0, ClockMode::Logical)
    }

    /// The fixed slot count. Memory use is bounded by this forever.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Whether the recorder timestamps with the logical clock.
    pub fn is_logical(&self) -> bool {
        self.mode == ClockMode::Logical
    }

    /// Total events ever handed to [`FlightRecorder::record`] and
    /// [`FlightRecorder::record_run`] (including any that were dropped on a
    /// lap collision or overwritten since).
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Relaxed)
    }

    /// Events dropped because a lapped writer lost its slot claim.
    pub fn collisions(&self) -> u64 {
        self.collisions.load(Ordering::Relaxed)
    }

    /// Whether the ring has wrapped: older events may have been
    /// overwritten, so per-round traces can be incomplete.
    pub fn wrapped(&self) -> bool {
        self.recorded() > self.capacity() as u64
    }

    /// Nanoseconds since the recorder was created — the clock wall-mode
    /// event timestamps are measured on, so `epoch_elapsed_ns() - at`
    /// is an event's age. Meaningless (but still monotone) in logical
    /// mode.
    pub fn epoch_elapsed_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records one event. Lock-free, allocation-free; a no-op on a
    /// disabled recorder.
    pub fn record(&self, event: RawEvent) {
        self.record_run(event, [])
    }

    /// Records `head` and then every event of `rest` under `1 + rest.len()`
    /// consecutive sequence numbers, claimed with one `fetch_add`: the run
    /// stays contiguous in sequence order under concurrent writers. In wall
    /// mode every event of the run carries one clock reading. Each event
    /// still takes its own slot claim, so a lapped slot drops (and counts)
    /// only its own event. Lock-free, allocation-free; a no-op on a
    /// disabled recorder.
    pub fn record_run<I>(&self, head: RawEvent, rest: I)
    where
        I: IntoIterator<Item = RawEvent>,
        I::IntoIter: ExactSizeIterator,
    {
        let capacity = self.slots.len() as u64;
        if capacity == 0 {
            return;
        }
        let rest = rest.into_iter();
        let len = 1 + rest.len() as u64;
        let first = self.head.fetch_add(len, Ordering::Relaxed);
        let wall = match self.mode {
            ClockMode::Logical => None,
            ClockMode::Wall => Some(self.epoch_elapsed_ns()),
        };
        for (seq, event) in (first..first + len).zip(std::iter::once(head).chain(rest)) {
            self.write(seq, wall.unwrap_or(seq), &event);
        }
    }

    /// Writes event `seq` into its slot under the slot's seqlock.
    fn write(&self, seq: u64, at: u64, event: &RawEvent) {
        let slot = &self.slots[(seq % self.slots.len() as u64) as usize];
        let writing = (seq << 1) | 1;
        let done = (seq + 1) << 1;
        let previous = slot.version.load(Ordering::Relaxed);
        // Claim only if the slot still holds an older generation; a
        // newer or in-flight version means we were lapped mid-stall.
        if previous & 1 == 1
            || previous >= done
            || slot
                .version
                .compare_exchange(previous, writing, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
        {
            self.collisions.fetch_add(1, Ordering::Relaxed);
            return;
        }
        for (word, value) in slot.words.iter().zip(TraceEvent::encode(event, at)) {
            word.store(value, Ordering::Relaxed);
        }
        slot.version.store(done, Ordering::Release);
    }

    /// A point-in-time copy of every stable event, in sequence order.
    /// Slots with a write in flight are skipped after a few retries.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let mut events = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            for _attempt in 0..4 {
                let before = slot.version.load(Ordering::Acquire);
                if before == 0 || before & 1 == 1 {
                    break;
                }
                let words: [u64; 6] =
                    std::array::from_fn(|i| slot.words[i].load(Ordering::Acquire));
                if slot.version.load(Ordering::Acquire) != before {
                    continue;
                }
                let seq = (before >> 1) - 1;
                if let Some(event) = TraceEvent::decode(seq, words) {
                    events.push(event);
                }
                break;
            }
        }
        events.sort_by_key(|event| event.seq);
        events
    }

    /// Every surviving event of `round`, renumbered so the trace is
    /// self-contained: `seq` restarts at 0 and, in logical mode, `at`
    /// does too. Renumbering makes per-round dumps bitwise-identical for
    /// any worker count — global sequence numbers interleave
    /// nondeterministically across concurrent rounds, but each round's
    /// own event order is fixed by the pipeline.
    pub fn round_trace(&self, round: u64) -> Vec<TraceEvent> {
        let mut events: Vec<TraceEvent> = self
            .snapshot()
            .into_iter()
            .filter(|event| event.round == round)
            .collect();
        for (position, event) in events.iter_mut().enumerate() {
            event.seq = position as u64;
            if self.mode == ClockMode::Logical {
                event.at = position as u64;
            }
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{EventKind, Stage};
    use std::sync::Arc;

    fn bid_event(round: u64, user: u64) -> RawEvent {
        RawEvent::new(EventKind::BidAdmitted, round, user, 2.0f64.to_bits(), 1)
    }

    #[test]
    fn records_and_snapshots_in_order() {
        let recorder = FlightRecorder::new(8, ClockMode::Logical);
        for user in 0..5 {
            recorder.record(bid_event(0, user));
        }
        let events = recorder.snapshot();
        assert_eq!(events.len(), 5);
        for (i, event) in events.iter().enumerate() {
            assert_eq!(event.seq, i as u64);
            assert_eq!(event.at, i as u64); // logical clock
            assert_eq!(event.a, i as u64);
        }
        assert_eq!(recorder.recorded(), 5);
        assert!(!recorder.wrapped());
    }

    #[test]
    fn wraparound_keeps_only_the_newest_events() {
        let recorder = FlightRecorder::new(4, ClockMode::Logical);
        for user in 0..10 {
            recorder.record(bid_event(0, user));
        }
        let events = recorder.snapshot();
        assert_eq!(events.len(), 4);
        let users: Vec<u64> = events.iter().map(|e| e.a).collect();
        assert_eq!(users, [6, 7, 8, 9]);
        assert!(recorder.wrapped());
        assert_eq!(recorder.capacity(), 4);
    }

    #[test]
    fn disabled_recorder_is_a_noop() {
        let recorder = FlightRecorder::disabled();
        recorder.record(bid_event(0, 0));
        assert!(recorder.snapshot().is_empty());
        assert_eq!(recorder.recorded(), 0);
        assert_eq!(recorder.capacity(), 0);
    }

    #[test]
    fn round_trace_filters_and_renumbers() {
        let recorder = FlightRecorder::new(16, ClockMode::Logical);
        recorder.record(bid_event(3, 0));
        recorder.record(bid_event(7, 1));
        recorder.record(RawEvent::enter(Stage::Shard, 7));
        recorder.record(RawEvent::exit(Stage::Shard, 7, 0));
        let trace = recorder.round_trace(7);
        assert_eq!(trace.len(), 3);
        assert_eq!(
            trace.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(trace[0].kind, EventKind::BidAdmitted);
        assert_eq!(trace[1].kind, EventKind::StageEnter);
        assert_eq!(trace[2].kind, EventKind::StageExit);
        assert!(recorder.round_trace(99).is_empty());
    }

    #[test]
    fn wall_clock_timestamps_are_monotone() {
        let recorder = FlightRecorder::new(8, ClockMode::Wall);
        recorder.record(bid_event(0, 0));
        recorder.record(bid_event(0, 1));
        let events = recorder.snapshot();
        assert_eq!(events.len(), 2);
        assert!(events[0].at <= events[1].at);
        assert!(!recorder.is_logical());
    }

    fn task_event(round: u64, user: u64, task: u32) -> RawEvent {
        RawEvent::new(EventKind::BidTask, round, user, task.into(), 0)
    }

    #[test]
    fn a_run_takes_consecutive_sequence_numbers() {
        let recorder = FlightRecorder::new(16, ClockMode::Logical);
        recorder.record(bid_event(0, 9));
        recorder.record_run(bid_event(1, 4), (0..3).map(|task| task_event(1, 4, task)));
        recorder.record(bid_event(2, 5));
        let events = recorder.snapshot();
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [0, 1, 2, 3, 4, 5]);
        assert_eq!(events[1].kind, EventKind::BidAdmitted);
        let tasks: Vec<u64> = events[2..5].iter().map(|e| e.b).collect();
        assert_eq!(tasks, [0, 1, 2]);
        // Logical mode: every event keeps `at = seq`.
        assert!(events.iter().all(|e| e.at == e.seq));
        assert_eq!(recorder.recorded(), 6);
    }

    #[test]
    fn a_wall_clock_run_carries_one_timestamp() {
        let recorder = FlightRecorder::new(16, ClockMode::Wall);
        recorder.record_run(bid_event(0, 1), (0..5).map(|task| task_event(0, 1, task)));
        std::thread::sleep(std::time::Duration::from_millis(2));
        recorder.record(bid_event(0, 2));
        let events = recorder.snapshot();
        assert_eq!(events.len(), 7);
        assert!(events[..6].iter().all(|e| e.at == events[0].at));
        assert!(events[6].at > events[0].at);
    }

    #[test]
    fn a_run_on_a_disabled_recorder_is_a_noop() {
        let recorder = FlightRecorder::disabled();
        recorder.record_run(bid_event(0, 0), (0..4).map(|task| task_event(0, 0, task)));
        assert!(recorder.snapshot().is_empty());
        assert_eq!(recorder.recorded(), 0);
        assert_eq!(recorder.collisions(), 0);
    }

    #[test]
    fn a_run_longer_than_the_ring_wraps_like_single_records() {
        let run = FlightRecorder::new(4, ClockMode::Logical);
        run.record_run(bid_event(0, 0), (1..10).map(|task| task_event(0, 0, task)));
        let single = FlightRecorder::new(4, ClockMode::Logical);
        single.record(bid_event(0, 0));
        for task in 1..10 {
            single.record(task_event(0, 0, task));
        }
        assert_eq!(run.snapshot(), single.snapshot());
        let tasks: Vec<u64> = run.snapshot().iter().map(|e| e.b).collect();
        assert_eq!(tasks, [6, 7, 8, 9]);
        assert_eq!(run.recorded(), 10);
        assert!(run.wrapped());
    }

    #[test]
    fn a_lapped_slot_in_a_run_counts_one_collision_like_single_records() {
        // A writer one lap ahead already holds slot 1 (its event 5), so the
        // run's event 1 loses its claim; the rest of the run lands.
        let lapped = || {
            let recorder = FlightRecorder::new(4, ClockMode::Logical);
            recorder.write(5, 5, &bid_event(9, 9));
            recorder
        };
        let run = lapped();
        run.record_run(bid_event(0, 0), (1..4).map(|task| task_event(0, 0, task)));
        let single = lapped();
        single.record(bid_event(0, 0));
        for task in 1..4 {
            single.record(task_event(0, 0, task));
        }
        assert_eq!(run.collisions(), 1);
        assert_eq!(single.collisions(), 1);
        assert_eq!(run.snapshot(), single.snapshot());
        let seqs: Vec<u64> = run.snapshot().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, [0, 2, 3, 5]);
    }

    #[test]
    fn concurrent_writers_lose_no_events_when_capacity_suffices() {
        let recorder = Arc::new(FlightRecorder::new(4096, ClockMode::Logical));
        let threads = 8;
        let per_thread = 256;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let recorder = Arc::clone(&recorder);
                scope.spawn(move || {
                    for i in 0..per_thread {
                        recorder.record(bid_event(t, i));
                    }
                });
            }
        });
        let events = recorder.snapshot();
        assert_eq!(events.len(), (threads * per_thread) as usize);
        assert_eq!(recorder.collisions(), 0);
        // Per-round (here: per-thread) order is preserved even though
        // global interleaving is arbitrary.
        for t in 0..threads {
            let own: Vec<u64> = recorder.round_trace(t).iter().map(|e| e.a).collect();
            assert_eq!(own, (0..per_thread).collect::<Vec<_>>());
        }
    }

    #[test]
    fn concurrent_wraparound_stays_allocation_bounded() {
        let recorder = Arc::new(FlightRecorder::new(64, ClockMode::Logical));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let recorder = Arc::clone(&recorder);
                scope.spawn(move || {
                    for i in 0..10_000u64 {
                        recorder.record(bid_event(t, i));
                    }
                });
            }
        });
        assert_eq!(recorder.recorded(), 40_000);
        let events = recorder.snapshot();
        assert!(events.len() <= 64);
        // Whatever survived is well-formed and in global order.
        for pair in events.windows(2) {
            assert!(pair[0].seq < pair[1].seq);
        }
    }
}
