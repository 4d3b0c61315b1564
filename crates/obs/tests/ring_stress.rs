//! Seqlock stress test: writers wrapping a tiny ring while readers
//! snapshot concurrently must never observe a torn event.
//!
//! Every written event carries a checksum over its own payload words, so
//! a torn read — words from two different writes stitched together —
//! cannot satisfy the checksum. The ring is deliberately small (64
//! slots) and the writers deliberately many, maximizing wrap-around
//! pressure on every slot while the readers race them.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

use mcs_obs::digest::mix64;
use mcs_obs::{ClockMode, EventKind, FlightRecorder, RawEvent};

const RING_SLOTS: usize = 64;
const WRITERS: u64 = 4;
const EVENTS_PER_WRITER: u64 = 20_000;
/// Pinned per-writer stream seeds: each writer's payload sequence is a
/// pure function of its seed, so the test is reproducible run to run.
const WRITER_SEEDS: [u64; WRITERS as usize] = [0xA1, 0xB2, 0xC3, 0xD4];

/// SplitMix64 of one word — the mixer the platform uses for round seeds.
fn mix(z: u64) -> u64 {
    mix64(0, z, 0)
}

/// The invariant every decoded event must satisfy: `c` is a checksum
/// binding the round word and both payload words together.
fn checksum(round: u64, a: u64, b: u64) -> u64 {
    mix(round ^ mix(a) ^ mix(b ^ 0x5EED))
}

#[test]
fn wrap_around_under_concurrent_snapshots_never_tears() {
    let recorder = Arc::new(FlightRecorder::new(RING_SLOTS, ClockMode::Logical));
    let done = Arc::new(AtomicBool::new(false));

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let recorder = Arc::clone(&recorder);
            thread::spawn(move || {
                let seed = WRITER_SEEDS[w as usize];
                for i in 0..EVENTS_PER_WRITER {
                    let a = w << 32 | i;
                    let b = mix(seed ^ i);
                    let round = w * EVENTS_PER_WRITER + i;
                    recorder.record(RawEvent::new(
                        EventKind::BidAdmitted,
                        round,
                        a,
                        b,
                        checksum(round, a, b),
                    ));
                }
            })
        })
        .collect();

    let readers: Vec<_> = (0..3)
        .map(|_| {
            let recorder = Arc::clone(&recorder);
            let done = Arc::clone(&done);
            thread::spawn(move || {
                let mut snapshots = 0u64;
                let mut events_seen = 0u64;
                loop {
                    let snapshot = recorder.snapshot();
                    let mut last_seq = None;
                    for event in &snapshot {
                        // A torn event would stitch words from two
                        // different writes; the checksum forbids it.
                        assert_eq!(
                            event.c,
                            checksum(event.round, event.a, event.b),
                            "torn event escaped the seqlock: {event:?}"
                        );
                        assert_eq!(event.kind, EventKind::BidAdmitted);
                        // Logical clock: the timestamp is the seq itself.
                        assert_eq!(event.at, event.seq);
                        // Snapshots are in strictly increasing seq order.
                        if let Some(last) = last_seq {
                            assert!(event.seq > last, "snapshot order broke");
                        }
                        last_seq = Some(event.seq);
                        events_seen += 1;
                    }
                    assert!(snapshot.len() <= RING_SLOTS);
                    snapshots += 1;
                    if done.load(Ordering::Acquire) {
                        return (snapshots, events_seen);
                    }
                }
            })
        })
        .collect();

    for writer in writers {
        writer.join().unwrap();
    }
    done.store(true, Ordering::Release);
    let mut total_snapshots = 0;
    for reader in readers {
        let (snapshots, events_seen) = reader.join().unwrap();
        assert!(snapshots > 0);
        assert!(events_seen > 0, "readers must observe stable events");
        total_snapshots += snapshots;
    }
    assert!(total_snapshots >= 3);

    // Every write was counted and the ring wrapped many times over.
    assert_eq!(recorder.recorded(), WRITERS * EVENTS_PER_WRITER);
    assert!(recorder.wrapped());

    // Quiescent state: one final snapshot is fully stable and maximal.
    let settled = recorder.snapshot();
    assert_eq!(settled.len(), RING_SLOTS);
    for event in &settled {
        assert_eq!(event.c, checksum(event.round, event.a, event.b));
    }
}

/// The same workload replayed twice single-threaded lands the same
/// events in the same slots — the stress harness itself is pinned.
#[test]
fn pinned_seeds_make_the_workload_reproducible() {
    let run = || {
        let recorder = FlightRecorder::new(RING_SLOTS, ClockMode::Logical);
        for w in 0..WRITERS {
            let seed = WRITER_SEEDS[w as usize];
            for i in 0..200 {
                let a = w << 32 | i;
                let b = mix(seed ^ i);
                let round = w * 200 + i;
                recorder.record(RawEvent::new(
                    EventKind::BidAdmitted,
                    round,
                    a,
                    b,
                    checksum(round, a, b),
                ));
            }
        }
        recorder.snapshot()
    };
    assert_eq!(run(), run());
}

/// Concurrent writers recording whole runs (one bid's admission event
/// and its task events), each writer giving up its CPU between the events
/// of a run, so the others write while its run is half done: every run
/// still sits on consecutive sequence numbers, in its own order, with no
/// other writer's event inside it.
#[test]
fn concurrent_runs_stay_contiguous_in_sequence_order() {
    const RUN: u32 = 16;
    const RUNS_PER_WRITER: u64 = 200;
    let total = WRITERS * RUNS_PER_WRITER * u64::from(RUN);
    let recorder = Arc::new(FlightRecorder::new(total as usize, ClockMode::Logical));
    let start = Arc::new(std::sync::Barrier::new(WRITERS as usize));
    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let recorder = Arc::clone(&recorder);
            let start = Arc::clone(&start);
            thread::spawn(move || {
                start.wait();
                for i in 0..RUNS_PER_WRITER {
                    let run = w * RUNS_PER_WRITER + i;
                    recorder.record_run(
                        RawEvent::new(EventKind::BidAdmitted, run, w, 0, u64::from(RUN)),
                        (1..RUN).map(|offset| {
                            thread::yield_now();
                            RawEvent::new(EventKind::BidTask, run, w, offset.into(), 0)
                        }),
                    );
                }
            })
        })
        .collect();
    for writer in writers {
        writer.join().unwrap();
    }
    assert_eq!(recorder.recorded(), total);
    assert_eq!(recorder.collisions(), 0);
    let events = recorder.snapshot();
    assert_eq!(events.len() as u64, total);
    // Within a run, `seq - offset` is one number: its first sequence
    // number. A foreign event inside the run would break that.
    let mut first_seq = std::collections::BTreeMap::new();
    for event in &events {
        let offset = if event.kind == EventKind::BidAdmitted {
            0
        } else {
            event.b
        };
        let first = *first_seq.entry(event.round).or_insert(event.seq - offset);
        assert_eq!(event.seq - offset, first, "run {} is split", event.round);
    }
    assert_eq!(first_seq.len() as u64, WRITERS * RUNS_PER_WRITER);
}
