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
