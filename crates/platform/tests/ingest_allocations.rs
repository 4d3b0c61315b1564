//! Heap allocations on the admit path, counted by this test binary's own
//! global allocator.
//!
//! In steady state — after a warm round of the same shape has sized the
//! engine's buffers — `Engine::submit` may allocate at most once per
//! admitted bid: the bid's `UserType`. Checking the bid, deduplicating its
//! user, queueing it and tracing it allocate nothing. Closing the round
//! with `flush` costs two allocations per round, however many bids it
//! holds.
//!
//! The file holds one `#[test]`, so no other test runs beside the count;
//! the counter is per thread besides.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mcs_core::types::{Task, TaskId};
use mcs_platform::prelude::*;

/// Counts every allocation and reallocation made on the current thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: an allocation during thread teardown goes uncounted
    // rather than panicking inside the allocator.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose `GlobalAlloc` contract is this impl's; the count touches only a
// thread-local `Cell` and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread, and its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let value = f();
    (ALLOCATIONS.with(Cell::get) - before, value)
}

/// A round's shape: bidders, published tasks, and tasks per bid.
struct Shape {
    name: &'static str,
    bids: u32,
    tasks: u32,
    per_bid: (u32, u32),
    /// Whether each round brings fresh bidders (otherwise the same
    /// population re-bids).
    fresh: bool,
}

/// A seeded xorshift stream, enough to vary costs, PoS and task sets.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u32) -> u32 {
        (self.next() % u64::from(n)) as u32
    }

    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Round `round`'s bids: every declared task list ascends, as the
/// served generators write them.
fn bids(shape: &Shape, round: u32, stream: &mut Stream) -> Vec<Bid> {
    (0..shape.bids)
        .map(|i| {
            let user = if shape.fresh {
                round * shape.bids + i
            } else {
                i
            };
            let span = shape.per_bid.1 - shape.per_bid.0 + 1;
            let count = shape.per_bid.0 + stream.below(span);
            let mut tasks: Vec<u32> = (0..shape.tasks).collect();
            for k in 0..count {
                let pick = k + stream.below(shape.tasks - k);
                tasks.swap(k as usize, pick as usize);
            }
            tasks.truncate(count as usize);
            tasks.sort_unstable();
            Bid {
                user,
                cost: 1.0 + 20.0 * stream.unit(),
                tasks: tasks
                    .into_iter()
                    .map(|task| (task, 0.05 + 0.4 * stream.unit()))
                    .collect(),
            }
        })
        .collect()
}

/// Submits one round and closes it with `flush`; returns the
/// allocations counted in submit and in flush.
fn round(engine: &mut Engine, bids: &[Bid]) -> (u64, u64) {
    let (submit, ()) = allocations(|| {
        for bid in bids {
            assert_eq!(engine.submit(bid), Ok(Admission::Admitted));
        }
    });
    let (flush, ()) = allocations(|| engine.flush());
    assert_eq!(engine.pending_rounds(), 1);
    engine.drain();
    (submit, flush)
}

#[test]
fn admitting_a_bid_allocates_only_its_user_type() {
    let shapes = [
        Shape {
            name: "5,000 bids of 10-20 tasks over 50",
            bids: 5_000,
            tasks: 50,
            per_bid: (10, 20),
            fresh: false,
        },
        Shape {
            name: "16 bids of 2 tasks",
            bids: 16,
            tasks: 2,
            per_bid: (2, 2),
            fresh: true,
        },
    ];
    let mut flushes = Vec::new();
    for shape in &shapes {
        let tasks: Vec<Task> = (0..shape.tasks)
            .map(|t| Task::with_requirement(TaskId::new(t), 0.6).unwrap())
            .collect();
        let mut config = EngineConfig::default().with_seed(3).with_workers(1);
        config.batch = BatchPolicy::FLUSH_ONLY;
        let mut engine = Engine::new(config, tasks);
        let mut stream = Stream(0x9E37_79B9_7F4A_7C15);
        // The warm round sizes the round's vector and the dedup set.
        round(&mut engine, &bids(shape, 0, &mut stream));
        for r in 1..4 {
            let round_bids = bids(shape, r, &mut stream);
            let (submit, flush) = round(&mut engine, &round_bids);
            let per_bid = submit as f64 / f64::from(shape.bids);
            println!(
                "{}: {per_bid:.2} allocations per bid at submit, {flush} at flush",
                shape.name
            );
            assert!(
                submit <= u64::from(shape.bids),
                "{}: submit made {submit} allocations for {} bids",
                shape.name,
                shape.bids
            );
            flushes.push(flush);
        }
    }
    // Closing a round costs the same two allocations at 16 bids as at
    // 5,000: the profile's copy of the task list and the next round's bid
    // vector. The pending-round list keeps its capacity across drains.
    assert!(
        flushes.iter().all(|&flush| flush == 2),
        "flush allocations per round: {flushes:?}"
    );
}
