//! A node's live heap stays flat as rounds go by, counted by this test
//! binary's own global allocator.
//!
//! A node keeps a clearing arena, a span ring and the last response per
//! region shard, and nothing else between rounds. Once the arena has
//! grown to a round shape, serving more rounds of that shape must not
//! grow the heap: live bytes (allocated minus freed) after round 400 are
//! within 1 KiB of those after round 100.
//!
//! The file holds one `#[test]`, so no other test allocates beside the
//! count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use mcs_cluster::{ClusterParams, NodeServer, Request, Response, TaskSite, Topology};
use mcs_core::types::{Task, TaskId};
use mcs_mobility::grid::{Cell, CityGrid};
use mcs_platform::ingest::Bid;

/// Tracks live heap bytes: every allocation adds its size, every free
/// subtracts it.
struct Live;

static LIVE: AtomicI64 = AtomicI64::new(0);

fn grow(bytes: usize) {
    LIVE.fetch_add(bytes as i64, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as i64, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// whose `GlobalAlloc` contract is this impl's; the count touches only an
// atomic and never allocates.
unsafe impl GlobalAlloc for Live {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            shrink(layout.size());
            grow(new_size);
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrink(layout.size());
    }
}

#[global_allocator]
static GLOBAL: Live = Live;

/// A seeded xorshift stream for costs and PoS.
struct Stream(u64);

impl Stream {
    fn unit(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// One region publishing tasks 0 and 1: a single band over the grid.
fn topology() -> Topology {
    let sites = [(0, Cell { x: 0, y: 0 }), (1, Cell { x: 3, y: 1 })]
        .into_iter()
        .map(|(task, cell)| TaskSite {
            task: Task::with_requirement(TaskId::new(task), 0.8).unwrap(),
            cell,
        })
        .collect();
    Topology::bands(CityGrid::new(4, 2, 1.0), 1, sites).unwrap()
}

/// A round of the fixed shape: the same 40 users, each bidding on task
/// 0, task 1 or both, with costs and PoS drawn from `stream`.
fn bids(stream: &mut Stream) -> Vec<Bid> {
    (0..40u32)
        .map(|user| {
            let tasks: &[u32] = match user % 3 {
                0 => &[0],
                1 => &[1],
                _ => &[0, 1],
            };
            Bid {
                user,
                cost: 1.0 + 9.0 * stream.unit(),
                tasks: tasks
                    .iter()
                    .map(|&task| (task, 0.2 + 0.5 * stream.unit()))
                    .collect(),
            }
        })
        .collect()
}

#[test]
fn a_node_keeps_no_per_round_state() {
    let topology = topology();
    let region = topology.active_regions().next().unwrap();
    let mut server = NodeServer::new(&topology, ClusterParams::default(), 1, 0, true);
    // Sixteen rounds of bids, cycled: by round 100 every buffer the shape
    // needs has reached its size, so any growth after it is kept state.
    let mut stream = Stream(0x9E37_79B9_7F4A_7C15);
    let cycle: Vec<Vec<Bid>> = (0..16).map(|_| bids(&mut stream)).collect();
    let mut live_at = Vec::new();
    for round in 0..400u64 {
        let response = server.handle(&Request::Clear {
            region,
            round,
            bids: cycle[round as usize % cycle.len()].clone(),
        });
        assert!(
            matches!(response, Response::Cleared { .. }),
            "round {round}: {response:?}"
        );
        drop(response);
        if round + 1 == 100 || round + 1 == 400 {
            live_at.push(LIVE.load(Ordering::Relaxed));
        }
    }
    let (at_100, at_400) = (live_at[0], live_at[1]);
    println!("live heap: {at_100} B after round 100, {at_400} B after round 400");
    assert!(
        (at_400 - at_100).abs() <= 1024,
        "the node's live heap moved from {at_100} to {at_400} bytes"
    );
}
