//! Seeded workload inputs. Every bid a run submits is generated here,
//! before the clock starts: the same seed gives the same bids.

use mcs_core::types::{Task, TaskId};
use mcs_platform::ingest::Bid;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The rounds a workload submits, in order. A run that outlasts the
/// generated rounds cycles through them again.
#[derive(Debug)]
pub enum Inputs {
    /// Independent rounds of fresh bidders.
    Pool(Vec<Vec<Bid>>),
    /// One stable population; before each later round, `deltas[k]`
    /// replaces a few bids in place (same user, same position).
    Churn {
        base: Vec<Bid>,
        deltas: Vec<Vec<(usize, Bid)>>,
    },
}

impl Inputs {
    /// Round `k`'s bids, rebuilt anew (used by the outcome
    /// checks, outside the timed phase).
    pub fn round(&self, k: usize) -> Vec<Bid> {
        let mut feed = Feed::new(self);
        for _ in 0..k {
            feed.next_round();
        }
        feed.next_round().to_vec()
    }
}

/// Walks [`Inputs`] round by round.
#[derive(Debug)]
pub struct Feed<'a> {
    inputs: &'a Inputs,
    working: Vec<Bid>,
    next: usize,
}

impl<'a> Feed<'a> {
    pub fn new(inputs: &'a Inputs) -> Self {
        Feed {
            inputs,
            working: Vec::new(),
            next: 0,
        }
    }

    /// The bids of the next round.
    pub fn next_round(&mut self) -> &[Bid] {
        let k = self.next;
        self.next += 1;
        match self.inputs {
            Inputs::Pool(rounds) => &rounds[k % rounds.len()],
            Inputs::Churn { base, deltas } => {
                if k == 0 {
                    self.working = base.clone();
                } else {
                    for (index, bid) in &deltas[(k - 1) % deltas.len()] {
                        self.working[*index] = bid.clone();
                    }
                }
                &self.working
            }
        }
    }
}

/// Tasks `0..count`, all at `requirement`.
pub fn tasks(count: u32, requirement: f64) -> Vec<Task> {
    (0..count)
        .map(|j| Task::with_requirement(TaskId::new(j), requirement).expect("valid requirement"))
        .collect()
}

/// A cost from the paper's Table II distribution: normal with mean 15
/// and standard deviation 5, floored at 1.
fn cost(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    (15.0 + 5.0 * z).max(1.0)
}

/// `count` distinct task ids out of `0..of`, ascending.
fn pick_tasks(rng: &mut StdRng, count: usize, of: u32) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..of).collect();
    for i in 0..count {
        let j = rng.gen_range(i..ids.len());
        ids.swap(i, j);
    }
    let mut picked = ids[..count].to_vec();
    picked.sort_unstable();
    picked
}

fn bid(rng: &mut StdRng, user: u32, tasks: &[u32], pos: (f64, f64)) -> Bid {
    Bid {
        user,
        cost: cost(rng),
        tasks: tasks
            .iter()
            .map(|&task| (task, rng.gen_range(pos.0..pos.1)))
            .collect(),
    }
}

/// The seed of the `steady-large` base population. The population is
/// the same city in every run; the run seed picks which bidders change
/// each round and how, and the engine's execution draws. A run clears a
/// handful of rounds of one population, so a per-seed population would
/// make the figures measure the population instead of the engine.
const POPULATION_SEED: u64 = 0x005E_ED0F_C17E;

/// `steady-large`: a stable multi-task population with 2% churn a round.
pub fn steady_large(seed: u64, users: usize, task_count: u32, per_user: (usize, usize)) -> Inputs {
    const POS: (f64, f64) = (0.05, 0.45);
    const DELTAS: usize = 64;
    let fresh = |rng: &mut StdRng, user: usize| {
        let count = rng.gen_range(per_user.0..=per_user.1);
        let tasks = pick_tasks(rng, count, task_count);
        bid(rng, user as u32, &tasks, POS)
    };
    let mut population = StdRng::seed_from_u64(POPULATION_SEED);
    let base: Vec<Bid> = (0..users)
        .map(|user| fresh(&mut population, user))
        .collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let churn = (users / 50).max(1);
    let deltas = (0..DELTAS)
        .map(|_| {
            (0..churn)
                .map(|_| {
                    let index = rng.gen_range(0..users);
                    (index, fresh(&mut rng, index))
                })
                .collect()
        })
        .collect();
    Inputs::Churn { base, deltas }
}

/// A pool of `rounds` rounds of `size` fresh bidders each; round `r`
/// uses user ids `r·size ..`, so consecutive rounds share no bidder.
/// Every bidder declares every task with PoS drawn from `pos`.
pub fn fresh_rounds(
    seed: u64,
    rounds: usize,
    size: usize,
    task_count: u32,
    pos: (f64, f64),
) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let all: Vec<u32> = (0..task_count).collect();
    Inputs::Pool(
        (0..rounds)
            .map(|r| {
                (0..size)
                    .map(|i| bid(&mut rng, (r * size + i) as u32, &all, pos))
                    .collect()
            })
            .collect(),
    )
}

/// `cluster-bands`: rounds over `bands` bands with two tasks each (task
/// `2b` and `2b + 1` sit in band `b`). A bid declares one or both tasks
/// of its band; about `straddle` of them also declare one task of an
/// adjacent band.
pub fn cluster_rounds(
    seed: u64,
    rounds: usize,
    size: usize,
    bands: u32,
    straddle: f64,
) -> Vec<Vec<Bid>> {
    const POS: (f64, f64) = (0.1, 0.5);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..rounds)
        .map(|r| {
            (0..size)
                .map(|i| {
                    let band = rng.gen_range(0..bands);
                    let mut tasks = match rng.gen_range(0..3u32) {
                        0 => vec![2 * band],
                        1 => vec![2 * band + 1],
                        _ => vec![2 * band, 2 * band + 1],
                    };
                    if rng.gen_bool(straddle) {
                        let other = if band == 0 || (band + 1 < bands && rng.gen_bool(0.5)) {
                            band + 1
                        } else {
                            band - 1
                        };
                        tasks.push(2 * other + rng.gen_range(0..2u32));
                        tasks.sort_unstable();
                    }
                    bid(&mut rng, (r * size + i) as u32, &tasks, POS)
                })
                .collect()
        })
        .collect()
}
