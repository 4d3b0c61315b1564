//! The minimum-knapsack dynamic program (paper Algorithm 1).
//!
//! The table is indexed by *exact scaled cost level*: cell `L` holds the
//! best user set whose scaled costs sum to exactly `L`. "Best" is decided by
//! a deterministic three-level rule — higher (requirement-saturated)
//! contribution, then lower actual cost, then lexicographically smaller
//! member list — chosen so that the winner-determination built on top is
//! *monotone* in any single user's declared contribution (the property
//! Lemma 1 needs):
//!
//! * Saturating contributions at the requirement means that once a state is
//!   feasible, further contribution raises cannot demote it.
//! * Preferring lower actual cost among equally-feasible states means a
//!   user raising her contribution can only make her subproblem's answer
//!   cheaper, never more expensive — which keeps the *cross-subproblem*
//!   minimum (Algorithm 2 line 9) from abandoning her.
//!
//! The table is flat: one `(contribution, actual cost)` pair per level and
//! the level's member set inline as `⌈n/64⌉` bit words, so a candidate
//! state is compared and stored without allocating, and
//! [`DpTable::solve_into`] reuses the buffers from one solve to the next.
//! A bitmap of reached levels lets each item's pass visit only levels
//! some subset reaches, in the same downward order as a full sweep.
//!
//! Complexity: `O(items × levels)` time and `O(levels)` states, where
//! `levels ≤ Σ scaled costs` — the `O(n · C_s)` of the paper's Algorithm 1.

use std::fmt;

use crate::knapsack::UserSet;
use crate::types::{Contribution, Cost, CONTRIBUTION_TOLERANCE};

/// An item of the (scaled) minimum-knapsack instance.
#[derive(Debug, Clone, PartialEq)]
pub struct KnapsackItem {
    /// Position of the user in the caller's slice; recorded in
    /// [`DpCell::members`].
    pub index: usize,
    /// The user's contribution `q_i` towards the task.
    pub contribution: Contribution,
    /// The user's cost rounded to an integer level (see
    /// [`Scaling`](crate::knapsack::Scaling)).
    pub scaled_cost: u64,
    /// The user's true cost, used for tie-breaking and for reporting the
    /// selected set's real social cost.
    pub actual_cost: Cost,
}

/// The contribution an unreached level holds; real states are `≥ 0`.
const EMPTY: f64 = -1.0;

/// A member set stored inline as bit words: item index `i` is bit
/// `i % 64` of word `i / 64`.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct MemberSet<'a> {
    words: &'a [u64],
}

impl<'a> MemberSet<'a> {
    /// The set whose bit `i % 64` of word `i / 64` marks member `i`.
    pub fn new(words: &'a [u64]) -> Self {
        MemberSet { words }
    }

    /// Iterates over member indices in ascending order.
    pub fn iter(self) -> impl Iterator<Item = usize> + 'a {
        self.words.iter().enumerate().flat_map(|(at, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let bit = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    at * 64 + bit
                })
            })
        })
    }

    /// Whether `index` is a member.
    pub fn contains(self, index: usize) -> bool {
        self.words
            .get(index / 64)
            .is_some_and(|word| word & (1u64 << (index % 64)) != 0)
    }

    /// The number of members.
    pub fn len(self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// The backing bit words.
    pub fn words(self) -> &'a [u64] {
        self.words
    }
}

impl fmt::Debug for MemberSet<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// The best state found at one exact scaled-cost level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DpCell<'a> {
    /// The member set (indices into the item slice's `index` space).
    pub members: MemberSet<'a>,
    /// Total contribution, saturated at the requirement.
    pub contribution: Contribution,
    /// Total actual cost of the members.
    pub actual_cost: Cost,
}

impl DpCell<'_> {
    /// Whether this cell's (saturated) contribution meets `requirement`.
    pub fn is_feasible(&self, requirement: Contribution) -> bool {
        self.contribution.meets(requirement)
    }
}

/// Whether the member list of `from ∪ {index}` (`index` given as its word
/// and bit) is lexicographically smaller than `incumbent`'s — the third
/// level of the preference order, exactly the `Ord` of [`UserSet`].
///
/// Let `d` be the smallest index in exactly one of the two sets; below it
/// the lists agree. If `d` is the candidate's, the candidate is smaller
/// unless the incumbent's list ends before `d`; if it is the incumbent's,
/// the candidate is smaller only if its own list ends before `d`.
fn precedes(from: &[u64], (word, bit): (usize, u64), incumbent: &[u64]) -> bool {
    let candidate = |at: usize| from[at] | if at == word { bit } else { 0 };
    for at in 0..incumbent.len() {
        let (a, b) = (candidate(at), incumbent[at]);
        if a == b {
            continue;
        }
        let diff = a ^ b;
        let lowest = diff & diff.wrapping_neg();
        let above = !(lowest | (lowest - 1));
        return if a & lowest != 0 {
            b & above != 0 || incumbent[at + 1..].iter().any(|&w| w != 0)
        } else {
            a & above == 0 && (at + 1..incumbent.len()).all(|later| candidate(later) == 0)
        };
    }
    false
}

/// The solved DP table.
///
/// # Examples
///
/// ```
/// use mcs_core::knapsack::{DpTable, KnapsackItem};
/// use mcs_core::types::{Contribution, Cost};
///
/// let items = vec![
///     KnapsackItem {
///         index: 0,
///         contribution: Contribution::new(1.0)?,
///         scaled_cost: 2,
///         actual_cost: Cost::new(2.0)?,
///     },
///     KnapsackItem {
///         index: 1,
///         contribution: Contribution::new(1.5)?,
///         scaled_cost: 3,
///         actual_cost: Cost::new(3.0)?,
///     },
/// ];
/// let requirement = Contribution::new(2.0)?;
/// let table = DpTable::solve(&items, requirement, None);
/// // Covering q ≥ 2 needs both items: levels 2 + 3 = 5.
/// let (level, cell) = table.min_feasible(requirement).expect("feasible");
/// assert_eq!(level, 5);
/// assert_eq!(cell.members.len(), 2);
/// # Ok::<(), mcs_core::McsError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct DpTable {
    /// `(contribution, actual cost)` per level; [`EMPTY`] contribution
    /// marks a level no subset reaches.
    sums: Vec<(f64, f64)>,
    /// `words` bit words per level.
    members: Vec<u64>,
    /// Bit `L` is set once some subset reaches level `L`.
    reached: Vec<u64>,
    words: usize,
    len: usize,
    requirement: Contribution,
}

impl DpTable {
    /// An empty table, to be filled by [`DpTable::solve_into`].
    pub fn new() -> Self {
        DpTable::default()
    }

    /// Runs the dynamic program over `items` with the given contribution
    /// `requirement` into a fresh table.
    ///
    /// `level_cap` optionally truncates the table: levels above the cap are
    /// discarded. Passing the scaled cost of any known-feasible solution is
    /// safe (the optimum costs no more) and keeps the table small.
    ///
    /// # Panics
    ///
    /// Panics if the items' scaled costs sum past `u64::MAX`.
    pub fn solve(
        items: &[KnapsackItem],
        requirement: Contribution,
        level_cap: Option<u64>,
    ) -> Self {
        let mut table = DpTable::new();
        table.solve_into(items, requirement, level_cap);
        table
    }

    /// [`DpTable::solve`] into this table's buffers, which only ever
    /// grow: a table reused across solves allocates nothing once it has
    /// met its largest instance.
    ///
    /// # Panics
    ///
    /// Panics if the items' scaled costs sum past `u64::MAX`.
    pub fn solve_into(
        &mut self,
        items: &[KnapsackItem],
        requirement: Contribution,
        level_cap: Option<u64>,
    ) {
        let (mut total, mut words) = (0u64, 0);
        for item in items {
            total = total
                .checked_add(item.scaled_cost)
                .expect("scaled level total fits in u64");
            words = words.max(item.index / 64 + 1);
        }
        let cap = level_cap.map_or(total, |c| c.min(total));
        let len = usize::try_from(cap)
            .ok()
            .and_then(|cap| cap.checked_add(1))
            .expect("scaled cost cap fits in usize");
        self.reset(len, words, requirement);
        for item in items {
            self.add(item);
        }
    }

    /// Clears the first `len` levels to the empty-set base state.
    fn reset(&mut self, len: usize, words: usize, requirement: Contribution) {
        self.sums.clear();
        self.sums.resize(len, (EMPTY, 0.0));
        self.sums[0] = (0.0, 0.0);
        self.members.clear();
        self.members.resize(len * words, 0);
        self.reached.clear();
        self.reached.resize(len.div_ceil(64), 0);
        self.reached[0] = 1;
        self.words = words;
        self.len = len;
        self.requirement = requirement;
    }

    /// One item's pass: every reached level `from` offers `from ∪ {item}`
    /// to level `from + scaled cost`, which keeps the better of the two.
    fn add(&mut self, item: &KnapsackItem) {
        let Ok(step) = usize::try_from(item.scaled_cost) else {
            return;
        };
        if step >= self.len {
            return;
        }
        let (q, cost) = (item.contribution.value(), item.actual_cost.value());
        let (word, bit) = (item.index / 64, 1u64 << (item.index % 64));
        let (req, words, limit) = (self.requirement.value(), self.words, self.len - step);
        let DpTable {
            sums,
            members,
            reached,
            ..
        } = self;
        // Walk the reached sources `from < len - step` downwards, so each
        // item is used at most once (classic 0/1 knapsack order): every
        // level this pass writes lies above the sources still to come,
        // and unreached levels are never visited.
        for at in (0..limit.div_ceil(64)).rev() {
            let mut sources = reached[at];
            if at == limit / 64 {
                sources &= (1u64 << (limit % 64)) - 1;
            }
            while sources != 0 {
                let high = 63 - sources.leading_zeros() as usize;
                sources ^= 1u64 << high;
                let from = at * 64 + high;
                let to = from + step;
                let (from_q, from_cost) = sums[from];
                // Saturate at the requirement, as `Contribution::min` does.
                let sum = from_q + q;
                let candidate_q = if sum <= req { sum } else { req };
                let candidate_cost = from_cost + cost;
                let (to_q, to_cost) = sums[to];
                // An unreached `to` holds EMPTY, below every candidate.
                let beats = if candidate_q != to_q {
                    candidate_q > to_q
                } else if candidate_cost != to_cost {
                    candidate_cost < to_cost
                } else {
                    precedes(
                        &members[from * words..(from + 1) * words],
                        (word, bit),
                        &members[to * words..(to + 1) * words],
                    )
                };
                if !beats {
                    continue;
                }
                sums[to] = (candidate_q, candidate_cost);
                reached[to / 64] |= 1u64 << (to % 64);
                if from != to {
                    members.copy_within(from * words..(from + 1) * words, to * words);
                }
                members[to * words + word] |= bit;
            }
        }
    }

    /// The contribution requirement the table was solved against.
    pub fn requirement(&self) -> Contribution {
        self.requirement
    }

    /// The lowest scaled-cost level whose cell meets `requirement`, with
    /// its cell. This is the minimum-knapsack answer in the scaled domain.
    ///
    /// `requirement` may be at most the requirement passed to
    /// [`DpTable::solve`]; contributions were saturated there, so asking
    /// about a larger one would spuriously report infeasibility.
    pub fn min_feasible(&self, requirement: Contribution) -> Option<(u64, DpCell<'_>)> {
        debug_assert!(
            requirement <= self.requirement,
            "cannot query above the saturation requirement"
        );
        // `Contribution::meets` on the raw sums, skipping unreached levels.
        let level = self.sums[..self.len]
            .iter()
            .position(|&(q, _)| q != EMPTY && q + CONTRIBUTION_TOLERANCE >= requirement.value())?;
        let (q, cost) = self.sums[level];
        let members = &self.members[level * self.words..(level + 1) * self.words];
        let cell = DpCell {
            members: MemberSet::new(members),
            contribution: Contribution::new(q).expect("a reached level's contribution"),
            actual_cost: Cost::new(cost).expect("a reached level's cost"),
        };
        Some((level as u64, cell))
    }
}

/// A state of the *unsaturated* Pareto-frontier formulation of Algorithm 1:
/// `(I, Q, C)` with full cross-cost dominance pruning.
///
/// [`pareto_frontier`] is the textbook rendition of the paper's Algorithm 1
/// (a list of states with dominated ones removed). The production solver
/// [`DpTable`] uses the level-indexed variant above; the frontier version is
/// kept for exact small-instance solving, analysis, and as a test oracle —
/// the two must agree on the minimum feasible cost.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoState {
    /// The member set.
    pub members: UserSet,
    /// Total (unsaturated) contribution of the members.
    pub contribution: Contribution,
    /// Total scaled cost of the members.
    pub scaled_cost: u64,
    /// Total actual cost of the members.
    pub actual_cost: Cost,
}

/// Computes the Pareto frontier of `(contribution, scaled cost)` states over
/// all subsets of `items` — paper Algorithm 1 with dominance pruning.
///
/// A state dominates another if it has no higher cost and no lower
/// contribution. The result is sorted by ascending scaled cost with strictly
/// increasing contribution.
///
/// Worst-case exponential only in degenerate all-equal-cost instances; with
/// integer scaled costs the frontier size is bounded by the total scaled
/// cost plus one.
pub fn pareto_frontier(items: &[KnapsackItem]) -> Vec<ParetoState> {
    let mut frontier = vec![ParetoState {
        members: UserSet::new(),
        contribution: Contribution::ZERO,
        scaled_cost: 0,
        actual_cost: Cost::ZERO,
    }];
    for item in items {
        let extended: Vec<ParetoState> = frontier
            .iter()
            .map(|state| ParetoState {
                members: state.members.with(item.index),
                contribution: state.contribution + item.contribution,
                scaled_cost: state.scaled_cost + item.scaled_cost,
                actual_cost: state.actual_cost + item.actual_cost,
            })
            .collect();
        // Merge two cost-sorted lists, then prune dominated states.
        let mut merged: Vec<ParetoState> = Vec::with_capacity(frontier.len() + extended.len());
        let (mut a, mut b) = (
            frontier.into_iter().peekable(),
            extended.into_iter().peekable(),
        );
        loop {
            let take_a = match (a.peek(), b.peek()) {
                (Some(x), Some(y)) => {
                    (x.scaled_cost, std::cmp::Reverse(x.contribution))
                        <= (y.scaled_cost, std::cmp::Reverse(y.contribution))
                }
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let state = if take_a { a.next() } else { b.next() }.expect("peeked");
            merged.push(state);
        }
        let mut pruned: Vec<ParetoState> = Vec::with_capacity(merged.len());
        for state in merged {
            match pruned.last() {
                Some(last) if state.contribution <= last.contribution => {} // dominated
                _ => pruned.push(state),
            }
        }
        frontier = pruned;
    }
    frontier
}

/// The minimum scaled cost over frontier states meeting `requirement`.
pub fn frontier_min_feasible(
    frontier: &[ParetoState],
    requirement: Contribution,
) -> Option<&ParetoState> {
    frontier.iter().find(|s| s.contribution.meets(requirement))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item(index: usize, q: f64, scaled: u64, actual: f64) -> KnapsackItem {
        KnapsackItem {
            index,
            contribution: Contribution::new(q).unwrap(),
            scaled_cost: scaled,
            actual_cost: Cost::new(actual).unwrap(),
        }
    }

    #[test]
    fn empty_instance_feasible_only_for_zero_requirement() {
        let table = DpTable::solve(&[], Contribution::ZERO, None);
        let (level, cell) = table.min_feasible(Contribution::ZERO).unwrap();
        assert_eq!(level, 0);
        assert!(cell.members.is_empty());
    }

    #[test]
    fn infeasible_requirement_yields_none() {
        let items = vec![item(0, 0.5, 1, 1.0)];
        let requirement = Contribution::new(2.0).unwrap();
        let table = DpTable::solve(&items, requirement, None);
        assert!(table.min_feasible(requirement).is_none());
    }

    #[test]
    fn picks_cheapest_feasible_combination() {
        // Covering q ≥ 2: {0,1} costs 5, {2} alone costs 6, {0,2} costs 8.
        let items = vec![
            item(0, 1.0, 2, 2.0),
            item(1, 1.2, 3, 3.0),
            item(2, 2.5, 6, 6.0),
        ];
        let requirement = Contribution::new(2.0).unwrap();
        let table = DpTable::solve(&items, requirement, None);
        let (level, cell) = table.min_feasible(requirement).unwrap();
        assert_eq!(level, 5);
        assert_eq!(cell.members.iter().collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(cell.actual_cost.value(), 5.0);
    }

    #[test]
    fn saturation_prefers_cheaper_actual_cost_at_same_level() {
        // Both single items are feasible at scaled level 3; the cheaper
        // actual cost must win.
        let items = vec![item(0, 5.0, 3, 3.9), item(1, 9.0, 3, 3.1)];
        let requirement = Contribution::new(4.0).unwrap();
        let table = DpTable::solve(&items, requirement, None);
        let (_, cell) = table.min_feasible(requirement).unwrap();
        assert_eq!(cell.members.iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn exact_tie_breaks_to_lexicographically_smaller_set() {
        let items = vec![item(0, 1.0, 2, 2.0), item(1, 1.0, 2, 2.0)];
        let requirement = Contribution::new(1.0).unwrap();
        let table = DpTable::solve(&items, requirement, None);
        let (_, cell) = table.min_feasible(requirement).unwrap();
        assert_eq!(cell.members.iter().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn level_cap_discards_expensive_states() {
        let items = vec![item(0, 1.0, 2, 2.0), item(1, 1.0, 100, 100.0)];
        let requirement = Contribution::new(2.0).unwrap();
        let table = DpTable::solve(&items, requirement, Some(10));
        // The pair costs 102 > cap, so the requirement is unreachable.
        assert!(table.min_feasible(requirement).is_none());
        // But the single cheap item is still there.
        let half = Contribution::new(1.0).unwrap();
        assert!(table.min_feasible(half).is_some());
    }

    #[test]
    fn zero_cost_items_land_on_level_zero() {
        let items = vec![item(0, 0.7, 0, 0.0), item(1, 0.8, 0, 0.0)];
        let requirement = Contribution::new(1.4).unwrap();
        let table = DpTable::solve(&items, requirement, None);
        let (level, cell) = table.min_feasible(requirement).unwrap();
        assert_eq!(level, 0);
        assert_eq!(cell.members.len(), 2);
    }

    #[test]
    fn agrees_with_pareto_frontier_oracle() {
        // Deterministic pseudo-random small instances.
        let mut seed = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for trial in 0..50 {
            let n = 2 + (next() % 7) as usize;
            let items: Vec<KnapsackItem> = (0..n)
                .map(|i| {
                    let q = 0.1 + (next() % 100) as f64 / 50.0;
                    let scaled = next() % 12;
                    item(i, q, scaled, scaled as f64)
                })
                .collect();
            let requirement = Contribution::new(0.5 + (next() % 100) as f64 / 40.0).unwrap();
            let table = DpTable::solve(&items, requirement, None);
            let frontier = pareto_frontier(&items);
            let via_table = table.min_feasible(requirement).map(|(level, _)| level);
            let via_frontier =
                frontier_min_feasible(&frontier, requirement).map(|state| state.scaled_cost);
            assert_eq!(via_table, via_frontier, "trial {trial} disagreed");
        }
    }

    #[test]
    fn frontier_is_strictly_monotone() {
        let items = vec![
            item(0, 1.0, 3, 3.0),
            item(1, 0.5, 1, 1.0),
            item(2, 2.0, 4, 4.0),
            item(3, 0.2, 1, 1.0),
        ];
        let frontier = pareto_frontier(&items);
        for pair in frontier.windows(2) {
            assert!(pair[0].scaled_cost <= pair[1].scaled_cost);
            assert!(pair[0].contribution < pair[1].contribution);
        }
        // The empty state is always present.
        assert_eq!(frontier[0].scaled_cost, 0);
        assert!(frontier[0].members.is_empty());
    }

    #[test]
    fn raising_a_members_contribution_never_raises_the_answer_cost() {
        // The monotonicity property the FPTAS relies on, checked directly
        // at the DP level on a handful of instances.
        let base = vec![
            item(0, 0.8, 2, 2.0),
            item(1, 0.9, 2, 2.2),
            item(2, 1.5, 3, 3.0),
            item(3, 0.4, 1, 1.0),
        ];
        let requirement = Contribution::new(1.7).unwrap();
        let before = DpTable::solve(&base, requirement, None);
        let (before_level, before_cell) = before.min_feasible(requirement).unwrap();
        for member in before_cell.members.iter() {
            for bump in [0.05, 0.2, 1.0, 5.0] {
                let mut raised = base.clone();
                raised[member].contribution =
                    Contribution::new(raised[member].contribution.value() + bump).unwrap();
                let after = DpTable::solve(&raised, requirement, None);
                let (after_level, after_cell) = after.min_feasible(requirement).unwrap();
                assert!(after_level <= before_level);
                assert!(
                    after_cell.actual_cost <= before_cell.actual_cost || after_level < before_level
                );
                assert!(
                    after_cell.members.contains(member),
                    "member {member} dropped after raising contribution by {bump}"
                );
            }
        }
    }
}
