//! A dense, index-based view of a [`TypeProfile`] and the lazy-greedy
//! allocation engine built on top of it.
//!
//! [`TypeProfile`] is the validated boundary type: `BTreeMap`-backed,
//! id-keyed, convenient to build and to mutate one declaration at a time.
//! The multi-task mechanism, however, replays winner determination
//! many times per round — every critical bid reruns the greedy without
//! its winner, and every bisection probe that rerun cannot decide reruns
//! it again — and at that call rate the map probes and profile clones
//! dominate the runtime. [`IndexedProfile`]
//! flattens the instance **once** into contiguous arrays (CSR-style
//! per-user `(task index, contribution)` entries plus per-task
//! requirements), so every re-run touches nothing but dense `f64` slices
//! and never allocates a modified profile: excluding a user or scaling her
//! contributions is expressed through [`RunOptions`] instead of cloning.
//!
//! The engine is the paper's greedy (Algorithm 4) accelerated with the
//! CELF lazy-evaluation trick from the submodular-maximization literature:
//! a max-heap holds every candidate's capped contribution–cost ratio as a
//! *stale upper bound*. Capped contributions `Σ_j min(q_i^j, Q̄_j)` are
//! monotone non-increasing as the residuals `Q̄` shrink (this also holds
//! for the rounded floating-point sums, because `fl(a+b)` is monotone in
//! both arguments), so a popped entry whose bound is already fresh is the
//! exact argmax and can be selected without rescanning anyone else.
//!
//! ## Memory-bound clearing (10^5–10^6 bidders)
//!
//! Three layers keep the steady state free of per-probe heap traffic
//! (DESIGN.md §12 documents the full protocol):
//!
//! * **Workspace-owned run buffers.** [`IndexedProfile::run_in`] writes
//!   selection order, capped log, flattened residual snapshots, and the
//!   winner [`BitSet`] into the [`Workspace`] and returns a borrowed
//!   [`RunView`] — a bisection's 60 probes reuse the same capacity and
//!   allocate nothing.
//! * **Precomputed heap seeds.** Every probe used to rebuild the heap
//!   with a full `O(Σ entries)` capped rescan plus `n` sift-up pushes.
//!   [`HeapSeeds`] stores the initial entries once per round; a probe
//!   copies them (one memcpy), patches at most two slots (the excluded
//!   or substituted user), and re-establishes the heap invariant with
//!   Floyd's `O(n)` bottom-up heapify. Because [`beats`] is a *strict
//!   total order* (distinct users never compare equal), a valid max-heap
//!   pops in exactly descending order regardless of its internal layout —
//!   so the seeded heap's pop sequence is bitwise identical to the
//!   push-built one. The same fact lets the heap be 4-ary (half the depth
//!   of a binary heap) and lets a stale top be re-evaluated and written
//!   back at the root with one sift-down (`refresh_top`) instead of a
//!   pop and a push: either way the heap holds the same entry set.
//! * **One recorded run per round, resumed by every exclusion run.**
//!   [`IndexedProfile::record_in`] records the round's allocation run
//!   once — selection, capped values, residual snapshots and a log of
//!   every stale re-evaluation — into a [`RecordedRun`] the
//!   [`ClearContext`] reuses across rounds. Each winner's θ₋ᵢ run then
//!   resumes at her pick step ([`IndexedProfile::resume_in`]): the picks
//!   before it never chose her, so they are copied, and the heap at that
//!   step is the seeds overlaid with the logged re-evaluations, less the
//!   picks and her. The run continues from there bit for bit as if it
//!   had been replayed from step 0.
//! * **Delta-patched cross-round reuse.** [`IndexedProfile::sync_with`]
//!   patches user rows and task requirements in place when the task list
//!   and the retained user prefix are unchanged (the common campaign
//!   round-over-round case), falling back to a buffer-reusing
//!   [`IndexedProfile::reflatten`] otherwise. A retained row whose cost,
//!   task ids and contribution bits all match the stored row is left
//!   alone without re-flattening it. [`ClearContext`] bundles the
//!   persistent index, its seeds, its recorded run, and a
//!   [`WorkspacePool`]; shard workers and campaign rounds check contexts
//!   out of a shared [`ContextPool`].
//!
//! ## Bitwise equivalence
//!
//! The engine is not "approximately" the reference implementation
//! ([`crate::multi_task::reference`]): selections, capped contributions,
//! residual snapshots, and every critical bid derived from them are
//! **bitwise identical**. The float operations are kept in the reference
//! order — capped sums add a user's entries in task publication order
//! (skipping an absent task adds an exact `0.0`, which is a no-op on
//! non-negative sums; the blocked inner loop below changes only how the
//! `min` operands are *selected*, never the order they are summed in),
//! residual subtraction is the same saturating `max(0, Q̄ - q)`, and ties
//! break by the same cross-multiplied ratio comparison followed by
//! smaller-user-id-wins. The equivalence is enforced by the proptest
//! suites in `tests/engine_equivalence.rs` (including resumed against
//! replayed exclusion runs) and `tests/index_delta.rs`.

use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::{Arc, Mutex};

use crate::multi_task::COVERAGE_MARGIN;
use crate::types::{TaskId, TypeProfile, UserId, UserType, CONTRIBUTION_TOLERANCE};

/// A fixed-capacity bit mask over dense positions, packed into `u64`
/// words. Backs the winner mask of a greedy run: membership tests are one
/// shift-and-test instead of an `O(|winners|)` scan over the selection.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An empty mask.
    pub fn new() -> Self {
        BitSet::default()
    }

    /// Clears the mask and resizes it to cover `len` positions, retaining
    /// the word buffer's capacity.
    pub fn reset(&mut self, len: usize) {
        self.words.clear();
        self.words.resize(len.div_ceil(64), 0);
        self.len = len;
    }

    /// Sets the bit at `index` (must be within the reset length).
    pub fn insert(&mut self, index: usize) {
        debug_assert!(index < self.len, "bit {index} out of range {}", self.len);
        self.words[index >> 6] |= 1u64 << (index & 63);
    }

    /// Whether the bit at `index` is set; out-of-range indices are `false`.
    pub fn contains(&self, index: usize) -> bool {
        self.words
            .get(index >> 6)
            .is_some_and(|word| (word >> (index & 63)) & 1 == 1)
    }

    /// The number of positions the mask covers.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the mask covers zero positions.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The number of set bits.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }
}

/// Clearing-kernel profiling counters: what the hot path actually did.
///
/// Counting is branch-free — plain `u64` increments on fields that live
/// in the already-hot [`Workspace`]/[`ClearContext`] cache lines — so the
/// counters are always maintained; the *surfacing* (atomic drains into
/// engine metrics) is what an engine's profiling flag gates. Counters are
/// pure telemetry: nothing in the clearing path ever reads them back, so
/// selections, payments, and fingerprints are bitwise independent of them.
///
/// Two conservation laws hold by construction and are checked by the
/// harness oracle:
///
/// * `probes_saved_warm_start + probes_saved_loss_scan + probes_run ==
///   probes_requested` — every bisection step is decided exactly once.
/// * `reuse_hits + sync_patched + sync_reflattened == prepares` — every
///   prepared round syncs in exactly one mode.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfCounters {
    /// Rounds prepared through a [`ClearContext`] (arena checkouts).
    pub prepares: u64,
    /// Prepares whose [`IndexedProfile::sync_with`] found the index
    /// bitwise up to date ([`SyncMode::Unchanged`]) — the reuse hits.
    pub reuse_hits: u64,
    /// Prepares that delta-patched rows/requirements in place.
    pub sync_patched: u64,
    /// Prepares that re-flattened the index from scratch.
    pub sync_reflattened: u64,
    /// Heap-seed rebuilds (one per prepare that changed the index).
    pub seed_rebuilds: u64,
    /// Retained user rows patched across all syncs.
    pub users_patched: u64,
    /// User rows appended across all syncs.
    pub users_appended: u64,
    /// Resident arena footprint at the last prepare, bytes (a gauge:
    /// latest value, not a sum): the index and its heap seeds, the
    /// context's recorded allocation run, and every pooled workspace —
    /// all of it held across rounds.
    pub resident_bytes: u64,
    /// Lazy-greedy heap tops examined across all runs: one per top,
    /// whether it was selected, refreshed in place, or dropped.
    pub heap_pops: u64,
    /// Tops whose bound was stale: re-evaluated against the current
    /// residuals and refreshed in place (or dropped at the tolerance)
    /// instead of selected.
    pub stale_reevals: u64,
    /// Bisection steps requested across all critical-bid searches.
    pub probes_requested: u64,
    /// Steps that ran the real greedy probe: the coverage certificate
    /// declined, or the θ₋ᵢ base run was itself infeasible.
    pub probes_run: u64,
    /// Steps skipped by the Algorithm-5 warm-start certificate.
    pub probes_saved_warm_start: u64,
    /// Steps decided from the θ₋ᵢ base run: certain losses and certified
    /// wins (`IndexedProfile::probe_verdict`).
    pub probes_saved_loss_scan: u64,
}

impl ProfCounters {
    /// Folds `other` into this accumulator (sums counters, takes the
    /// latest non-zero resident-bytes gauge).
    pub fn merge(&mut self, other: &ProfCounters) {
        self.prepares += other.prepares;
        self.reuse_hits += other.reuse_hits;
        self.sync_patched += other.sync_patched;
        self.sync_reflattened += other.sync_reflattened;
        self.seed_rebuilds += other.seed_rebuilds;
        self.users_patched += other.users_patched;
        self.users_appended += other.users_appended;
        if other.resident_bytes != 0 {
            self.resident_bytes = other.resident_bytes;
        }
        self.heap_pops += other.heap_pops;
        self.stale_reevals += other.stale_reevals;
        self.probes_requested += other.probes_requested;
        self.probes_run += other.probes_run;
        self.probes_saved_warm_start += other.probes_saved_warm_start;
        self.probes_saved_loss_scan += other.probes_saved_loss_scan;
    }

    /// Total bisection steps skipped without running the greedy.
    pub fn probes_saved(&self) -> u64 {
        self.probes_saved_warm_start + self.probes_saved_loss_scan
    }

    /// Whether the counters satisfy their conservation laws (see the
    /// struct docs) — the harness oracle's check.
    pub fn is_conserved(&self) -> bool {
        self.probes_saved() + self.probes_run == self.probes_requested
            && self.reuse_hits + self.sync_patched + self.sync_reflattened == self.prepares
            && self.reuse_hits <= self.prepares
            && self.stale_reevals <= self.heap_pops
    }
}

/// A dense snapshot of a [`TypeProfile`], built once per round and shared
/// (immutably) by every greedy re-run and payment computation — or kept
/// alive *across* rounds and delta-patched via
/// [`IndexedProfile::sync_with`].
///
/// User positions follow declaration order, task positions follow
/// publication order — the same orders the reference implementation
/// iterates in, which is what makes the float arithmetic reproducible.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexedProfile {
    user_ids: Vec<UserId>,
    costs: Vec<f64>,
    /// Declared total contribution per user, `Σ_j q_i^j` — taken verbatim
    /// from [`crate::types::UserType::total_contribution`], which sums in
    /// ascending `TaskId` order (not necessarily publication order), so it
    /// is stored rather than recomputed from the entries below.
    totals: Vec<f64>,
    /// CSR offsets: user `i`'s entries live at `offsets[i]..offsets[i+1]`.
    offsets: Vec<usize>,
    /// Task position (publication order) of each entry, ascending per
    /// user. `u32` halves the index column's cache footprint; a round
    /// publishes far fewer than 2^32 tasks.
    entry_task: Vec<u32>,
    /// Contribution `q_i^j` of each entry.
    entry_q: Vec<f64>,
    /// Requirement contribution `Q_j` per task, in publication order.
    requirements: Vec<f64>,
    task_ids: Vec<TaskId>,
    /// Whether `user_ids` is strictly ascending, making `position_of` a
    /// direct binary search (the common case: validated profiles list
    /// users in id order).
    ids_sorted: bool,
    /// When `ids_sorted` is false: user positions sorted by user id, the
    /// indirection `position_of` binary-searches instead.
    lookup: Vec<u32>,
}

impl IndexedProfile {
    fn empty() -> Self {
        IndexedProfile {
            user_ids: Vec::new(),
            costs: Vec::new(),
            totals: Vec::new(),
            offsets: Vec::new(),
            entry_task: Vec::new(),
            entry_q: Vec::new(),
            requirements: Vec::new(),
            task_ids: Vec::new(),
            ids_sorted: true,
            lookup: Vec::new(),
        }
    }

    /// Flattens `profile` into the dense form.
    pub fn from_profile(profile: &TypeProfile) -> Self {
        let mut indexed = IndexedProfile::empty();
        indexed.reflatten(profile);
        indexed
    }

    /// Re-flattens `profile` into this index from scratch, reusing every
    /// buffer's capacity. Equivalent to `*self =
    /// IndexedProfile::from_profile(profile)` without the allocations.
    pub fn reflatten(&mut self, profile: &TypeProfile) {
        let task_position: BTreeMap<TaskId, u32> = profile
            .task_ids()
            .enumerate()
            .map(|(position, task)| (task, position as u32))
            .collect();
        self.user_ids.clear();
        self.costs.clear();
        self.totals.clear();
        self.offsets.clear();
        self.offsets.push(0);
        self.entry_task.clear();
        self.entry_q.clear();
        self.requirements.clear();
        self.requirements.extend(
            profile
                .tasks()
                .iter()
                .map(|t| t.requirement_contribution().value()),
        );
        self.task_ids.clear();
        self.task_ids.extend(profile.task_ids());
        let mut scratch = Vec::new();
        for user in profile.users() {
            self.push_row(user, &task_position, &mut scratch);
        }
        self.rebuild_lookup();
    }

    /// Brings this index up to date with `profile` by patching in place
    /// where the shapes allow it, re-flattening otherwise.
    ///
    /// The patch path applies when the published task list is positionally
    /// identical (same ids, same order) and the retained user prefix kept
    /// its identity and order — the common campaign case, where most of
    /// the population re-bids and new arrivals append. Requirement values,
    /// costs, totals, and contribution rows are then overwritten (or
    /// spliced, when a user's task set changed shape) without rebuilding
    /// the CSR arrays. The result is **bitwise identical** to a fresh
    /// [`IndexedProfile::from_profile`] rebuild — value comparisons are
    /// done on raw bits, so even a `-0.0`/`+0.0` flip is patched through —
    /// which `tests/index_delta.rs` proves by proptest.
    pub fn sync_with(&mut self, profile: &TypeProfile) -> SyncStats {
        let tasks_match = profile.tasks().len() == self.task_ids.len()
            && profile
                .task_ids()
                .zip(self.task_ids.iter())
                .all(|(new, &old)| new == old);
        if !tasks_match {
            self.reflatten(profile);
            return SyncStats::reflattened();
        }
        let old_n = self.user_ids.len();
        let users = profile.users();
        let prefix_matches = users.len() >= old_n
            && users[..old_n]
                .iter()
                .zip(&self.user_ids)
                .all(|(user, &id)| user.id() == id);
        if !prefix_matches {
            self.reflatten(profile);
            return SyncStats::reflattened();
        }

        let mut stats = SyncStats::unchanged();
        for (position, task) in profile.tasks().iter().enumerate() {
            let requirement = task.requirement_contribution().value();
            if requirement.to_bits() != self.requirements[position].to_bits() {
                self.requirements[position] = requirement;
                stats.requirements_patched += 1;
            }
        }

        let task_position: BTreeMap<TaskId, u32> = self
            .task_ids
            .iter()
            .enumerate()
            .map(|(position, &task)| (task, position as u32))
            .collect();
        let mut scratch: Vec<(u32, f64)> = Vec::new();
        // Splices shift every later entry; `shift` tracks the running
        // displacement so each user's *current* span is derived from the
        // original offsets, which stay untouched ahead of the cursor.
        let mut shift: isize = 0;
        for (position, user) in users.iter().enumerate().take(old_n) {
            let start = self.offsets[position];
            let old_end = self.offsets[position + 1];
            let cur_end = (old_end as isize + shift) as usize;
            if self.row_unchanged(position, start..cur_end, user) {
                self.offsets[position + 1] = cur_end;
                continue;
            }
            let mut touched = false;
            let cost = user.cost().value();
            if cost.to_bits() != self.costs[position].to_bits() {
                self.costs[position] = cost;
                touched = true;
            }
            let total = user.total_contribution().value();
            if total.to_bits() != self.totals[position].to_bits() {
                self.totals[position] = total;
                touched = true;
            }
            flatten_row(user, &task_position, &mut scratch);
            let same_shape = scratch.len() == cur_end - start
                && scratch
                    .iter()
                    .zip(&self.entry_task[start..cur_end])
                    .all(|(&(task, _), &old)| task == old);
            if same_shape {
                for (k, &(_, q)) in scratch.iter().enumerate() {
                    if q.to_bits() != self.entry_q[start + k].to_bits() {
                        self.entry_q[start + k] = q;
                        touched = true;
                    }
                }
            } else {
                self.entry_task
                    .splice(start..cur_end, scratch.iter().map(|&(task, _)| task));
                self.entry_q
                    .splice(start..cur_end, scratch.iter().map(|&(_, q)| q));
                shift += scratch.len() as isize - (cur_end - start) as isize;
                touched = true;
            }
            self.offsets[position + 1] = (old_end as isize + shift) as usize;
            if touched {
                stats.users_patched += 1;
            }
        }
        for user in &users[old_n..] {
            self.push_row(user, &task_position, &mut scratch);
            stats.users_appended += 1;
        }
        if stats.users_appended > 0 {
            self.rebuild_lookup();
        }
        if stats.users_patched + stats.users_appended + stats.requirements_patched > 0 {
            stats.mode = SyncMode::Patched;
        }
        stats
    }

    /// Whether `user` declares exactly the stored row at `position`, whose
    /// entries currently span `span`: the same cost bits, the same task
    /// count, and in order the same task ids with the same contribution
    /// bits. The stored total was summed from those bits in that order, so
    /// a match leaves the whole row as it is without re-flattening it or
    /// re-deriving its total. A row stored out of task-id order (its tasks
    /// published in another order) never matches and takes the patch path.
    fn row_unchanged(&self, position: usize, span: Range<usize>, user: &UserType) -> bool {
        user.cost().value().to_bits() == self.costs[position].to_bits()
            && user.task_count() == span.len()
            && user
                .tasks()
                .zip(&self.entry_task[span.clone()])
                .zip(&self.entry_q[span])
                .all(|(((task, pos), &stored), &q)| {
                    self.task_ids[stored as usize] == task
                        && pos.contribution().value().to_bits() == q.to_bits()
                })
    }

    fn push_row(
        &mut self,
        user: &UserType,
        task_position: &BTreeMap<TaskId, u32>,
        scratch: &mut Vec<(u32, f64)>,
    ) {
        self.user_ids.push(user.id());
        self.costs.push(user.cost().value());
        self.totals.push(user.total_contribution().value());
        flatten_row(user, task_position, scratch);
        for &(position, q) in scratch.iter() {
            self.entry_task.push(position);
            self.entry_q.push(q);
        }
        self.offsets.push(self.entry_task.len());
    }

    fn rebuild_lookup(&mut self) {
        self.ids_sorted = self.user_ids.windows(2).all(|w| w[0] < w[1]);
        self.lookup.clear();
        if !self.ids_sorted {
            let ids = &self.user_ids;
            self.lookup.extend(0..ids.len() as u32);
            self.lookup
                .sort_unstable_by_key(|&position| ids[position as usize]);
        }
    }

    /// Number of users `n`.
    pub fn user_count(&self) -> usize {
        self.user_ids.len()
    }

    /// Number of tasks `t`.
    pub fn task_count(&self) -> usize {
        self.task_ids.len()
    }

    /// The id of the user at `position` (declaration order).
    pub fn user_id(&self, position: usize) -> UserId {
        self.user_ids[position]
    }

    /// The id of the task at `position` (publication order).
    pub fn task_id(&self, position: usize) -> TaskId {
        self.task_ids[position]
    }

    /// The cost `c_i` of the user at `position`.
    pub fn cost(&self, position: usize) -> f64 {
        self.costs[position]
    }

    /// The declared total contribution `Σ_j q_i^j` of the user at `position`.
    pub fn total(&self, position: usize) -> f64 {
        self.totals[position]
    }

    /// The position of `user`, if she is in the profile — a binary search
    /// over the id-sorted view (direct when declarations arrived in id
    /// order, through a sorted permutation otherwise).
    pub fn position_of(&self, user: UserId) -> Option<usize> {
        if self.ids_sorted {
            self.user_ids.binary_search(&user).ok()
        } else {
            self.lookup
                .binary_search_by(|&position| self.user_ids[position as usize].cmp(&user))
                .ok()
                .map(|found| self.lookup[found] as usize)
        }
    }

    /// The contribution entries `q_i^j` of the user at `position`, in task
    /// publication order — the slice shape a [`RunOptions::substitute`]
    /// override must match.
    pub fn contributions_of(&self, position: usize) -> &[f64] {
        &self.entry_q[self.offsets[position]..self.offsets[position + 1]]
    }

    /// `Σ_{j ∈ S_i} min(q_i^j, Q̄_j)` — the capped marginal contribution,
    /// accumulated exactly like the reference (`Contribution::min` picks
    /// `q` on ties; absent tasks contribute an exact `0.0`, skipped here).
    fn capped(&self, position: usize, residual: &[f64], options: &RunOptions<'_>) -> f64 {
        let span = self.offsets[position]..self.offsets[position + 1];
        let tasks = &self.entry_task[span.clone()];
        let qs: &[f64] = match options.substitute {
            Some((substituted, qs)) if substituted == position => qs,
            _ => &self.entry_q[span],
        };
        capped_span(tasks, qs, residual)
    }

    /// Precomputes the initial heap for runs against the *full*
    /// requirements: every candidate whose unmodified capped contribution
    /// clears the tolerance, in position order.
    pub fn heap_seeds(&self) -> HeapSeeds {
        let mut seeds = HeapSeeds::default();
        self.rebuild_seeds(&mut seeds);
        seeds
    }

    /// Rebuilds `seeds` in place for the current index contents (reusing
    /// its buffers). Must be re-run after any [`IndexedProfile::sync_with`]
    /// that reported changes.
    pub fn rebuild_seeds(&self, seeds: &mut HeapSeeds) {
        seeds.entries.clear();
        seeds.slot_of.clear();
        seeds.slot_of.resize(self.user_count(), NO_SLOT);
        let options = RunOptions::default();
        for position in 0..self.user_count() {
            let capped = self.capped(position, &self.requirements, &options);
            if capped > CONTRIBUTION_TOLERANCE {
                seeds.slot_of[position] = seeds.entries.len() as u32;
                seeds.entries.push(HeapEntry {
                    capped,
                    cost: self.costs[position],
                    id: self.user_ids[position],
                    position: position as u32,
                    version: 0,
                });
            }
        }
    }

    /// Builds the initial heap by scanning every candidate — the seedless
    /// path. Exclusion splits the scan range instead of testing each
    /// candidate, so the inner loop carries no per-candidate branch.
    fn scan_heap(&self, heap: &mut Vec<HeapEntry>, options: &RunOptions<'_>) {
        heap.clear();
        let n = self.user_count();
        let (before, after) = match options.excluded {
            Some(excluded) if excluded < n => (0..excluded, excluded + 1..n),
            _ => (0..n, n..n),
        };
        for position in before.chain(after) {
            let capped = self.capped(position, &self.requirements, options);
            if capped > CONTRIBUTION_TOLERANCE {
                heap_push(
                    heap,
                    HeapEntry {
                        capped,
                        cost: self.costs[position],
                        id: self.user_ids[position],
                        position: position as u32,
                        version: 0,
                    },
                );
            }
        }
    }

    /// Builds the initial heap from precomputed seeds: one memcpy, at most
    /// two slot patches (the excluded and/or substituted user), then a
    /// Floyd bottom-up heapify. Pops in exactly the same order as the
    /// scanned heap because [`beats`] is a strict total order — the heap's
    /// internal layout never influences which element is the maximum.
    fn seed_heap(&self, heap: &mut Vec<HeapEntry>, seeds: &HeapSeeds, options: &RunOptions<'_>) {
        debug_assert_eq!(
            seeds.slot_of.len(),
            self.user_count(),
            "heap seeds out of sync with the index"
        );
        heap.clear();
        heap.extend_from_slice(&seeds.entries);
        // `swap_remove` relocates the last entry; remember where it went
        // so the substitute patch below still finds its slot.
        let mut moved: Option<(usize, usize)> = None;
        if let Some(excluded) = options.excluded {
            if let Some(slot) = seeds.slot(excluded) {
                let last = heap.len() - 1;
                heap.swap_remove(slot);
                if slot != last {
                    moved = Some((last, slot));
                }
            }
        }
        if let Some((position, _)) = options.substitute {
            if options.excluded != Some(position) {
                let capped = self.capped(position, &self.requirements, options);
                let slot = seeds.slot(position).map(|slot| match moved {
                    Some((from, to)) if slot == from => to,
                    _ => slot,
                });
                match (slot, capped > CONTRIBUTION_TOLERANCE) {
                    (Some(slot), true) => heap[slot].capped = capped,
                    (Some(slot), false) => {
                        heap.swap_remove(slot);
                    }
                    (None, true) => heap.push(HeapEntry {
                        capped,
                        cost: self.costs[position],
                        id: self.user_ids[position],
                        position: position as u32,
                        version: 0,
                    }),
                    (None, false) => {}
                }
            }
        }
        heapify(heap);
    }

    /// Bytes resident in this index's flattened arrays (capacities, not
    /// lengths — what the arena actually holds onto across rounds).
    pub fn resident_bytes(&self) -> usize {
        self.user_ids.capacity() * size_of::<UserId>()
            + (self.costs.capacity() + self.totals.capacity() + self.entry_q.capacity())
                * size_of::<f64>()
            + self.offsets.capacity() * size_of::<usize>()
            + (self.entry_task.capacity() + self.lookup.capacity()) * size_of::<u32>()
            + self.requirements.capacity() * size_of::<f64>()
            + self.task_ids.capacity() * size_of::<TaskId>()
    }

    /// Runs the lazy greedy to exhaustion, recording into `workspace` and
    /// returning a borrowed view over its buffers — the zero-allocation
    /// path every bisection probe takes. See [`Record`] for what gets
    /// recorded; probes use [`Record::Selection`] and skip all
    /// bookkeeping.
    pub fn run_in<'w>(
        &self,
        workspace: &'w mut Workspace,
        options: RunOptions<'_>,
        record: Record,
    ) -> RunView<'w> {
        self.start_in(workspace, &options);
        let uncovered = self.greedy(workspace, &options, record, None, 0);
        workspace.view(self.task_count(), uncovered)
    }

    /// Resets `workspace` for a run from step 0: full requirements, empty
    /// outputs, and the initial heap.
    fn start_in(&self, workspace: &mut Workspace, options: &RunOptions<'_>) {
        workspace.residual.clear();
        workspace.residual.extend_from_slice(&self.requirements);
        workspace.selection.clear();
        workspace.capped.clear();
        workspace.snapshots.clear();
        workspace.winner_mask.reset(self.user_count());
        match options.seeds {
            Some(seeds) => self.seed_heap(&mut workspace.heap, seeds, options),
            None => self.scan_heap(&mut workspace.heap, options),
        }
    }

    /// Runs the allocation greedy (full requirements, from `seeds`) and
    /// keeps it in `recorded` at the `record` level. A [`Record::Full`]
    /// recording also logs every stale re-evaluation, which makes it
    /// resumable ([`IndexedProfile::resume_in`]); the run is otherwise
    /// the one [`IndexedProfile::run_in`] makes, pop for pop.
    pub fn record_in(
        &self,
        workspace: &mut Workspace,
        seeds: &HeapSeeds,
        record: Record,
        recorded: &mut RecordedRun,
    ) {
        let options = RunOptions {
            seeds: Some(seeds),
            ..RunOptions::default()
        };
        self.start_in(workspace, &options);
        let resumable = record == Record::Full;
        recorded.reevals.clear();
        let log = resumable.then_some(&mut recorded.reevals);
        recorded.uncovered = self.greedy(workspace, &options, record, log, 0);
        recorded.resumable = resumable;
        recorded.stride = self.task_count();
        recorded.selection.clear();
        recorded.selection.extend_from_slice(&workspace.selection);
        recorded.capped.clear();
        recorded.capped.extend_from_slice(&workspace.capped);
        recorded.snapshots.clear();
        recorded.snapshots.extend_from_slice(&workspace.snapshots);
        if resumable {
            // The residual after the last pick, where a run without a
            // user the base never picked resumes.
            recorded.snapshots.extend_from_slice(&workspace.residual);
        }
    }

    /// The greedy run without the user at `excluded`, resumed from the
    /// recorded allocation run at the step that picked her instead of
    /// replayed from step 0. Bitwise the [`Record::Full`] run that
    /// [`IndexedProfile::run_in`] makes with `excluded` and `seeds` set.
    ///
    /// Every pick before her step `t` is the argmax over candidates other
    /// than her, so the run without her makes the same picks on the same
    /// residuals: its first `t` steps are copied from the record. Up to
    /// step `t` it pops exactly the recorded run's tops minus her own, so
    /// its heap then holds the recorded heap's `(bound, version)` set
    /// minus her: the seeds, overlaid with every logged re-evaluation of
    /// steps `≤ t`, less the prefix picks, her, and every entry dropped at
    /// the tolerance. Any valid heap over that set pops identically
    /// (`beats` is a strict total order), so the run continues at
    /// version `t` from snapshot `t`. A user the run never picked resumes
    /// after its last step.
    ///
    /// `recorded` must come from [`IndexedProfile::record_in`] on this
    /// index with these `seeds`.
    ///
    /// # Panics
    ///
    /// If `recorded` is not a [`Record::Full`] recording, or was recorded
    /// over a different task count.
    pub fn resume_in<'w>(
        &self,
        workspace: &'w mut Workspace,
        seeds: &HeapSeeds,
        recorded: &RecordedRun,
        excluded: usize,
    ) -> RunView<'w> {
        let stride = self.task_count();
        assert!(
            recorded.resumable && recorded.stride == stride,
            "only a fully recorded run of this index can be resumed"
        );
        let step = recorded.step_of(excluded);
        workspace.selection.clear();
        workspace
            .selection
            .extend_from_slice(&recorded.selection[..step]);
        workspace.capped.clear();
        workspace.capped.extend_from_slice(&recorded.capped[..step]);
        workspace.snapshots.clear();
        workspace
            .snapshots
            .extend_from_slice(&recorded.snapshots[..step * stride]);
        workspace.residual.clear();
        workspace
            .residual
            .extend_from_slice(&recorded.snapshots[step * stride..(step + 1) * stride]);
        workspace.winner_mask.reset(self.user_count());
        for &pick in &workspace.selection {
            workspace.winner_mask.insert(pick);
        }

        let heap = &mut workspace.heap;
        heap.clear();
        heap.extend_from_slice(&seeds.entries);
        let logged = recorded
            .reevals
            .partition_point(|reeval| reeval.step as usize <= step);
        for reeval in &recorded.reevals[..logged] {
            let slot = seeds
                .slot(reeval.position as usize)
                .expect("a re-evaluated candidate was seeded");
            heap[slot].capped = reeval.capped;
            heap[slot].version = reeval.step;
        }
        let picked = &workspace.winner_mask;
        heap.retain(|entry| {
            let position = entry.position as usize;
            entry.capped > CONTRIBUTION_TOLERANCE
                && position != excluded
                && !picked.contains(position)
        });
        heapify(heap);

        let uncovered = self.greedy(
            workspace,
            &RunOptions::default(),
            Record::Full,
            None,
            step as u32,
        );
        workspace.view(stride, uncovered)
    }

    /// The lazy-greedy loop from `version` on, over the residuals, heap
    /// and outputs already in `workspace`; returns the first task left
    /// uncovered if the candidates run out. With `log`, every stale
    /// re-evaluation is appended to it.
    fn greedy(
        &self,
        workspace: &mut Workspace,
        options: &RunOptions<'_>,
        record: Record,
        mut log: Option<&mut Vec<Reeval>>,
        mut version: u32,
    ) -> Option<usize> {
        let mut unmet = workspace
            .residual
            .iter()
            .filter(|&&r| r > CONTRIBUTION_TOLERANCE)
            .count();
        while unmet > 0 {
            let Some(&top) = workspace.heap.first() else {
                return workspace
                    .residual
                    .iter()
                    .position(|&r| r > CONTRIBUTION_TOLERANCE);
            };
            workspace.prof.heap_pops += 1;
            if top.version != version {
                workspace.prof.stale_reevals += 1;
                // Stale upper bound: refresh it in place against the
                // current residuals. Capped contributions only shrink, so
                // a candidate that drops to zero is gone for good —
                // exactly the users the reference scan filters out.
                let capped = self.capped(top.position as usize, &workspace.residual, options);
                if let Some(log) = log.as_deref_mut() {
                    log.push(Reeval {
                        step: version,
                        position: top.position,
                        capped,
                    });
                }
                if capped > CONTRIBUTION_TOLERANCE {
                    refresh_top(&mut workspace.heap, capped, version);
                } else {
                    heap_pop(&mut workspace.heap);
                }
                continue;
            }
            // Fresh bound at the top of the heap: `top` is the exact argmax
            // of the capped-contribution–cost ratio — select it.
            heap_pop(&mut workspace.heap);
            let position = top.position as usize;
            if record >= Record::Full {
                let residual = &workspace.residual;
                workspace.snapshots.extend_from_slice(residual);
            }
            if record >= Record::Iterations {
                workspace.capped.push(top.capped);
            }
            workspace.selection.push(position);
            workspace.winner_mask.insert(position);
            let span = self.offsets[position]..self.offsets[position + 1];
            let tasks = &self.entry_task[span.clone()];
            let qs: &[f64] = match options.substitute {
                Some((substituted, qs)) if substituted == position => qs,
                _ => &self.entry_q[span],
            };
            for (&task, &q) in tasks.iter().zip(qs) {
                let r = &mut workspace.residual[task as usize];
                let was_unmet = *r > CONTRIBUTION_TOLERANCE;
                *r = (*r - q).max(0.0);
                if was_unmet && *r <= CONTRIBUTION_TOLERANCE {
                    unmet -= 1;
                }
            }
            version += 1;
        }
        None
    }

    /// Records `run` — the greedy without the winner being priced — as
    /// the base her payment probes are decided from
    /// ([`IndexedProfile::probe_verdict`]), reusing `base`'s buffers.
    ///
    /// Besides the selections, capped values and residual snapshots
    /// ([`Record::Full`] runs only), it derives the coverage suffix sums:
    /// row `t` holds, for each task, the sum of the entries above
    /// [`CONTRIBUTION_TOLERANCE`] of picks `t, t+1, …`.
    pub(crate) fn store_base(&self, run: &RunView<'_>, base: &mut BaseRun) {
        let stride = run.stride;
        base.selection.clear();
        base.selection.extend_from_slice(run.selection);
        base.capped.clear();
        base.capped.extend_from_slice(run.capped);
        base.snapshots.clear();
        base.snapshots.extend_from_slice(run.snapshots);
        base.stride = stride;
        base.complete = run.is_complete();
        base.suffix.clear();
        base.suffix.resize(run.selection.len() * stride, 0.0);
        for (step, &pick) in run.selection.iter().enumerate().rev() {
            let (row, later) = base.suffix[step * stride..].split_at_mut(stride);
            if !later.is_empty() {
                row.copy_from_slice(&later[..stride]);
            }
            let span = self.offsets[pick]..self.offsets[pick + 1];
            let entries = self.entry_task[span.clone()]
                .iter()
                .zip(&self.entry_q[span]);
            for (&task, &q) in entries {
                if q > CONTRIBUTION_TOLERANCE {
                    row[task as usize] += q;
                }
            }
        }
    }

    /// Decides a bisection probe from the θ₋ᵢ `base` run where that is
    /// exact: `Some(false)` is a certain loss, `Some(true)` a certain win,
    /// and `None` means the caller must run the real greedy probe.
    ///
    /// **Loss.** With `scaled` substituted at `position`, the probe's
    /// selection sequence equals the base run's for as long as the probed
    /// user never beats the base's pick: at each step the base pick is the
    /// argmax over every *other* candidate, so the probe argmax is simply
    /// `max(base pick, probed user)` under the same strict [`beats`] order
    /// the heap maximizes, evaluated at the recorded residual snapshot. If
    /// she never wins a comparison (or her capped contribution falls to
    /// the tolerance, which is monotone in the shrinking residuals and
    /// drops her from candidacy for good), the probe replays the base run
    /// verbatim and she is never selected.
    ///
    /// **Win.** If she first beats the pick at step `t`, the probe has
    /// replayed the base up to `t`; the base was still running there, so
    /// the probe selects her at `t`. She then wins iff the probe covers
    /// every task. Let `r'_j = max(0, Q̄_j − s·q_i^j)` be the probe's
    /// residual right after her selection (the greedy's own saturating
    /// subtraction on snapshot `t`). Suppose task `j` were left unmet
    /// (`r_j > tol` when the candidates ran out). Every base pick from
    /// step `t` on with an entry `q_k^j > tol` keeps a capped contribution
    /// `≥ min(q_k^j, r_j) > tol`, so it is still a candidate; hence all of
    /// them were selected, and their entries sum to at least `r'_j`
    /// whenever the base's suffix sum `S_t[j]` does. So the probe is a
    /// certain win when every task with `r'_j > tol` has
    /// `S_t[j] · (1 − COVERAGE_MARGIN) ≥ r'_j`.
    ///
    /// **Rounding.** The probe applies at most `n` saturating
    /// subtractions to `r'_j`, each off by at most `u·r'_j` (`u = 2⁻⁵³`),
    /// and `S_t[j]` sums at most `n` terms, off by at most a factor
    /// `1 + γ_n`, `γ_n = n·u / (1 − n·u)`. For every `n ≤ 2³²` the
    /// u32-indexed arena can hold, `γ_n < 4.8·10⁻⁷` and
    /// `(1 + γ_n)² · (1 − 10⁻⁶) < 1`, so the certified sum covers `r'_j`
    /// with all rounding on the wrong side. The margin only decides when
    /// to fall back to the real probe; it never changes a verdict.
    ///
    /// **Dust.** "Selected ⇒ wins" alone is false when the covering
    /// entries are at or below the tolerance: with requirements of
    /// 2.5·10⁻⁹ and rivals holding 0.9·10⁻⁹ per task, each rival's capped
    /// sum drops to ≤ 10⁻⁹ once she is selected and the probe ends
    /// infeasible. Such entries are left out of `S_t`, so the certificate
    /// declines and the real probe decides.
    ///
    /// An incomplete base (the rivals alone cannot cover every task)
    /// decides nothing: the greedy would select her as a last resort once
    /// every rival is exhausted, which no prefix comparison can rule out.
    pub(crate) fn probe_verdict(
        &self,
        position: usize,
        scaled: &[f64],
        base: &BaseRun,
    ) -> Option<bool> {
        if !base.complete {
            return None;
        }
        let span = self.offsets[position]..self.offsets[position + 1];
        let tasks = &self.entry_task[span];
        let cost = self.costs[position];
        let id = self.user_ids[position];
        for (step, (&rival, &rival_capped)) in base.selection.iter().zip(&base.capped).enumerate() {
            let row = step * base.stride..(step + 1) * base.stride;
            let residual = &base.snapshots[row.clone()];
            let capped = capped_span(tasks, scaled, residual);
            if capped <= CONTRIBUTION_TOLERANCE {
                return Some(false);
            }
            let probed = HeapEntry {
                capped,
                cost,
                id,
                position: position as u32,
                version: 0,
            };
            let pick = HeapEntry {
                capped: rival_capped,
                cost: self.costs[rival],
                id: self.user_ids[rival],
                position: rival as u32,
                version: 0,
            };
            if beats(&probed, &pick) {
                return certainly_covers(tasks, scaled, residual, &base.suffix[row])
                    .then_some(true);
            }
        }
        Some(false)
    }
}

/// The coverage certificate of [`IndexedProfile::probe_verdict`]: whether
/// the base picks' suffix sums `suffix` certainly cover every task's
/// residual once the probed user's entries (`tasks`, `qs`) are subtracted
/// from `residual`, with the [`COVERAGE_MARGIN`] left for rounding.
fn certainly_covers(tasks: &[u32], qs: &[f64], residual: &[f64], suffix: &[f64]) -> bool {
    let mut own = tasks.iter().zip(qs).peekable();
    residual
        .iter()
        .zip(suffix)
        .enumerate()
        .all(|(task, (&before, &cover))| {
            let left = match own.next_if(|&(&t, _)| t as usize == task) {
                Some((_, &q)) => (before - q).max(0.0),
                None => before,
            };
            left <= CONTRIBUTION_TOLERANCE || cover * (1.0 - COVERAGE_MARGIN) >= left
        })
}

/// Flattens one user's `(task position, contribution)` row into `scratch`
/// in task publication order.
///
/// [`UserType::tasks`] iterates in ascending task-id order; when the
/// publication order agrees (the overwhelmingly common case — tasks are
/// published id-ascending), the row comes out already sorted and the sort
/// is skipped entirely.
fn flatten_row(
    user: &UserType,
    task_position: &BTreeMap<TaskId, u32>,
    scratch: &mut Vec<(u32, f64)>,
) {
    scratch.clear();
    scratch.extend(
        user.tasks()
            .map(|(task, pos)| (task_position[&task], pos.contribution().value())),
    );
    if !scratch.windows(2).all(|w| w[0].0 < w[1].0) {
        scratch.sort_unstable_by_key(|&(position, _)| position);
    }
}

/// The blocked capped-sum kernel: selects `min(q, Q̄)` per entry with a
/// branch-free compare the auto-vectorizer can lower to SIMD selects, but
/// adds the minima **strictly left to right** — the accumulation order
/// (and hence every rounded intermediate) is identical to the reference
/// scan's.
#[inline]
fn capped_span(tasks: &[u32], qs: &[f64], residual: &[f64]) -> f64 {
    const BLOCK: usize = 8; // one 64-byte cache line of f64 minima
    let len = tasks.len().min(qs.len());
    let mut sum = 0.0;
    let mut mins = [0.0f64; BLOCK];
    let mut i = 0;
    while i + BLOCK <= len {
        for k in 0..BLOCK {
            let q = qs[i + k];
            let r = residual[tasks[i + k] as usize];
            mins[k] = if q <= r { q } else { r };
        }
        for &m in &mins {
            sum += m;
        }
        i += BLOCK;
    }
    while i < len {
        let q = qs[i];
        let r = residual[tasks[i] as usize];
        sum += if q <= r { q } else { r };
        i += 1;
    }
    sum
}

/// Instance modifications for a greedy re-run, replacing the profile
/// clones the reference implementation builds per probe.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions<'a> {
    /// Run on `θ_{-i}`: the user at this position does not participate.
    pub excluded: Option<usize>,
    /// Override the contribution entries of the user at this position with
    /// the given slice (same length and task order as her stored entries).
    /// This is how bisection probes express a uniformly scaled declaration.
    pub substitute: Option<(usize, &'a [f64])>,
    /// Precomputed initial heap ([`IndexedProfile::heap_seeds`]); when
    /// set, the run skips the full candidate rescan. The seeds must have
    /// been built (or rebuilt) against the exact current index contents.
    pub seeds: Option<&'a HeapSeeds>,
}

/// How much bookkeeping a greedy run records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Record {
    /// Selection order and the uncovered marker only — what a bisection
    /// probe needs.
    Selection,
    /// Additionally each iteration's capped contribution (Algorithm 5
    /// inspects these on the `θ_{-i}` re-run).
    Iterations,
    /// Additionally a residual snapshot per iteration — the full
    /// [`crate::multi_task::GreedyRun`] record.
    Full,
}

/// A borrowed view of a greedy run's outcome, entirely backed by the
/// [`Workspace`] it ran in — nothing here was allocated for this run.
/// Views of runs in two workspaces compare field by field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunView<'w> {
    /// Selected user positions, in selection order.
    pub selection: &'w [usize],
    /// Capped contribution per iteration ([`Record::Iterations`] and up).
    pub capped: &'w [f64],
    /// Residual snapshots, flattened row-major at [`RunView::stride`]
    /// floats per iteration ([`Record::Full`]).
    pub snapshots: &'w [f64],
    /// Row length of [`RunView::snapshots`] (the instance's task count).
    pub stride: usize,
    /// Bit per user position: set iff selected.
    pub winner_mask: &'w BitSet,
    /// First task position (publication order) left uncovered when the
    /// candidates ran out, if the instance was infeasible for them.
    pub uncovered: Option<usize>,
}

impl RunView<'_> {
    /// Whether every requirement was covered.
    pub fn is_complete(&self) -> bool {
        self.uncovered.is_none()
    }

    /// Whether the user at `position` was selected — one bit test.
    pub fn selected(&self, position: usize) -> bool {
        self.winner_mask.contains(position)
    }

    /// The residual snapshot at iteration start ([`Record::Full`] runs).
    pub fn snapshot(&self, iteration: usize) -> &[f64] {
        &self.snapshots[iteration * self.stride..(iteration + 1) * self.stride]
    }
}

/// A completed greedy run copied out of its workspace — the θ₋ᵢ base run
/// that bisection probes are decided from via
/// [`IndexedProfile::probe_verdict`]. Buffers are reused across winners,
/// so the steady state stays allocation-free.
#[derive(Debug, Default)]
pub(crate) struct BaseRun {
    selection: Vec<usize>,
    capped: Vec<f64>,
    snapshots: Vec<f64>,
    /// Coverage suffix sums, row-major at `stride` floats per step: row
    /// `t` sums the above-tolerance entries of picks `t, t+1, …` per task.
    suffix: Vec<f64>,
    stride: usize,
    complete: bool,
}

impl BaseRun {
    /// Marks the base unusable until the next
    /// [`IndexedProfile::store_base`]: every probe verdict against it is
    /// then "run the probe".
    pub(crate) fn invalidate(&mut self) {
        self.complete = false;
    }
}

/// Reusable scratch space for greedy runs: the residual vector, the heap,
/// and every run-output buffer, recycled across the hundreds of re-runs a
/// payment computation performs so the hot path never allocates.
#[derive(Debug, Default)]
pub struct Workspace {
    residual: Vec<f64>,
    heap: Vec<HeapEntry>,
    selection: Vec<usize>,
    capped: Vec<f64>,
    snapshots: Vec<f64>,
    winner_mask: BitSet,
    /// Scratch for bisection probes' scaled contribution rows.
    pub(crate) scaled: Vec<f64>,
    /// The θ₋ᵢ base run the payment probes are decided from.
    pub(crate) base: BaseRun,
    /// Kernel profiling counters accumulated by runs in this workspace;
    /// [`WorkspacePool::give_back`] folds them into the pool accumulator.
    pub(crate) prof: ProfCounters,
}

impl Workspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Workspace::default()
    }

    /// Bytes this workspace's buffers hold onto (capacities, not
    /// lengths), its θ₋ᵢ base run included.
    fn resident_bytes(&self) -> usize {
        let base = &self.base;
        (self.residual.capacity()
            + self.capped.capacity()
            + self.snapshots.capacity()
            + self.scaled.capacity()
            + base.capped.capacity()
            + base.snapshots.capacity()
            + base.suffix.capacity())
            * size_of::<f64>()
            + (self.selection.capacity() + base.selection.capacity()) * size_of::<usize>()
            + self.heap.capacity() * size_of::<HeapEntry>()
            + self.winner_mask.words.capacity() * size_of::<u64>()
    }

    fn view(&self, stride: usize, uncovered: Option<usize>) -> RunView<'_> {
        RunView {
            selection: &self.selection,
            capped: &self.capped,
            snapshots: &self.snapshots,
            stride,
            winner_mask: &self.winner_mask,
            uncovered,
        }
    }
}

/// One stale re-evaluation of a recorded run: at `step` (the number of
/// picks made so far), the candidate at `position` was re-evaluated to
/// `capped`, and left the heap if that fell to the tolerance.
#[derive(Debug, Clone, Copy)]
struct Reeval {
    step: u32,
    position: u32,
    capped: f64,
}

/// A round's allocation run, recorded once ([`IndexedProfile::record_in`])
/// so each winner's exclusion run resumes from it at her pick step
/// ([`IndexedProfile::resume_in`]) instead of replaying it from step 0.
/// A [`ClearContext`] keeps one and reuses its buffers across rounds; a
/// resumable record costs about 16 bytes per stale re-evaluation.
#[derive(Debug, Default)]
pub struct RecordedRun {
    selection: Vec<usize>,
    capped: Vec<f64>,
    /// Residual before each pick, then (resumable records) the residual
    /// after the last, row-major at `stride` floats.
    snapshots: Vec<f64>,
    /// Every stale re-evaluation in run order, so by non-decreasing step
    /// (resumable records only).
    reevals: Vec<Reeval>,
    stride: usize,
    uncovered: Option<usize>,
    resumable: bool,
}

impl RecordedRun {
    /// An empty, unresumable record; fill with [`IndexedProfile::record_in`].
    pub fn new() -> Self {
        RecordedRun::default()
    }

    /// Selected user positions, in selection order.
    pub(crate) fn selection(&self) -> &[usize] {
        &self.selection
    }

    /// Bytes this record's buffers hold onto (capacities, not lengths).
    fn resident_bytes(&self) -> usize {
        (self.capped.capacity() + self.snapshots.capacity()) * size_of::<f64>()
            + self.selection.capacity() * size_of::<usize>()
            + self.reevals.capacity() * size_of::<Reeval>()
    }

    /// First task position left uncovered when the candidates ran out.
    pub(crate) fn uncovered(&self) -> Option<usize> {
        self.uncovered
    }

    /// The step that picked the user at `position`, or the step after the
    /// last pick if the run never picked her.
    pub(crate) fn step_of(&self, position: usize) -> usize {
        self.selection
            .iter()
            .position(|&pick| pick == position)
            .unwrap_or(self.selection.len())
    }
}

/// The precomputed initial heap of a full-requirements greedy run: every
/// candidate whose capped contribution clears the tolerance, in position
/// order, plus the position→slot map the per-probe patches use.
///
/// Built once per round ([`IndexedProfile::heap_seeds`]), consumed by
/// every probe via [`RunOptions::seeds`] — replacing an `O(Σ entries)`
/// capped rescan plus `n log n` sift-up pushes with a memcpy, at most two
/// slot patches, and an `O(n)` heapify.
#[derive(Debug, Clone, Default)]
pub struct HeapSeeds {
    entries: Vec<HeapEntry>,
    slot_of: Vec<u32>,
}

const NO_SLOT: u32 = u32::MAX;

impl HeapSeeds {
    /// Empty seeds; fill with [`IndexedProfile::rebuild_seeds`].
    pub fn new() -> Self {
        HeapSeeds::default()
    }

    fn slot(&self, position: usize) -> Option<usize> {
        match self.slot_of.get(position) {
            Some(&slot) if slot != NO_SLOT => Some(slot as usize),
            _ => None,
        }
    }

    /// How many candidates clear the tolerance at full requirements.
    pub fn candidate_count(&self) -> usize {
        self.entries.len()
    }
}

/// One candidate in the lazy-greedy heap: her capped contribution as of
/// `version`, which is an upper bound on the current value.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    capped: f64,
    cost: f64,
    id: UserId,
    position: u32,
    version: u32,
}

/// The strict total order the heap maximizes: the cross-multiplied ratio
/// comparison of the reference greedy (`a.capped/a.cost > b.capped/b.cost`
/// without dividing, so free users order correctly), ties broken by
/// smaller user id. Distinct users never compare equal — which is why the
/// pop order of a valid max-heap over these entries is independent of the
/// heap's internal layout.
///
/// Written as non-short-circuiting compares rather than a `match` on
/// `partial_cmp`, so a sift's child choice compiles to selects. A NaN
/// product still panics: it fails all three float compares.
#[inline]
fn beats(a: &HeapEntry, b: &HeapEntry) -> bool {
    let left = a.capped * b.cost;
    let right = b.capped * a.cost;
    let (greater, equal) = (left > right, left == right);
    if !(greater | equal | (left < right)) {
        panic!("finite ratio products");
    }
    greater | (equal & (a.id < b.id))
}

/// Children per heap node. A 4-ary heap is half as deep as a binary one,
/// and a node's four 32-byte children sit side by side, so a sift-down
/// trades levels of dependent loads for cheap extra compares.
const ARITY: usize = 4;

/// Adds `entry`, moving ancestors it beats down one level each.
fn heap_push(heap: &mut Vec<HeapEntry>, entry: HeapEntry) {
    heap.push(entry);
    let mut child = heap.len() - 1;
    while child > 0 {
        let parent = (child - 1) / ARITY;
        if !beats(&entry, &heap[parent]) {
            break;
        }
        heap[child] = heap[parent];
        child = parent;
    }
    heap[child] = entry;
}

/// Restores the heap below `hole` for the entry sitting there: children
/// that beat it move up one level until it settles.
fn sift_down(heap: &mut [HeapEntry], mut hole: usize) {
    let entry = heap[hole];
    loop {
        let first = ARITY * hole + 1;
        if first >= heap.len() {
            break;
        }
        let mut best = first;
        for child in first + 1..(first + ARITY).min(heap.len()) {
            if beats(&heap[child], &heap[best]) {
                best = child;
            }
        }
        if !beats(&heap[best], &entry) {
            break;
        }
        heap[hole] = heap[best];
        hole = best;
    }
    heap[hole] = entry;
}

/// Floyd's bottom-up heap construction: `O(n)` versus `n` pushes'
/// `O(n log n)`, and bitwise-equivalent in effect because pop order
/// depends only on the entry *set* (see [`beats`]).
fn heapify(heap: &mut [HeapEntry]) {
    // The internal nodes: every node whose first child exists.
    for parent in (0..heap.len().saturating_sub(1).div_ceil(ARITY)).rev() {
        sift_down(heap, parent);
    }
}

/// Removes the top: the last entry takes the root and sifts down.
fn heap_pop(heap: &mut Vec<HeapEntry>) -> Option<HeapEntry> {
    let last = heap.pop()?;
    let Some(top) = heap.first_mut() else {
        return Some(last);
    };
    let top = std::mem::replace(top, last);
    sift_down(heap, 0);
    Some(top)
}

/// Replaces the top's bound with its re-evaluation `capped` as of
/// `version` and sifts it down: the entry set afterwards is exactly what a
/// pop plus a push of the refreshed entry leaves, so the pop order is
/// unchanged (see [`beats`]), at one sift instead of two.
fn refresh_top(heap: &mut [HeapEntry], capped: f64, version: u32) {
    heap[0].capped = capped;
    heap[0].version = version;
    sift_down(heap, 0);
}

/// What [`IndexedProfile::sync_with`] did to bring the index up to date.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncMode {
    /// The profile was bitwise identical to the index; nothing changed.
    Unchanged,
    /// Rows, requirements, and/or appended users were patched in place.
    Patched,
    /// Shapes diverged (task list or retained-user prefix changed); the
    /// index was re-flattened from scratch into its existing buffers.
    Reflattened,
}

/// Change accounting from one [`IndexedProfile::sync_with`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SyncStats {
    /// How the index was brought up to date.
    pub mode: SyncMode,
    /// Retained users whose cost, total, or contribution row changed.
    pub users_patched: usize,
    /// Users appended beyond the retained prefix.
    pub users_appended: usize,
    /// Task requirements whose value changed.
    pub requirements_patched: usize,
}

impl SyncStats {
    fn unchanged() -> Self {
        SyncStats {
            mode: SyncMode::Unchanged,
            users_patched: 0,
            users_appended: 0,
            requirements_patched: 0,
        }
    }

    fn reflattened() -> Self {
        SyncStats {
            mode: SyncMode::Reflattened,
            ..SyncStats::unchanged()
        }
    }
}

/// A free list of [`Workspace`]s shared by the payment fan-out threads of
/// one clearing context: threads check a workspace out at start and give
/// it back at the end, so steady-state rounds reuse grown buffers instead
/// of allocating a fresh workspace per thread per round.
#[derive(Debug, Default)]
pub struct WorkspacePool {
    free: Mutex<Vec<Workspace>>,
    /// Profiling counters folded out of returned workspaces, drained by
    /// [`ClearContext::take_prof`].
    prof: Mutex<ProfCounters>,
}

impl WorkspacePool {
    /// An empty pool.
    pub fn new() -> Self {
        WorkspacePool::default()
    }

    /// Takes a pooled workspace, or a fresh one if the pool is empty.
    pub fn checkout(&self) -> Workspace {
        self.free
            .lock()
            .expect("workspace pool mutex")
            .pop()
            .unwrap_or_default()
    }

    /// Returns a workspace (and its grown buffers) to the pool, folding
    /// its profiling counters into the pool accumulator.
    pub fn give_back(&self, mut workspace: Workspace) {
        let counters = std::mem::take(&mut workspace.prof);
        self.prof
            .lock()
            .expect("workspace prof mutex")
            .merge(&counters);
        self.free
            .lock()
            .expect("workspace pool mutex")
            .push(workspace);
    }

    /// Drains (returns and zeroes) the accumulated profiling counters of
    /// every workspace returned so far.
    pub fn drain_prof(&self) -> ProfCounters {
        std::mem::take(&mut *self.prof.lock().expect("workspace prof mutex"))
    }

    /// How many workspaces are parked in the pool.
    pub fn idle(&self) -> usize {
        self.free.lock().expect("workspace pool mutex").len()
    }

    /// Bytes the parked workspaces' buffers hold onto.
    pub fn resident_bytes(&self) -> usize {
        let free = self.free.lock().expect("workspace pool mutex");
        free.iter().map(Workspace::resident_bytes).sum()
    }
}

/// The per-round clearing arena: a persistent [`IndexedProfile`], its
/// [`HeapSeeds`], and a [`WorkspacePool`] — everything a round's
/// allocation and whole-round payment computation touch, kept alive
/// across rounds so the steady state performs no per-round rebuilds and
/// no per-probe allocations.
#[derive(Debug, Default)]
pub struct ClearContext {
    index: Option<IndexedProfile>,
    seeds: HeapSeeds,
    workspaces: WorkspacePool,
    /// The prepared round's allocation run ([`ClearContext::prepare`]).
    recorded: RecordedRun,
    /// Context-level profiling: prepare/sync/seed accounting; workspace
    /// counters merge in on [`ClearContext::take_prof`].
    prof: ProfCounters,
}

impl ClearContext {
    /// An empty context; the first round cleared on it builds the index
    /// from scratch.
    pub fn new() -> Self {
        ClearContext::default()
    }

    /// Brings the context up to date with `profile` — delta-patching the
    /// persistent index where possible, re-flattening otherwise, and
    /// rebuilding the heap seeds iff anything changed — then runs the
    /// round's allocation greedy once, recorded at the `record` level
    /// into the context's reused buffers ([`IndexedProfile::record_in`]),
    /// and hands out the borrows a clearing needs, the record included.
    pub(crate) fn prepare(&mut self, profile: &TypeProfile, record: Record) -> PreparedRound<'_> {
        let sync = self.sync(profile);
        let index = self.index.as_ref().expect("index just synced");
        let mut workspace = self.workspaces.checkout();
        index.record_in(&mut workspace, &self.seeds, record, &mut self.recorded);
        self.workspaces.give_back(workspace);
        PreparedRound {
            index,
            seeds: &self.seeds,
            workspaces: &self.workspaces,
            sync,
            recorded: &self.recorded,
        }
    }

    fn sync(&mut self, profile: &TypeProfile) -> SyncStats {
        let sync = match self.index.as_mut() {
            Some(index) => index.sync_with(profile),
            None => {
                self.index = Some(IndexedProfile::from_profile(profile));
                SyncStats::reflattened()
            }
        };
        let index = self.index.as_ref().expect("index just ensured");
        if sync.mode != SyncMode::Unchanged {
            index.rebuild_seeds(&mut self.seeds);
            self.prof.seed_rebuilds += 1;
        }
        self.prof.prepares += 1;
        match sync.mode {
            SyncMode::Unchanged => self.prof.reuse_hits += 1,
            SyncMode::Patched => self.prof.sync_patched += 1,
            SyncMode::Reflattened => self.prof.sync_reflattened += 1,
        }
        self.prof.users_patched += sync.users_patched as u64;
        self.prof.users_appended += sync.users_appended as u64;
        // Every workspace is back in the pool between rounds, so the
        // pool holds all of them here.
        self.prof.resident_bytes = (index.resident_bytes()
            + self.seeds.entries.capacity() * size_of::<HeapEntry>()
            + self.seeds.slot_of.capacity() * size_of::<u32>()
            + self.recorded.resident_bytes()
            + self.workspaces.resident_bytes()) as u64;
        sync
    }

    /// The persistent index, if a round has been prepared.
    pub fn index(&self) -> Option<&IndexedProfile> {
        self.index.as_ref()
    }

    /// Drains (returns and zeroes) every profiling counter this context
    /// accumulated: its own prepare/sync accounting plus the counters of
    /// every workspace returned to its pool. Requires all checked-out
    /// workspaces to have been given back — counters still held by a
    /// live workspace are simply not in this drain yet.
    pub fn take_prof(&mut self) -> ProfCounters {
        let mut counters = std::mem::take(&mut self.prof);
        counters.merge(&self.workspaces.drain_prof());
        counters
    }
}

/// Borrows of a [`ClearContext`] synced to one round's profile.
#[derive(Debug)]
pub struct PreparedRound<'a> {
    /// The up-to-date dense index.
    pub index: &'a IndexedProfile,
    /// Heap seeds matching the index ([`RunOptions::seeds`]).
    pub seeds: &'a HeapSeeds,
    /// The context's workspace free list.
    pub workspaces: &'a WorkspacePool,
    /// What syncing did (telemetry: patched vs reflattened).
    pub sync: SyncStats,
    /// The round's allocation run, recorded at the level
    /// [`ClearContext::prepare`] was asked for.
    pub(crate) recorded: &'a RecordedRun,
}

/// A shared free list of [`ClearContext`]s. Shard workers and campaign
/// rounds check a context out, clear with it, and give it back — so a
/// population that re-bids round over round keeps hitting the same
/// delta-patched index instead of re-flattening a million rows.
///
/// Cloning the pool clones the *handle*; all clones drain and refill the
/// same free list.
#[derive(Debug, Clone, Default)]
pub struct ContextPool {
    free: Arc<Mutex<Vec<ClearContext>>>,
}

impl ContextPool {
    /// An empty pool.
    pub fn new() -> Self {
        ContextPool::default()
    }

    /// Takes a pooled context, or a fresh one if the pool is empty.
    pub fn checkout(&self) -> ClearContext {
        self.free
            .lock()
            .expect("context pool mutex")
            .pop()
            .unwrap_or_default()
    }

    /// Returns a context (and its persistent index) to the pool.
    pub fn give_back(&self, context: ClearContext) {
        self.free.lock().expect("context pool mutex").push(context);
    }

    /// How many contexts are parked in the pool.
    pub fn idle(&self) -> usize {
        self.free.lock().expect("context pool mutex").len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Cost, Pos, Task, UserType};

    fn profile(users: &[(f64, &[(u32, f64)])], tasks: &[(u32, f64)]) -> TypeProfile {
        let tasks = tasks
            .iter()
            .map(|&(id, req)| Task::with_requirement(TaskId::new(id), req).unwrap())
            .collect();
        let users = users
            .iter()
            .enumerate()
            .map(|(i, &(cost, entries))| {
                let mut b = UserType::builder(UserId::new(i as u32)).cost(Cost::new(cost).unwrap());
                for &(t, p) in entries {
                    b = b.task(TaskId::new(t), Pos::new(p).unwrap());
                }
                b.build().unwrap()
            })
            .collect();
        TypeProfile::new(users, tasks).unwrap()
    }

    #[test]
    fn heap_is_a_max_heap_under_the_ratio_order() {
        let mut heap = Vec::new();
        for (i, (capped, cost)) in [(1.0, 2.0), (3.0, 1.0), (2.0, 2.0), (3.0, 1.0)]
            .into_iter()
            .enumerate()
        {
            heap_push(
                &mut heap,
                HeapEntry {
                    capped,
                    cost,
                    id: UserId::new(i as u32),
                    position: i as u32,
                    version: 0,
                },
            );
        }
        // Ratios: 0.5, 3.0, 1.0, 3.0 — the tie at 3.0 breaks to user 1.
        let order: Vec<u32> = std::iter::from_fn(|| heap_pop(&mut heap))
            .map(|e| e.position)
            .collect();
        assert_eq!(order, vec![1, 3, 2, 0]);
    }

    #[test]
    fn heapified_and_pushed_heaps_pop_identically() {
        // The strict total order makes pop order a function of the entry
        // set alone — Floyd heapify and n× sift-up pushes must agree.
        let entries: Vec<HeapEntry> = (0..64)
            .map(|i| HeapEntry {
                capped: ((i * 37) % 13) as f64 * 0.25 + 0.5,
                cost: ((i * 11) % 7) as f64 + 1.0,
                id: UserId::new(i),
                position: i,
                version: 0,
            })
            .collect();
        let mut pushed = Vec::new();
        for &entry in &entries {
            heap_push(&mut pushed, entry);
        }
        let mut floyd = entries.clone();
        heapify(&mut floyd);
        let pop_all = |heap: &mut Vec<HeapEntry>| {
            std::iter::from_fn(|| heap_pop(heap))
                .map(|e| (e.position, e.capped.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(pop_all(&mut pushed), pop_all(&mut floyd));
    }

    #[test]
    fn refreshed_heap_pops_the_beats_maximum_every_time() {
        // Interleaved pushes, in-place refreshes of a shrinking root, and
        // pops over costs and bounds from small sets (so ratio ties are
        // common and the 4-ary heap is several levels deep). Every pop
        // must be the maximum under `beats` of the entries then held, and
        // the final drain must come out in strictly descending order.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let mut heap: Vec<HeapEntry> = Vec::new();
        let mut held: Vec<HeapEntry> = Vec::new();
        let maximum = |held: &[HeapEntry]| {
            held.iter()
                .copied()
                .reduce(|best, entry| if beats(&entry, &best) { entry } else { best })
        };
        let mut ids = 0u32;
        for version in 0..4_000u32 {
            match next(8) {
                0..=3 => {
                    let entry = HeapEntry {
                        capped: [0.5, 1.0, 1.5, 2.0][next(4) as usize],
                        cost: [1.0, 2.0, 4.0][next(3) as usize],
                        id: UserId::new(ids),
                        position: ids,
                        version: 0,
                    };
                    ids += 1;
                    heap_push(&mut heap, entry);
                    held.push(entry);
                }
                4..=5 if !heap.is_empty() => {
                    let capped = heap[0].capped * [0.25, 0.5, 1.0][next(3) as usize];
                    let id = heap[0].id;
                    refresh_top(&mut heap, capped, version);
                    let model = held.iter_mut().find(|entry| entry.id == id).unwrap();
                    model.capped = capped;
                    model.version = version;
                }
                _ => {
                    let expected = maximum(&held);
                    let popped = heap_pop(&mut heap);
                    assert_eq!(popped.map(|e| e.id), expected.map(|e| e.id));
                    held.retain(|entry| Some(entry.id) != popped.map(|e| e.id));
                }
            }
        }
        assert!(heap.len() > 64, "the drain should span several levels");
        let drained: Vec<HeapEntry> = std::iter::from_fn(|| heap_pop(&mut heap)).collect();
        assert_eq!(drained.len(), held.len());
        assert!(drained.windows(2).all(|pair| beats(&pair[0], &pair[1])));
    }

    #[test]
    #[should_panic(expected = "finite ratio products")]
    fn beats_panics_on_a_nan_ratio_product() {
        let entry = |capped: f64| HeapEntry {
            capped,
            cost: 1.0,
            id: UserId::new(0),
            position: 0,
            version: 0,
        };
        beats(&entry(f64::NAN), &entry(1.0));
    }

    #[test]
    fn bitset_insert_contains_reset() {
        let mut mask = BitSet::new();
        mask.reset(130);
        assert_eq!(mask.len(), 130);
        for i in [0, 63, 64, 129] {
            assert!(!mask.contains(i));
            mask.insert(i);
            assert!(mask.contains(i));
        }
        assert_eq!(mask.count(), 4);
        assert!(!mask.contains(1000)); // out of range is just false
        mask.reset(10);
        assert_eq!(mask.count(), 0);
        assert!(!mask.contains(0));
    }

    #[test]
    fn indexing_preserves_orders_and_values() {
        // Task ids published out of numeric order: publication order must
        // win over id order for entries, while totals follow the user's
        // own (id-ordered) sum.
        let p = profile(
            &[(2.0, &[(7, 0.5), (1, 0.3)]), (1.0, &[(1, 0.4)])],
            &[(7, 0.6), (1, 0.5)],
        );
        let indexed = IndexedProfile::from_profile(&p);
        assert_eq!(indexed.user_count(), 2);
        assert_eq!(indexed.task_count(), 2);
        assert_eq!(indexed.task_id(0), TaskId::new(7));
        assert_eq!(indexed.position_of(UserId::new(1)), Some(1));
        assert_eq!(indexed.position_of(UserId::new(9)), None);
        // User 0's entries in publication order: task 7 first. Her tasks
        // iterate id-ascending (1 then 7), so this exercises the
        // out-of-order sort path of `flatten_row`.
        assert_eq!(indexed.entry_task[0..2], [0, 1]);
        let q7 = Pos::new(0.5).unwrap().contribution().value();
        assert_eq!(indexed.entry_q[0], q7);
        let expected_total = p.user(UserId::new(0)).unwrap().total_contribution().value();
        assert_eq!(indexed.total(0), expected_total);
    }

    #[test]
    fn position_of_searches_declaration_order_ids() {
        // Users declared in non-ascending id order force the sorted
        // permutation fallback; positions still follow declaration order.
        let users = vec![
            UserType::builder(UserId::new(5))
                .cost(Cost::new(1.0).unwrap())
                .task(TaskId::new(0), Pos::new(0.5).unwrap())
                .build()
                .unwrap(),
            UserType::builder(UserId::new(0))
                .cost(Cost::new(1.0).unwrap())
                .task(TaskId::new(0), Pos::new(0.5).unwrap())
                .build()
                .unwrap(),
            UserType::builder(UserId::new(3))
                .cost(Cost::new(1.0).unwrap())
                .task(TaskId::new(0), Pos::new(0.5).unwrap())
                .build()
                .unwrap(),
        ];
        let tasks = vec![Task::with_requirement(TaskId::new(0), 0.4).unwrap()];
        let p = TypeProfile::new(users, tasks).unwrap();
        let indexed = IndexedProfile::from_profile(&p);
        assert!(!indexed.ids_sorted);
        assert_eq!(indexed.position_of(UserId::new(5)), Some(0));
        assert_eq!(indexed.position_of(UserId::new(0)), Some(1));
        assert_eq!(indexed.position_of(UserId::new(3)), Some(2));
        assert_eq!(indexed.position_of(UserId::new(4)), None);
    }

    #[test]
    fn excluded_user_never_wins() {
        let p = profile(&[(1.0, &[(0, 0.6)]), (5.0, &[(0, 0.6)])], &[(0, 0.5)]);
        let indexed = IndexedProfile::from_profile(&p);
        let mut ws = Workspace::new();
        let run = indexed.run_in(&mut ws, RunOptions::default(), Record::Selection);
        assert_eq!(run.selection, [0]);
        assert!(run.selected(0));
        assert!(!run.selected(1));
        let without = indexed.run_in(
            &mut ws,
            RunOptions {
                excluded: Some(0),
                ..RunOptions::default()
            },
            Record::Selection,
        );
        assert_eq!(without.selection, [1]);
        assert!(without.is_complete());
    }

    #[test]
    fn infeasible_run_reports_first_uncovered_task_position() {
        let p = profile(&[(1.0, &[(0, 0.9)])], &[(0, 0.5), (1, 0.5)]);
        let indexed = IndexedProfile::from_profile(&p);
        let mut ws = Workspace::new();
        let run = indexed.run_in(&mut ws, RunOptions::default(), Record::Full);
        assert_eq!(run.uncovered, Some(1));
        assert_eq!(run.selection, [0]);
        // One iteration, one residual snapshot of both tasks.
        assert_eq!(run.snapshots.len(), run.stride);
        assert_eq!(run.snapshot(0).len(), 2);
    }

    #[test]
    fn seeded_runs_match_scanned_runs_bitwise() {
        let p = profile(
            &[
                (2.0, &[(0, 0.3), (1, 0.4)]),
                (1.5, &[(0, 0.2), (2, 0.3)]),
                (3.0, &[(1, 0.5), (2, 0.5)]),
                (1.0, &[(0, 0.2), (1, 0.2), (2, 0.2)]),
                (2.5, &[(0, 0.4), (2, 0.4)]),
            ],
            &[(0, 0.5), (1, 0.6), (2, 0.55)],
        );
        let indexed = IndexedProfile::from_profile(&p);
        let seeds = indexed.heap_seeds();
        // Each side runs in its own workspace so both views stay alive.
        let (mut plain_ws, mut fast_ws) = (Workspace::new(), Workspace::new());
        let mut compare = |options: RunOptions<'_>, seeded: RunOptions<'_>| {
            let plain = indexed.run_in(&mut plain_ws, options, Record::Full);
            let fast = indexed.run_in(&mut fast_ws, seeded, Record::Full);
            assert_eq!(plain, fast);
            for (a, b) in plain.capped.iter().zip(fast.capped) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        };
        compare(
            RunOptions::default(),
            RunOptions {
                seeds: Some(&seeds),
                ..RunOptions::default()
            },
        );
        for excluded in 0..indexed.user_count() {
            compare(
                RunOptions {
                    excluded: Some(excluded),
                    ..RunOptions::default()
                },
                RunOptions {
                    excluded: Some(excluded),
                    seeds: Some(&seeds),
                    ..RunOptions::default()
                },
            );
        }
        for position in 0..indexed.user_count() {
            for scale in [0.0, 0.05, 0.5, 1.0] {
                let scaled: Vec<f64> = indexed
                    .contributions_of(position)
                    .iter()
                    .map(|&q| q * scale)
                    .collect();
                compare(
                    RunOptions {
                        substitute: Some((position, &scaled)),
                        ..RunOptions::default()
                    },
                    RunOptions {
                        substitute: Some((position, &scaled)),
                        seeds: Some(&seeds),
                        ..RunOptions::default()
                    },
                );
            }
        }
        // Exclusion + substitution of *different* users combined.
        let scaled: Vec<f64> = indexed
            .contributions_of(2)
            .iter()
            .map(|&q| q * 0.4)
            .collect();
        compare(
            RunOptions {
                excluded: Some(4),
                substitute: Some((2, &scaled)),
                ..RunOptions::default()
            },
            RunOptions {
                excluded: Some(4),
                substitute: Some((2, &scaled)),
                seeds: Some(&seeds),
            },
        );
    }

    #[test]
    fn sync_patches_rows_and_requirements_in_place() {
        let base = profile(
            &[(2.0, &[(0, 0.3), (1, 0.4)]), (1.5, &[(0, 0.2)])],
            &[(0, 0.5), (1, 0.6)],
        );
        let mut indexed = IndexedProfile::from_profile(&base);

        // Same profile again: untouched.
        let stats = indexed.sync_with(&base);
        assert_eq!(stats.mode, SyncMode::Unchanged);

        // One user's PoS changes: a row patch, bitwise equal to a rebuild.
        let changed = base
            .with_user_type(
                base.user(UserId::new(1))
                    .unwrap()
                    .with_pos(TaskId::new(0), Pos::new(0.25).unwrap())
                    .unwrap(),
            )
            .unwrap();
        let stats = indexed.sync_with(&changed);
        assert_eq!(stats.mode, SyncMode::Patched);
        assert_eq!(stats.users_patched, 1);
        assert_eq!(indexed, IndexedProfile::from_profile(&changed));

        // A task-set shape change on user 0 splices her row.
        let reshaped = changed
            .with_user_type(
                UserType::builder(UserId::new(0))
                    .cost(Cost::new(2.0).unwrap())
                    .task(TaskId::new(1), Pos::new(0.4).unwrap())
                    .build()
                    .unwrap(),
            )
            .unwrap();
        let stats = indexed.sync_with(&reshaped);
        assert_eq!(stats.mode, SyncMode::Patched);
        assert_eq!(indexed, IndexedProfile::from_profile(&reshaped));

        // A different task list forces a reflatten.
        let shrunk = profile(&[(2.0, &[(0, 0.3)]), (1.5, &[(0, 0.2)])], &[(0, 0.5)]);
        let stats = indexed.sync_with(&shrunk);
        assert_eq!(stats.mode, SyncMode::Reflattened);
        assert_eq!(indexed, IndexedProfile::from_profile(&shrunk));
    }

    #[test]
    fn sync_leaves_unchanged_rows_alone_in_any_publication_order() {
        // Tasks published 7 then 1: user 0's row is stored out of id
        // order, so it never passes the unchanged-row check and takes the
        // patch path; users 1 and 2 hold one task each and pass it. Either
        // way an unchanged row is not counted as patched, and the synced
        // index equals a rebuild.
        let users: [(f64, &[(u32, f64)]); 3] = [
            (2.0, &[(7, 0.5), (1, 0.3)]),
            (1.0, &[(1, 0.4)]),
            (3.0, &[(7, 0.2)]),
        ];
        let mut indexed = IndexedProfile::from_profile(&profile(&users, &[(7, 0.6), (1, 0.5)]));
        let relaxed = profile(&users, &[(7, 0.55), (1, 0.5)]);
        let stats = indexed.sync_with(&relaxed);
        assert_eq!(stats.mode, SyncMode::Patched);
        assert_eq!((stats.users_patched, stats.requirements_patched), (0, 1));
        assert_eq!(indexed, IndexedProfile::from_profile(&relaxed));

        for (user, task) in [(2, 7), (0, 1)] {
            let mut indexed = IndexedProfile::from_profile(&relaxed);
            let changed = relaxed
                .with_user_type(
                    relaxed
                        .user(UserId::new(user))
                        .unwrap()
                        .with_pos(TaskId::new(task), Pos::new(0.25).unwrap())
                        .unwrap(),
                )
                .unwrap();
            let stats = indexed.sync_with(&changed);
            assert_eq!(stats.users_patched, 1, "user {user}");
            assert_eq!(indexed, IndexedProfile::from_profile(&changed));
        }
    }

    #[test]
    fn context_pool_round_trips_contexts() {
        let pool = ContextPool::new();
        let p = profile(&[(1.0, &[(0, 0.6)])], &[(0, 0.5)]);
        let mut context = pool.checkout();
        {
            let prepared = context.prepare(&p, Record::Selection);
            assert_eq!(prepared.sync.mode, SyncMode::Reflattened);
            let mut ws = prepared.workspaces.checkout();
            let run = prepared.index.run_in(
                &mut ws,
                RunOptions {
                    seeds: Some(prepared.seeds),
                    ..RunOptions::default()
                },
                Record::Selection,
            );
            assert!(run.is_complete());
            assert!(run.selected(0));
            prepared.workspaces.give_back(ws);
        }
        // Second prepare against the same profile: unchanged, no rebuild.
        assert_eq!(
            context.prepare(&p, Record::Selection).sync.mode,
            SyncMode::Unchanged
        );
        pool.give_back(context);
        assert_eq!(pool.idle(), 1);
        let again = pool.checkout();
        assert!(again.index().is_some());
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn prof_counters_account_for_prepares_and_pops() {
        let p = profile(&[(1.0, &[(0, 0.6)]), (2.0, &[(0, 0.5)])], &[(0, 0.5)]);
        let mut context = ClearContext::new();
        {
            let prepared = context.prepare(&p, Record::Selection);
            let mut ws = prepared.workspaces.checkout();
            let run = prepared.index.run_in(
                &mut ws,
                RunOptions {
                    seeds: Some(prepared.seeds),
                    ..RunOptions::default()
                },
                Record::Selection,
            );
            assert!(run.is_complete());
            prepared.workspaces.give_back(ws);
        }
        context.prepare(&p, Record::Selection); // unchanged: a reuse hit
        let prof = context.take_prof();
        assert_eq!(prof.prepares, 2);
        assert_eq!(prof.reuse_hits, 1);
        assert_eq!(prof.sync_reflattened, 1);
        assert_eq!(prof.seed_rebuilds, 1);
        assert!(prof.heap_pops >= 1);
        assert!(prof.resident_bytes > 0);
        assert!(prof.is_conserved(), "{prof:?}");
        // Drained: a second take starts from zero.
        assert_eq!(context.take_prof(), ProfCounters::default());
    }

    #[test]
    fn arena_gauge_counts_the_recorded_run_and_pooled_workspaces() {
        let p = profile(
            &[
                (1.0, &[(0, 0.6), (1, 0.3)]),
                (2.0, &[(0, 0.5), (1, 0.6)]),
                (1.5, &[(0, 0.4), (1, 0.5)]),
                (3.0, &[(0, 0.7), (1, 0.7)]),
            ],
            &[(0, 0.6), (1, 0.6)],
        );
        let mechanism = crate::multi_task::MultiTaskMechanism::new(10.0).unwrap();
        let mut context = ClearContext::new();
        for _ in 0..2 {
            let round = mechanism.allocate_with(&mut context, &p).unwrap();
            assert!(!round.criticals().unwrap().is_empty());
        }
        // The second prepare found the first round's record and the
        // workspaces its pricing grew; the gauge counts them all.
        let index_and_seeds = context.index.as_ref().unwrap().resident_bytes()
            + context.seeds.entries.capacity() * size_of::<HeapEntry>()
            + context.seeds.slot_of.capacity() * size_of::<u32>();
        let recorded = context.recorded.resident_bytes();
        let pooled = context.workspaces.resident_bytes();
        assert!(recorded > 0 && pooled > 0);
        assert_eq!(
            context.take_prof().resident_bytes as usize,
            index_and_seeds + recorded + pooled
        );
    }

    #[test]
    fn prof_counters_merge_sums_and_keeps_latest_gauge() {
        let mut a = ProfCounters {
            prepares: 1,
            reuse_hits: 1,
            resident_bytes: 64,
            heap_pops: 3,
            ..ProfCounters::default()
        };
        let b = ProfCounters {
            prepares: 2,
            sync_patched: 2,
            resident_bytes: 128,
            heap_pops: 5,
            stale_reevals: 1,
            probes_requested: 4,
            probes_run: 1,
            probes_saved_warm_start: 2,
            probes_saved_loss_scan: 1,
            ..ProfCounters::default()
        };
        assert!(b.is_conserved());
        a.merge(&b);
        assert_eq!(a.prepares, 3);
        assert_eq!(a.heap_pops, 8);
        assert_eq!(a.resident_bytes, 128);
        assert_eq!(a.probes_saved(), 3);
        assert!(a.is_conserved(), "{a:?}");
        // A zero gauge never clobbers the latest value.
        a.merge(&ProfCounters::default());
        assert_eq!(a.resident_bytes, 128);
    }
}
