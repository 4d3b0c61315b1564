//! Critical bids and execution-contingent rewards for the multi-task,
//! single-minded mechanism (paper Algorithm 5, hardened).
//!
//! # The critical bid, and a correction to Algorithm 5
//!
//! A winner `i`'s critical bid is the minimum *total* contribution she
//! could have declared and still won. The paper's Algorithm 5 estimates it
//! from a rerun without her: in each iteration where user `k` was selected
//! with capped contribution `f̄_k = Σ_j min(q_k^j, Q̄_j)` and cost `c_k`,
//! the candidate threshold is `(c_i / c_k) · f̄_k`, and the minimum over
//! iterations is taken.
//!
//! That estimate is exact only while the residual caps `min(q_i^j, Q̄_j)`
//! do not bind. When they do, late iterations (with small residuals `Q̄`)
//! produce candidates *below* a truthful loser's total contribution, so a
//! loser could exaggerate her PoS, win, and still collect positive
//! expected utility — precisely the manipulation Theorem 4 is meant to
//! exclude. (The theorem's proof implicitly assumes a truthful loser's
//! total contribution is below every candidate, which the caps break.)
//!
//! [`critical_contribution`] therefore computes the critical bid the
//! robust way, mirroring the single-task scheme: binary search over
//! uniform scalings of the winner's declared contribution vector against
//! the actual (monotone, Lemma 2) winner-determination algorithm. On
//! instances where caps never bind the two computations agree (see the
//! tests); [`algorithm5_critical_contribution`] preserves the paper's
//! original rule for comparison and ablation.
//!
//! # Performance: bisection probes decided from the base run
//!
//! The bisection here runs on [`crate::indexed`]: probes never clone the
//! profile (a [`RunOptions::substitute`] override expresses the scaled
//! declaration) and never record iteration bookkeeping. Most probes do not
//! run the greedy at all. Each winner's search first gets the greedy run
//! without her (the θ₋ᵢ *base run*) and decides probes from it.
//!
//! The base run is not replayed from step 0. The round's allocation run
//! is recorded once, with a log of its stale re-evaluations, and each
//! winner's base run resumes it at her pick step
//! ([`crate::indexed::IndexedProfile::resume_in`]): the picks before that
//! step never chose her, so they and their residuals carry over bit for
//! bit, and the heap is rebuilt as it stood there, without her. The
//! probes then use the base run like this:
//!
//! * **Warm start.** Algorithm 5's estimate is a certificate: if user `i`
//!   wins at scale `s`, the greedy run before her first selection
//!   coincides with the base run, so she must have beaten some selected
//!   rival `k` at ratio `f̄_k / c_k` — hence
//!   `s · Σ_j q_i^j ≥ min_k (c_i / c_k) · f̄_k`. Any probe strictly below
//!   that bound (with a relative float-safety margin) is a certain loss,
//!   which typically skips the bottom half of the bisection.
//! * **Base-run verdict.** Every other probe is compared step by step with
//!   the base run ([`IndexedProfile::probe_verdict`]): a probed user who
//!   never beats a base pick is a certain loss; one who does is selected
//!   there, and a coverage certificate over the remaining base picks
//!   proves the probe completes — a certain win.
//! * **Fallback.** Only when the certificate declines (near-exact
//!   coverage, or covering entries at or below the tolerance) or the base
//!   run is itself infeasible does the probe run the full greedy.
//! * **Across rounds: reused critical bids.** A winner's bid depends on
//!   her rivals only through her θ₋ᵢ run. A [`ClearContext`] keeps last
//!   round's bids that were decided from a complete θ₋ᵢ run without a
//!   fallback probe, with that run's picks and capped values. After a
//!   sync that re-flattened nothing and patched no requirement, such a
//!   bid carries over bit for bit when the winner's row and her run's
//!   picks are untouched and every touched or appended row loses at
//!   every step of her run (the loss scan above, run with the rival's
//!   own row on snapshots replayed from the requirements): her run is
//!   then the one recorded, step by step, and every probe decides as
//!   before. Every other winner is searched again. DESIGN.md §12
//!   ("Across rounds") has the proof and the invalidation rules.
//!
//! The answer is **bitwise identical** to the reference search
//! ([`crate::multi_task::reference::critical_contribution`]); the proptest
//! suites in `tests/engine_equivalence.rs` enforce it, including one
//! drawn from dust-sized contributions where the certificate must decline.
//!
//! For whole-round payments, [`crate::multi_task::AllocatedRound::criticals`]
//! computes every winner's critical bid in parallel. Threads take winners
//! one at a time, earliest pick first, because an early pick resumes
//! early and runs longest. Per-winner computations are independent, so
//! the merge is deterministic for any thread count.
//!
//! [`IndexedProfile::probe_verdict`]: crate::indexed::IndexedProfile::probe_verdict

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::error::{McsError, Result};
use crate::indexed::{
    ClearContext, PreparedRound, PricedSet, PricedWinners, Record, RunOptions, Workspace,
};
use crate::mechanism::{Allocation, BISECTION_STEPS};
use crate::multi_task::GreedyWinnerDetermination;
use crate::types::{Contribution, Pos, TypeProfile, UserId, CONTRIBUTION_TOLERANCE};

/// Relative safety margin for the Algorithm-5 warm-start certificate: a
/// probe scale is skipped as a certain loss only when it is below the
/// certified threshold by more than accumulated float rounding could
/// account for (the certificate's own error is ~1e-13 relative), so
/// skipping never changes a probe outcome.
const WARM_START_MARGIN: f64 = 1e-9;

/// Relative safety margin for the coverage certificate behind a certified
/// probe win ([`IndexedProfile::probe_verdict`]): the base picks' summed
/// entries must exceed the probe's residual by this fraction, more than
/// the at most ~4.8e-7 relative rounding of a u32-indexed arena's sums and
/// subtractions, so certifying never changes a probe outcome.
pub(crate) const COVERAGE_MARGIN: f64 = 1e-6;

/// Computes the critical contribution `q̄_i` of winning user `user` as
/// `s̄ · Σ_j q_i^j`, where `s̄` is the smallest uniform scaling of her
/// declared contribution vector that still wins.
///
/// With the execution-contingent reward built on this value, truthful
/// reporting is a dominant strategy along uniform-scaling deviations: the
/// critical point on a user's deviation ray does not depend on her declared
/// scale, winners clear it (individual rationality), and losers can only
/// win by paying an expected-utility penalty.
///
/// # Errors
///
/// * [`McsError::NotAWinner`] if `user` does not win under her current
///   declaration.
/// * Any validation error from the underlying reruns.
pub fn critical_contribution(
    winner_determination: &GreedyWinnerDetermination,
    profile: &TypeProfile,
    user: UserId,
) -> Result<Contribution> {
    let mut context = ClearContext::new();
    let (prepared, current) =
        winner_determination.prepare_and_run(&mut context, profile, Record::Full)?;
    if !current.contains(user) {
        return Err(McsError::NotAWinner { user });
    }
    critical_of_winner(&prepared, &mut Workspace::new(), user, None)
}

/// The fast critical-bid search for a user already verified to win the
/// (feasible) instance. Shared by [`critical_contribution`] and the
/// parallel batch path in
/// [`crate::multi_task::AllocatedRound::criticals`].
///
/// `prepared` must hold the round's [`Record::Full`] allocation run: the
/// θ₋ᵢ base run resumes from it at the winner's pick step, and every
/// probe that runs the greedy starts from the round's heap seeds.
///
/// With `carry`, a bid decided from a complete θ₋ᵢ run without a single
/// fallback probe is kept there with that run's record, for the next
/// round to reuse.
pub(crate) fn critical_of_winner(
    prepared: &PreparedRound<'_>,
    workspace: &mut Workspace,
    user: UserId,
    carry: Option<&mut PricedSet>,
) -> Result<Contribution> {
    let (indexed, seeds) = (prepared.index, prepared.seeds);
    let position = indexed
        .position_of(user)
        .ok_or(McsError::NotAWinner { user })?;
    let declared_total = indexed.total(position);
    if declared_total <= CONTRIBUTION_TOLERANCE {
        // A zero-contribution winner can only be a degenerate monopoly;
        // her critical bid is zero.
        return Ok(Contribution::ZERO);
    }

    // The θ₋ᵢ base run decides most probes. Warm start: certify a loss
    // region from the Algorithm-5 estimate on it. Winning at scale s
    // implies beating some selected rival k with c_k > 0 at her recorded
    // ratio (a free rival is unbeatable for c_i > 0, and a stalled rerun
    // makes i a monopolist), so s · Σ_j q_i^j ≥ min_k (c_i / c_k) · f̄_k.
    // Below that, probes cannot win and are skipped. A free winner's bound
    // is 0 and skips nothing, but her probes still go to the verdict.
    let cost_i = indexed.cost(position);
    let mut certified = 0.0f64;
    let mut base = std::mem::take(&mut workspace.base);
    base.invalidate();
    if indexed.user_count() > 1 {
        let without = indexed.resume_in(workspace, seeds, prepared.recorded, position);
        if without.is_complete() {
            let mut bound = f64::INFINITY;
            for (&rival, &capped) in without.selection.iter().zip(without.capped) {
                let cost_k = indexed.cost(rival);
                if cost_k > 0.0 {
                    bound = bound.min(capped * cost_i / cost_k);
                }
            }
            if bound.is_finite() {
                certified = bound;
            }
            indexed.store_base(&without, &mut base);
        }
    }
    let skip_below = (certified / declared_total) * (1.0 - WARM_START_MARGIN);

    // Bisection over uniform scalings, exactly the reference trajectory:
    // she wins at her declaration (scale 1); zero contribution never wins.
    // The scaled row lives in the workspace so probes allocate nothing.
    let mut scaled = std::mem::take(&mut workspace.scaled);
    let mut lo = 0.0f64;
    let mut hi = 1.0f64;
    let mut fallbacks = 0;
    for _ in 0..BISECTION_STEPS {
        let mid = 0.5 * (lo + hi);
        workspace.prof.probes_requested += 1;
        let wins = if mid < skip_below {
            workspace.prof.probes_saved_warm_start += 1;
            false
        } else {
            // The probe declaration round-trips each scaled entry through
            // the probability domain, replicating
            // `UserType::with_scaled_contributions` bit for bit.
            scaled.clear();
            scaled.extend(
                indexed
                    .contributions_of(position)
                    .iter()
                    .map(|&q| scaled_entry(q, mid)),
            );
            match indexed.probe_verdict(position, &scaled, &base) {
                Some(wins) => {
                    workspace.prof.probes_saved_loss_scan += 1;
                    wins
                }
                None => {
                    workspace.prof.probes_run += 1;
                    fallbacks += 1;
                    let probe = indexed.run_in(
                        workspace,
                        RunOptions {
                            substitute: Some((position, scaled.as_slice())),
                            seeds: Some(seeds),
                            ..RunOptions::default()
                        },
                        Record::Selection,
                    );
                    // Scaling down so far that the instance becomes
                    // infeasible certainly does not win.
                    probe.is_complete() && probe.selected(position)
                }
            }
        };
        if wins {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    workspace.scaled = scaled;
    let critical = Contribution::new(hi * declared_total)?;
    // No fallback probe means every probe was decided from a complete
    // base run.
    if let Some(carry) = carry.filter(|_| fallbacks == 0) {
        carry.push(position, critical, &base.selection, &base.capped);
    }
    workspace.base = base;
    Ok(critical)
}

/// One contribution entry of a probe declaration: `q` scaled by `scale`,
/// round-tripped through [`Pos`] exactly like
/// [`crate::types::UserType::with_scaled_contributions`] (which saturates
/// at [`Pos::MAX`] rather than failing).
fn scaled_entry(q: f64, scale: f64) -> f64 {
    Contribution::new(q * scale)
        .map(Contribution::pos)
        .unwrap_or(Pos::MAX)
        .contribution()
        .value()
}

/// Critical contributions for a batch of verified winners of `prepared`,
/// fanned out over `threads` OS threads (`std::thread::scope`).
///
/// Winners whose bid carries over from the previous round on this
/// context ([`PricedWinners::reuse`]) are resolved first, on the calling
/// thread; only the rest are searched, and the bids the next round may
/// carry over are kept as each thread finds them. A round of fresh
/// bidders (its sync re-flattened the index) has nothing to reuse or
/// keep and only searches. A winner's exclusion run resumes at her pick
/// step, so the earliest picks carry the longest runs. Threads therefore
/// take winners one at a time, earliest pick first, rather than in fixed
/// chunks. Each winner's search is an independent pure function of the
/// shared prepared round, and each result lands in its winner's own slot
/// — so the output is bitwise identical for every thread count and every
/// interleaving, including the inlined `threads == 1` path. What carries
/// over to the next round is the same set in every case too.
pub(crate) fn critical_contributions_parallel(
    prepared: &mut PreparedRound<'_>,
    winners: &[UserId],
    threads: usize,
) -> Vec<Result<Contribution>> {
    // Taken out, so the searches share the round and a panicking one
    // leaves an empty set behind.
    let mut priced = std::mem::take(&mut *prepared.priced);
    let round = &*prepared;
    let results = if threads <= 1 || winners.len() <= 1 {
        let mut workspace = round.workspaces.checkout();
        let results = winners
            .iter()
            .map(|&winner| match priced.reuse(round.index, winner) {
                Some(critical) => Ok(critical),
                None => critical_of_winner(round, &mut workspace, winner, priced.keep()),
            })
            .collect();
        round.workspaces.give_back(workspace);
        results
    } else {
        search_in_parallel(round, winners, threads, &mut priced)
    };
    priced.finish();
    *prepared.priced = priced;
    results
}

/// The fan-out of [`critical_contributions_parallel`]: carried bids are
/// resolved on the calling thread, the other winners are searched on up
/// to `threads` threads, earliest pick first, and each thread's bids to
/// carry join `priced` as it is joined.
fn search_in_parallel(
    prepared: &PreparedRound<'_>,
    winners: &[UserId],
    threads: usize,
    priced: &mut PricedWinners,
) -> Vec<Result<Contribution>> {
    let (index, workspaces) = (prepared.index, prepared.workspaces);
    let mut results: Vec<Option<Result<Contribution>>> = vec![None; winners.len()];
    let mut order = Vec::new();
    for (slot, &winner) in winners.iter().enumerate() {
        match priced.reuse(index, winner) {
            Some(critical) => results[slot] = Some(Ok(critical)),
            None => order.push(slot),
        }
    }
    let keeping = priced.keep().is_some();
    order.sort_by_key(|&slot| {
        index
            .position_of(winners[slot])
            .map_or(usize::MAX, |position| prepared.recorded.step_of(position))
    });
    // Hands out slots only; the results come back through `join`.
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..threads.min(order.len()))
            .map(|_| {
                scope.spawn(|| {
                    let mut workspace = workspaces.checkout();
                    let (mut searched, mut carry) = (Vec::new(), PricedSet::default());
                    while let Some(&slot) = order.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let critical = critical_of_winner(
                            prepared,
                            &mut workspace,
                            winners[slot],
                            keeping.then_some(&mut carry),
                        );
                        searched.push((slot, critical));
                    }
                    workspaces.give_back(workspace);
                    (searched, carry)
                })
            })
            .collect();
        for thread in threads {
            // A panicking search re-raises its own payload, as it would
            // on the inlined single-thread path.
            let (searched, carry) = thread.join().unwrap_or_else(|panic| resume_unwind(panic));
            for (slot, critical) in searched {
                results[slot] = Some(critical);
            }
            if let Some(kept) = priced.keep() {
                kept.append(&carry);
            }
        }
    });
    results
        .into_iter()
        .map(|slot| slot.expect("every winner is priced once"))
        .collect()
}

/// The paper's original Algorithm 5: the minimum over iterations of a
/// rerun without `user` of `(c_i / c_k) · Σ_j min(q_k^j, Q̄_j)`.
///
/// Exact when residual caps never bind; an *underestimate* of the true
/// critical bid otherwise (see the module documentation). Kept for
/// comparison with [`critical_contribution`] and for the ablation
/// benchmarks — and doubling as the warm-start certificate of the robust
/// search.
///
/// If the remaining users cannot complete the tasks at all, `user` is a
/// monopolist: she is selected under any feasible declaration, so her
/// critical contribution is zero (the paper leaves this case implicit; a
/// zero critical bid keeps individual rationality and truthfulness, since
/// her reward no longer depends on her declaration).
///
/// # Errors
///
/// Same as [`critical_contribution`].
pub fn algorithm5_critical_contribution(
    winner_determination: &GreedyWinnerDetermination,
    profile: &TypeProfile,
    user: UserId,
) -> Result<Contribution> {
    let mut context = ClearContext::new();
    let (prepared, current) =
        winner_determination.prepare_and_run(&mut context, profile, Record::Selection)?;
    if !current.contains(user) {
        return Err(McsError::NotAWinner { user });
    }
    let indexed = prepared.index;
    let position = indexed
        .position_of(user)
        .ok_or(McsError::NotAWinner { user })?;
    let cost_i = indexed.cost(position);

    let mut workspace = Workspace::new();
    let without = (indexed.user_count() > 1).then(|| {
        indexed.run_in(
            &mut workspace,
            RunOptions {
                excluded: Some(position),
                ..RunOptions::default()
            },
            Record::Iterations,
        )
    });
    let monopoly = without.is_none_or(|run| !run.is_complete());

    let mut critical: Option<Contribution> = monopoly.then_some(Contribution::ZERO);
    if let Some(run) = without {
        for (&rival, &capped) in run.selection.iter().zip(run.capped) {
            // To be selected instead of user k, i's capped contribution must
            // reach (c_i / c_k) · f̄_k. Free rivals (c_k = 0) are unbeatable
            // unless i is free too.
            let cost_k = indexed.cost(rival);
            let candidate = if cost_k > 0.0 {
                Some(capped * cost_i / cost_k)
            } else if cost_i == 0.0 {
                Some(capped)
            } else {
                None
            };
            if let Some(value) = candidate {
                let candidate = Contribution::new(value)?;
                critical = Some(critical.map_or(candidate, |c| c.min(candidate)));
            }
        }
    }

    critical.ok_or(McsError::NotAWinner { user })
}

/// The critical PoS `p̄_i = 1 - e^{-q̄_i}` of a winning user (robust
/// critical bid).
///
/// # Errors
///
/// Same as [`critical_contribution`].
pub fn critical_pos(
    winner_determination: &GreedyWinnerDetermination,
    profile: &TypeProfile,
    allocation: &Allocation,
    user: UserId,
) -> Result<Pos> {
    if !allocation.contains(user) {
        return Err(McsError::NotAWinner { user });
    }
    Ok(critical_contribution(winner_determination, profile, user)?.pos())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mechanism::WinnerDetermination;
    use crate::multi_task::reference;
    use crate::types::{Cost, Task, TaskId, UserType};

    fn task(id: u32, req: f64) -> Task {
        Task::with_requirement(TaskId::new(id), req).unwrap()
    }

    fn user(id: u32, cost: f64, tasks: &[(u32, f64)]) -> UserType {
        let mut b = UserType::builder(UserId::new(id)).cost(Cost::new(cost).unwrap());
        for &(t, p) in tasks {
            b = b.task(TaskId::new(t), Pos::new(p).unwrap());
        }
        b.build().unwrap()
    }

    #[test]
    fn loser_has_no_critical_bid() {
        let profile = TypeProfile::new(
            vec![user(0, 1.0, &[(0, 0.9)]), user(1, 50.0, &[(0, 0.9)])],
            vec![task(0, 0.5)],
        )
        .unwrap();
        let wd = GreedyWinnerDetermination::new();
        for f in [critical_contribution, algorithm5_critical_contribution] {
            let err = f(&wd, &profile, UserId::new(1)).unwrap_err();
            assert_eq!(
                err,
                McsError::NotAWinner {
                    user: UserId::new(1)
                }
            );
        }
    }

    #[test]
    fn critical_bid_matches_rival_ratio() {
        // Two identical-cost users; only one needed. Winner 0's critical
        // contribution equals rival 1's capped contribution (same cost) —
        // and here the robust search and Algorithm 5 agree.
        let profile = TypeProfile::new(
            vec![user(0, 2.0, &[(0, 0.8)]), user(1, 2.0, &[(0, 0.7)])],
            vec![task(0, 0.5)],
        )
        .unwrap();
        let wd = GreedyWinnerDetermination::new();
        let expected = Pos::new(0.5).unwrap().contribution();
        let robust = critical_contribution(&wd, &profile, UserId::new(0)).unwrap();
        assert!((robust.value() - expected.value()).abs() < 1e-9);
        let paper = algorithm5_critical_contribution(&wd, &profile, UserId::new(0)).unwrap();
        assert!((paper.value() - expected.value()).abs() < 1e-12);
    }

    #[test]
    fn cheaper_user_needs_proportionally_less() {
        // Winner 0 costs half of rival 1 ⇒ needs half the contribution.
        let profile = TypeProfile::new(
            vec![user(0, 1.0, &[(0, 0.8)]), user(1, 2.0, &[(0, 0.7)])],
            vec![task(0, 0.5)],
        )
        .unwrap();
        let wd = GreedyWinnerDetermination::new();
        let rival_capped = Pos::new(0.5).unwrap().contribution();
        let robust = critical_contribution(&wd, &profile, UserId::new(0)).unwrap();
        assert!((robust.value() - rival_capped.value() / 2.0).abs() < 1e-9);
        let paper = algorithm5_critical_contribution(&wd, &profile, UserId::new(0)).unwrap();
        assert!((paper.value() - rival_capped.value() / 2.0).abs() < 1e-12);
    }

    #[test]
    fn monopolist_pays_the_feasibility_threshold() {
        // The robust critical bid of a monopolist is the declaration that
        // just keeps the instance feasible (below it the platform cannot
        // run the auction at all, so she does not win); the paper's
        // Algorithm 5 instead gives her a free ride at 0.
        let profile =
            TypeProfile::new(vec![user(0, 3.0, &[(0, 0.5)])], vec![task(0, 0.5)]).unwrap();
        let wd = GreedyWinnerDetermination::new();
        let robust = critical_contribution(&wd, &profile, UserId::new(0)).unwrap();
        let threshold = Pos::new(0.5).unwrap().contribution();
        assert!(
            (robust.value() - threshold.value()).abs() < 1e-9,
            "monopolist critical bid {robust}, expected feasibility threshold {threshold}"
        );
        let paper = algorithm5_critical_contribution(&wd, &profile, UserId::new(0)).unwrap();
        assert_eq!(paper, Contribution::ZERO);
    }

    #[test]
    fn partial_monopoly_pays_the_binding_tasks_threshold() {
        // User 1 covers task 0 but nobody else covers task 1, so user 0 is
        // a monopolist on task 1: her critical scale is set by task 1's
        // feasibility, i.e. s̄·q(0.6) = Q(0.5).
        let profile = TypeProfile::new(
            vec![
                user(0, 2.0, &[(0, 0.5), (1, 0.6)]),
                user(1, 1.0, &[(0, 0.7)]),
            ],
            vec![task(0, 0.5), task(1, 0.5)],
        )
        .unwrap();
        let wd = GreedyWinnerDetermination::new();
        let allocation = wd.select_winners(&profile).unwrap();
        assert!(allocation.contains(UserId::new(0)));
        let robust = critical_contribution(&wd, &profile, UserId::new(0)).unwrap();
        let q_task1 = Pos::new(0.6).unwrap().contribution().value();
        let total = profile
            .user(UserId::new(0))
            .unwrap()
            .total_contribution()
            .value();
        let expected = (Pos::new(0.5).unwrap().contribution().value() / q_task1) * total;
        assert!(
            (robust.value() - expected).abs() < 1e-6,
            "critical bid {robust}, expected {expected}"
        );
        let paper = algorithm5_critical_contribution(&wd, &profile, UserId::new(0)).unwrap();
        assert_eq!(paper, Contribution::ZERO);
    }

    #[test]
    fn critical_bid_is_below_declaration_for_winners() {
        let profile = TypeProfile::new(
            vec![
                user(0, 2.0, &[(0, 0.3), (1, 0.4)]),
                user(1, 1.5, &[(0, 0.2), (2, 0.3)]),
                user(2, 3.0, &[(1, 0.5), (2, 0.5)]),
                user(3, 1.0, &[(0, 0.2), (1, 0.2), (2, 0.2)]),
                user(4, 2.5, &[(0, 0.4), (2, 0.4)]),
            ],
            vec![task(0, 0.5), task(1, 0.6), task(2, 0.55)],
        )
        .unwrap();
        let wd = GreedyWinnerDetermination::new();
        let allocation = wd.select_winners(&profile).unwrap();
        for winner in allocation.winners() {
            let declared = profile.user(winner).unwrap().total_contribution();
            let critical = critical_contribution(&wd, &profile, winner).unwrap();
            assert!(
                critical.value() <= declared.value() + 1e-9,
                "critical {critical} above declaration {declared} for {winner}"
            );
        }
    }

    #[test]
    fn robust_bid_never_below_algorithm5_when_caps_bind() {
        // In cap-heavy instances Algorithm 5 underestimates; the robust
        // search may only be larger or equal (up to search tolerance).
        let profile = TypeProfile::new(
            vec![
                user(0, 2.0, &[(0, 0.5), (1, 0.5), (2, 0.5)]),
                user(1, 2.2, &[(0, 0.5), (1, 0.5), (2, 0.5)]),
                user(2, 2.4, &[(0, 0.5), (1, 0.5), (2, 0.5)]),
                user(3, 2.6, &[(0, 0.5), (1, 0.5), (2, 0.5)]),
            ],
            vec![task(0, 0.7), task(1, 0.7), task(2, 0.7)],
        )
        .unwrap();
        let wd = GreedyWinnerDetermination::new();
        let allocation = wd.select_winners(&profile).unwrap();
        for winner in allocation.winners() {
            let robust = critical_contribution(&wd, &profile, winner).unwrap();
            let paper = algorithm5_critical_contribution(&wd, &profile, winner).unwrap();
            assert!(
                robust.value() >= paper.value() - 1e-9,
                "robust {robust} below Algorithm 5's {paper} for {winner}"
            );
        }
    }

    #[test]
    fn winning_just_above_critical_and_losing_below() {
        let profile = TypeProfile::new(
            vec![
                user(0, 2.0, &[(0, 0.3), (1, 0.4)]),
                user(1, 1.5, &[(0, 0.2), (2, 0.3)]),
                user(2, 3.0, &[(1, 0.5), (2, 0.5)]),
                user(3, 1.0, &[(0, 0.2), (1, 0.2), (2, 0.2)]),
            ],
            vec![task(0, 0.5), task(1, 0.6), task(2, 0.55)],
        )
        .unwrap();
        let wd = GreedyWinnerDetermination::new();
        let allocation = wd.select_winners(&profile).unwrap();
        for winner in allocation.winners() {
            let declared = profile.user(winner).unwrap().total_contribution().value();
            let critical = critical_contribution(&wd, &profile, winner)
                .unwrap()
                .value();
            if critical < 1e-9 {
                continue; // monopolist: wins at any positive declaration
            }
            let scale_above = (critical / declared) * 1.001;
            let above = profile
                .user(winner)
                .unwrap()
                .with_scaled_contributions(scale_above.min(1.0));
            let outcome = wd.select_winners(&profile.with_user_type(above).unwrap());
            if let Ok(outcome) = outcome {
                assert!(
                    outcome.contains(winner),
                    "{winner} lost just above her critical bid"
                );
            }
            let scale_below = (critical / declared) * 0.97;
            let below = profile
                .user(winner)
                .unwrap()
                .with_scaled_contributions(scale_below);
            match wd.select_winners(&profile.with_user_type(below).unwrap()) {
                Ok(outcome) => assert!(
                    !outcome.contains(winner),
                    "{winner} still wins well below her critical bid"
                ),
                Err(McsError::Infeasible { .. }) => {} // losing by infeasibility
                Err(other) => panic!("unexpected error {other}"),
            }
        }
    }

    #[test]
    fn critical_pos_requires_winner_in_allocation() {
        let profile =
            TypeProfile::new(vec![user(0, 1.0, &[(0, 0.9)])], vec![task(0, 0.5)]).unwrap();
        let wd = GreedyWinnerDetermination::new();
        let allocation = Allocation::empty();
        let err = critical_pos(&wd, &profile, &allocation, UserId::new(0)).unwrap_err();
        assert_eq!(
            err,
            McsError::NotAWinner {
                user: UserId::new(0)
            }
        );
    }

    #[test]
    fn fast_search_is_bitwise_equal_to_the_reference_search() {
        // Not approximately equal: the warm-started, substitution-based
        // bisection must reproduce the cloning reference bit for bit.
        let profile = TypeProfile::new(
            vec![
                user(0, 2.0, &[(0, 0.3), (1, 0.4)]),
                user(1, 1.5, &[(0, 0.2), (2, 0.3)]),
                user(2, 3.0, &[(1, 0.5), (2, 0.5)]),
                user(3, 1.0, &[(0, 0.2), (1, 0.2), (2, 0.2)]),
                user(4, 2.5, &[(0, 0.4), (2, 0.4)]),
            ],
            vec![task(0, 0.5), task(1, 0.6), task(2, 0.55)],
        )
        .unwrap();
        let wd = GreedyWinnerDetermination::new();
        let allocation = wd.select_winners(&profile).unwrap();
        assert!(!allocation.is_empty());
        for winner in allocation.winners() {
            let fast = critical_contribution(&wd, &profile, winner).unwrap();
            let slow = reference::critical_contribution(&profile, winner).unwrap();
            assert_eq!(fast.value().to_bits(), slow.value().to_bits(), "{winner}");
        }
    }
}
