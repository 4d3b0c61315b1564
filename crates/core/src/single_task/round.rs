//! One prepared FPTAS per single-task round (paper Algorithms 2 and 3).
//!
//! [`AllocatedRound`] sorts the bidders, fixes every subproblem's scaling
//! `μ_k` and scaled costs, and records the declaration-order contributions
//! once. The base run and every critical-bid probe then run on one reused
//! flat [`DpTable`]. A probe swaps the winner's contribution in place
//! instead of cloning the profile, and returns bitwise the verdict the
//! clone-and-rerun search ([`critical_contribution`]) reaches, because it
//! keeps every input that search sees:
//!
//! * the same `(cost, id)` order, `μ_k`, scaled costs, item order, level
//!   caps and three-level tie-break (costs are verifiable, so a PoS
//!   declaration changes none of them);
//! * the substituted contribution `q.pos().contribution()`, the exact bits
//!   a cloned profile's user type yields;
//! * the declaration-order feasibility sum of
//!   [`TypeProfile::check_feasible`], and its [`Contribution::is_zero`]
//!   exclusion of a probe declaring (numerically) nothing.
//!
//! [`critical_contribution`]: crate::single_task::critical_contribution

use std::collections::BTreeMap;

use crate::error::{McsError, Result};
use crate::knapsack::{DpTable, KnapsackItem, MemberSet, Scaling};
use crate::mechanism::{Allocation, BISECTION_STEPS};
use crate::types::{Contribution, Cost, Pos, TypeProfile, UserId};

/// The most DP levels one FPTAS subproblem's table may span.
///
/// Subproblem `k`'s table has at most its level total `Σ_{j≤k} ⌊c_j/μ_k⌋`
/// cells, and subproblem 1 alone has `⌊1/ε⌋`, so a tiny `ε` asks for a
/// table no machine holds (`ε = 1e-9` wanted 40 GB for 24 bidders) or
/// overflows the level arithmetic (`ε = 1e-100`). [`AllocatedRound`]
/// sums each subproblem's total with checked arithmetic before any DP
/// runs and returns [`McsError::DpLevelsExceeded`] when one exceeds this
/// bound, which caps one table at `2^25 × (16 + 8⌈n/64⌉)` bytes.
///
/// Costs are sorted, so `c_j ≤ c_k` and subproblem `k` spans at most
/// `k·⌊k/ε⌋` levels (up to rounding): every round of up to `√(2^25 ε)`
/// bidders clears whatever its costs — 4,096 at `ε = 0.5`, 1,295 at
/// `ε = 0.05` and 579 at `ε = 0.01`. A larger round is refused only if,
/// for some `k`, `(k²/ε) · c̄_k/c_k` passes the bound, where `c̄_k` is
/// the mean of the `k` cheapest costs.
pub const MAX_DP_LEVELS: u64 = 1 << 25;

/// A single-task round allocated by the FPTAS: the winners of its base
/// run, plus everything prepared for it that the winners' critical-bid
/// searches reuse.
///
/// Built by [`SingleTaskMechanism::allocate`]; the winners are bitwise
/// those of [`FptasWinnerDetermination::select_winners`] and every
/// critical bid bitwise that of the clone-and-rerun
/// [`critical_contribution`].
///
/// [`SingleTaskMechanism::allocate`]: crate::single_task::SingleTaskMechanism::allocate
/// [`FptasWinnerDetermination::select_winners`]: crate::mechanism::WinnerDetermination::select_winners
/// [`critical_contribution`]: crate::single_task::critical_contribution
#[derive(Debug, Clone, Default)]
pub struct AllocatedRound {
    requirement: Contribution,
    /// Bidders with a non-zero contribution, in `(cost, id)` order.
    ids: Vec<UserId>,
    /// Each sorted bidder's position in the profile's declaration order.
    declared_at: Vec<usize>,
    /// Sorted bidders' contributions; a probe swaps one in place.
    contributions: Vec<Contribution>,
    costs: Vec<Cost>,
    /// Subproblem `k`'s scaling at `k - 1`.
    scalings: Vec<Scaling>,
    /// Subproblem `k`'s scaled costs at `k(k-1)/2 .. k(k+1)/2`, all
    /// `n(n+1)/2` scaled once: scaling them again on every run made a
    /// 24-bidder round's pricing about a quarter slower.
    scaled: Vec<u64>,
    /// Every user's contribution in declaration order.
    declared: Vec<Contribution>,
    table: DpTable,
    items: Vec<KnapsackItem>,
    /// Member words of the current run's best answer.
    best: Vec<u64>,
    allocation: Allocation,
}

impl AllocatedRound {
    /// Prepares `profile`'s round at approximation parameter `epsilon`
    /// and runs the FPTAS once.
    ///
    /// # Errors
    ///
    /// * [`McsError::NotSingleTask`] for a multi-task profile.
    /// * [`McsError::Infeasible`] if all users together cannot cover the
    ///   task.
    /// * [`McsError::DpLevelsExceeded`] if a subproblem's level total
    ///   exceeds [`MAX_DP_LEVELS`].
    pub(crate) fn new(epsilon: f64, profile: &TypeProfile) -> Result<Self> {
        let task = profile.the_task()?;
        let requirement = task.requirement_contribution();
        let mut round = AllocatedRound {
            requirement,
            ..AllocatedRound::default()
        };
        if requirement.is_zero() {
            return Ok(round);
        }
        profile.check_feasible()?;

        let task_id = task.id();
        round.declared = profile
            .users()
            .iter()
            .map(|user| user.contribution_for(task_id))
            .collect();
        // Only users that actually contribute can win; sort by cost
        // ascending (ties by id, which keeps the subproblem structure
        // independent of declared PoS — costs are verifiable).
        let mut order: Vec<usize> = (0..round.declared.len())
            .filter(|&at| !round.declared[at].is_zero())
            .collect();
        let users = profile.users();
        order.sort_by(|&a, &b| {
            let (a, b) = (&users[a], &users[b]);
            a.cost().cmp(&b.cost()).then(a.id().cmp(&b.id()))
        });
        round.ids = order.iter().map(|&at| users[at].id()).collect();
        round.contributions = order.iter().map(|&at| round.declared[at]).collect();
        round.costs = order.iter().map(|&at| users[at].cost()).collect();
        round.declared_at = order;

        let n = round.ids.len();
        for k in 1..=n {
            let scaling = Scaling::fptas(epsilon, round.costs[k - 1], k)?;
            // Subproblem k's level total, which bounds its table's size;
            // saturated at `u64::MAX` if it overflows.
            let levels = round.costs[..k]
                .iter()
                .try_fold(0u64, |sum, &cost| sum.checked_add(scaling.scale(cost)))
                .unwrap_or(u64::MAX);
            if levels > MAX_DP_LEVELS {
                return Err(McsError::DpLevelsExceeded { levels });
            }
            let scaled = round.costs[..k].iter().map(|&cost| scaling.scale(cost));
            round.scaled.extend(scaled);
            round.scalings.push(scaling);
        }
        round.best = vec![0; n.div_ceil(64)];
        if !round.run() {
            return Err(McsError::Infeasible { task: task_id });
        }
        round.allocation = MemberSet::new(&round.best)
            .iter()
            .map(|at| round.ids[at])
            .collect();
        Ok(round)
    }

    /// The winning users.
    pub fn allocation(&self) -> &Allocation {
        &self.allocation
    }

    /// The winning users, releasing the prepared round.
    pub fn into_allocation(self) -> Allocation {
        self.allocation
    }

    /// Every winner's critical PoS `p̄_i`, in ascending id order.
    ///
    /// # Errors
    ///
    /// Any error of a winner's critical-bid search; the error for the
    /// smallest winner id is returned.
    pub fn criticals(&mut self) -> Result<BTreeMap<UserId, Pos>> {
        let winners: Vec<UserId> = self.allocation.winners().collect();
        winners
            .into_iter()
            .map(|winner| Ok((winner, self.critical_contribution(winner)?.pos())))
            .collect()
    }

    /// The critical contribution `q̄_i` of winner `user`: Algorithm 3's
    /// bisection over `[0, Q]`, every probe an in-place rerun.
    ///
    /// # Errors
    ///
    /// [`McsError::NotAWinner`] if `user` did not win the round.
    ///
    /// # Panics
    ///
    /// Panics if the winner loses at the saturated requirement `Q` — a
    /// broken (non-monotone) allocation rule, not bad input.
    pub fn critical_contribution(&mut self, user: UserId) -> Result<Contribution> {
        if !self.allocation.contains(user) {
            return Err(McsError::NotAWinner { user });
        }
        let rank = self
            .ids
            .iter()
            .position(|&id| id == user)
            .expect("winners are sorted bidders");
        // Declarations ≥ Q are equivalent to Q (saturation), so the
        // winner wins at Q…
        assert!(
            self.declares(rank, self.requirement),
            "winner determination is not monotone: winner loses at the requirement"
        );
        // …and not at zero (zero-contribution users are never selected).
        let mut lo = 0.0f64;
        let mut hi = self.requirement.value();
        if hi == 0.0 {
            return Ok(Contribution::ZERO);
        }
        for _ in 0..BISECTION_STEPS {
            let mid = 0.5 * (lo + hi);
            if self.declares(rank, Contribution::new(mid)?) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        Contribution::new(hi)
    }

    /// Whether the bidder at sorted `rank` wins when she declares
    /// `declared` and everyone else keeps their declaration.
    fn declares(&mut self, rank: usize, declared: Contribution) -> bool {
        // The contribution a profile declaring `declared.pos()` holds.
        let probe = declared.pos().contribution();
        let at = self.declared_at[rank];
        let supply: Contribution = self
            .declared
            .iter()
            .enumerate()
            .map(|(i, &q)| if i == at { probe } else { q })
            .sum();
        // An infeasible profile, or a declaration the sort would drop,
        // certainly loses.
        if !supply.meets(self.requirement) || probe.is_zero() {
            return false;
        }
        let truthful = std::mem::replace(&mut self.contributions[rank], probe);
        let wins = self.run() && MemberSet::new(&self.best).contains(rank);
        self.contributions[rank] = truthful;
        wins
    }

    /// One FPTAS run over the current contributions: every subproblem's
    /// DP on the shared table, keeping the cheapest answer (by actual
    /// cost, later subproblems winning ties) in `best`. Returns whether
    /// any subproblem was feasible.
    fn run(&mut self) -> bool {
        let AllocatedRound {
            requirement,
            contributions,
            costs,
            scalings,
            scaled,
            table,
            items,
            best,
            ..
        } = self;
        let requirement = *requirement;
        // Incumbent best answer across subproblems. Later subproblems use
        // it to prune DP levels that cannot beat it — a pure optimization:
        // a pruned level `L` has actual cost ≥ μ·L > incumbent, so its
        // subproblem answer would lose the cross-subproblem minimum anyway,
        // and levels at or below the cap are computed exactly. The reported
        // sequence of answers is therefore identical to the unpruned run,
        // which keeps the monotonicity argument intact.
        let mut incumbent: Option<Cost> = None;
        let mut row = 0;
        for (k, scaling) in (1..).zip(scalings.iter()) {
            items.clear();
            items.extend((0..k).map(|index| KnapsackItem {
                index,
                contribution: contributions[index],
                scaled_cost: scaled[row + index],
                actual_cost: costs[index],
            }));
            row += k;
            let level_cap = incumbent.map(|cost| {
                if scaling.mu() == 0.0 {
                    u64::MAX
                } else {
                    // Levels L with μ·L > incumbent cost are hopeless.
                    (cost.value() / scaling.mu()).floor() as u64
                }
            });
            table.solve_into(items, requirement, level_cap);
            if let Some((_, cell)) = table.min_feasible(requirement) {
                // `<=` so later (larger-k) subproblems win ties — the
                // deterministic rule the monotonicity argument fixes.
                if incumbent.is_none_or(|cost| cell.actual_cost <= cost) {
                    incumbent = Some(cell.actual_cost);
                    let words = cell.members.words();
                    best[..words.len()].copy_from_slice(words);
                    best[words.len()..].fill(0);
                }
            }
        }
        incumbent.is_some()
    }
}
