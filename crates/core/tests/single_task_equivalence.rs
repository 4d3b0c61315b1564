//! Differential proptest suite for the single-task mechanism: the prepared
//! round ([`SingleTaskMechanism::allocate`], one flat DP table reused by
//! the base run and every in-place critical-bid probe) must be **bitwise
//! identical** to the clone-and-rerun reference — the generic
//! [`critical_contribution`] driving the FPTAS on the state-list DP whose
//! cells each own a heap-allocated [`UserSet`]. Winners, every critical
//! PoS bit, and the errors must agree.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use mcs_core::knapsack::{KnapsackItem, Scaling, UserSet};
use mcs_core::mechanism::{Allocation, RewardScheme, WinnerDetermination};
use mcs_core::single_task::{critical_contribution, SingleTaskMechanism, MAX_DP_LEVELS};
use mcs_core::types::{Contribution, Cost, Pos, TypeProfile, UserId, UserType};
use mcs_core::McsError;
use proptest::prelude::*;

// ---------- the reference: FPTAS on a DP of owned member sets ----------

/// The best state found at one exact scaled-cost level.
#[derive(Clone)]
struct ReferenceCell {
    members: UserSet,
    contribution: Contribution,
    actual_cost: Cost,
}

impl ReferenceCell {
    /// Higher saturated contribution, then lower actual cost, then the
    /// lexicographically smaller member list.
    fn beats(&self, incumbent: &ReferenceCell) -> bool {
        if self.contribution != incumbent.contribution {
            return self.contribution > incumbent.contribution;
        }
        if self.actual_cost != incumbent.actual_cost {
            return self.actual_cost < incumbent.actual_cost;
        }
        self.members < incumbent.members
    }
}

/// Paper Algorithm 1 with one `Option<cell>` per level, every candidate
/// cloning its base's member set; returns the lowest feasible level's
/// cell.
fn reference_min_feasible(
    items: &[KnapsackItem],
    requirement: Contribution,
    level_cap: Option<u64>,
) -> Option<ReferenceCell> {
    let total: u64 = items.iter().map(|i| i.scaled_cost).sum();
    let cap = level_cap.map_or(total, |c| c.min(total));
    let len = usize::try_from(cap).unwrap() + 1;
    let mut cells: Vec<Option<ReferenceCell>> = vec![None; len];
    cells[0] = Some(ReferenceCell {
        members: UserSet::new(),
        contribution: Contribution::ZERO,
        actual_cost: Cost::ZERO,
    });
    for item in items {
        let step = usize::try_from(item.scaled_cost).unwrap();
        if step >= len {
            continue;
        }
        for to in (step..len).rev() {
            let from = to - step;
            let Some(base) = cells[from].as_ref() else {
                continue;
            };
            let candidate = ReferenceCell {
                members: base.members.with(item.index),
                contribution: (base.contribution + item.contribution).min(requirement),
                actual_cost: base.actual_cost + item.actual_cost,
            };
            match &cells[to] {
                Some(incumbent) if !candidate.beats(incumbent) => {}
                _ => cells[to] = Some(candidate),
            }
        }
    }
    cells
        .into_iter()
        .flatten()
        .find(|cell| cell.contribution.meets(requirement))
}

/// Paper Algorithm 2 as a per-profile winner determination: sort, then
/// one scaled subproblem per prefix, cheapest actual cost across them.
struct ReferenceFptas {
    epsilon: f64,
}

impl WinnerDetermination for ReferenceFptas {
    fn select_winners(&self, profile: &TypeProfile) -> mcs_core::Result<Allocation> {
        let task = profile.the_task()?;
        let requirement = task.requirement_contribution();
        if requirement.is_zero() {
            return Ok(Allocation::empty());
        }
        profile.check_feasible()?;
        let mut entries: Vec<(UserId, Contribution, Cost)> = profile
            .users()
            .iter()
            .filter_map(|user| {
                let q = user.contribution_for(task.id());
                (!q.is_zero()).then(|| (user.id(), q, user.cost()))
            })
            .collect();
        entries.sort_by(|a, b| a.2.cmp(&b.2).then(a.0.cmp(&b.0)));
        let mut best: Option<(Cost, Allocation)> = None;
        for k in 1..=entries.len() {
            let scaling = Scaling::fptas(self.epsilon, entries[k - 1].2, k)?;
            let items: Vec<KnapsackItem> = entries[..k]
                .iter()
                .enumerate()
                .map(|(index, &(_, q, c))| KnapsackItem {
                    index,
                    contribution: q,
                    scaled_cost: scaling.scale(c),
                    actual_cost: c,
                })
                .collect();
            let level_cap = best.as_ref().map(|(cost, _)| {
                if scaling.mu() == 0.0 {
                    u64::MAX
                } else {
                    (cost.value() / scaling.mu()).floor() as u64
                }
            });
            if let Some(cell) = reference_min_feasible(&items, requirement, level_cap) {
                let cost = cell.actual_cost;
                if best
                    .as_ref()
                    .is_none_or(|(incumbent, _)| cost <= *incumbent)
                {
                    best = Some((cost, cell.members.iter().map(|i| entries[i].0).collect()));
                }
            }
        }
        best.map(|(_, allocation)| allocation)
            .ok_or(McsError::Infeasible { task: task.id() })
    }
}

// ---------- the comparison ----------

/// A caught panic's message.
fn panic_text(payload: &Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_default()
}

/// The prepared round's winners and critical PoS bits equal the
/// reference's, and both fail alike (errors, and the panic of a winner
/// that loses at `Q`); so do the per-user [`RewardScheme::critical_pos`]
/// and the plain `select_winners`.
fn assert_matches_reference(profile: &TypeProfile, epsilon: f64) -> Result<(), TestCaseError> {
    let reference = ReferenceFptas { epsilon };
    let mechanism = SingleTaskMechanism::new(epsilon, 10.0).unwrap();
    let expected = reference.select_winners(profile);
    prop_assert_eq!(&mechanism.select_winners(profile), &expected);
    let mut allocated = match (mechanism.allocate(profile), expected) {
        (Ok(allocated), Ok(expected)) => {
            prop_assert_eq!(allocated.allocation(), &expected);
            allocated
        }
        (Err(got), Err(expected)) => {
            prop_assert_eq!(got, expected);
            return Ok(());
        }
        (got, expected) => {
            return Err(TestCaseError::fail(format!(
                "prepared {:?} vs reference {expected:?}",
                got.map(|a| a.into_allocation())
            )))
        }
    };
    let allocation = allocated.allocation().clone();
    let mut criticals = BTreeMap::new();
    for winner in allocation.winners() {
        // Both searches assert that the winner still wins at `Q`; where
        // the FPTAS breaks that, both must panic alike.
        let fast = catch_unwind(AssertUnwindSafe(|| {
            allocated.critical_contribution(winner).unwrap().pos()
        }));
        let slow = catch_unwind(|| {
            critical_contribution(&reference, profile, winner)
                .unwrap()
                .pos()
        });
        match (fast, slow) {
            (Ok(fast), Ok(slow)) => {
                prop_assert!(
                    fast.value().to_bits() == slow.value().to_bits(),
                    "critical PoS of {} diverges: {} vs {}",
                    winner,
                    fast,
                    slow
                );
                criticals.insert(winner, fast);
            }
            (Err(fast), Err(slow)) => {
                prop_assert_eq!(panic_text(&fast), panic_text(&slow));
                return Ok(());
            }
            (fast, slow) => {
                return Err(TestCaseError::fail(format!(
                    "{winner}: prepared {:?} vs reference {:?}",
                    fast.map_err(|p| panic_text(&p)),
                    slow.map_err(|p| panic_text(&p))
                )))
            }
        }
    }
    prop_assert_eq!(&allocated.criticals().unwrap(), &criticals);
    for (&winner, critical) in &criticals {
        let single = mechanism
            .critical_pos(profile, &allocation, winner)
            .unwrap();
        prop_assert_eq!(single.value().to_bits(), critical.value().to_bits());
    }
    for user in profile.user_ids().filter(|&u| !allocation.contains(u)) {
        prop_assert_eq!(
            allocated.critical_contribution(user).unwrap_err(),
            critical_contribution(&reference, profile, user).unwrap_err()
        );
    }
    Ok(())
}

/// A user from selector draws: the cost kind picks free (`μ = 0` while
/// every cheaper user is free too), a small integer cost (equal costs
/// tie on id; equal sums such as `1 + 4 = 2 + 3` make equal-cost member
/// sets that only the member-list rule orders), or a continuous cost; the
/// PoS kind picks dust at the `1e-9` contribution tolerance (some
/// excluded, some kept), a PoS that alone saturates typical
/// requirements, a shared PoS, or an ordinary one.
fn user(cost_kind: u32, cost_u: f64, pos_kind: u32, pos_u: f64) -> (f64, f64) {
    let cost = match cost_kind {
        0 => 0.0,
        1..=4 => f64::from(cost_kind),
        _ => 0.5 + 9.5 * cost_u,
    };
    let pos = match pos_kind {
        0 => (0.5 + 1.5 * pos_u) * 1e-9,
        1 => 0.85 + 0.14 * pos_u,
        2 => 0.5,
        _ => 0.05 + 0.5 * pos_u,
    };
    (cost, pos)
}

fn build(requirement: f64, users: Vec<(f64, f64)>) -> TypeProfile {
    let users = users
        .into_iter()
        .enumerate()
        .map(|(i, (cost, pos))| UserType::single(UserId::new(i as u32), cost, pos).unwrap())
        .collect();
    TypeProfile::single_task(Pos::new(requirement).unwrap(), users).unwrap()
}

/// Random single-task profiles of `sizes` users over the selector mix
/// of [`user`], with an `ε` from {0.25, 0.5, 1, 2}. Thin instances make
/// probes that drop a winner's declaration infeasible, or the whole round.
fn profile_and_epsilon(sizes: std::ops::Range<usize>) -> impl Strategy<Value = (TypeProfile, f64)> {
    let user = (0u32..6, 0.0..1.0f64, 0u32..6, 0.0..1.0f64)
        .prop_map(|(ck, cu, pk, pu)| user(ck, cu, pk, pu));
    (proptest::collection::vec(user, sizes), 0.2..0.9f64, 0u32..4).prop_map(
        |(users, requirement, e)| {
            let epsilon = [0.25, 0.5, 1.0, 2.0][e as usize];
            (build(requirement, users), epsilon)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn prepared_round_is_bitwise_equal_to_clone_and_rerun(
        case in profile_and_epsilon(1..12),
    ) {
        let (profile, epsilon) = case;
        assert_matches_reference(&profile, epsilon)?;
    }
}

/// Tie-heavy profiles: integer costs 1–4 and three PoS levels, so many
/// member sets share a DP level, a saturated contribution and an exact
/// cost sum, and only the member-list rule orders them.
fn tied_profile() -> impl Strategy<Value = (TypeProfile, f64)> {
    let user =
        (1u32..5, 0u32..3).prop_map(|(cost, pos)| (f64::from(cost), [0.3, 0.5, 0.7][pos as usize]));
    (proptest::collection::vec(user, 3..9), 0u32..3, 0u32..2).prop_map(|(users, r, e)| {
        let requirement = [0.6, 0.75, 0.9][r as usize];
        (build(requirement, users), [0.25, 0.5][e as usize])
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]
    #[test]
    fn tied_member_sets_break_like_the_reference(case in tied_profile()) {
        let (profile, epsilon) = case;
        assert_matches_reference(&profile, epsilon)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn prepared_round_matches_beyond_one_member_word(
        case in profile_and_epsilon(65..72),
    ) {
        let (profile, epsilon) = case;
        assert_matches_reference(&profile, epsilon)?;
    }
}

// ---------- pinned cases ----------

#[test]
fn equal_cost_ties_break_on_the_smaller_member_list() {
    // Costs 1..4: {0,3} and {1,2} both cost 5 and both saturate the
    // requirement, while every cheaper pair falls short. The two tie on
    // contribution and cost at the same level, and the smaller member
    // list {0,3} wins, where comparing integer masks (9 vs 6) would
    // keep {1,2}.
    let pos = |q: f64| 1.0 - (-q).exp();
    let profile = build(
        0.8,
        vec![
            (1.0, pos(0.3)),
            (2.0, pos(0.85)),
            (3.0, pos(0.85)),
            (4.0, pos(1.4)),
        ],
    );
    let allocation = SingleTaskMechanism::new(0.5, 10.0)
        .unwrap()
        .select_winners(&profile)
        .unwrap();
    assert_eq!(
        allocation,
        Allocation::from_winners([UserId::new(0), UserId::new(3)])
    );
    assert_matches_reference(&profile, 0.5).unwrap();
}

#[test]
fn winners_past_the_first_member_word_are_priced() {
    // 70 free dust users sort first, so the paid users who must cover
    // the task sit at sorted positions ≥ 64, in the second word.
    let mut users = vec![(0.0, 1.2e-9); 70];
    users.extend([(3.0, 0.5), (3.0, 0.5), (4.0, 0.6), (5.0, 0.7)]);
    let profile = build(0.75, users);
    let mechanism = SingleTaskMechanism::new(0.5, 10.0).unwrap();
    let allocation = mechanism.allocate(&profile).unwrap().into_allocation();
    assert!(
        allocation.winners().any(|w| w.index() >= 70),
        "{allocation}"
    );
    assert_matches_reference(&profile, 0.5).unwrap();
}

#[test]
fn too_fine_an_epsilon_is_a_typed_error() {
    // ε = 1e-9 asked a 40 GB table of the old DP; ε = 1e-100 overflowed
    // its level arithmetic. Both are now refused before any DP runs.
    let users = (0..24)
        .map(|i| (5.0 + f64::from(i), 0.3 + 0.01 * f64::from(i)))
        .collect();
    let profile = build(0.8, users);
    for epsilon in [1e-9, 1e-100] {
        let mechanism = SingleTaskMechanism::new(epsilon, 10.0).unwrap();
        for result in [
            mechanism.select_winners(&profile),
            mechanism.allocate(&profile).map(|a| a.into_allocation()),
        ] {
            assert!(
                matches!(
                    result,
                    Err(McsError::DpLevelsExceeded { levels }) if levels > MAX_DP_LEVELS
                ),
                "ε = {epsilon}: {result:?}"
            );
        }
    }
    // Every ε the repo runs clears the bound on this 24-bidder round.
    for epsilon in [0.01, 0.05, 0.1, 0.25, 0.5, 1.0, 2.0] {
        let mechanism = SingleTaskMechanism::new(epsilon, 10.0).unwrap();
        assert!(mechanism.allocate(&profile).is_ok(), "ε = {epsilon}");
    }
}

/// `n` bidders of cost 1 and PoS 0.9, any one of whom covers the task.
/// Equal costs give subproblem `k` the largest level total `k` bidders
/// can have, `k·⌊k/ε⌋`, while one-bidder answers keep every capped table
/// small enough to run in a debug build.
fn equal_cost_round(n: usize) -> TypeProfile {
    build(0.5, vec![(1.0, 0.9); n])
}

#[test]
fn a_500_bidder_round_clears_and_prices_like_the_reference() {
    // Subproblem k spans about 2k² levels at ε = 0.5: at most 500,000,
    // far below MAX_DP_LEVELS, though the 500 totals sum to 8.4e7.
    let profile = equal_cost_round(500);
    let reference = ReferenceFptas { epsilon: 0.5 };
    let mechanism = SingleTaskMechanism::new(0.5, 10.0).unwrap();
    let mut allocated = mechanism.allocate(&profile).unwrap();
    assert_eq!(
        allocated.allocation(),
        &reference.select_winners(&profile).unwrap()
    );
    let criticals = allocated.criticals().unwrap();
    assert!(!criticals.is_empty());
    for (winner, critical) in criticals {
        let expected = critical_contribution(&reference, &profile, winner)
            .unwrap()
            .pos();
        assert_eq!(
            critical.value().to_bits(),
            expected.value().to_bits(),
            "{winner}"
        );
    }
}

#[test]
fn rounds_up_to_the_documented_size_clear_the_level_bound() {
    // At ε = 0.5 the documented size is √(2^25 · 0.5) = 4,096 bidders:
    // with equal costs their last subproblem spans exactly 4,096 · 8,192
    // = 2^25 levels and clears; a 4,097th bidder is refused.
    let mechanism = SingleTaskMechanism::new(0.5, 10.0).unwrap();
    assert!(mechanism.allocate(&equal_cost_round(4096)).is_ok());
    let refused = mechanism.allocate(&equal_cost_round(4097));
    assert!(
        matches!(
            refused,
            Err(McsError::DpLevelsExceeded { levels }) if levels > MAX_DP_LEVELS
        ),
        "{:?}",
        refused.map(|a| a.into_allocation())
    );
}
