//! Minimum-knapsack machinery shared by the single-task mechanisms.
//!
//! The single-task winner-determination problem is a *minimum knapsack*:
//! pick the cheapest user set whose contributions sum to at least the task's
//! requirement `Q`. This module provides
//!
//! * [`Scaling`] — the FPTAS cost-rounding transform `c ↦ ⌊c/μ⌋`,
//! * [`DpTable`] — the dominance-pruned dynamic program (paper
//!   Algorithm 1) on a flat, reusable table whose cells hold their member
//!   sets inline ([`MemberSet`]),
//! * [`pareto_frontier`] — the textbook state-list rendition of
//!   Algorithm 1, used as an exact oracle, and
//! * [`UserSet`] — the growable bitset its states carry.

mod dp;
mod scaling;
mod user_set;

pub use self::dp::{
    frontier_min_feasible, pareto_frontier, DpCell, DpTable, KnapsackItem, MemberSet, ParetoState,
};
pub use self::scaling::Scaling;
pub use self::user_set::{Iter, UserSet};
