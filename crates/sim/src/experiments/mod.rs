//! One module per paper figure: each builds the workload, runs the
//! mechanisms and baselines, and returns a [`Chart`] shaped like the
//! figure it reproduces.
//!
//! | Module | Paper figure | What it shows |
//! |---|---|---|
//! | [`fig3`] | Figure 3 | top-k location-prediction accuracy |
//! | [`fig4`] | Figure 4 | PDF of predicted PoS values |
//! | [`fig5`] | Figures 5(a)–(c) | social cost vs n and t, against OPT |
//! | [`fig6`] | Figure 6 | ECDF of winners' expected utilities |
//! | [`fig7`] | Figure 7 | achieved vs required task PoS (incl. VCG) |
//! | [`fig89`] | Figures 8 & 9 | selected users / social cost vs requirement |
//! | [`ext_strategy`] | extension | max gain from PoS misreporting (incl. Algorithm 5 ablation) |
//! | [`ext_budget`] | extension | coverage under a hard payment budget |
//! | [`ext_calibration`] | extension | model-expected vs ground-truth completion |
//! | [`verify`] | meta | claim-vs-measured verdict table (`repro verify`) |

pub mod ext_budget;
pub mod ext_calibration;
pub mod ext_strategy;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig89;
pub mod verify;

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{DatasetParams, SimParams};
use crate::population::{Dataset, Population, PopulationBuilder};
use crate::report::Chart;

/// Shared experiment context: the (expensive, built-once) data set plus
/// run parameters.
#[derive(Debug)]
pub struct Repro {
    dataset: Dataset,
    params: SimParams,
    /// Instances averaged per data point.
    trials: usize,
    /// Master seed; every `(experiment, x, trial)` derives its own stream.
    seed: u64,
}

impl Repro {
    /// Builds a context with explicit parameters.
    pub fn new(dataset: DatasetParams, params: SimParams, trials: usize, seed: u64) -> Self {
        Repro {
            dataset: Dataset::build(dataset),
            params,
            trials,
            seed,
        }
    }

    /// Paper-scale context: 1692 taxis, a month of slots, 20 trials per
    /// point. Building takes a couple of seconds; experiments minutes.
    pub fn full() -> Self {
        Repro::new(DatasetParams::default(), SimParams::default(), 20, 0xC0FFEE)
    }

    /// Reduced context for tests and smoke runs.
    pub fn quick() -> Self {
        Repro::new(DatasetParams::small(), SimParams::default(), 3, 0xC0FFEE)
    }

    /// The built data set.
    pub fn dataset(&self) -> &Dataset {
        &self.dataset
    }

    /// The simulation parameters (Table II).
    pub fn params(&self) -> &SimParams {
        &self.params
    }

    /// Trials per data point.
    pub fn trials(&self) -> usize {
        self.trials
    }

    /// A population builder with possibly overridden parameters.
    pub fn builder_with(&self, params: SimParams) -> PopulationBuilder<'_> {
        PopulationBuilder::new(&self.dataset, params)
    }

    /// A population builder with the default parameters.
    pub fn builder(&self) -> PopulationBuilder<'_> {
        self.builder_with(self.params)
    }

    /// The location used by every single-task experiment: the hardest
    /// cell that still has enough candidate users for the largest sweep
    /// (n = 100 plus head-room).
    pub fn single_task_location(&self) -> mcs_mobility::grid::LocationId {
        self.dataset
            .single_task_location(120)
            .or_else(|| self.dataset.single_task_location(40))
            .expect("data set has no adequately covered cell")
    }

    /// A deterministic RNG for `(experiment, x, trial)`.
    pub fn rng(&self, experiment: u64, x: u64, trial: u64) -> StdRng {
        // SplitMix-style mixing of the coordinates into one seed. This is
        // an additive mix, not `mcs_obs::digest::mix64` (which XORs the
        // key and runs the full finalizer), and its seeds drive every
        // reproduced figure, so it stays as it is: switching mixers
        // would change every trial's population.
        let mut z = self
            .seed
            .wrapping_add(experiment.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(x.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(trial.wrapping_mul(0x94D0_49BB_1331_11EB));
        z ^= z >> 30;
        z = z.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^= z >> 27;
        StdRng::seed_from_u64(z)
    }
}

/// Averages `metric` over the context's trials, retrying each trial's
/// population up to 8 seeds when the instance is infeasible for the
/// mechanisms (low PoS draws can undersupply a task). Returns NaN when no
/// trial produced a value — the charts render that as "-".
pub(crate) fn trial_average<B, M>(
    repro: &Repro,
    experiment: u64,
    x: u64,
    mut build: B,
    mut metric: M,
) -> f64
where
    B: FnMut(&mut StdRng) -> Option<Population>,
    M: FnMut(&Population) -> Option<f64>,
{
    let mut values = Vec::with_capacity(repro.trials());
    for trial in 0..repro.trials() as u64 {
        for attempt in 0..8u64 {
            let mut rng = repro.rng(experiment, x, trial * 8 + attempt);
            let Some(population) = build(&mut rng) else {
                continue;
            };
            if let Some(value) = metric(&population) {
                values.push(value);
                break;
            }
        }
    }
    if values.is_empty() {
        f64::NAN
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Runs every paper experiment and returns the charts in paper order.
pub fn run_all(repro: &Repro) -> Vec<Chart> {
    vec![
        fig3::run(repro),
        fig4::run(repro),
        fig5::run_5a(repro),
        fig5::run_5b(repro),
        fig5::run_5c(repro),
        fig6::run(repro),
        fig7::run(repro),
        fig89::run_fig8(repro),
        fig89::run_fig9(repro),
    ]
}

/// Runs the extension experiments (not figures of the paper).
pub fn run_extensions(repro: &Repro) -> Vec<Chart> {
    vec![
        ext_strategy::run(repro),
        ext_budget::run(repro),
        ext_calibration::run(repro),
    ]
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;
    use std::sync::OnceLock;

    /// One shared quick context for all experiment tests (the data-set
    /// build is the expensive part).
    pub fn quick_repro() -> &'static Repro {
        static REPRO: OnceLock<Repro> = OnceLock::new();
        REPRO.get_or_init(Repro::quick)
    }
}
