//! Corpus regression: every shipped scenario carries a pinned
//! `[baseline]` and reproduces it bitwise at every worker ×
//! payment-thread combination — with kernel profiling on for half the
//! matrix, since the profiler must be invisible to fingerprints.
//! Editing a scenario without re-pinning its baseline fails here;
//! shipping a scenario without a baseline fails here too.

use mcs_harness::scenario::{corpus_paths, load, run_scenario_with, RunOptions};

/// The determinism matrix every scenario must hold its fingerprint
/// across: (workers, payment threads, kernel profiling). The pinned
/// baselines were recorded with profiling off, so the profiled cells
/// double as the profiling-changes-nothing check — and the driver holds
/// their drained counters to the conservation laws.
const MATRIX: [(usize, usize, bool); 6] = [
    (1, 1, false),
    (1, 4, true),
    (2, 1, true),
    (2, 4, false),
    (8, 1, false),
    (8, 4, true),
];

#[test]
fn the_corpus_is_complete_pinned_and_worker_count_invariant() {
    let paths = corpus_paths().expect("scenarios/ exists");
    assert!(
        paths.len() >= 5,
        "the corpus must ship at least five scenarios, found {}",
        paths.len()
    );
    for path in paths {
        let scenario = load(&path.display().to_string())
            .unwrap_or_else(|error| panic!("{}: {error}", path.display()));
        let pinned = scenario.baseline.unwrap_or_else(|| {
            panic!(
                "{} ships without a [baseline]; run \
                 `mcs-fuzz --scenario {} --print-baseline` and commit the block",
                path.display(),
                scenario.name
            )
        });
        for (workers, payment_threads, profiling) in MATRIX {
            let outcome = run_scenario_with(
                &scenario,
                &RunOptions {
                    workers: Some(workers),
                    payment_threads: Some(payment_threads),
                    deviate: false,
                    profiling,
                },
            )
            .unwrap_or_else(|error| panic!("{} ({workers}w): {error}", scenario.name));
            assert!(
                outcome.is_clean(),
                "{} ({workers}w/{payment_threads}p): {:?} {:?}",
                scenario.name,
                outcome.drive.violations,
                outcome.campaign_violations
            );
            // Assert the totals directly (not just through the
            // fingerprint) in EVERY cell — profiled cells included —
            // so a profiling-dependent payment drift can never hide
            // behind a hash that happens not to cover its field.
            assert_eq!(
                outcome.payment_total.to_bits(),
                pinned.payment_total_bits,
                "{} ({workers}w/{payment_threads}p profiling={profiling}): \
                 payment total {:?} != pinned {:?}",
                scenario.name,
                outcome.payment_total,
                f64::from_bits(pinned.payment_total_bits)
            );
            assert_eq!(
                outcome.baseline().social_cost_total_bits,
                pinned.social_cost_total_bits,
                "{} ({workers}w/{payment_threads}p profiling={profiling}): \
                 social-cost total drifted",
                scenario.name
            );
            pinned
                .check(&scenario.name, &outcome.baseline())
                .unwrap_or_else(|error| {
                    panic!(
                        "{} at workers={workers} payment_threads={payment_threads} \
                         profiling={profiling}: {error}",
                        scenario.name
                    )
                });
        }
    }
}

#[test]
fn corpus_names_match_their_file_stems() {
    for path in corpus_paths().expect("scenarios/ exists") {
        let scenario = load(&path.display().to_string()).expect("loads");
        let stem = path.file_stem().and_then(|s| s.to_str()).expect("utf-8");
        assert_eq!(
            scenario.name,
            stem,
            "{}: scenario.name must equal the file stem so \
             `mcs-fuzz --scenario <name>` resolves it",
            path.display()
        );
    }
}
