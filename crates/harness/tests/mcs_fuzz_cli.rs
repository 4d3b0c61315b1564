//! End-to-end tests for the `mcs-fuzz` binary: real process, real files,
//! real exit codes. Bad input exits 2 before anything runs; a clean run
//! exits 0.

use std::path::PathBuf;
use std::process::{Command, Output};

fn fuzz(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mcs-fuzz"))
        .args(args)
        .output()
        .expect("mcs-fuzz runs")
}

fn scratch(name: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("mcs-fuzz-cli-{}-{name}", std::process::id()));
    path
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).to_string()
}

#[test]
fn out_of_range_counts_exit_2() {
    for (args, flag) in [
        (&["--cluster", "--bands", "9"][..], "--bands"),
        (&["--seed", "-1"][..], "-1"),
    ] {
        let output = fuzz(args);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {output:?}");
        assert!(stderr(&output).contains(flag), "{args:?}: {output:?}");
    }
}

/// The chaos, soak and closed-loop modes are corpus scenarios now; their
/// flags are gone, and each is refused as unknown before anything runs.
#[test]
fn removed_flags_exit_2() {
    for flag in [
        "--rounds",
        "--faults",
        "--tasks",
        "--bids",
        "--workers",
        "--payment-threads",
        "--drain-every",
        "--ci-smoke",
        "--soak",
        "--campaign",
    ] {
        let output = fuzz(&[flag, "1"]);
        assert_eq!(output.status.code(), Some(2), "{flag}: {output:?}");
        assert!(
            stderr(&output).contains(&format!("unknown flag {flag}")),
            "{flag}: {output:?}"
        );
    }
}

#[test]
fn trace_files_take_one_scenario_not_the_whole_corpus() {
    let path = scratch("all.trace");
    let path_arg = path.display().to_string();
    for flag in ["--record-trace", "--replay-trace"] {
        let output = fuzz(&["--scenario", "all", flag, &path_arg]);
        assert_eq!(output.status.code(), Some(2), "{flag}: {output:?}");
        assert!(stderr(&output).contains(flag), "{flag}: {output:?}");
    }
    assert!(!path.exists(), "a refused run must not write the trace");
}

#[test]
fn chaos_and_campaign_scenarios_refuse_trace_files() {
    let path = scratch("chaos.trace");
    let path_arg = path.display().to_string();
    for scenario in ["chaos-single-task", "chaos-campaign"] {
        for flag in ["--record-trace", "--replay-trace"] {
            let output = fuzz(&["--scenario", scenario, flag, &path_arg]);
            assert_eq!(
                output.status.code(),
                Some(2),
                "{scenario} {flag}: {output:?}"
            );
            assert!(
                stderr(&output).contains("do not record drive traces"),
                "{scenario} {flag}: {output:?}"
            );
        }
    }
    assert!(!path.exists(), "a refused run must not write the trace");
}

#[test]
fn a_recorded_scenario_trace_replays_clean() {
    let path = scratch("calm.trace");
    let path_arg = path.display().to_string();
    let recorded = fuzz(&["--scenario", "calm-baseline", "--record-trace", &path_arg]);
    assert!(recorded.status.success(), "{recorded:?}");
    let replayed = fuzz(&["--scenario", "calm-baseline", "--replay-trace", &path_arg]);
    assert!(replayed.status.success(), "{replayed:?}");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn a_reseeded_scenario_skips_its_baseline_and_says_so() {
    let output = fuzz(&["--scenario", "chaos-single-task", "--seed", "5"]);
    assert!(output.status.success(), "{output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(stdout.contains("fingerprint"), "{stdout}");
    assert!(
        stdout.contains("re-seeded to 5, pinned baseline skipped"),
        "{stdout}"
    );
}
