//! Seed-stability regression tests: the same experiment at the same seed must
//! render byte-identical reports within one process.
//!
//! This is the dynamic counterpart of the static determinism lints in
//! `[workspace.lints]` / `clippy.toml`: those forbid the *sources* of
//! nondeterminism (RandomState iteration, wall clocks), and this test catches
//! whatever slips past them — an unordered sort key, address-dependent
//! hashing, a stray global.  The two sweeps exercised here traverse every
//! sim-facing layer: churn, detection, repair, placement, overlay and
//! reporting.
#![expect(clippy::panic, reason = "test helpers fail by panicking")]

use peerstripe_experiments::cli::run_experiment;
use peerstripe_experiments::Scale;

/// Run one experiment twice and insist on byte-identical output.
fn assert_seed_stable(experiment: &str) {
    let first = run_experiment(experiment, Scale::Small, 42)
        .unwrap_or_else(|| panic!("experiment '{experiment}' unknown"));
    let second = run_experiment(experiment, Scale::Small, 42)
        .unwrap_or_else(|| panic!("experiment '{experiment}' unknown"));
    assert!(
        !first.is_empty(),
        "experiment '{experiment}' produced no output"
    );
    if first != second {
        // Pinpoint the first divergent line; dumping both reports whole
        // would drown the signal.
        for (no, (a, b)) in first.lines().zip(second.lines()).enumerate() {
            assert_eq!(
                a,
                b,
                "'{experiment}' diverged between runs at line {}",
                no + 1
            );
        }
        panic!(
            "'{experiment}' runs differ in length: {} vs {} bytes",
            first.len(),
            second.len()
        );
    }
}

#[test]
fn placement_sweep_is_seed_stable() {
    assert_seed_stable("placement-sweep");
}

#[test]
fn repair_sweep_is_seed_stable() {
    assert_seed_stable("repair-sweep");
}

#[test]
fn different_seeds_actually_differ() {
    // Guard the guard: if the sweep ignored its seed, the two tests above
    // would pass vacuously.
    let a = run_experiment("placement-sweep", Scale::Small, 42).expect("known experiment");
    let b = run_experiment("placement-sweep", Scale::Small, 43).expect("known experiment");
    assert_ne!(a, b, "changing the seed must change the report");
}
