//! Seed-stability regression tests: the same experiment at the same seed must
//! render byte-identical reports within one process.
//!
//! This is the dynamic counterpart of the static determinism lints in
//! `[workspace.lints]` / `clippy.toml`: those forbid the *sources* of
//! nondeterminism (RandomState iteration, wall clocks), and this test catches
//! whatever slips past them — an unordered sort key, address-dependent
//! hashing, a stray global.  The repair sweep exercised here traverses every
//! sim-facing layer: churn, detection, repair, placement, overlay and
//! reporting.  The placement sweep's second run in one process is
//! `tests/examples_smoke.rs::repro_placement_sweep_at_small_scale`, which
//! byte-compares its rendering with the same golden capture the golden loop
//! compares the first run with.
#![expect(clippy::panic, reason = "test helpers fail by panicking")]

use peerstripe_experiments::cli::{header, run_experiment};
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
fn repair_sweep_is_seed_stable() {
    assert_seed_stable("repair-sweep");
}

#[test]
fn different_seeds_actually_differ() {
    // Guard the guard: if the sweep ignored its seed, the same-seed checks
    // would pass vacuously.  Seed 43's report under seed 42's header must not
    // be seed 42's golden capture.
    let seed42 = include_str!("golden/placement-sweep_small_seed42.txt");
    let seed43 = run_experiment("placement-sweep", Scale::Small, 43).expect("known experiment");
    let printed = header("placement-sweep", Scale::Small, 42) + &seed43;
    assert_ne!(printed, seed42, "changing the seed must change the report");
}
