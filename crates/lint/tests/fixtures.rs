//! Fixture corpus for the four rule families.  Each family has at least two
//! fixtures the linter must pass clean and two it must flag — so a regression
//! in either direction (missed hazard, or a false positive on idiomatic code)
//! fails this suite before it reaches the workspace gate.

use peerstripe_lint::diag::Report;
use peerstripe_lint::lint_file;
use peerstripe_lint::manifest;
use peerstripe_lint::rules::layering::{check_layering, LayerPolicy};
use peerstripe_lint::rules::FileCtx;

/// Lint one fixture's source text under a given crate context.
fn lint(name: &str, src: &str, sim_facing: bool) -> Report {
    let ctx = FileCtx {
        crate_name: "fixture-crate".to_string(),
        sim_facing,
        wall_clock_exempt: false,
    };
    let mut report = Report::default();
    lint_file(name, src, &ctx, &mut report);
    report.sort();
    report
}

fn rules_of(report: &Report) -> Vec<&'static str> {
    report.findings.iter().map(|f| f.rule).collect()
}

fn count(report: &Report, rule: &str) -> usize {
    report.findings.iter().filter(|f| f.rule == rule).count()
}

// ---------------------------------------------------------------- determinism

#[test]
fn determinism_passes_ordered_collections() {
    let report = lint(
        "good_ordered.rs",
        include_str!("../fixtures/determinism/good_ordered.rs"),
        true,
    );
    assert!(report.is_clean(), "unexpected: {:?}", report.findings);
}

#[test]
fn determinism_passes_waived_lookup_only_hashmap() {
    let report = lint(
        "good_waived_lookup.rs",
        include_str!("../fixtures/determinism/good_waived_lookup.rs"),
        true,
    );
    assert!(report.is_clean(), "unexpected: {:?}", report.findings);
    assert_eq!(report.waived.len(), 2, "both HashMap mentions are waived");
    assert!(report.waived.iter().all(|w| !w.reason.is_empty()));
}

#[test]
fn determinism_flags_hash_iteration() {
    let report = lint(
        "bad_hash_iteration.rs",
        include_str!("../fixtures/determinism/bad_hash_iteration.rs"),
        true,
    );
    assert!(
        count(&report, "unordered-collection") >= 2,
        "HashMap and HashSet both flagged: {:?}",
        report.findings
    );
}

#[test]
fn determinism_ignores_hashmap_outside_sim_facing_crates() {
    // The same source in a non-sim-facing crate (e.g. the report renderer)
    // is legal: only crates whose state feeds results are restricted.
    let report = lint(
        "bad_hash_iteration.rs",
        include_str!("../fixtures/determinism/bad_hash_iteration.rs"),
        false,
    );
    assert_eq!(count(&report, "unordered-collection"), 0);
}

#[test]
fn determinism_flags_wall_clock_reads() {
    let report = lint(
        "bad_wall_clock.rs",
        include_str!("../fixtures/determinism/bad_wall_clock.rs"),
        true,
    );
    assert!(
        count(&report, "wall-clock") >= 2,
        "Instant::now and SystemTime::now both flagged: {:?}",
        report.findings
    );
}

#[test]
fn determinism_flags_ambient_rng() {
    let report = lint(
        "bad_ambient_rng.rs",
        include_str!("../fixtures/determinism/bad_ambient_rng.rs"),
        true,
    );
    assert!(rules_of(&report).contains(&"ambient-rng"));
}

// ---------------------------------------------------------------- panic-audit

#[test]
fn panic_audit_passes_propagating_code() {
    let report = lint(
        "good_handled.rs",
        include_str!("../fixtures/panic/good_handled.rs"),
        false,
    );
    assert!(report.is_clean(), "unexpected: {:?}", report.findings);
}

#[test]
fn panic_audit_passes_test_code() {
    let report = lint(
        "good_test_code.rs",
        include_str!("../fixtures/panic/good_test_code.rs"),
        false,
    );
    assert!(report.is_clean(), "unexpected: {:?}", report.findings);
}

#[test]
fn panic_audit_flags_unwrap_expect_and_panic_macro() {
    let report = lint(
        "bad_unwrap.rs",
        include_str!("../fixtures/panic/bad_unwrap.rs"),
        false,
    );
    assert!(
        count(&report, "panic") >= 3,
        "unwrap, panic! and expect all flagged: {:?}",
        report.findings
    );
}

#[test]
fn panic_audit_flags_computed_indices() {
    let report = lint(
        "bad_computed_index.rs",
        include_str!("../fixtures/panic/bad_computed_index.rs"),
        false,
    );
    assert!(
        count(&report, "slice-index") >= 2,
        "v[i + 1] and v[(i + 1) % len] flagged, plain v[i] is not: {:?}",
        report.findings
    );
}

// --------------------------------------------------------------- unsafe-audit

#[test]
fn unsafe_audit_passes_documented_block() {
    let report = lint(
        "good_safety_comment.rs",
        include_str!("../fixtures/unsafe/good_safety_comment.rs"),
        false,
    );
    assert!(report.is_clean(), "unexpected: {:?}", report.findings);
}

#[test]
fn unsafe_audit_passes_safe_code() {
    let report = lint(
        "good_no_unsafe.rs",
        include_str!("../fixtures/unsafe/good_no_unsafe.rs"),
        false,
    );
    assert!(report.is_clean(), "unexpected: {:?}", report.findings);
}

#[test]
fn unsafe_audit_flags_undocumented_block() {
    let report = lint(
        "bad_no_safety_comment.rs",
        include_str!("../fixtures/unsafe/bad_no_safety_comment.rs"),
        false,
    );
    assert!(rules_of(&report).contains(&"unsafe-no-safety"));
}

#[test]
fn unsafe_audit_flags_comment_too_far_away() {
    let report = lint(
        "bad_stale_safety_comment.rs",
        include_str!("../fixtures/unsafe/bad_stale_safety_comment.rs"),
        false,
    );
    assert!(
        rules_of(&report).contains(&"unsafe-no-safety"),
        "a SAFETY comment 8 lines up does not document this block: {:?}",
        report.findings
    );
}

// ------------------------------------------------------------------- layering

fn manifests(entries: &[(&str, &str)]) -> Vec<(String, manifest::Manifest)> {
    entries
        .iter()
        .map(|(path, text)| (path.to_string(), manifest::parse(text)))
        .collect()
}

#[test]
fn layering_passes_allowed_dag() {
    let policy = LayerPolicy::new("fx-")
        .allow("fx-app", &["fx-util"])
        .allow("fx-util", &[]);
    let set = manifests(&[
        (
            "good_dag/app.toml",
            include_str!("../fixtures/layering/good_dag/app.toml"),
        ),
        (
            "good_dag/util.toml",
            include_str!("../fixtures/layering/good_dag/util.toml"),
        ),
    ]);
    let findings = check_layering(&set, &policy);
    assert!(findings.is_empty(), "unexpected: {findings:?}");
}

#[test]
fn layering_passes_dev_dependency_back_edges() {
    let policy = LayerPolicy::new("fx-")
        .allow("fx-app", &[])
        .allow("fx-testkit", &[]);
    let set = manifests(&[
        (
            "good_devdep/app.toml",
            include_str!("../fixtures/layering/good_devdep/app.toml"),
        ),
        (
            "good_devdep/testkit.toml",
            include_str!("../fixtures/layering/good_devdep/testkit.toml"),
        ),
    ]);
    let findings = check_layering(&set, &policy);
    assert!(findings.is_empty(), "dev-deps are exempt: {findings:?}");
}

#[test]
fn layering_flags_forbidden_upward_edge() {
    let policy = LayerPolicy::new("fx-")
        .allow("fx-app", &["fx-util"])
        .allow("fx-util", &[]);
    let set = manifests(&[
        (
            "bad_forbidden/util.toml",
            include_str!("../fixtures/layering/bad_forbidden/util.toml"),
        ),
        (
            "bad_forbidden/app.toml",
            include_str!("../fixtures/layering/bad_forbidden/app.toml"),
        ),
    ]);
    let findings = check_layering(&set, &policy);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, "layering");
    assert!(findings[0].message.contains("must not depend on `fx-app`"));
    assert_eq!(findings[0].path, "bad_forbidden/util.toml");
}

#[test]
fn layering_flags_cycles_of_individually_allowed_edges() {
    // A policy bug allows both edges; only the cycle pass catches the loop.
    let policy = LayerPolicy::new("fx-")
        .allow("fx-a", &["fx-b"])
        .allow("fx-b", &["fx-a"]);
    let set = manifests(&[
        (
            "bad_cycle/a.toml",
            include_str!("../fixtures/layering/bad_cycle/a.toml"),
        ),
        (
            "bad_cycle/b.toml",
            include_str!("../fixtures/layering/bad_cycle/b.toml"),
        ),
    ]);
    let findings = check_layering(&set, &policy);
    assert!(
        findings.iter().any(|f| f.message.contains("cycle")),
        "{findings:?}"
    );
}

// -------------------------------------------------- whole-workspace smoke run

#[test]
fn workspace_lints_clean_from_the_fixture_suite_too() {
    // The CI gate runs the binary; this keeps `cargo test -p peerstripe-lint`
    // equivalent evidence.  CARGO_MANIFEST_DIR = crates/lint.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root two levels up")
        .to_path_buf();
    let report = peerstripe_lint::run_workspace(&root).expect("lint run succeeds");
    assert!(
        report.is_clean(),
        "workspace must lint clean:\n{}",
        report.render_text(false)
    );
    assert!(report.files_checked > 50, "whole tree was walked");
    // The waiver inventory only ratchets down: CI compares the same count
    // against the same committed ceiling.
    let ceiling: usize = include_str!("../WAIVED_MAX")
        .trim()
        .parse()
        .expect("crates/lint/WAIVED_MAX holds one number");
    assert!(
        report.waived.len() <= ceiling,
        "{} waived findings, committed ceiling {ceiling}",
        report.waived.len()
    );
}
