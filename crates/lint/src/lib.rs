//! `peerstripe-lint` (`repro lint`) — the workspace's determinism &
//! panic-safety linter.
//!
//! Every number this repo reports is a fixed-seed claim; this crate is the
//! static pass that keeps it that way.  It lexes the workspace's own source
//! (no `syn`, no network, std only), then runs four rule families:
//!
//! * **determinism** — `HashMap`/`HashSet` in sim-facing crates
//!   (`unordered-collection`), `Instant::now`/`SystemTime::now` outside
//!   measurement code (`wall-clock`), `thread_rng` anywhere (`ambient-rng`);
//! * **panic-audit** — `unwrap`/`expect`/`panic!`-family macros (`panic`) and
//!   computed slice indices (`slice-index`) in library code;
//! * **layering** — the workspace crate DAG, enforced from `Cargo.toml`
//!   metadata (`layering`);
//! * **unsafe-audit** — `unsafe` without a `// SAFETY:` comment
//!   (`unsafe-no-safety`).
//!
//! Individual occurrences are waived inline:
//!
//! ```text
//! // lint:allow(unordered-collection) -- lookup-only: iteration order never observed
//! ```
//!
//! Waivers require a reason (`waiver-missing-reason`) and must suppress at
//! least one finding (`waiver-unused`), so the waiver list stays an honest,
//! reviewable inventory of every known hazard.

pub mod diag;
pub mod lexer;
pub mod manifest;
pub mod rules;
pub mod source;

use diag::{Finding, Report, Waived};
use rules::FileCtx;
use source::SourceFile;
use std::path::{Path, PathBuf};

/// Crates whose state feeds simulation results: unordered collections are
/// forbidden here (`erasure` works on byte math, `experiments` renders
/// reports from already-deterministic inputs, `lint` is this crate).
const SIM_FACING_CRATES: &[&str] = &[
    "peerstripe-core",
    "peerstripe-sim",
    "peerstripe-repair",
    "peerstripe-placement",
    "peerstripe-overlay",
    "peerstripe-multicast",
    "peerstripe-gridsim",
    "peerstripe-baselines",
    "peerstripe-trace",
    "peerstripe-telemetry",
];

/// Files allowed to read the host clock: encode/decode throughput
/// measurement, the perf-snapshot helper and the phase profiler.
const WALL_CLOCK_EXEMPT: &[&str] = &[
    "crates/erasure/src/measure.rs",
    "crates/experiments/src/bench_snapshot.rs",
    "crates/telemetry/src/profile.rs",
];

/// Options for a lint run.
#[derive(Debug, Clone, Default)]
pub struct Options {
    /// Also list waived findings in text output.
    pub verbose: bool,
}

/// Lint the workspace rooted at `root` (the directory holding the top-level
/// `Cargo.toml`).  Returns the sorted report; IO problems come back as `Err`.
pub fn run_workspace(root: &Path) -> Result<Report, String> {
    let root_manifest_path = root.join("Cargo.toml");
    let root_manifest = read(&root_manifest_path)?;
    let root_toml = manifest::parse(&root_manifest);
    if root_toml.members.is_empty() {
        return Err(format!(
            "{} has no [workspace] members — is this the workspace root?",
            root_manifest_path.display()
        ));
    }

    let mut report = Report::default();
    let mut manifests: Vec<(String, manifest::Manifest)> = Vec::new();
    // The root manifest also declares the facade package.
    manifests.push(("Cargo.toml".to_string(), root_toml.clone()));

    let mut source_dirs: Vec<(String, PathBuf)> = Vec::new(); // (crate name, src dir)
    if !root_toml.package_name.is_empty() {
        source_dirs.push((root_toml.package_name.clone(), root.join("src")));
    }

    for member in &root_toml.members {
        if member.starts_with("vendor/") {
            continue; // vendored stand-ins are not ours to lint
        }
        let member_manifest_path = root.join(member).join("Cargo.toml");
        let member_toml = manifest::parse(&read(&member_manifest_path)?);
        let rel = format!("{member}/Cargo.toml");
        source_dirs.push((
            member_toml.package_name.clone(),
            root.join(member).join("src"),
        ));
        manifests.push((rel, member_toml));
    }

    report.findings.extend(rules::layering::check_layering(
        &manifests,
        &rules::layering::builtin_policy(),
    ));

    for (crate_name, dir) in source_dirs {
        if !dir.is_dir() {
            continue;
        }
        let mut files = Vec::new();
        collect_rs_files(&dir, &mut files)?;
        files.sort();
        for path in files {
            let rel = rel_path(root, &path);
            let ctx = FileCtx {
                sim_facing: SIM_FACING_CRATES.contains(&crate_name.as_str()),
                wall_clock_exempt: WALL_CLOCK_EXEMPT.iter().any(|p| rel.starts_with(p)),
                crate_name: crate_name.clone(),
            };
            let text = read(&path)?;
            lint_file(&rel, &text, &ctx, &mut report);
        }
    }

    report.sort();
    Ok(report)
}

/// Lint a single file's source text into `report` (exposed for fixture tests).
pub fn lint_file(rel_path: &str, text: &str, ctx: &FileCtx, report: &mut Report) {
    let file = SourceFile::parse(rel_path, text);
    let mut raw = Vec::new();
    for rule in rules::token_rules() {
        rule(&file, ctx, &mut raw);
    }

    let mut ledger = source::WaiverLedger::default();
    for finding in raw {
        match file.waiver_for(finding.rule, finding.line) {
            Some(idx) => {
                ledger.mark_used(rel_path, idx);
                let reason = file
                    .waivers
                    .get(idx)
                    .map(|w| w.reason.clone())
                    .unwrap_or_default();
                report.waived.push(Waived {
                    rule: finding.rule,
                    path: rel_path.to_string(),
                    line: finding.line,
                    reason,
                });
            }
            None => report.findings.push(Finding {
                rule: finding.rule,
                path: rel_path.to_string(),
                line: finding.line,
                message: finding.message,
            }),
        }
    }

    // Waiver hygiene: every waiver needs a reason and must earn its keep.
    for (idx, waiver) in file.waivers.iter().enumerate() {
        if waiver.reason.is_empty() {
            report.findings.push(Finding {
                rule: "waiver-missing-reason",
                path: rel_path.to_string(),
                line: waiver.line,
                message: format!(
                    "waiver for ({}) has no `-- reason`: justify it or remove it",
                    waiver.rules.join(", ")
                ),
            });
        }
        if !ledger.is_used(rel_path, idx) {
            report.findings.push(Finding {
                rule: "waiver-unused",
                path: rel_path.to_string(),
                line: waiver.line,
                message: format!(
                    "waiver for ({}) suppresses nothing on line {}: stale after a fix?",
                    waiver.rules.join(", "),
                    waiver.covers
                ),
            });
        }
    }
    report.files_checked += 1;
}

fn read(path: &Path) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_path(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    // Normalise to `/` so diagnostics and waiver paths are OS-independent.
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Locate the workspace root: walk up from `start` to the first `Cargo.toml`
/// containing a `[workspace]` table.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest_path = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest_path) {
            if !manifest::parse(&text).members.is_empty() {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim_ctx() -> FileCtx {
        FileCtx {
            crate_name: "peerstripe-core".into(),
            sim_facing: true,
            wall_clock_exempt: false,
        }
    }

    #[test]
    fn waived_finding_moves_to_waived_list() {
        let mut report = Report::default();
        let src =
            "use std::collections::HashMap; // lint:allow(unordered-collection) -- lookup only\n";
        lint_file("x.rs", src, &sim_ctx(), &mut report);
        assert!(report.is_clean(), "{:?}", report.findings);
        assert_eq!(report.waived.len(), 1);
        assert_eq!(report.waived[0].reason, "lookup only");
    }

    #[test]
    fn waiver_without_reason_is_a_finding() {
        let mut report = Report::default();
        let src = "use std::collections::HashMap; // lint:allow(unordered-collection)\n";
        lint_file("x.rs", src, &sim_ctx(), &mut report);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, "waiver-missing-reason");
    }

    #[test]
    fn unused_waiver_is_a_finding() {
        let mut report = Report::default();
        let src = "// lint:allow(panic) -- not actually needed\nlet x = 1;\n";
        lint_file("x.rs", src, &FileCtx::default(), &mut report);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, "waiver-unused");
    }

    #[test]
    fn wrong_rule_waiver_does_not_suppress() {
        let mut report = Report::default();
        let src = "use std::collections::HashMap; // lint:allow(panic) -- wrong rule\n";
        lint_file("x.rs", src, &sim_ctx(), &mut report);
        // The HashMap finding survives AND the waiver is unused.
        let rules: Vec<&str> = report.findings.iter().map(|f| f.rule).collect();
        assert!(rules.contains(&"unordered-collection"));
        assert!(rules.contains(&"waiver-unused"));
    }
}
