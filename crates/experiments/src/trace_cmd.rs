//! The `repro trace` / `repro trace-summary` commands: run a named scenario
//! with the JSONL tracer attached and digest the emitted trace into causal
//! breakdowns.
//!
//! A trace is one maintenance-engine run with every telemetry emission point
//! enabled: the first line is the [`RunManifest`] header (effective repair,
//! detector and churn configuration), every following line one
//! [`TraceRecord`] stamped with sim time.  The run's [`MaintenanceReport`]
//! rides along.  [`summarize`] replays the record
//! stream and attributes each lost file to the declaration that wrote its
//! chunk off and — transitively, via the engine's `down_outage` bookkeeping —
//! to the group outage that provoked the declaration.  That closes the causal
//! chain the placement sweep only shows in aggregate: *this* outage, under
//! *this* timeout, cost *these* files.
//!
//! Two scenarios are built in:
//!
//! * `placement-outage` (default): the placement sweep's first
//!   `overlay-random` cell — oblivious placement over uniform failure domains
//!   with grouped churn and an aggressive permanence timeout, the regime
//!   where every lost file traces back to a whole-domain outage.
//! * `repair-mini`: a tiny fixed-size independent-churn run, small enough to
//!   keep a byte-identical golden trace under `tests/golden/`.

use crate::deployment::{Cell, Deployment, SWEEP_CODING};
use crate::placement_sweep::PlacementSweepConfig;
use crate::scale::Scale;
use peerstripe_placement::{StrategyKind, Topology};
use peerstripe_repair::{DetectionKind, MaintenanceEngine, MaintenanceReport};
use peerstripe_telemetry::{
    JsonlTracer, RunManifest, TraceEvent, TraceOutput, TraceRecord, Tracer,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Every scenario `repro trace` understands.
pub const SCENARIOS: &[&str] = &["placement-outage", "repair-mini"];

/// Configuration of one `repro trace` run.
#[derive(Debug, Clone)]
pub struct TraceCmdConfig {
    /// Scenario name (one of [`SCENARIOS`]).
    pub scenario: String,
    /// Scale of the scenario (ignored by the fixed-size `repair-mini`).
    pub scale: Scale,
    /// Master seed.
    pub seed: u64,
}

/// What one trace run produced.
#[derive(Debug, Clone)]
pub struct TraceArtifacts {
    /// The JSONL trace: one record per line, manifest first.
    pub jsonl: String,
    /// Number of records in the trace.
    pub records: u64,
    /// The engine's account of the run.
    pub report: MaintenanceReport,
}

/// Run the named scenario with the JSONL tracer attached.
pub fn run_trace(config: &TraceCmdConfig) -> Result<TraceArtifacts, String> {
    let mut engine = match config.scenario.as_str() {
        "placement-outage" => placement_outage(config),
        "repair-mini" => repair_mini(config),
        other => {
            return Err(format!(
                "unknown trace scenario '{other}' (expected one of {SCENARIOS:?})"
            ))
        }
    };
    let report = engine.report();
    let jsonl = match engine.finish_trace() {
        TraceOutput::Jsonl(jsonl) => jsonl,
        TraceOutput::None => String::new(),
    };
    Ok(TraceArtifacts {
        records: jsonl.lines().count() as u64,
        jsonl,
        report,
    })
}

/// Run `cell` over `deployment` with a JSONL tracer whose first record is
/// `manifest` completed with the cell's repair and churn configuration.
fn run_traced(
    deployment: &Deployment,
    cell: &Cell,
    mut manifest: RunManifest,
) -> MaintenanceEngine {
    manifest.extend(cell.repair.manifest_entries());
    manifest.extend(cell.churn.manifest_entries());
    let mut tracer = JsonlTracer::new();
    tracer.record(TraceEvent {
        t_ns: 0,
        record: TraceRecord::Manifest(manifest),
    });
    let mut engine = deployment.engine(cell).with_tracer(Box::new(tracer));
    engine.run_for(cell.horizon);
    engine
}

/// The default scenario: the placement sweep's (overlay-random, first group
/// size, first outage interval) cell — grouped churn, aggressive timeout,
/// domain-concentrated chunks, so losses happen and every one of them is
/// caused by an outage-provoked declaration wave.
fn placement_outage(cmd: &TraceCmdConfig) -> MaintenanceEngine {
    let config = PlacementSweepConfig::at_scale(cmd.scale, cmd.seed);
    let (group_size, interval_hours) = config.first_cell();
    let kind = StrategyKind::OverlayRandom;
    let topology = Topology::uniform_groups(config.nodes, group_size);
    let deployment = config.deploy(&config.trace(), kind, &topology);

    let mut manifest = RunManifest::new("placement-outage", cmd.seed, &cmd.scale.to_string());
    manifest.push("nodes", config.nodes.to_string());
    manifest.push("files", config.files.to_string());
    manifest.push("sim_hours", format!("{}", config.sim_hours));
    manifest.push("placement.strategy", kind.label().to_string());
    manifest.push("placement.group_size", group_size.to_string());
    let cell = config.cell(&topology, interval_hours, DetectionKind::PerNodeTimeout);
    run_traced(&deployment, &cell, manifest)
}

/// The golden-fixture scenario: a fixed tiny deployment (40 nodes, 60 files,
/// 15 virtual hours) under independent churn with a high permanent-departure
/// rate, so declarations, repairs and a handful of losses all appear in a
/// trace small enough to commit byte-for-byte.
fn repair_mini(cmd: &TraceCmdConfig) -> MaintenanceEngine {
    let nodes = 40;
    let files = 60;
    let sim_hours = 15.0;
    let deployment = Deployment::oblivious(nodes, files, cmd.seed, SWEEP_CODING);
    // 5 % of departures permanent, against a 6 h permanence timeout.
    let cell = Cell::independent(0.05, 6.0, sim_hours);

    let mut manifest = RunManifest::new("repair-mini", cmd.seed, "fixed");
    manifest.push("nodes", nodes.to_string());
    manifest.push("files", files.to_string());
    manifest.push("sim_hours", format!("{sim_hours}"));
    run_traced(&deployment, &cell, manifest)
}

/// One lost file with its full causal chain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LostFileAttribution {
    /// The lost file.
    pub file: u32,
    /// The chunk whose write-off damaged the file.
    pub chunk: u32,
    /// The declared node whose write-off caused the loss.
    pub cause_node: usize,
    /// Sim-clock nanoseconds of the causing declaration.
    pub declared_at_ns: u64,
    /// The group outage the loss traces back to: the causing declaration's
    /// outage, or — when the finishing declaration was an individual one —
    /// the outage whose declarations wrote off the most of the chunk's
    /// blocks.
    pub outage: Option<u64>,
    /// True when the finishing declaration itself belonged to the outage;
    /// false when the outage was inferred from the chunk's earlier
    /// write-offs.
    pub direct: bool,
    /// The failure domain the loss traces back to (the outage's group, or
    /// the causing node's domain for individual departures).
    pub domain: Option<u32>,
}

/// A digested trace: headline counters plus the causal loss breakdown.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Scenario name from the manifest header.
    pub scenario: String,
    /// Seed from the manifest header.
    pub seed: u64,
    /// Repair policy label from the manifest header.
    pub policy: String,
    /// Detection policy label from the manifest header.
    pub detection: String,
    /// Total records in the trace (including the manifest).
    pub records: u64,
    /// Per-record-kind counts, sorted by kind name.
    pub records_by_kind: Vec<(String, u64)>,
    /// Group outages observed.
    pub outages: u64,
    /// Declarations that went through ("declare" verdicts).
    pub declarations: u64,
    /// "hold" verdicts.
    pub holds: u64,
    /// "cancel" verdicts.
    pub cancels: u64,
    /// Regenerations scheduled.
    pub repairs_scheduled: u64,
    /// Regenerations completed.
    pub repairs_completed: u64,
    /// Total completed repair traffic, bytes.
    pub repair_traffic_bytes: u64,
    /// Every lost file with its causal chain, in loss order.
    pub files_lost: Vec<LostFileAttribution>,
    /// Lost files per failure domain ("domain N", or "individual" when the
    /// causing declaration was not part of a group outage).
    pub lost_by_domain: Vec<(String, u64)>,
    /// Lost files per causing outage id.
    pub lost_by_outage: Vec<(String, u64)>,
    /// Lost files whose causing declaration belonged to no group outage.
    /// Zero in the `placement-outage` scenario means the causal chain is
    /// closed: every loss traces to a concrete outage and declaration.
    pub unattributed: u64,
}

/// Short kind label for one record.
fn kind_of(record: &TraceRecord) -> &'static str {
    match record {
        TraceRecord::Manifest(_) => "manifest",
        TraceRecord::NodeDown { .. } => "node_down",
        TraceRecord::NodeReturn { .. } => "node_return",
        TraceRecord::OutageStart { .. } => "outage_start",
        TraceRecord::OutageEnd { .. } => "outage_end",
        TraceRecord::DeclarationVerdict { .. } => "declaration_verdict",
        TraceRecord::HoldReleased { .. } => "hold_released",
        TraceRecord::BlocksWrittenOff { .. } => "blocks_written_off",
        TraceRecord::ChunkLost { .. } => "chunk_lost",
        TraceRecord::FileLost { .. } => "file_lost",
        TraceRecord::PlacementDecision { .. } => "placement_decision",
        TraceRecord::RepairScheduled { .. } => "repair_scheduled",
        TraceRecord::RepairCompleted { .. } => "repair_completed",
        TraceRecord::Sample { .. } => "sample",
    }
}

/// Replay a JSONL trace into a [`TraceSummary`], attributing every lost file
/// to its causing declaration and outage.
pub fn summarize(jsonl: &str) -> Result<TraceSummary, String> {
    let mut scenario = String::new();
    let mut seed = 0u64;
    let mut policy = String::new();
    let mut detection = String::new();
    let mut records = 0u64;
    let mut by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut node_domain: BTreeMap<usize, u32> = BTreeMap::new();
    let mut outage_group: BTreeMap<u64, u32> = BTreeMap::new();
    // Which outage each down node currently belongs to, and per chunk how
    // many blocks each outage's declarations have written off — the fallback
    // attribution when the finishing declaration is an individual one.
    let mut node_outage: BTreeMap<usize, u64> = BTreeMap::new();
    let mut chunk_votes: BTreeMap<u32, BTreeMap<u64, usize>> = BTreeMap::new();
    let mut outages = 0u64;
    let (mut declarations, mut holds, mut cancels) = (0u64, 0u64, 0u64);
    let (mut repairs_scheduled, mut repairs_completed) = (0u64, 0u64);
    let mut repair_traffic_bytes = 0u64;
    let mut files_lost: Vec<LostFileAttribution> = Vec::new();

    for (index, line) in jsonl.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event: TraceEvent = serde_json::from_str(line)
            .map_err(|_| format!("unparseable trace record on line {}", index + 1))?;
        records += 1;
        *by_kind.entry(kind_of(&event.record)).or_insert(0) += 1;
        match event.record {
            TraceRecord::Manifest(manifest) => {
                scenario = manifest.scenario.clone();
                seed = manifest.seed;
                policy = manifest.get("repair.policy").unwrap_or("?").to_string();
                detection = manifest.get("repair.detection").unwrap_or("?").to_string();
            }
            TraceRecord::NodeDown {
                node,
                domain,
                outage,
                ..
            } => {
                if let Some(domain) = domain {
                    node_domain.insert(node, domain);
                }
                match outage {
                    Some(outage) => {
                        node_outage.insert(node, outage);
                    }
                    None => {
                        node_outage.remove(&node);
                    }
                }
            }
            TraceRecord::NodeReturn { node, .. } => {
                node_outage.remove(&node);
            }
            TraceRecord::BlocksWrittenOff {
                chunk,
                node,
                blocks,
            } => {
                if let Some(&outage) = node_outage.get(&node) {
                    *chunk_votes
                        .entry(chunk)
                        .or_default()
                        .entry(outage)
                        .or_insert(0) += blocks;
                }
            }
            TraceRecord::OutageStart { outage, group, .. } => {
                outages += 1;
                outage_group.insert(outage, group);
            }
            TraceRecord::DeclarationVerdict { verdict, .. } => match verdict.as_str() {
                "declare" => declarations += 1,
                "hold" => holds += 1,
                _ => cancels += 1,
            },
            TraceRecord::RepairScheduled { .. } => repairs_scheduled += 1,
            TraceRecord::RepairCompleted { traffic, .. } => {
                repairs_completed += 1;
                repair_traffic_bytes += traffic;
            }
            TraceRecord::FileLost {
                file,
                chunk,
                cause_node,
                outage,
            } => {
                let direct = outage.is_some();
                // Individual finishing blow: fall back to the outage whose
                // declarations destroyed most of the chunk's redundancy.
                let outage = outage.or_else(|| {
                    chunk_votes.get(&chunk).and_then(|votes| {
                        votes
                            .iter()
                            .max_by_key(|&(_, blocks)| *blocks)
                            .map(|(&outage, _)| outage)
                    })
                });
                let domain = outage
                    .and_then(|o| outage_group.get(&o).copied())
                    .or_else(|| node_domain.get(&cause_node).copied());
                files_lost.push(LostFileAttribution {
                    file,
                    chunk,
                    cause_node,
                    declared_at_ns: event.t_ns,
                    outage,
                    direct,
                    domain,
                });
            }
            _ => {}
        }
    }
    if scenario.is_empty() {
        return Err("trace has no manifest header record".to_string());
    }

    let mut lost_by_domain: BTreeMap<String, u64> = BTreeMap::new();
    let mut lost_by_outage: BTreeMap<String, u64> = BTreeMap::new();
    let mut unattributed = 0u64;
    for loss in &files_lost {
        let domain_label = match loss.domain {
            Some(domain) => format!("domain {domain}"),
            None => "individual".to_string(),
        };
        *lost_by_domain.entry(domain_label).or_insert(0) += 1;
        match loss.outage {
            Some(outage) => {
                *lost_by_outage
                    .entry(format!("outage {outage}"))
                    .or_insert(0) += 1;
            }
            None => unattributed += 1,
        }
    }

    Ok(TraceSummary {
        scenario,
        seed,
        policy,
        detection,
        records,
        records_by_kind: by_kind
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
        outages,
        declarations,
        holds,
        cancels,
        repairs_scheduled,
        repairs_completed,
        repair_traffic_bytes,
        files_lost,
        lost_by_domain: lost_by_domain.into_iter().collect(),
        lost_by_outage: lost_by_outage.into_iter().collect(),
        unattributed,
    })
}

/// Render a summary as human-readable text.
pub fn render_summary_text(summary: &TraceSummary) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "## trace summary — {} (seed {})\n\npolicy {} | detection {}\n{} records, {} outages, \
         {} declarations ({} held, {} cancelled)\n{} repairs scheduled, {} completed, {} repair bytes\n",
        summary.scenario,
        summary.seed,
        summary.policy,
        summary.detection,
        summary.records,
        summary.outages,
        summary.declarations,
        summary.holds,
        summary.cancels,
        summary.repairs_scheduled,
        summary.repairs_completed,
        summary.repair_traffic_bytes,
    ));
    out.push_str("\nrecords by kind:\n");
    for (kind, count) in &summary.records_by_kind {
        out.push_str(&format!("  {kind:<22} {count}\n"));
    }
    out.push_str(&format!(
        "\nfiles lost: {} ({} unattributed to any outage)\n",
        summary.files_lost.len(),
        summary.unattributed
    ));
    for (domain, count) in &summary.lost_by_domain {
        out.push_str(&format!("  by {domain:<12} {count}\n"));
    }
    for (outage, count) in &summary.lost_by_outage {
        out.push_str(&format!("  by {outage:<12} {count}\n"));
    }
    for loss in &summary.files_lost {
        let cause = match (loss.outage, loss.direct) {
            (Some(outage), true) => format!("outage {outage}"),
            (Some(outage), false) => format!("outage {outage}, finished individually"),
            (None, _) => "individual departure".to_string(),
        };
        out.push_str(&format!(
            "  file {} (chunk {}) lost at t={:.1}h: declaration of node {} ({})\n",
            loss.file,
            loss.chunk,
            loss.declared_at_ns as f64 / 3.6e12,
            loss.cause_node,
            cause
        ));
    }
    out
}

/// Render a summary as JSON.
pub fn render_summary_json(summary: &TraceSummary) -> String {
    serde_json::to_string(summary).unwrap_or_default()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini() -> TraceCmdConfig {
        TraceCmdConfig {
            scenario: "repair-mini".to_string(),
            scale: Scale::Small,
            seed: 42,
        }
    }

    #[test]
    fn unknown_scenario_is_rejected() {
        let mut config = mini();
        config.scenario = "bogus".to_string();
        assert!(run_trace(&config).is_err());
    }

    #[test]
    fn repair_mini_traces_and_summarizes() {
        let artifacts = run_trace(&mini()).unwrap();
        assert!(artifacts.records > 10, "{}", artifacts.records);
        let first = artifacts.jsonl.lines().next().unwrap();
        assert!(first.contains("Manifest"), "{first}");
        let summary = summarize(&artifacts.jsonl).unwrap();
        assert_eq!(summary.scenario, "repair-mini");
        assert_eq!(summary.seed, 42);
        assert_eq!(summary.policy, "eager");
        assert_eq!(summary.records, artifacts.records);
        assert!(summary.declarations > 0, "{summary:#?}");
        assert!(summary.repairs_scheduled > 0);
        // Renders don't panic and carry the headline.
        assert!(render_summary_text(&summary).contains("repair-mini"));
        assert!(render_summary_json(&summary).contains("\"scenario\""));
    }

    #[test]
    fn placement_outage_is_the_sweeps_first_oblivious_cell() {
        let mut cmd = mini();
        cmd.scenario = "placement-outage".to_string();
        let traced = placement_outage(&cmd).report();
        assert!(traced.group_outages > 0 && !traced.repair_bytes.is_zero());

        let config = PlacementSweepConfig::at_scale(cmd.scale, cmd.seed);
        let sweep = crate::placement_sweep::run_placement_sweep(&config);
        let row = sweep
            .rows
            .iter()
            .find(|r| {
                r.strategy == StrategyKind::OverlayRandom
                    && Some(&r.group_size) == config.group_sizes.first()
                    && Some(&r.outage_interval_hours) == config.outage_interval_hours.first()
            })
            .expect("the sweep has the cell");
        let swept = &row.report;
        assert_eq!(
            (
                swept.files_lost,
                swept.repair_bytes,
                swept.group_outages,
                swept.events
            ),
            (
                traced.files_lost,
                traced.repair_bytes,
                traced.group_outages,
                traced.events
            )
        );
    }

    #[test]
    fn summary_round_trips_through_json() {
        let artifacts = run_trace(&mini()).unwrap();
        let summary = summarize(&artifacts.jsonl).unwrap();
        let json = render_summary_json(&summary);
        let back: TraceSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(back, summary);
    }

    #[test]
    fn headerless_trace_is_rejected() {
        assert!(summarize("").is_err());
    }
}
