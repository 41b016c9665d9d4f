//! `repro bench-snapshot` — one-shot, in-process perf snapshots of the two
//! hot paths the criterion benches guard, written as small JSON files under
//! `benchmarks/` so perf regressions show up in review as a diff.
//!
//! The `repair_schedule` workload is defined here once ([`deploy`],
//! [`engine_of`]) and the criterion bench of that name imports it; the other
//! snapshots mirror `crates/bench/benches/detector_decide.rs` and
//! `placement_decide.rs` exactly (same deployment, same decide loop) — plus a `wire_roundtrip` snapshot covering
//! the networked path's frame encode/decode and an `rs_encode` snapshot
//! covering in-place erasure-encode throughput (scalar vs `nibble64` kernel vs
//! a worker per CPU) — but run each measurement a handful of times and keep the best —
//! good enough to catch an order-of-magnitude regression without criterion's
//! multi-minute statistics.  Numbers are machine-dependent by nature; the
//! committed files record the machine-independent *shape* (events processed,
//! verdict counts) next to the throughput observed when they were captured.
//!
//! This file is on the linter's `WALL_CLOCK_EXEMPT` list: measuring elapsed
//! wall time is its whole job.  Nothing here feeds simulation results.

use crate::coding::{cpus, RowArena};
use crate::Scale;
use peerstripe_core::{
    ClusterConfig, CodingPolicy, ObjectName, PeerStripe, PeerStripeConfig, StorageSystem,
};
use peerstripe_net::protocol::{read_request_traced, write_request_traced};
use peerstripe_net::Request;
use peerstripe_overlay::Id;
use peerstripe_placement::{RepairRequest, StrategyKind, Topology};
use peerstripe_repair::{
    BandwidthBudget, ChurnProcess, DeclarationVerdict, DetectionKind, DetectionPolicy,
    DetectorConfig, MaintenanceEngine, OutageAware, OutageAwareConfig, PerNodeTimeout,
    RepairConfig, RepairPolicy, SessionModel,
};
use peerstripe_sim::{ByteSize, DetRng, SimTime};
use peerstripe_trace::TraceConfig;
use serde::Deserialize;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Domain size used by the detector benches (matches `detector_decide.rs`).
const GROUP_SIZE: usize = 25;
/// Measurement repetitions per configuration; the best run is kept.
const REPS: usize = 3;
/// Blocks per chunk in the placement bench (matches `placement_decide.rs`).
const BLOCKS_PER_CHUNK: usize = 8;
/// Per-domain block cap in the placement bench (matches `placement_decide.rs`).
const DOMAIN_CAP: usize = 4;

/// Parameters of a snapshot run.
#[derive(Debug, Clone)]
pub struct BenchSnapshotConfig {
    /// Node counts to measure at (the benches use 1 000 and 10 000).
    pub node_counts: Vec<usize>,
    /// Deployment / churn seed.
    pub seed: u64,
}

impl BenchSnapshotConfig {
    /// The configuration matching the committed criterion benches.
    pub fn at_scale(scale: Scale, seed: u64) -> Self {
        let node_counts = match scale {
            Scale::Small => vec![200, 1_000],
            _ => vec![1_000, 10_000],
        };
        BenchSnapshotConfig { node_counts, seed }
    }
}

/// One measured configuration within a snapshot.
#[derive(Debug, Clone)]
pub struct BenchRow {
    /// Sub-benchmark id, e.g. `churn_24h/1000_nodes`.
    pub id: String,
    /// Work units completed in the measured run (events, verdicts, cycles).
    pub work_units: u64,
    /// Best observed throughput, work units per second.
    pub per_sec: f64,
}

/// A named collection of rows, renderable as JSON.
#[derive(Debug, Clone)]
pub struct BenchSnapshot {
    /// Snapshot name (`repair_schedule` or `detector_decide`).
    pub name: String,
    /// Seed the deployment and churn used.
    pub seed: u64,
    /// Measured rows in execution order.
    pub rows: Vec<BenchRow>,
}

impl BenchSnapshot {
    /// Render the snapshot as stable, diff-friendly JSON.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"benchmark\": \"{}\",", self.name);
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        let _ = writeln!(out, "  \"captured_with\": \"repro bench-snapshot\",");
        // The capture machine: throughput rows mean nothing without it.
        let _ = writeln!(out, "  \"cpus\": {},", cpus());
        let _ = writeln!(
            out,
            "  \"lane\": \"{}\",",
            peerstripe_erasure::Gf256Kernel::Nibble64.lane_label()
        );
        let _ = writeln!(
            out,
            "  \"rustc\": \"{}\",",
            env!("PEERSTRIPE_RUSTC_VERSION")
        );
        out.push_str("  \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let comma = if i + 1 == self.rows.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "    {{ \"id\": \"{}\", \"work_units\": {}, \"per_sec\": {:.1} }}{comma}",
                row.id, row.work_units, row.per_sec
            );
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// The `repair_schedule` workload's deployment: a cluster under a light
/// per-node file load, which keeps setup fast while exercising the same
/// per-event code paths as the full sweep.
pub fn deploy(
    nodes: usize,
    seed: u64,
) -> (
    peerstripe_core::StorageCluster,
    peerstripe_core::ManifestStore,
) {
    let mut rng = DetRng::new(seed);
    let cluster = ClusterConfig::scaled(nodes).build(&mut rng);
    let mut ps = PeerStripe::new(
        cluster,
        PeerStripeConfig::default().with_coding(CodingPolicy::online_default()),
    );
    let trace = TraceConfig::scaled(nodes * 2).generate(seed ^ 0xc0de);
    for file in &trace.files {
        let _ = ps.store_file(file);
    }
    let manifests = ps.manifests().clone();
    (ps.into_cluster(), manifests)
}

/// The maintenance engine the `repair_schedule` workload drives for 24 h.
pub fn engine_of(
    cluster: peerstripe_core::StorageCluster,
    manifests: &peerstripe_core::ManifestStore,
    seed: u64,
) -> MaintenanceEngine {
    let churn = ChurnProcess {
        sessions: SessionModel::Synthetic {
            mean_session_secs: 8.0 * 3_600.0,
            mean_downtime_secs: 4.0 * 3_600.0,
        },
        permanent_fraction: 0.01,
        grouped: None,
    };
    let config = RepairConfig {
        policy: RepairPolicy::Eager,
        detector: DetectorConfig::default_desktop_grid().with_timeout(24.0 * 3_600.0),
        detection: DetectionKind::PerNodeTimeout,
        bandwidth: BandwidthBudget::symmetric(ByteSize::mb(4)),
        sample_period_secs: 3_600.0,
    };
    MaintenanceEngine::new(cluster, manifests, churn, config, seed)
}

/// Maintenance-engine event throughput over 24 h of churn.
pub fn run_repair_schedule_snapshot(config: &BenchSnapshotConfig) -> BenchSnapshot {
    let mut rows = Vec::new();
    for &nodes in &config.node_counts {
        let (cluster, manifests) = deploy(nodes, config.seed);
        let mut best_per_sec = 0.0f64;
        let mut work_units = 0u64;
        for _ in 0..REPS {
            let mut engine = engine_of(cluster.clone(), &manifests, config.seed);
            let started = Instant::now();
            engine.run_for(SimTime::from_secs(24 * 3_600));
            let elapsed = started.elapsed().as_secs_f64().max(1e-9);
            let events = engine.events_processed();
            work_units = events;
            best_per_sec = best_per_sec.max(events as f64 / elapsed);
        }
        rows.push(BenchRow {
            id: format!("churn_24h/{nodes}_nodes"),
            work_units,
            per_sec: best_per_sec,
        });
    }
    BenchSnapshot {
        name: "repair_schedule".to_string(),
        seed: config.seed,
        rows,
    }
}

/// Clustered-downtime setup shared by the decide rows (mirrors
/// `detector_decide.rs::take_half_down`).
fn take_half_down(
    policy: &mut dyn DetectionPolicy,
    nodes: usize,
) -> Vec<peerstripe_repair::PendingDeclaration> {
    let at = SimTime::from_secs(1_000);
    (0..nodes)
        .filter(|n| n % 2 == 0)
        .map(|n| policy.node_down(n, at))
        .collect()
}

fn detector_config() -> DetectorConfig {
    DetectorConfig::default_desktop_grid().with_timeout(4.0 * 3_600.0)
}

/// Detection-policy decide and down/up throughput for both policies.
pub fn run_detector_decide_snapshot(config: &BenchSnapshotConfig) -> BenchSnapshot {
    let mut rows = Vec::new();
    for &nodes in &config.node_counts {
        let topology = Topology::uniform_groups(nodes, GROUP_SIZE);
        let policies: Vec<(&str, Box<dyn DetectionPolicy>)> = vec![
            (
                "per-node",
                Box::new(PerNodeTimeout::new(nodes, detector_config())),
            ),
            (
                "outage-aware",
                Box::new(OutageAware::new(
                    nodes,
                    detector_config(),
                    topology.domain_view(),
                    OutageAwareConfig::default_desktop_grid(),
                )),
            ),
        ];
        for (label, mut policy) in policies {
            let pendings = take_half_down(policy.as_mut(), nodes);
            // Decide throughput: one verdict per down node per pass.
            let mut best = 0.0f64;
            for _ in 0..REPS {
                let started = Instant::now();
                let mut verdicts = 0u64;
                while started.elapsed().as_secs_f64() < 0.1 {
                    for (i, p) in pendings.iter().enumerate() {
                        match policy.decide(i * 2, p.generation, p.declare_at) {
                            DeclarationVerdict::Declare
                            | DeclarationVerdict::Hold { .. }
                            | DeclarationVerdict::Cancel => verdicts += 1,
                        }
                    }
                }
                best = best.max(verdicts as f64 / started.elapsed().as_secs_f64());
            }
            rows.push(BenchRow {
                id: format!("decide/{label}/{nodes}_nodes"),
                work_units: pendings.len() as u64,
                per_sec: best,
            });
            // Departure bookkeeping: a down/up cycle per node per pass.
            let mut best = 0.0f64;
            let mut t = 2_000u64;
            for _ in 0..REPS {
                let started = Instant::now();
                let mut cycles = 0u64;
                while started.elapsed().as_secs_f64() < 0.1 {
                    t += 1;
                    for node in 0..nodes {
                        let _ = policy.node_down(node, SimTime::from_secs(t));
                        policy.node_up(node, SimTime::from_secs(t + 1));
                        cycles += 1;
                    }
                }
                best = best.max(cycles as f64 / started.elapsed().as_secs_f64());
            }
            rows.push(BenchRow {
                id: format!("down_up/{label}/{nodes}_nodes"),
                work_units: nodes as u64,
                per_sec: best,
            });
        }
    }
    BenchSnapshot {
        name: "detector_decide".to_string(),
        seed: config.seed,
        rows,
    }
}

/// Placement decision throughput: chunk-placement plans and repair-target
/// picks per second for every strategy (mirrors `placement_decide.rs`).
///
/// Measured at the configured node counts and one decade past the largest,
/// so each strategy's rows read as a curve with three points.  The cluster
/// adopts the topology the way a client or the engine hands it over, so
/// strategies that use the cluster's per-domain index find it.
pub fn run_placement_decide_snapshot(config: &BenchSnapshotConfig) -> BenchSnapshot {
    let mut rows = Vec::new();
    let next_decade = config.node_counts.iter().max().map(|&top| top * 10);
    for nodes in config.node_counts.iter().copied().chain(next_decade) {
        let mut rng = DetRng::new(7);
        let mut base = ClusterConfig::scaled(nodes).build(&mut rng);
        let topology = Topology::synthetic(nodes, 4, 8, 7);
        base.adopt_topology(&topology);
        for kind in StrategyKind::ALL {
            // Chunk-placement planning: one 8-block plan per pass, fresh keys
            // per chunk (the store path's hot decision).
            let mut best = 0.0f64;
            for _ in 0..REPS {
                let mut cluster = base.clone();
                let mut strategy = kind.build(7);
                let mut chunk = 0u64;
                let started = Instant::now();
                let mut plans = 0u64;
                while started.elapsed().as_secs_f64() < 0.1 {
                    chunk += 1;
                    let keys: Vec<Id> = (0..BLOCKS_PER_CHUNK as u64)
                        .map(|ecb| Id::hash(&format!("bench-file_{chunk}_{ecb}")))
                        .collect();
                    let _ = strategy
                        .plan_chunk(&mut cluster, Some(&topology), &keys, DOMAIN_CAP)
                        .map(|picks| picks.len());
                    plans += 1;
                }
                best = best.max(plans as f64 / started.elapsed().as_secs_f64());
            }
            rows.push(BenchRow {
                id: format!("plan_chunk/{}/{nodes}_nodes", kind.label()),
                work_units: BLOCKS_PER_CHUNK as u64,
                per_sec: best,
            });
            // Repair targeting: one replacement pick against a half-placed
            // chunk (the maintenance engine's hot decision).
            let mut best = 0.0f64;
            for _ in 0..REPS {
                let cluster = base.clone();
                let mut strategy = kind.build(7);
                let mut pick_rng = DetRng::new(11);
                let holders: Vec<usize> = (0..BLOCKS_PER_CHUNK - 1).map(|i| i * 7).collect();
                let request = RepairRequest {
                    want: 1,
                    size: ByteSize::mb(8),
                    holders: &holders,
                    domain_cap: DOMAIN_CAP,
                };
                let started = Instant::now();
                let mut picks = 0u64;
                while started.elapsed().as_secs_f64() < 0.1 {
                    let _ = strategy
                        .repair_targets(&cluster, Some(&topology), &request, &mut pick_rng)
                        .len();
                    picks += 1;
                }
                best = best.max(picks as f64 / started.elapsed().as_secs_f64());
            }
            rows.push(BenchRow {
                id: format!("repair_targets/{}/{nodes}_nodes", kind.label()),
                work_units: 1,
                per_sec: best,
            });
        }
    }
    BenchSnapshot {
        name: "placement_decide".to_string(),
        seed: config.seed,
        rows,
    }
}

/// Wire-frame encode + decode throughput for the networked path's hot
/// frames: traced `StoreBlock` requests at several payload sizes, plus a
/// header-only `Ping` control row.  One pass is one traced write into a
/// reusable in-memory buffer followed by one traced read back — exactly what
/// `RingGateway::rpc` and the node server do per RPC, minus the socket — so
/// a regression here (e.g. an extra copy in the meta/rid path) shows up as a
/// frames-per-second collapse.
pub fn run_wire_roundtrip_snapshot(config: &BenchSnapshotConfig) -> BenchSnapshot {
    fn roundtrip_row(id: String, work_units: u64, req: &Request) -> BenchRow {
        let mut best = 0.0f64;
        for _ in 0..REPS {
            let mut buf: Vec<u8> = Vec::with_capacity(512 * 1024);
            let started = Instant::now();
            let mut frames = 0u64;
            while started.elapsed().as_secs_f64() < 0.1 {
                buf.clear();
                // lint:allow(panic) -- writing to a Vec cannot fail and the bench frames stay far under MAX_FRAME
                write_request_traced(&mut buf, req, Some(frames)).expect("in-memory frame write");
                let mut frame = buf.as_slice();
                // lint:allow(panic) -- decoding the bytes this bench just encoded cannot fail
                let (decoded, rid) = read_request_traced(&mut frame).expect("frame read");
                assert_eq!(rid, Some(frames), "request id must survive the roundtrip");
                std::hint::black_box(decoded);
                frames += 1;
            }
            best = best.max(frames as f64 / started.elapsed().as_secs_f64());
        }
        BenchRow {
            id,
            work_units,
            per_sec: best,
        }
    }

    let mut rows = vec![roundtrip_row("ping".to_string(), 0, &Request::Ping)];
    for kib in [1u64, 16, 256] {
        let size = ByteSize::kb(kib);
        let mut rng = DetRng::new(config.seed);
        let payload: Vec<u8> = (0..size.as_u64()).map(|_| rng.next_u64() as u8).collect();
        let req = Request::StoreBlock {
            key: Id::hash("bench-wire/0_0"),
            name: ObjectName::block("bench-wire", 0, 0),
            size,
            payload: Some(payload),
        };
        rows.push(roundtrip_row(
            format!("store_block/{kib}_kib"),
            size.as_u64(),
            &req,
        ));
    }
    BenchSnapshot {
        name: "wire_roundtrip".to_string(),
        seed: config.seed,
        rows,
    }
}

/// Reed–Solomon encode throughput into caller-owned row buffers
/// ([`RowArena`], the store path's shape): `scalar` kernel vs `nibble64`
/// kernel on one thread vs `nibble64` with a column-span worker per CPU, at
/// RS(5, 3) and RS(8, 4) over 1 MB and 4 MB chunks (`rs_encode.rs` benches
/// the same three through the same arena).  `per_sec` is source **bytes**
/// per second; all three are cross-checked against the blocks
/// `ErasureCode::encode` returns before any number is recorded, so a kernel
/// bug fails the snapshot rather than polluting it.
pub fn run_rs_encode_snapshot(config: &BenchSnapshotConfig) -> BenchSnapshot {
    use peerstripe_erasure::{ErasureCode, Gf256Kernel, ReedSolomonCode};
    let mut rows = Vec::new();
    for (data, parity) in [(5usize, 3usize), (8, 4)] {
        let scalar = ReedSolomonCode::new(data, parity).with_kernel(Gf256Kernel::Scalar);
        let fast = ReedSolomonCode::new(data, parity).with_kernel(Gf256Kernel::Nibble64);
        for mb in [1u64, 4] {
            let size = ByteSize::mb(mb);
            let mut rng = DetRng::new(config.seed);
            let chunk: Vec<u8> = (0..size.as_u64()).map(|_| rng.next_u64() as u8).collect();
            let reference = scalar.encode(&chunk);
            let mut arena = RowArena::new(&fast, chunk.len());
            let paths = [
                ("serial_scalar", &scalar, 1),
                ("serial_nibble64", &fast, 1),
                ("parallel", &fast, cpus()),
            ];
            for (label, code, workers) in paths {
                // Untimed first: the arena's pages are faulted in once, as a
                // payload's are, not once per measured encode.
                arena.encode(code, &chunk, workers);
                let mut best = 0.0f64;
                for _ in 0..REPS {
                    let started = Instant::now();
                    arena.encode(code, &chunk, workers);
                    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
                    best = best.max(size.as_u64() as f64 / elapsed);
                }
                assert!(arena.holds(&reference), "{label} differs from encode()");
                rows.push(BenchRow {
                    id: format!("rs_{data}p{parity}/{mb}_mb/{label}"),
                    work_units: size.as_u64(),
                    per_sec: best,
                });
            }
        }
    }
    BenchSnapshot {
        name: "rs_encode".to_string(),
        seed: config.seed,
        rows,
    }
}

/// Run all five snapshots and write them under `dir` as
/// `BENCH_repair_schedule.json`, `BENCH_detector_decide.json`,
/// `BENCH_placement_decide.json`, `BENCH_wire_roundtrip.json` and
/// `BENCH_rs_encode.json`.  Returns the written paths.
pub fn write_snapshots(dir: &Path, config: &BenchSnapshotConfig) -> Result<Vec<PathBuf>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut written = Vec::new();
    for snapshot in measure_all(config) {
        let path = dir.join(format!("BENCH_{}.json", snapshot.name));
        std::fs::write(&path, snapshot.render_json())
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        written.push(path);
    }
    Ok(written)
}

/// A committed `BENCH_*.json` file, parsed back.
#[derive(Debug, Clone, Deserialize)]
struct SnapshotFile {
    benchmark: String,
    #[allow(dead_code)]
    seed: u64,
    #[allow(dead_code)]
    captured_with: String,
    rows: Vec<SnapshotFileRow>,
}

/// One row of a committed snapshot file.
#[derive(Debug, Clone, Deserialize)]
struct SnapshotFileRow {
    id: String,
    #[allow(dead_code)]
    work_units: u64,
    per_sec: f64,
}

/// The fraction of a committed row's throughput a fresh measurement must
/// reach for `check_repair_schedule` to pass.  Generous on purpose: the
/// committed numbers are machine-dependent, so only an order-of-magnitude
/// collapse (e.g. tracing overhead leaking into the `NullTracer` hot path)
/// should fail the check.
pub const CHECK_TOLERANCE: f64 = 0.5;

/// Compare one freshly measured snapshot against its committed
/// `BENCH_<name>.json` under `dir`: a row fails when it reaches less than
/// `tolerance` of its committed throughput.  Appends per-row lines to
/// `report` and failure messages to `failures`.
fn check_one_snapshot(
    dir: &Path,
    fresh: &BenchSnapshot,
    tolerance: f64,
    report: &mut String,
    failures: &mut Vec<String>,
) -> Result<(), String> {
    let path = dir.join(format!("BENCH_{}.json", fresh.name));
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let committed: SnapshotFile =
        serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
    if committed.benchmark != fresh.name {
        return Err(format!(
            "{} is a '{}' snapshot, expected {}",
            path.display(),
            committed.benchmark,
            fresh.name
        ));
    }
    for row in &fresh.rows {
        let Some(baseline) = committed.rows.iter().find(|r| r.id == row.id) else {
            let _ = writeln!(
                report,
                "{}/{}: no committed baseline (skipped)",
                fresh.name, row.id
            );
            continue;
        };
        let ratio = if baseline.per_sec > 0.0 {
            row.per_sec / baseline.per_sec
        } else {
            1.0
        };
        let _ = writeln!(
            report,
            "{}/{}: {:.0}/s vs committed {:.0}/s ({:.2}x)",
            fresh.name, row.id, row.per_sec, baseline.per_sec, ratio
        );
        if ratio < tolerance {
            failures.push(format!(
                "{}/{} regressed to {:.2}x of the committed throughput",
                fresh.name, row.id, ratio
            ));
        }
    }
    Ok(())
}

/// Re-measure the `repair_schedule` snapshot (the engine hot path, with the
/// default `NullTracer`) and compare against the committed
/// `BENCH_repair_schedule.json` under `dir`.  Returns a per-row report, or an
/// error naming every row that fell below [`CHECK_TOLERANCE`] of its
/// committed throughput.
pub fn check_repair_schedule(dir: &Path, config: &BenchSnapshotConfig) -> Result<String, String> {
    check_against(
        dir,
        &[run_repair_schedule_snapshot(config)],
        CHECK_TOLERANCE,
    )
}

/// Re-measure **all five** committed snapshots — `repair_schedule`,
/// `detector_decide`, `placement_decide`, `wire_roundtrip`, and `rs_encode`
/// — and compare each against its `BENCH_*.json` under `dir`.  Rows without
/// a committed baseline (e.g. the 200-node rows of a `--scale small` run
/// against medium-scale baselines) are reported but skipped; any measured
/// row below [`CHECK_TOLERANCE`] of its committed throughput fails the
/// check.
pub fn check_snapshots(dir: &Path, config: &BenchSnapshotConfig) -> Result<String, String> {
    check_against(dir, &measure_all(config), CHECK_TOLERANCE)
}

/// Freshly measure all five snapshots.
fn measure_all(config: &BenchSnapshotConfig) -> [BenchSnapshot; 5] {
    [
        run_repair_schedule_snapshot(config),
        run_detector_decide_snapshot(config),
        run_placement_decide_snapshot(config),
        run_wire_roundtrip_snapshot(config),
        run_rs_encode_snapshot(config),
    ]
}

/// Compare measured snapshots against the committed ones under `dir` at the
/// given tolerance: the per-row report, or the report plus every failing row.
fn check_against(dir: &Path, fresh: &[BenchSnapshot], tolerance: f64) -> Result<String, String> {
    let mut report = String::new();
    let mut failures = Vec::new();
    for snapshot in fresh {
        check_one_snapshot(dir, snapshot, tolerance, &mut report, &mut failures)?;
    }
    if failures.is_empty() {
        Ok(report)
    } else {
        Err(format!("{report}\n{}", failures.join("\n")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_json_is_well_formed() {
        let snapshot = BenchSnapshot {
            name: "repair_schedule".to_string(),
            seed: 42,
            rows: vec![
                BenchRow {
                    id: "churn_24h/1000_nodes".to_string(),
                    work_units: 12_345,
                    per_sec: 1_000_000.5,
                },
                BenchRow {
                    id: "churn_24h/10000_nodes".to_string(),
                    work_units: 123_456,
                    per_sec: 900_000.0,
                },
            ],
        };
        let json = snapshot.render_json();
        assert!(json.contains("\"benchmark\": \"repair_schedule\""));
        assert!(json.contains("\"per_sec\": 1000000.5"));
        assert_eq!(json.matches("{ \"id\"").count(), 2);
        // No trailing comma before the closing bracket.
        assert!(!json.contains(",\n  ]"));
    }

    #[test]
    fn tiny_snapshot_runs_end_to_end() {
        let config = BenchSnapshotConfig {
            node_counts: vec![50],
            seed: 7,
        };
        let repair = run_repair_schedule_snapshot(&config);
        assert_eq!(repair.rows.len(), 1);
        assert!(repair.rows[0].work_units > 0, "engine processed events");
        assert!(repair.rows[0].per_sec > 0.0);
    }

    #[test]
    fn tiny_placement_snapshot_covers_every_strategy() {
        let config = BenchSnapshotConfig {
            node_counts: vec![60],
            seed: 7,
        };
        let snapshot = run_placement_decide_snapshot(&config);
        // plan_chunk + repair_targets per strategy, at 60 and 600 nodes.
        assert_eq!(snapshot.rows.len(), 2 * 2 * StrategyKind::ALL.len());
        for row in &snapshot.rows {
            assert!(row.per_sec > 0.0, "{row:?}");
        }
        let json = snapshot.render_json();
        assert!(json.contains("\"benchmark\": \"placement_decide\""));
        assert!(json.contains("plan_chunk/overlay-random/60_nodes"));
    }

    #[test]
    fn wire_roundtrip_snapshot_covers_ping_and_payload_sizes() {
        let config = BenchSnapshotConfig {
            node_counts: vec![50],
            seed: 7,
        };
        let snapshot = run_wire_roundtrip_snapshot(&config);
        assert_eq!(snapshot.name, "wire_roundtrip");
        let ids: Vec<_> = snapshot.rows.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(
            ids,
            [
                "ping",
                "store_block/1_kib",
                "store_block/16_kib",
                "store_block/256_kib"
            ]
        );
        for row in &snapshot.rows {
            assert!(row.per_sec > 0.0, "{row:?}");
        }
        // Bigger payloads cannot roundtrip more frames per second than the
        // header-only control row.
        assert!(snapshot.rows[0].per_sec >= snapshot.rows[3].per_sec);
    }

    #[test]
    fn rs_encode_snapshot_covers_both_kernels_and_parallel() {
        let config = BenchSnapshotConfig {
            node_counts: vec![50],
            seed: 7,
        };
        let snapshot = run_rs_encode_snapshot(&config);
        assert_eq!(snapshot.name, "rs_encode");
        // 2 geometries × 2 chunk sizes × 3 encode paths.
        assert_eq!(snapshot.rows.len(), 12);
        let ids: Vec<_> = snapshot.rows.iter().map(|r| r.id.as_str()).collect();
        for needle in [
            "rs_5p3/1_mb/serial_scalar",
            "rs_5p3/4_mb/serial_nibble64",
            "rs_8p4/1_mb/parallel",
            "rs_8p4/4_mb/serial_scalar",
        ] {
            assert!(ids.contains(&needle), "missing {needle} in {ids:?}");
        }
        for row in &snapshot.rows {
            assert!(row.per_sec > 0.0, "{row:?}");
        }
    }

    #[test]
    fn check_round_trips_a_written_snapshot() {
        let config = BenchSnapshotConfig {
            node_counts: vec![50],
            seed: 7,
        };
        let dir = std::env::temp_dir().join(format!("bench_check_{}", std::process::id()));
        // The rows of a written snapshot are found and compared.  The
        // tolerance is zero: two wall-clock measurements moments apart differ
        // by whatever else the machine is doing, which is not under test.
        write_snapshots(&dir, &config).unwrap();
        let fresh = [run_repair_schedule_snapshot(&config)];
        let report = check_against(&dir, &fresh, 0.0).unwrap();
        assert!(report.contains("churn_24h/50_nodes"), "{report}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn check_snapshots_gates_every_benchmark() {
        let config = BenchSnapshotConfig {
            node_counts: vec![50],
            seed: 7,
        };
        let dir = std::env::temp_dir().join(format!("bench_check_all_{}", std::process::id()));
        write_snapshots(&dir, &config).unwrap();
        // One measurement serves both checks, with the tolerance injected:
        // zero first (every row is reported, machine jitter cannot fail it),
        // then 0.01 against a baseline inflated ten-thousand-fold.
        let fresh = measure_all(&config);
        let report = check_against(&dir, &fresh, 0.0).unwrap();
        for needle in [
            "repair_schedule/churn_24h/50_nodes",
            "detector_decide/",
            "placement_decide/plan_chunk/overlay-random/50_nodes",
            "wire_roundtrip/store_block/256_kib",
            "rs_encode/rs_5p3/1_mb/serial_nibble64",
        ] {
            assert!(report.contains(needle), "missing {needle}:\n{report}");
        }

        // Sabotage one committed baseline: an inflated committed throughput
        // must fail the check and name the regressed row.
        let path = dir.join("BENCH_placement_decide.json");
        // Prefixing digits multiplies every committed throughput ~10^4-fold.
        let inflated = std::fs::read_to_string(&path)
            .unwrap()
            .replace("\"per_sec\": ", "\"per_sec\": 9999");
        std::fs::write(&path, inflated).unwrap();
        let err = check_against(&dir, &fresh, 0.01).unwrap_err();
        assert!(err.contains("regressed"), "{err}");
        assert!(err.contains("placement_decide/"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn check_rejects_a_missing_baseline_dir() {
        let config = BenchSnapshotConfig {
            node_counts: vec![50],
            seed: 7,
        };
        let dir = std::env::temp_dir().join("bench_check_missing_dir_nonexistent");
        assert!(check_repair_schedule(&dir, &config).is_err());
    }
}
