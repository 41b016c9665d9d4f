//! `repro bench-snapshot` — one-shot, in-process perf snapshots of six hot
//! paths in five small JSON files under `benchmarks/`, so perf regressions
//! show up in review as a diff and `--check` can gate them in CI:
//! `repair_schedule` (maintenance-engine event throughput, and its event
//! queue's alone), `detector_decide` and `placement_decide` (decision
//! throughput per policy / strategy),
//! `wire_roundtrip` (the networked path's frame encode/decode) and
//! `rs_encode` (in-place erasure-encode throughput, scalar vs `nibble64`
//! kernel).  Each workload is defined here and nowhere else.  Every
//! measurement is the best of a handful of short passes (`clock::best_rate`)
//! — good enough to catch an order-of-magnitude regression in seconds.
//! Numbers are machine-dependent by nature; the committed files record the
//! machine-independent *shape* (events processed, verdict counts) next to
//! the throughput observed when they were captured.

use crate::clock::best_rate;
use crate::deployment::{Cell, Deployment};
use crate::Scale;
use peerstripe_core::{ClusterConfig, CodingPolicy, ObjectName};
use peerstripe_erasure::{EncodedBlock, ErasureCode, Gf256Kernel, ReedSolomonCode};
use peerstripe_net::protocol::{
    read_block_reply_into, read_request_traced, read_response, write_request_traced,
    write_response_traced, BlockReply,
};
use peerstripe_net::{Request, Response};
use peerstripe_overlay::Id;
use peerstripe_placement::{RepairRequest, StrategyKind, Topology};
use peerstripe_repair::{
    DeclarationVerdict, DetectionKind, Detector, DetectorConfig, OutageAwareConfig,
    PendingDeclaration,
};
use peerstripe_sim::{ByteSize, DetRng, EventQueue, SimTime};
use serde::Deserialize;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Domain size of the detector snapshot's topology.
const GROUP_SIZE: usize = 25;
/// Seconds a pass keeps repeating a sub-millisecond operation.
const PASS_SECS: f64 = 0.1;
/// Pass length for an operation long enough to be timed on its own.
const ONCE: f64 = 0.0;
/// Blocks per chunk in the placement snapshot.
const BLOCKS_PER_CHUNK: usize = 8;
/// Per-domain block cap in the placement snapshot.
const DOMAIN_CAP: usize = 4;
/// Size of each block the placement snapshot's `store_chunk` rows commit.
const BLOCK_SIZE: ByteSize = ByteSize::mb(8);

/// Parameters of a snapshot run.
#[derive(Debug, Clone)]
pub struct BenchSnapshotConfig {
    /// Node counts to measure at (the committed files use 1 000 and 10 000).
    pub node_counts: Vec<usize>,
    /// Deployment / churn seed.
    pub seed: u64,
}

impl BenchSnapshotConfig {
    /// The node counts of a scale; every scale above `small` measures the
    /// rows the committed `benchmarks/BENCH_*.json` files hold.
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
    /// Snapshot name; the file is `BENCH_<name>.json`.
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
            Gf256Kernel::Nibble64.lane_label()
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

/// Maintenance-engine event throughput over 24 h of churn (1 % of departures
/// permanent, 24 h permanence timeout), on a cluster under a light per-node
/// file load: fast to set up, same per-event code paths as the full sweep.
/// Then the engine's event queue alone: the `event_queue/hold/12288_pending`
/// row.
pub fn run_repair_schedule_snapshot(config: &BenchSnapshotConfig) -> BenchSnapshot {
    let cell = Cell::independent(0.01, 24.0, 24.0);
    let mut rows = Vec::new();
    for &nodes in &config.node_counts {
        let deployment = Deployment::oblivious(
            nodes,
            nodes * 2,
            config.seed,
            CodingPolicy::online_default(),
        );
        let mut work_units = 0u64;
        let per_sec = best_rate(
            ONCE,
            || deployment.engine(&cell),
            |engine| {
                engine.run_for(cell.horizon);
                work_units = engine.report().events;
                work_units
            },
        );
        rows.push(BenchRow {
            id: format!("churn_24h/{nodes}_nodes"),
            work_units,
            per_sec,
        });
    }
    rows.push(event_queue_hold_row(config.seed));
    BenchSnapshot {
        name: "repair_schedule".to_string(),
        seed: config.seed,
        rows,
    }
}

/// Events pending in the event-queue row: about as many as the maintenance
/// engine holds in the `sim_churn_10k` cell.
const HOLD_PENDING: usize = 12_288;

/// A delay like the maintenance engine's: a random 1–2 s scaled by a random
/// power of two up to 2^17, so from one second to about three days.
fn hold_delay(rng: &mut DetRng) -> SimTime {
    let secs = SimTime(1_000_000_000 + rng.next_below(1_000_000_000));
    SimTime(secs.as_nanos() << rng.next_below(18))
}

/// The event queue alone under the hold model (Jones, CACM 1986):
/// [`HOLD_PENDING`] events pending, and each hold pops the earliest and
/// schedules one more after a [`hold_delay`].  An event is 32 bytes, the
/// maintenance engine's size.  The work units are the pops of one batch of
/// [`HOLD_PENDING`] holds.
fn event_queue_hold_row(seed: u64) -> BenchRow {
    let per_sec = best_rate(
        PASS_SECS,
        || {
            let mut rng = DetRng::new(seed);
            let mut queue = EventQueue::new();
            for i in 0..HOLD_PENDING as u64 {
                queue.schedule_after(hold_delay(&mut rng), [i; 4]);
            }
            (queue, rng)
        },
        |(queue, rng)| {
            for _ in 0..HOLD_PENDING {
                let Some((_, mut event)) = queue.pop() else {
                    break;
                };
                event[0] += 1;
                queue.schedule_after(hold_delay(rng), event);
            }
            HOLD_PENDING as u64
        },
    );
    BenchRow {
        id: format!("event_queue/hold/{HOLD_PENDING}_pending"),
        work_units: HOLD_PENDING as u64,
        per_sec,
    }
}

/// Clustered-downtime setup shared by the decide rows: half of every domain
/// down at t = 1000, the outage-aware worst case (it keeps re-classifying).
fn take_half_down(detector: &mut Detector, nodes: usize) -> Vec<PendingDeclaration> {
    let at = SimTime::from_secs(1_000);
    (0..nodes)
        .filter(|n| n % 2 == 0)
        .map(|n| detector.node_down(n, at))
        .collect()
}

fn detector_config() -> DetectorConfig {
    DetectorConfig::default_desktop_grid().with_timeout(4.0 * 3_600.0)
}

/// Detector decide and down/up throughput for both detection kinds.
pub fn run_detector_decide_snapshot(config: &BenchSnapshotConfig) -> BenchSnapshot {
    let mut rows = Vec::new();
    for &nodes in &config.node_counts {
        let topology = Topology::uniform_groups(nodes, GROUP_SIZE);
        let kinds = [
            ("per-node", DetectionKind::PerNodeTimeout),
            (
                "outage-aware",
                DetectionKind::OutageAware(OutageAwareConfig::default_desktop_grid()),
            ),
        ];
        for (label, kind) in kinds {
            let mut detector =
                Detector::new(nodes, detector_config(), kind, Some(topology.clone()));
            let pendings = take_half_down(&mut detector, nodes);
            // Decide throughput: one verdict per down node per pass.
            let per_sec = best_rate(
                PASS_SECS,
                || (),
                |_| {
                    let mut verdicts = 0u64;
                    for (i, p) in pendings.iter().enumerate() {
                        match detector.decide(i * 2, p.generation, p.declare_at) {
                            DeclarationVerdict::Declare
                            | DeclarationVerdict::Hold { .. }
                            | DeclarationVerdict::Cancel => verdicts += 1,
                        }
                    }
                    verdicts
                },
            );
            rows.push(BenchRow {
                id: format!("decide/{label}/{nodes}_nodes"),
                work_units: pendings.len() as u64,
                per_sec,
            });
            // Departure bookkeeping: a down/up cycle per node per pass.
            let mut t = 2_000u64;
            let per_sec = best_rate(
                PASS_SECS,
                || (),
                |_| {
                    t += 1;
                    for node in 0..nodes {
                        std::hint::black_box(detector.node_down(node, SimTime::from_secs(t)));
                        detector.node_up(node);
                    }
                    nodes as u64
                },
            );
            rows.push(BenchRow {
                id: format!("down_up/{label}/{nodes}_nodes"),
                work_units: nodes as u64,
                per_sec,
            });
        }
    }
    BenchSnapshot {
        name: "detector_decide".to_string(),
        seed: config.seed,
        rows,
    }
}

/// Placement decision throughput: chunk-placement plans, the same plans
/// with their block stores committed, and repair-target picks per second
/// for every strategy.
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
            let per_sec = best_rate(
                PASS_SECS,
                || (base.clone(), kind.build(7), 0u64),
                |(cluster, strategy, chunk)| {
                    *chunk += 1;
                    let keys: Vec<Id> = (0..BLOCKS_PER_CHUNK as u64)
                        .map(|ecb| Id::hash(&format!("bench-file_{chunk}_{ecb}")))
                        .collect();
                    let _ = strategy
                        .plan_chunk(cluster, Some(&topology), &keys, DOMAIN_CAP)
                        .map(|picks| picks.len());
                    1
                },
            );
            rows.push(BenchRow {
                id: format!("plan_chunk/{}/{nodes}_nodes", kind.label()),
                work_units: BLOCKS_PER_CHUNK as u64,
                per_sec,
            });
            // The same plan with its commit: the blocks stored on the picked
            // nodes, whose shrinking reports the index then takes in.
            let per_sec = best_rate(
                PASS_SECS,
                || (base.clone(), kind.build(7), 0u32),
                |(cluster, strategy, chunk)| {
                    *chunk += 1;
                    let keys: Vec<Id> = (0..BLOCKS_PER_CHUNK as u32)
                        .map(|ecb| ObjectName::block("bench-file", *chunk, ecb).key())
                        .collect();
                    let picks = strategy.plan_chunk(cluster, Some(&topology), &keys, DOMAIN_CAP);
                    for (key, (node, _)) in keys.into_iter().zip(picks.into_iter().flatten()) {
                        let _ = cluster.store_object_at(node, key, BLOCK_SIZE, None);
                    }
                    1
                },
            );
            rows.push(BenchRow {
                id: format!("store_chunk/{}/{nodes}_nodes", kind.label()),
                work_units: BLOCKS_PER_CHUNK as u64,
                per_sec,
            });
            // Repair targeting: one replacement pick against a half-placed
            // chunk (the maintenance engine's hot decision).
            let holders: Vec<usize> = (0..BLOCKS_PER_CHUNK - 1).map(|i| i * 7).collect();
            let request = RepairRequest {
                want: 1,
                size: ByteSize::mb(8),
                holders: &holders,
                promised: &[],
                domain_cap: DOMAIN_CAP,
            };
            let per_sec = best_rate(
                PASS_SECS,
                || (kind.build(7), DetRng::new(11)),
                |(strategy, pick_rng)| {
                    let _ = strategy
                        .repair_targets(&base, Some(&topology), &request, pick_rng)
                        .len();
                    1
                },
            );
            rows.push(BenchRow {
                id: format!("repair_targets/{}/{nodes}_nodes", kind.label()),
                work_units: 1,
                per_sec,
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
///
/// Two more rows time the reply side of a read, per block: a 256 KiB `Block`
/// reply taken off an in-memory stream into a buffer of its own
/// (`block_reply`: `read_response`, what a repair's fetches do) and into
/// capacity the caller reserved (`block_reply_into`: `read_block_reply_into`,
/// a row landing in a read's result).
///
/// A row whose frame cannot be written or read back is an error naming it.
pub fn run_wire_roundtrip_snapshot(config: &BenchSnapshotConfig) -> Result<BenchSnapshot, String> {
    let payload_of = |size: ByteSize| -> Vec<u8> {
        let mut rng = DetRng::new(config.seed);
        (0..size.as_u64()).map(|_| rng.next_u64() as u8).collect()
    };
    let mut rows = vec![roundtrip_row("ping".to_string(), 0, &Request::Ping)?];
    for kib in [1u64, 16, 256] {
        let size = ByteSize::kb(kib);
        let req = Request::StoreBlock {
            key: Id::hash("bench-wire/0_0"),
            name: ObjectName::block("bench-wire", 0, 0),
            size,
            payload: Some(payload_of(size)),
        };
        rows.push(roundtrip_row(
            format!("store_block/{kib}_kib"),
            size.as_u64(),
            &req,
        )?);
    }

    let size = ByteSize::kb(256);
    let block = Response::Block {
        block: Some((size, Some(Arc::new(payload_of(size))))),
    };
    let mut reply = Vec::new();
    let written = write_response_traced(&mut reply, &block, Some(1));
    assert!(written.is_ok(), "in-memory frame write");
    let fresh = best_rate(
        PASS_SECS,
        || (),
        |()| {
            let read = read_response(&mut reply.as_slice()).ok();
            assert_eq!(read.as_ref(), Some(&block), "frame read");
            std::hint::black_box(read);
            1
        },
    );
    let into = best_rate(
        PASS_SECS,
        || Vec::<u8>::with_capacity(size.as_u64() as usize),
        |tail| {
            tail.clear();
            let mut head = [0u8; 12];
            let read = read_block_reply_into(&mut reply.as_slice(), &mut head, tail).ok();
            assert_eq!(read, Some(BlockReply::Landed), "frame read");
            std::hint::black_box((&head, &tail));
            1
        },
    );
    for (id, per_sec) in [("block_reply", fresh), ("block_reply_into", into)] {
        rows.push(BenchRow {
            id: format!("{id}/256_kib"),
            work_units: size.as_u64(),
            per_sec,
        });
    }
    Ok(BenchSnapshot {
        name: "wire_roundtrip".to_string(),
        seed: config.seed,
        rows,
    })
}

/// One traced write of `req` into a reusable in-memory buffer and one traced
/// read back per pass, timed by [`best_rate`]; the first wire error (or a
/// request id lost on the way) fails the row.
fn roundtrip_row(id: String, work_units: u64, req: &Request) -> Result<BenchRow, String> {
    let mut failed = None;
    let per_sec = best_rate(
        PASS_SECS,
        || (Vec::<u8>::with_capacity(512 * 1024), 0u64),
        |(buf, frames)| {
            buf.clear();
            let read = write_request_traced(buf, req, Some(*frames))
                .and_then(|()| read_request_traced(&mut buf.as_slice()));
            match read {
                Ok((decoded, rid)) if rid == Some(*frames) => {
                    std::hint::black_box(decoded);
                    *frames += 1;
                    1
                }
                Ok(_) => {
                    failed.get_or_insert_with(|| "the request id was lost".to_string());
                    0
                }
                Err(e) => {
                    failed.get_or_insert_with(|| e.to_string());
                    0
                }
            }
        },
    );
    match failed {
        Some(e) => Err(format!("wire_roundtrip/{id}: {e}")),
        None => Ok(BenchRow {
            id,
            work_units,
            per_sec,
        }),
    }
}

/// The capture host's CPU count for the snapshot header, 1 when the host
/// cannot say.
fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Caller-owned buffers for every encoded row of one chunk size — the store
/// path's shape: allocate once, then encode in place as often as wanted.
struct RowArena {
    rows: Vec<u32>,
    bufs: Vec<Vec<u8>>,
}

impl RowArena {
    /// Buffers for all rows `code` makes of a chunk of `chunk_len` bytes.
    fn new(code: &ReedSolomonCode, chunk_len: usize) -> Self {
        let rows: Vec<u32> = (0..code.encoded_blocks() as u32).collect();
        // Stale bytes, not zeros: the encode must overwrite every one.
        let bufs = vec![vec![0xA5u8; code.block_size(chunk_len)]; rows.len()];
        RowArena { rows, bufs }
    }

    /// Encode every row of `chunk` into the arena.
    fn encode(&mut self, code: &ReedSolomonCode, chunk: &[u8]) {
        let mut out: Vec<&mut [u8]> = self.bufs.iter_mut().map(Vec::as_mut_slice).collect();
        code.encode_rows_into(chunk, &self.rows, &mut out);
    }

    /// True when the arena holds exactly `blocks`, in index order.
    fn holds(&self, blocks: &[EncodedBlock]) -> bool {
        self.bufs.len() == blocks.len() && self.bufs.iter().zip(blocks).all(|(a, b)| *a == b.data)
    }
}

/// Reed–Solomon encode throughput into caller-owned row buffers
/// (`RowArena`, the store path's shape): `scalar` kernel vs `nibble64`
/// kernel, at RS(5, 3) and RS(8, 4) over 1 MB and 4 MB chunks.  `per_sec` is
/// source **bytes** per second; both are cross-checked against the blocks
/// `ErasureCode::encode` returns before any number is recorded, so a kernel
/// bug fails the snapshot rather than polluting it.
pub fn run_rs_encode_snapshot(config: &BenchSnapshotConfig) -> BenchSnapshot {
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
            for (label, code) in [("serial_scalar", &scalar), ("serial_nibble64", &fast)] {
                // Untimed first: the arena's pages are faulted in once, as a
                // payload's are, not once per measured encode.
                arena.encode(code, &chunk);
                let per_sec = best_rate(
                    ONCE,
                    || (),
                    |_| {
                        arena.encode(code, &chunk);
                        size.as_u64()
                    },
                );
                assert!(arena.holds(&reference), "{label} differs from encode()");
                rows.push(BenchRow {
                    id: format!("rs_{data}p{parity}/{mb}_mb/{label}"),
                    work_units: size.as_u64(),
                    per_sec,
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
    for snapshot in measure_all(config)? {
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
    rows: Vec<SnapshotFileRow>,
}

/// One row of a committed snapshot file.
#[derive(Debug, Clone, Deserialize)]
struct SnapshotFileRow {
    id: String,
    per_sec: f64,
}

/// The fraction of a committed row's throughput a fresh measurement must
/// reach for [`check_snapshots`] to pass.  Generous on purpose, because the
/// committed numbers are machine-dependent: a row fails only when it runs at
/// less than half its committed rate (a 2x drop, e.g. tracing overhead
/// leaking into the `NullTracer` hot path).
pub const CHECK_TOLERANCE: f64 = 0.5;

/// The five snapshots, in the order [`measure_all`] measures them; each is
/// committed as `BENCH_<name>.json`.
const SNAPSHOT_NAMES: [&str; 5] = [
    "repair_schedule",
    "detector_decide",
    "placement_decide",
    "wire_roundtrip",
    "rs_encode",
];

/// Re-measure **all five** committed snapshots — `repair_schedule`,
/// `detector_decide`, `placement_decide`, `wire_roundtrip`, and `rs_encode`
/// — and compare each against its `BENCH_*.json` under `dir`.
///
/// Every committed file is read first: a missing, unparseable or mislabelled
/// one is the error, before anything is measured.  Otherwise the per-row
/// report, and whether every measured row reached [`CHECK_TOLERANCE`] of its
/// committed throughput (a failing report ends with the failing rows).  Rows
/// without a committed baseline (e.g. the 200-node rows of a `--scale small`
/// run against medium-scale baselines) are reported but skipped, and so are
/// the committed rows the run did not measure (at `--scale small`, those at
/// each file's largest node count).
pub fn check_snapshots(dir: &Path, config: &BenchSnapshotConfig) -> Result<(bool, String), String> {
    check_against(dir, || measure_all(config), CHECK_TOLERANCE)
}

/// Freshly measure all five snapshots.
fn measure_all(config: &BenchSnapshotConfig) -> Result<Vec<BenchSnapshot>, String> {
    Ok(vec![
        run_repair_schedule_snapshot(config),
        run_detector_decide_snapshot(config),
        run_placement_decide_snapshot(config),
        run_wire_roundtrip_snapshot(config)?,
        run_rs_encode_snapshot(config),
    ])
}

/// Read the committed `BENCH_<name>.json` of every snapshot under `dir`,
/// then compare what `measure` returns against them: a row fails when it
/// reaches less than `tolerance` of its committed throughput.  Whether no
/// row failed, and the per-row report, with each file's committed rows that
/// the measurement lacks and, at its end, every failing row.
fn check_against(
    dir: &Path,
    measure: impl FnOnce() -> Result<Vec<BenchSnapshot>, String>,
    tolerance: f64,
) -> Result<(bool, String), String> {
    let mut committed = Vec::new();
    for name in SNAPSHOT_NAMES {
        let path = dir.join(format!("BENCH_{name}.json"));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let file: SnapshotFile =
            serde_json::from_str(&text).map_err(|e| format!("parse {}: {e}", path.display()))?;
        if file.benchmark != name {
            return Err(format!(
                "{} is a '{}' snapshot, expected {name}",
                path.display(),
                file.benchmark
            ));
        }
        committed.push(file);
    }
    let mut report = String::new();
    let mut failures = Vec::new();
    for snapshot in measure()? {
        let Some(committed) = committed.iter().find(|c| c.benchmark == snapshot.name) else {
            return Err(format!("no committed snapshot named {}", snapshot.name));
        };
        for row in &snapshot.rows {
            let Some(baseline) = committed.rows.iter().find(|r| r.id == row.id) else {
                let _ = writeln!(
                    report,
                    "{}/{}: no committed baseline (skipped)",
                    snapshot.name, row.id
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
                snapshot.name, row.id, row.per_sec, baseline.per_sec, ratio
            );
            if ratio < tolerance {
                failures.push(format!(
                    "{}/{} regressed to {:.2}x of the committed throughput",
                    snapshot.name, row.id, ratio
                ));
            }
        }
        let unmeasured: Vec<&str> = (committed.rows.iter())
            .filter(|committed| snapshot.rows.iter().all(|row| row.id != committed.id))
            .map(|committed| committed.id.as_str())
            .collect();
        if !unmeasured.is_empty() {
            let _ = writeln!(
                report,
                "{}: {} committed rows not measured (not compared): {}",
                snapshot.name,
                unmeasured.len(),
                unmeasured.join(", ")
            );
        }
    }
    if failures.is_empty() {
        Ok((true, report))
    } else {
        Ok((false, format!("{report}\n{}", failures.join("\n"))))
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
        assert_eq!(repair.rows.len(), 2);
        assert!(repair.rows[0].work_units > 0, "engine processed events");
        assert!(repair.rows[0].per_sec > 0.0);
        assert_eq!(repair.rows[1].id, "event_queue/hold/12288_pending");
        assert_eq!(repair.rows[1].work_units, 12_288);
        assert!(repair.rows[1].per_sec > 0.0);
    }

    #[test]
    fn tiny_placement_snapshot_covers_every_strategy() {
        let config = BenchSnapshotConfig {
            node_counts: vec![60],
            seed: 7,
        };
        let snapshot = run_placement_decide_snapshot(&config);
        // plan_chunk + store_chunk + repair_targets per strategy, at 60 and
        // 600 nodes.
        assert_eq!(snapshot.rows.len(), 2 * 3 * StrategyKind::ALL.len());
        for row in &snapshot.rows {
            assert!(row.per_sec > 0.0, "{row:?}");
        }
        let json = snapshot.render_json();
        assert!(json.contains("\"benchmark\": \"placement_decide\""));
        assert!(json.contains("plan_chunk/overlay-random/60_nodes"));
        assert!(json.contains("store_chunk/domain-spread/600_nodes"));
    }

    #[test]
    fn wire_roundtrip_snapshot_covers_ping_and_payload_sizes() {
        let config = BenchSnapshotConfig {
            node_counts: vec![50],
            seed: 7,
        };
        let snapshot = run_wire_roundtrip_snapshot(&config).unwrap();
        assert_eq!(snapshot.name, "wire_roundtrip");
        let ids: Vec<_> = snapshot.rows.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(
            ids,
            [
                "ping",
                "store_block/1_kib",
                "store_block/16_kib",
                "store_block/256_kib",
                "block_reply/256_kib",
                "block_reply_into/256_kib"
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
    fn a_frame_over_the_limit_fails_its_row_instead_of_panicking() {
        let size = peerstripe_net::MAX_FRAME + 1;
        let req = Request::StoreBlock {
            key: Id::hash("bench-wire/0_0"),
            name: ObjectName::block("bench-wire", 0, 0),
            size: ByteSize::bytes(size),
            payload: Some(vec![0; size as usize]),
        };
        let err = roundtrip_row("too_big".to_string(), size, &req).unwrap_err();
        assert!(err.starts_with("wire_roundtrip/too_big: "), "{err}");
        assert!(err.contains("exceeds"), "{err}");
    }

    #[test]
    fn rs_encode_snapshot_covers_both_kernels() {
        let config = BenchSnapshotConfig {
            node_counts: vec![50],
            seed: 7,
        };
        let snapshot = run_rs_encode_snapshot(&config);
        assert_eq!(snapshot.name, "rs_encode");
        // 2 geometries × 2 chunk sizes × 2 kernels.
        assert_eq!(snapshot.rows.len(), 8);
        let ids: Vec<_> = snapshot.rows.iter().map(|r| r.id.as_str()).collect();
        for needle in [
            "rs_5p3/1_mb/serial_scalar",
            "rs_5p3/4_mb/serial_nibble64",
            "rs_8p4/1_mb/serial_nibble64",
            "rs_8p4/4_mb/serial_scalar",
        ] {
            assert!(ids.contains(&needle), "missing {needle} in {ids:?}");
        }
        for row in &snapshot.rows {
            assert!(row.per_sec > 0.0, "{row:?}");
        }
    }

    /// `--check` skips a committed row nobody measures, so an orphaned row
    /// would otherwise go unnoticed: a snapshot whose row ids do not depend
    /// on the scale must measure exactly the rows its committed file holds.
    fn assert_committed_rows_are_measured(snapshot: &BenchSnapshot) {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../../benchmarks")
            .join(format!("BENCH_{}.json", snapshot.name));
        let committed: SnapshotFile =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let committed: Vec<_> = committed.rows.iter().map(|r| r.id.as_str()).collect();
        let measured: Vec<_> = snapshot.rows.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(committed, measured, "{}", path.display());
    }

    #[test]
    fn committed_rs_encode_rows_are_the_measured_rows() {
        let config = BenchSnapshotConfig {
            node_counts: vec![50],
            seed: 7,
        };
        assert_committed_rows_are_measured(&run_rs_encode_snapshot(&config));
    }

    #[test]
    fn committed_wire_roundtrip_rows_are_the_measured_rows() {
        let config = BenchSnapshotConfig {
            node_counts: vec![50],
            seed: 7,
        };
        assert_committed_rows_are_measured(&run_wire_roundtrip_snapshot(&config).unwrap());
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
        let fresh = || Ok(vec![run_repair_schedule_snapshot(&config)]);
        let (passed, report) = check_against(&dir, fresh, 0.0).unwrap();
        assert!(passed, "{report}");
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
        let fresh = measure_all(&config).unwrap();
        let names: Vec<&str> = fresh.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names, SNAPSHOT_NAMES,
            "measured in the order of SNAPSHOT_NAMES"
        );
        let (passed, report) = check_against(&dir, || Ok(fresh.clone()), 0.0).unwrap();
        assert!(passed, "{report}");
        for needle in [
            "repair_schedule/churn_24h/50_nodes",
            "repair_schedule/event_queue/hold/12288_pending",
            "detector_decide/",
            "placement_decide/plan_chunk/overlay-random/50_nodes",
            "wire_roundtrip/store_block/256_kib",
            "rs_encode/rs_5p3/1_mb/serial_nibble64",
        ] {
            assert!(report.contains(needle), "missing {needle}:\n{report}");
        }
        assert!(!report.contains("not measured"), "{report}");

        // A committed row the fresh run lacks is named, not compared.
        let path = dir.join("BENCH_detector_decide.json");
        let committed = std::fs::read_to_string(&path).unwrap().replace(
            "\"rows\": [\n",
            "\"rows\": [\n    { \"id\": \"decide/per-node/9_nodes\", \"work_units\": 1, \"per_sec\": 1.0 },\n",
        );
        std::fs::write(&path, committed).unwrap();
        let (_, report) = check_against(&dir, || Ok(fresh.clone()), 0.0).unwrap();
        assert!(
            report.contains("detector_decide: 1 committed rows not measured (not compared): decide/per-node/9_nodes\n"),
            "{report}"
        );

        // Sabotage one committed baseline: an inflated committed throughput
        // must fail the check and name the regressed row.
        let path = dir.join("BENCH_placement_decide.json");
        // Prefixing digits multiplies every committed throughput ~10^4-fold.
        let inflated = std::fs::read_to_string(&path)
            .unwrap()
            .replace("\"per_sec\": ", "\"per_sec\": 9999");
        std::fs::write(&path, inflated).unwrap();
        let (passed, report) = check_against(&dir, || Ok(fresh), 0.01).unwrap();
        assert!(!passed, "{report}");
        assert!(report.contains("regressed"), "{report}");
        assert!(report.contains("placement_decide/"), "{report}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn check_rejects_a_missing_baseline_dir() {
        let config = BenchSnapshotConfig {
            node_counts: vec![50],
            seed: 7,
        };
        let dir = std::env::temp_dir().join("bench_check_missing_dir_nonexistent");
        // The committed files are read before anything is measured: a
        // missing one is the error, and no snapshot runs.
        let mut ran = false;
        let measure = || {
            ran = true;
            Ok(vec![run_repair_schedule_snapshot(&config)])
        };
        let err = check_against(&dir, measure, CHECK_TOLERANCE).unwrap_err();
        assert!(err.contains("BENCH_repair_schedule.json"), "{err}");
        assert!(!ran, "a snapshot ran before the committed files were read");
    }
}
