//! `sim_churn_10k`: the paper's 10 000-node evaluation in the simulator —
//! no sockets and no payload bytes, so placement, repair and the overlay do
//! all the work.
//!
//! A round walks the same life cycle as a ring round, with the simulator's
//! operations: deploy a file trace with `store_file` (store), check every
//! file's availability (fetch), drive the `MaintenanceEngine` through
//! grouped churn (repair), and check availability of the original
//! placements against the churned cluster (degraded fetch).  Rounds of one
//! run are identical, so a run also proves the simulation repeats exactly.

use crate::metrics::Measured;
use crate::procfs::peak_rss_mib;
use crate::span::{timed, Recorder, SharedRecorder, Span};
use crate::stats::{median, quiet_rounds, summarize};
use crate::traced::TracedPlacement;
use crate::{Outcome, RunArgs};
use peerstripe_core::{
    ClusterConfig, CodingPolicy, PeerStripe, PeerStripeConfig, StorageBackend, StorageSystem,
};
use peerstripe_overlay::Id;
use peerstripe_placement::{PlacementStrategy, StrategyKind, Topology};
use peerstripe_repair::{
    BandwidthBudget, ChurnProcess, DetectionKind, DetectorConfig, GroupedChurn, MaintenanceEngine,
    MaintenanceReport, RepairConfig, RepairPolicy, SessionModel,
};
use peerstripe_sim::{ByteSize, DetRng, SimTime};
use peerstripe_trace::TraceConfig;
use std::hint::black_box;
use std::time::Instant;

/// The `placement-sweep` coding: eight placed blocks, any four recover.
const CODING: CodingPolicy = CodingPolicy::Online {
    placed: 8,
    tolerable: 4,
    overhead: 1.03,
};

/// The churn schedule is one fixed scenario.  `--seed` draws the file trace,
/// the node capacities and so the whole deployment; drawing the outages from
/// it too would make the engine's work, and with it every timing, differ by
/// a quarter from seed to seed (ten domains see a handful of outages a day).
const CHURN_SEED: u64 = 42;

/// Availability sweeps timed per round, each giving one per-file sample.
const SWEEPS: usize = 15;

pub struct SimParams {
    pub nodes: usize,
    /// Nodes per failure domain.
    pub group: usize,
    pub files: usize,
    /// Simulated hours of churn, run and timed one hour at a time.
    pub hours: usize,
}

impl SimParams {
    fn strategy(&self, rec: Option<&SharedRecorder>) -> Box<dyn PlacementStrategy> {
        let inner = StrategyKind::DomainSpread.build(0);
        match rec {
            Some(rec) => Box::new(TracedPlacement::new(inner, rec.clone())),
            None => inner,
        }
    }

    /// The `placement-sweep` cell: 48 h between a domain's outages, 12 h
    /// outages, a 4 h permanence timeout, 4 MB/s of repair bandwidth.
    fn churn(&self, topology: &Topology) -> (ChurnProcess, RepairConfig) {
        let churn = ChurnProcess {
            sessions: SessionModel::Synthetic {
                mean_session_secs: 24.0 * 3_600.0,
                mean_downtime_secs: 2.0 * 3_600.0,
            },
            permanent_fraction: 0.002,
            grouped: Some(GroupedChurn::new(topology.clone(), 48.0, 12.0)),
        };
        let repair = RepairConfig {
            policy: RepairPolicy::Eager,
            detector: DetectorConfig::default_desktop_grid().with_timeout(4.0 * 3_600.0),
            detection: DetectionKind::PerNodeTimeout,
            bandwidth: BandwidthBudget::symmetric(ByteSize::mb(4)),
            sample_period_secs: 1_800.0,
        };
        (churn, repair)
    }
}

/// What one round measured.
struct SimRound {
    setup_s: f64,
    trace_generate_s: f64,
    cluster_build_s: f64,
    store_ms: Vec<f64>,
    deploy_s: f64,
    stores_failed: u64,
    stored_ratio: f64,
    /// Per-file milliseconds of one availability sweep, per sweep.
    fetch_ms: Vec<f64>,
    degraded_ms: Vec<f64>,
    degraded_available: usize,
    /// Wall seconds of each simulated hour of the engine run.
    hour_s: Vec<f64>,
    report: MaintenanceReport,
}

fn round(p: &SimParams, seed: u64, rec: Option<&SharedRecorder>) -> SimRound {
    let setup = Instant::now();
    let trace = TraceConfig::scaled(p.files).generate(seed ^ 0xd0a7);
    let trace_generate_s = setup.elapsed().as_secs_f64();
    let topology = Topology::uniform_groups(p.nodes, p.group);
    let build = Instant::now();
    let cluster = ClusterConfig::scaled(p.nodes).build(&mut DetRng::new(seed));
    let cluster_build_s = build.elapsed().as_secs_f64();
    let mut ps = PeerStripe::with_placement(
        cluster,
        PeerStripeConfig::default().with_coding(CODING),
        p.strategy(rec),
        Some(topology.clone()),
    );
    let setup_s = setup.elapsed().as_secs_f64();

    let deploy = Instant::now();
    let mut store_ms = Vec::with_capacity(p.files);
    let mut stores_failed = 0;
    for file in &trace.files {
        let (outcome, ms) = timed(rec, "store", || ps.store_file(file));
        stores_failed += u64::from(!outcome.is_stored());
        store_ms.push(ms);
    }
    let deploy_s = deploy.elapsed().as_secs_f64();
    let stored_ratio =
        ps.cluster().total_used().as_u64() as f64 / trace.total_size().as_u64() as f64;

    let sweep = |available: &dyn Fn() -> usize| -> (Vec<f64>, usize) {
        let mut count = 0;
        let per_file_ms = (0..SWEEPS)
            .map(|_| {
                let t = Instant::now();
                count = black_box(available());
                t.elapsed().as_secs_f64() * 1e3 / p.files as f64
            })
            .collect();
        (per_file_ms, count)
    };
    let (fetch_ms, available) = sweep(&|| ps.manifests().available_count(ps.cluster()));
    // Every file just stored must read as available.
    stores_failed += (p.files - available.min(p.files)) as u64;

    let manifests = ps.manifests().clone();
    let (churn, repair) = p.churn(&topology);
    let mut engine =
        MaintenanceEngine::new(ps.into_cluster(), &manifests, churn, repair, CHURN_SEED)
            .with_placement(p.strategy(rec), Some(topology));
    let hour_s = (0..p.hours)
        .map(|_| {
            timed(rec, "engine", || {
                engine.run_for(SimTime::from_secs_f64(3_600.0))
            })
            .1 / 1e3
        })
        .collect();
    let (degraded_ms, degraded_available) = sweep(&|| manifests.available_count(engine.cluster()));

    SimRound {
        setup_s,
        trace_generate_s,
        cluster_build_s,
        store_ms,
        deploy_s,
        stores_failed,
        stored_ratio,
        fetch_ms,
        degraded_ms,
        degraded_available,
        hour_s,
        report: engine.report(),
    }
}

/// The engine run's wall seconds: rounds are identical, so each simulated
/// hour takes its quiet-rounds timing before the hours are added up.
fn engine_wall_s(rounds: &[SimRound]) -> f64 {
    let hours = rounds.first().map_or(0, |r| r.hour_s.len());
    (0..hours).map(|h| quiet(rounds, |r| r.hour_s[h])).sum()
}

fn pooled<'a>(rounds: &'a [SimRound], f: impl Fn(&'a SimRound) -> &'a [f64]) -> Vec<f64> {
    rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
}

/// The quiet-rounds value of a per-round quantity.
fn quiet(rounds: &[SimRound], f: impl Fn(&SimRound) -> f64) -> f64 {
    quiet_rounds(&rounds.iter().map(f).collect::<Vec<_>>())
}

pub fn run(p: &SimParams, args: &RunArgs) -> Result<Outcome, String> {
    let rec = args.trace.then(Recorder::shared);
    let mut plain: Vec<SimRound> = Vec::new();
    let mut traced: Vec<SimRound> = Vec::new();
    let started = Instant::now();
    let mut peak_rss = 0.0f64;
    loop {
        let n = plain.len() + traced.len();
        match &rec {
            Some(rec) if n % 2 == 1 => traced.push(round(p, args.seed, Some(rec))),
            _ => plain.push(round(p, args.seed, None)),
        }
        peak_rss = peak_rss.max(peak_rss_mib());
        // At least two rounds of a kind, so every run checks that the
        // simulation repeats; a traced run keeps the two kinds paired.
        let enough = if rec.is_some() {
            traced.len() >= 2 && plain.len() == traced.len()
        } else {
            plain.len() >= 2
        };
        if enough && started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    // Same seed, same simulation: every round must agree with the first on
    // the exact counts.
    let first = &plain[0].report;
    let repeats = plain.iter().chain(&traced).all(|r| {
        r.report.events == first.events
            && r.report.files_lost == first.files_lost
            && r.report.blocks_regenerated == first.blocks_regenerated
            && r.degraded_available == plain[0].degraded_available
    });
    let rounds = (plain.len() + traced.len()) as u64;
    let stores_failed: u64 = plain.iter().chain(&traced).map(|r| r.stores_failed).sum();

    let mut m = Measured::default();
    if let Some(rec) = &rec {
        let rec = rec.borrow();
        layer_metrics(p, args, &plain, &traced, &rec, &mut m);
        args.write_trace(rec.spans())?;
    } else {
        m.set("store_p50_ms", quiet(&plain, |r| median(&r.store_ms)));
        m.set("fetch_p50_ms", quiet(&plain, |r| median(&r.fetch_ms)));
        m.set(
            "degraded_fetch_p50_ms",
            quiet(&plain, |r| median(&r.degraded_ms)),
        );
        m.set(
            "repair_block_p50_ms",
            engine_wall_s(&plain) * 1e3 / first.blocks_regenerated.max(1) as f64,
        );
        m.set("stored_bytes_per_user_byte", plain[0].stored_ratio);
        m.set("peak_rss_mb", peak_rss);
        m.set("setup_s", quiet(&plain, |r| r.setup_s));
    }
    Ok(Outcome {
        correct: repeats,
        attempted: rounds * (p.files as u64 + 1),
        failed: stores_failed + u64::from(!repeats),
        rounds,
        samples: vec![
            ("store".to_string(), (plain.len() * p.files) as u64),
            ("fetch".to_string(), (plain.len() * SWEEPS) as u64),
            ("degraded_fetch".to_string(), (plain.len() * SWEEPS) as u64),
            ("repair".to_string(), plain.len() as u64),
        ],
        metrics: m,
    })
}

/// Median nanoseconds of one routed overlay lookup on a fresh cluster of
/// this size, timed a thousand lookups at a go.
fn route_probe_ns(p: &SimParams, seed: u64) -> f64 {
    let mut rng = DetRng::new(seed);
    let mut cluster = ClusterConfig::scaled(p.nodes).build(&mut rng);
    let keys: Vec<Id> = (0..1000).map(|_| Id::random(&mut rng)).collect();
    let batches: Vec<f64> = (0..50)
        .map(|_| {
            let t = Instant::now();
            for &key in &keys {
                black_box(cluster.route_lookup(key));
            }
            t.elapsed().as_nanos() as f64 / keys.len() as f64
        })
        .collect();
    median(&batches)
}

fn layer_metrics(
    p: &SimParams,
    args: &RunArgs,
    plain: &[SimRound],
    traced: &[SimRound],
    rec: &Recorder,
    m: &mut Measured,
) {
    let spans = rec.spans();
    let named = |name: &'static str| spans.iter().filter(move |s| s.name == name);
    let total_s = |name: &'static str| named(name).map(Span::duration_ns).sum::<u64>() as f64 / 1e9;
    let us = |name: &'static str| -> Vec<f64> {
        named(name).map(|s| s.duration_ns() as f64 / 1e3).collect()
    };
    let rounds = traced.len() as f64;

    let store = summarize(&pooled(plain, |r| &r.store_ms));
    m.set("core.client.store_tail_ms", store.tail);
    m.set("core.client.store_tail_pct", store.tail_pct);
    m.set("core.client.store_samples", store.samples as f64);

    // placement: on the simulator a decision has no child spans (its probes
    // are in-process table lookups), so self time is the whole span.
    let plans = us("placement.plan_chunk");
    m.set("placement.plan_chunk_p50_us", median(&plans));
    m.set("placement.plan_chunk_self_us", median(&plans));
    m.set(
        "placement.plan_chunk_calls_per_store",
        plans.len() as f64 / (rounds * p.files as f64),
    );
    m.set(
        "placement.plan_success_ratio",
        rec.count_of("placement.plan_ok") as f64 / plans.len().max(1) as f64,
    );
    let repairs = us("placement.repair_targets");
    m.set("placement.repair_targets_p50_us", median(&repairs));
    m.set(
        "placement.repair_targets_calls_per_round",
        repairs.len() as f64 / rounds,
    );
    let deploy_s: f64 = traced.iter().map(|r| r.deploy_s).sum();
    let engine_s: f64 = traced.iter().flat_map(|r| &r.hour_s).sum();
    m.set(
        "placement.share_of_deploy",
        total_s("placement.plan_chunk") / deploy_s,
    );
    m.set(
        "placement.share_of_engine",
        total_s("placement.repair_targets") / engine_s,
    );

    // repair: the engine's exact counts and its own time.
    let report = &plain[0].report;
    let wall_s = engine_wall_s(plain);
    m.set("repair.engine.events", report.events as f64);
    m.set("repair.engine.events_per_s", report.events as f64 / wall_s);
    m.set(
        "repair.engine.self_s",
        (engine_s - total_s("placement.repair_targets")) / rounds,
    );
    m.set(
        "repair.engine.blocks_regenerated",
        report.blocks_regenerated as f64,
    );
    m.set(
        "repair.engine.repair_bytes",
        report.repair_bytes.as_u64() as f64,
    );
    m.set(
        "repair.engine.false_declarations",
        report.false_declarations as f64,
    );
    m.set(
        "repair.engine.files_lost_ratio",
        report.files_lost as f64 / report.files_total.max(1) as f64,
    );

    m.set(
        "sim.deploy_files_per_s",
        p.files as f64 / quiet(plain, |r| r.deploy_s),
    );
    m.set(
        "sim.degraded_available_ratio",
        plain[0].degraded_available as f64 / p.files as f64,
    );
    m.set("sim.cluster_build_s", quiet(plain, |r| r.cluster_build_s));
    m.set("trace.generate_s", quiet(plain, |r| r.trace_generate_s));
    m.set("overlay.route_p50_ns", route_probe_ns(p, args.seed));

    let overhead = |plain_v: f64, traced_v: f64| 100.0 * (traced_v - plain_v) / plain_v;
    m.set(
        "telemetry.trace_overhead_pct.store",
        overhead(
            quiet(plain, |r| median(&r.store_ms)),
            quiet(traced, |r| median(&r.store_ms)),
        ),
    );
    m.set(
        "telemetry.trace_overhead_pct.repair",
        overhead(wall_s, engine_wall_s(traced)),
    );
}
