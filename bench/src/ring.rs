//! The three ring workloads: one life cycle on a ring of real
//! `peerstripe-node` processes, repeated in identical rounds.
//!
//! A round spawns the daemons, builds the client, then
//! stores and fetches every file (timed, byte-verified), `SIGKILL`s one
//! daemon, fetches every file again (degraded, timed), repairs
//! (`mark_failed` + `handle_node_failure`, timed per regenerated block),
//! re-reads everything, rolls every block back and checks that the daemons
//! are empty again.  The workloads differ in file size, ring size and
//! placement, and so in which layer does the work.

use crate::metrics::Measured;
use crate::probes::{codec_probe, node_inproc_us, protocol_probe, seeded_bytes};
use crate::procfs::peak_rss_mib;
use crate::span::{self, children_index, timed, Recorder, SharedRecorder, Span, NO_PARENT};
use crate::stats::{median, quiet_rounds, summarize};
use crate::traced::{RingBackend, TracedBackend, TracedPlacement};
use crate::{Outcome, RunArgs};
use peerstripe_core::{CodingPolicy, PeerStripe, PeerStripeConfig};
use peerstripe_net::{node_binary, GatewayConfig, LocalRing};
use peerstripe_overlay::NodeRef;
use peerstripe_placement::{PlacementStrategy, StrategyKind, Topology};
use peerstripe_sim::{ByteSize, DetRng};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

/// RS(5,3): eight placed blocks per chunk, any five recover it.
const CODING: CodingPolicy = CodingPolicy::ReedSolomon { data: 5, parity: 3 };
const MAX_CHUNK: ByteSize = ByteSize::mb(4);
const NODE_CAPACITY: ByteSize = ByteSize::mb(256);

pub struct RingParams {
    pub nodes: usize,
    pub file_bytes: usize,
    /// Files stored per round whose operations are timed.
    pub files: usize,
    /// Files stored first in every round and left out of the store and
    /// fetch samples: they pay for dialling the daemons.
    pub warm: usize,
    /// One failure domain per node and domain-spread placement, instead of
    /// the default overlay-random placement.
    pub domain_spread: bool,
}

impl RingParams {
    fn strategy(&self) -> Box<dyn PlacementStrategy> {
        let kind = if self.domain_spread {
            StrategyKind::DomainSpread
        } else {
            StrategyKind::OverlayRandom
        };
        kind.build(0)
    }

    fn client_config() -> PeerStripeConfig {
        PeerStripeConfig {
            coding: CODING,
            max_chunk_size: Some(MAX_CHUNK),
            ..PeerStripeConfig::default()
        }
    }

    fn chunk_bytes(&self) -> usize {
        self.file_bytes.min(MAX_CHUNK.as_u64() as usize)
    }

    fn chunks_per_file(&self) -> f64 {
        self.file_bytes.div_ceil(self.chunk_bytes()) as f64
    }
}

/// The four timed client operations, in life-cycle order.
const PHASES: [&str; 4] = ["store", "fetch", "degraded_fetch", "repair"];

/// What the rounds of one kind (untraced or traced) measured.
#[derive(Default)]
struct RingSamples {
    rounds: u64,
    /// Wall milliseconds per operation, by phase; a repair sample is one
    /// round's `handle_node_failure` time per regenerated block.
    ms: [Vec<f64>; 4],
    /// Each round's median of the above, by phase.
    round_p50: [Vec<f64>; 4],
    /// Gateway RPCs issued inside each phase's operations.
    rpcs: [u64; 4],
    blocks_regenerated: u64,
    setup_s: Vec<f64>,
    spawn_ms: Vec<f64>,
    stored_ratio: f64,
    peak_rss_mib: f64,
    rpc_errors: u64,
    /// Daemon-side `node_request_latency_ms`: `(sum_ms, count)` by op.
    node_handle: BTreeMap<String, (f64, u64)>,
    attempted: u64,
    failed: u64,
    wrong_bytes: u64,
    leaked: bool,
}

/// The daemon to kill: the first one that holds a block and whose loss
/// every chunk tolerates.  Overlay-random placement can route more blocks
/// of a chunk to one node than the code tolerates losing (see README); a
/// workload on which no operation may fail steps around such a node.
fn pick_victim<B: RingBackend>(client: &PeerStripe<B>, nodes: usize) -> Option<NodeRef> {
    let tolerable = CODING.tolerable_losses();
    (0..nodes).find(|&n| {
        let per_chunk = || {
            client
                .manifests()
                .iter()
                .flat_map(|m| m.chunks.iter())
                .map(move |c| c.blocks_on(n).count())
        };
        per_chunk().any(|held| held > 0) && per_chunk().all(|held| held <= tolerable)
    })
}

/// Account for one read: every fetch is compared byte for byte with its
/// seeded source.
fn check(s: &mut RingSamples, got: Option<Vec<u8>>, want: &[u8]) {
    s.attempted += 1;
    if got.as_deref() != Some(want) {
        s.failed += 1;
        s.wrong_bytes += u64::from(got.is_some());
    }
}

/// One life cycle on a fresh ring.  `wrap` and `placement` decide whether
/// the round is traced; everything else is identical.
fn round<B: RingBackend>(
    p: &RingParams,
    bin: &Path,
    files: &[Vec<u8>],
    wrap: impl FnOnce(peerstripe_net::RingGateway) -> B,
    placement: Box<dyn PlacementStrategy>,
    rec: Option<&SharedRecorder>,
    s: &mut RingSamples,
) -> Result<(), String> {
    let setup = Instant::now();
    let taken = s.ms.each_ref().map(Vec::len);
    let mut ring = LocalRing::spawn(bin, p.nodes, NODE_CAPACITY)
        .map_err(|e| format!("spawning {} daemons: {e}", p.nodes))?;
    s.spawn_ms.push(setup.elapsed().as_secs_f64() * 1e3);
    let topology = p
        .domain_spread
        .then(|| Topology::uniform_groups(p.nodes, 1));
    let mut client = PeerStripe::with_placement(
        wrap(ring.gateway(GatewayConfig::default())),
        RingParams::client_config(),
        placement,
        topology,
    );
    let name = |i: usize| format!("bench/file-{i:04}");
    let rpc_count = |c: &PeerStripe<B>| c.backend().gateway().rpc_count();

    // Store → fetch → verify, file by file.  The warm files are stored and
    // fetched like the rest but belong to set-up.
    for (i, data) in files.iter().enumerate() {
        let warm = i < p.warm;
        if i == p.warm {
            s.setup_s.push(setup.elapsed().as_secs_f64());
        }
        let before = rpc_count(&client);
        let (outcome, ms) = timed(rec, if warm { "warmup" } else { "store" }, || {
            client.store_data(&name(i), data)
        });
        s.attempted += 1;
        s.failed += u64::from(!outcome.is_stored());
        let mid = rpc_count(&client);
        let (got, fetch_ms) = timed(rec, if warm { "warmup" } else { "fetch" }, || {
            client.retrieve_data(&name(i))
        });
        check(s, got, data);
        if !warm {
            s.ms[0].push(ms);
            s.ms[1].push(fetch_ms);
            s.rpcs[0] += mid - before;
            s.rpcs[1] += rpc_count(&client) - mid;
        }
    }

    // Sample the full ring while every daemon is alive and holds its data.
    let user_bytes = (files.len() * p.file_bytes) as f64;
    let mut used = 0u64;
    for node in 0..p.nodes {
        let stats = client
            .backend()
            .gateway()
            .get_stats(node)
            .map_err(|e| format!("scraping node {node}: {e}"))?;
        used += stats.used.as_u64();
        for h in &stats.metrics.histograms {
            if h.name == "node_request_latency_ms" {
                if let Some((_, op)) = h.labels.iter().find(|(k, _)| k == "op") {
                    let e = s.node_handle.entry(op.clone()).or_insert((0.0, 0));
                    e.0 += h.sum;
                    e.1 += h.count;
                }
            }
        }
    }
    s.stored_ratio = used as f64 / user_bytes;
    s.peak_rss_mib = s.peak_rss_mib.max(peak_rss_mib());

    // Lose a node, read everything degraded, then repair.
    let victim = pick_victim(&client, p.nodes).ok_or("no daemon is safe to kill")?;
    ring.kill(victim).map_err(|e| format!("kill: {e}"))?;
    for (i, data) in files.iter().enumerate() {
        let before = rpc_count(&client);
        let (got, ms) = timed(rec, "degraded_fetch", || client.retrieve_data(&name(i)));
        check(s, got, data);
        s.ms[2].push(ms);
        s.rpcs[2] += rpc_count(&client) - before;
    }
    let takeover = client
        .backend_mut()
        .gateway_mut()
        .mark_failed(victim)
        .ok_or("victim was not a ring member")?;
    let before = rpc_count(&client);
    let (report, ms) = timed(rec, "repair", || {
        client.handle_node_failure(victim, &takeover)
    });
    s.rpcs[3] += rpc_count(&client) - before;
    s.attempted += 1;
    s.failed += report.chunks_lost;
    if report.blocks_regenerated == 0 {
        s.failed += 1;
    } else {
        s.ms[3].push(ms / report.blocks_regenerated as f64);
        s.blocks_regenerated += report.blocks_regenerated;
    }
    for (i, data) in files.iter().enumerate() {
        check(s, client.retrieve_data(&name(i)), data);
    }

    // Clean up through the client's own rollback verb; afterwards only the
    // few CAT bytes per file may remain on the survivors.
    let blocks: Vec<_> = client
        .manifests()
        .iter()
        .flat_map(|m| m.all_blocks().cloned())
        .collect();
    timed(rec, "cleanup", || {
        for b in &blocks {
            client.backend_mut().rollback_block(b.node, &b.name, b.size);
        }
    });
    let mut left = 0u64;
    for node in (0..p.nodes).filter(|&n| n != victim) {
        if let Ok(stats) = client.backend().gateway().get_stats(node) {
            left += stats.used.as_u64();
        }
    }
    if left > 4096 * files.len() as u64 {
        s.leaked = true;
        s.failed += 1;
    }

    s.rpc_errors += client
        .backend()
        .gateway()
        .export_metrics()
        .counters
        .iter()
        .filter(|c| c.name == "gateway_rpc_errors")
        .map(|c| c.value)
        .sum::<u64>();
    s.rounds += 1;
    for ((all, p50), before) in s.ms.iter().zip(&mut s.round_p50).zip(taken) {
        p50.push(median(&all[before..]));
    }
    Ok(())
}

pub fn run(p: &RingParams, args: &RunArgs) -> Result<Outcome, String> {
    let bin = node_binary().ok_or(
        "peerstripe-node binary not found next to the harness; \
         build it (bench/run.sh does) or set PEERSTRIPE_NODE_BIN",
    )?;
    let data_gen = Instant::now();
    let rng = DetRng::new(args.seed);
    let files: Vec<Vec<u8>> = (0..p.warm + p.files)
        .map(|i| seeded_bytes(&mut rng.fork_indexed("file", i as u64), p.file_bytes))
        .collect();
    let data_gen_s = data_gen.elapsed().as_secs_f64();

    // A traced run alternates untraced and traced rounds, so the two sets
    // of samples see the same machine conditions.
    let rec = args.trace.then(Recorder::shared);
    let mut plain = RingSamples::default();
    let mut traced = RingSamples::default();
    let started = Instant::now();
    let mut rounds = 0u64;
    loop {
        match &rec {
            Some(rec) if rounds % 2 == 1 => round(
                p,
                &bin,
                &files,
                |gw| TracedBackend::new(gw, rec.clone()),
                Box::new(TracedPlacement::new(p.strategy(), rec.clone())),
                Some(rec),
                &mut traced,
            )?,
            _ => round(p, &bin, &files, |gw| gw, p.strategy(), None, &mut plain)?,
        }
        rounds += 1;
        let paired = rec.is_none() || rounds.is_multiple_of(2);
        if paired && started.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    let mut m = Measured::default();
    if let Some(rec) = &rec {
        let rec = rec.borrow();
        layer_metrics(p, args, &plain, &traced, &rec, &mut m);
        args.write_trace(rec.spans())?;
    } else {
        m.set("store_p50_ms", quiet_rounds(&plain.round_p50[0]));
        m.set("fetch_p50_ms", quiet_rounds(&plain.round_p50[1]));
        m.set("degraded_fetch_p50_ms", quiet_rounds(&plain.round_p50[2]));
        m.set("repair_block_p50_ms", quiet_rounds(&plain.round_p50[3]));
        m.set("stored_bytes_per_user_byte", plain.stored_ratio);
        m.set("peak_rss_mb", plain.peak_rss_mib);
        m.set("setup_s", data_gen_s + quiet_rounds(&plain.setup_s));
    }
    let samples = PHASES
        .iter()
        .zip(&plain.ms)
        .map(|(phase, ms)| (phase.to_string(), ms.len() as u64))
        .collect();
    Ok(Outcome {
        correct: plain.wrong_bytes + traced.wrong_bytes == 0 && !plain.leaked && !traced.leaked,
        attempted: plain.attempted + traced.attempted,
        failed: plain.failed + traced.failed,
        rounds,
        samples,
        metrics: m,
    })
}

/// Durations in milliseconds of the spans called `name`.
fn durations_ms<'a>(spans: impl Iterator<Item = &'a Span>, name: &str) -> Vec<f64> {
    spans
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

/// Payload megabytes per second over the spans called `name` that moved any.
fn span_mbps<'a>(spans: impl Iterator<Item = &'a Span>, name: &str) -> f64 {
    let (bytes, ns) = spans
        .filter(|s| s.name == name && s.bytes > 0)
        .fold((0u64, 0u64), |(b, n), s| (b + s.bytes, n + s.duration_ns()));
    if ns == 0 {
        0.0
    } else {
        bytes as f64 / 1e6 / (ns as f64 / 1e9)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Everything the traced rounds, the untraced rounds beside them and the
/// stand-alone probes say about the layers.
fn layer_metrics(
    p: &RingParams,
    args: &RunArgs,
    plain: &RingSamples,
    traced: &RingSamples,
    rec: &Recorder,
    m: &mut Measured,
) {
    let spans = rec.spans();
    let children = children_index(spans);
    let kids = |s: &Span| -> Vec<&Span> {
        children[s.id as usize]
            .iter()
            .map(|&c| &spans[c as usize])
            .collect()
    };
    // The root span's name of every operation, so warm-up traffic (cold
    // connections) stays out of the per-call statistics.
    let mut root_of_op: BTreeMap<u32, &str> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent == NO_PARENT) {
        root_of_op.insert(s.op_id, s.name);
    }
    let measured = || {
        spans
            .iter()
            .filter(|s| root_of_op.get(&s.op_id).is_some_and(|r| *r != "warmup"))
    };
    let roots = |name: &'static str| {
        spans
            .iter()
            .filter(move |s| s.parent == NO_PARENT && s.name == name)
    };
    let self_ms = |name: &'static str| -> Vec<f64> {
        roots(name)
            .map(|s| span::self_ns(s, &kids(s)) as f64 / 1e6)
            .collect()
    };
    let backend_calls = |name: &'static str| -> f64 {
        measured()
            .filter(|s| s.name.starts_with("backend.") && root_of_op[&s.op_id] == name)
            .count() as f64
    };

    // core: the client's own time, tails and call counts.
    m.set("core.client.store_self_ms", median(&self_ms("store")));
    m.set("core.client.fetch_self_ms", median(&self_ms("fetch")));
    m.set(
        "core.client.repair_self_ms",
        ratio(
            self_ms("repair").iter().sum(),
            traced.blocks_regenerated as f64,
        ),
    );
    for (ms, tail, pct, count) in [
        (
            &plain.ms[0],
            "core.client.store_tail_ms",
            "core.client.store_tail_pct",
            "core.client.store_samples",
        ),
        (
            &plain.ms[1],
            "core.client.fetch_tail_ms",
            "core.client.fetch_tail_pct",
            "core.client.fetch_samples",
        ),
        (
            &plain.ms[2],
            "core.client.degraded_fetch_tail_ms",
            "core.client.degraded_fetch_tail_pct",
            "core.client.degraded_fetch_samples",
        ),
    ] {
        let s = summarize(ms);
        m.set(tail, s.tail);
        m.set(pct, s.tail_pct);
        m.set(count, s.samples as f64);
    }
    // Calls and RPCs per operation; a repair counts per regenerated block.
    let ops = |i: usize| traced.ms[i].len() as f64;
    let repaired = traced.blocks_regenerated as f64;
    let per = [ops(0), ops(1), ops(2), repaired];
    for (i, (calls, rpcs)) in [
        (
            "core.client.backend_calls_per_store",
            "net.gateway.rpcs_per_store",
        ),
        (
            "core.client.backend_calls_per_fetch",
            "net.gateway.rpcs_per_fetch",
        ),
        (
            "core.client.backend_calls_per_degraded_fetch",
            "net.gateway.rpcs_per_degraded_fetch",
        ),
        (
            "core.client.backend_calls_per_repaired_block",
            "net.gateway.rpcs_per_repaired_block",
        ),
    ]
    .into_iter()
    .enumerate()
    {
        m.set(calls, ratio(backend_calls(PHASES[i]), per[i]));
        m.set(rpcs, ratio(traced.rpcs[i] as f64, per[i]));
    }

    // Probes at this workload's chunk and block size.
    let chunk = seeded_bytes(&mut DetRng::new(args.seed).fork("probe"), p.chunk_bytes());
    let probe = codec_probe(
        &CODING,
        RingParams::client_config().data_path_blocks,
        &chunk,
    );
    let chunk_mb = chunk.len() as f64 / 1e6;
    let packed_mb = probe.block_payload.len() as f64 * CODING.placed_blocks() as f64 / 1e6;
    let mbps = |mb: f64, ms: f64| ratio(mb, ms / 1e3);
    m.set("core.pack_payload_MBps", mbps(packed_mb, probe.pack_ms));
    m.set("core.unpack_payload_MBps", mbps(packed_mb, probe.unpack_ms));
    m.set("erasure.encode_MBps", mbps(chunk_mb, probe.encode_ms));
    m.set("erasure.decode_MBps", mbps(chunk_mb, probe.decode_ms));
    m.set(
        "erasure.decode_degraded_MBps",
        mbps(chunk_mb, probe.decode_degraded_ms),
    );
    m.set("erasure.reencode_MBps", mbps(chunk_mb, probe.reencode_ms));
    let chunks = p.chunks_per_file();
    m.set(
        "erasure.share_of_store",
        ratio(chunks * probe.encode_ms, quiet_rounds(&plain.round_p50[0])),
    );
    m.set(
        "erasure.share_of_fetch",
        ratio(chunks * probe.decode_ms, quiet_rounds(&plain.round_p50[1])),
    );
    // What of a traced store neither a child span nor the encode and pack
    // probes account for.
    let store_ms = durations_ms(roots("store"), "store");
    let covered: Vec<f64> = roots("store")
        .map(|s| span::covered_ns(s, &kids(s)) as f64 / 1e6)
        .collect();
    let attributed = median(&covered) + chunks * (probe.encode_ms + probe.pack_ms);
    m.set(
        "core.client.store_unattributed_share",
        1.0 - ratio(attributed, median(&store_ms)).min(1.0),
    );
    let (store_us, fetch_us) = node_inproc_us(&probe.block_payload);
    m.set("net.node.store_inproc_us", store_us);
    m.set("net.node.fetch_inproc_us", fetch_us);
    let (frame_mbps, small_per_s) = protocol_probe(&probe.block_payload);
    m.set("net.protocol.frame_MBps", frame_mbps);
    m.set("net.protocol.small_frames_per_s", small_per_s);

    // net: the gateway calls as the client saw them, and the daemons' view.
    let rpc_p50 = |name: &str| median(&durations_ms(measured(), name));
    m.set("net.gateway.probe_rpc_p50_ms", rpc_p50("backend.probe"));
    let store_rpc = durations_ms(measured(), "backend.store_block");
    let fetch_rpc: Vec<f64> = measured()
        .filter(|s| s.name == "backend.fetch_block" && s.bytes > 0)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect();
    m.set("net.gateway.store_block_rpc_p50_ms", median(&store_rpc));
    m.set("net.gateway.fetch_block_rpc_p50_ms", median(&fetch_rpc));
    m.set(
        "net.gateway.remove_block_rpc_p50_ms",
        rpc_p50("backend.rollback_block"),
    );
    m.set(
        "net.gateway.store_block_MBps",
        span_mbps(measured(), "backend.store_block"),
    );
    m.set(
        "net.gateway.fetch_block_MBps",
        span_mbps(measured(), "backend.fetch_block"),
    );
    m.set(
        "net.gateway.rpc_errors_per_round",
        ratio(traced.rpc_errors as f64, traced.rounds as f64),
    );
    let handle_mean = |op: &str| {
        traced
            .node_handle
            .get(op)
            .map_or(0.0, |(sum, count)| ratio(*sum, *count as f64))
    };
    m.set(
        "net.node.handle_mean_ms.get_capacity",
        handle_mean("get_capacity"),
    );
    m.set(
        "net.node.handle_mean_ms.store_block",
        handle_mean("store_block"),
    );
    m.set(
        "net.node.handle_mean_ms.fetch_block",
        handle_mean("fetch_block"),
    );
    let mean = |v: &[f64]| ratio(v.iter().sum(), v.len() as f64);
    m.set(
        "net.wire_overhead_ms.store_block",
        (mean(&store_rpc) - handle_mean("store_block")).max(0.0),
    );
    m.set(
        "net.wire_overhead_ms.fetch_block",
        (mean(&fetch_rpc) - handle_mean("fetch_block")).max(0.0),
    );
    m.set("net.ring.spawn_ms", median(&traced.spawn_ms));

    // placement: decisions and the share of them that placed a chunk.
    let plans: Vec<&Span> = measured()
        .filter(|s| s.name == "placement.plan_chunk")
        .collect();
    let plan_us: Vec<f64> = plans.iter().map(|s| s.duration_ns() as f64 / 1e3).collect();
    let plan_self_us: Vec<f64> = plans
        .iter()
        .map(|s| span::self_ns(s, &kids(s)) as f64 / 1e3)
        .collect();
    m.set("placement.plan_chunk_p50_us", median(&plan_us));
    m.set("placement.plan_chunk_self_us", median(&plan_self_us));
    let store_plans = plans
        .iter()
        .filter(|s| root_of_op[&s.op_id] == "store")
        .count();
    m.set(
        "placement.plan_chunk_calls_per_store",
        ratio(store_plans as f64, ops(0)),
    );
    let all_plans = spans
        .iter()
        .filter(|s| s.name == "placement.plan_chunk")
        .count();
    m.set(
        "placement.plan_success_ratio",
        ratio(rec.count_of("placement.plan_ok") as f64, all_plans as f64),
    );
    let repair_targets = durations_ms(measured(), "placement.repair_targets");
    m.set(
        "placement.repair_targets_p50_us",
        median(&repair_targets) * 1e3,
    );
    m.set(
        "placement.repair_targets_calls_per_round",
        ratio(repair_targets.len() as f64, traced.rounds as f64),
    );

    // telemetry: what recording the spans cost each timed operation.
    for (i, name) in [
        "telemetry.trace_overhead_pct.store",
        "telemetry.trace_overhead_pct.fetch",
        "telemetry.trace_overhead_pct.degraded_fetch",
        "telemetry.trace_overhead_pct.repair",
    ]
    .into_iter()
    .enumerate()
    {
        let base = quiet_rounds(&plain.round_p50[i]);
        m.set(
            name,
            100.0 * ratio(quiet_rounds(&traced.round_p50[i]) - base, base),
        );
    }
}
