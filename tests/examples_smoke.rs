//! Smoke test mirroring `examples/quickstart.rs`: the store → retrieve →
//! fail → recover walkthrough must keep succeeding on a small cluster, so the
//! shipped example cannot silently rot. (`cargo build --examples` keeps the
//! other examples compiling; this exercises the quickstart *logic*.)
#![expect(clippy::expect_used, reason = "test helpers fail by panicking")]

use peerstripe::core::{ClusterConfig, CodingPolicy, PeerStripe, PeerStripeConfig, StorageSystem};
use peerstripe::experiments::cli::run_experiment;
use peerstripe::experiments::Scale;
use peerstripe::net::{RingGateway, Transport};
use peerstripe::sim::{ByteSize, DetRng};
use peerstripe::trace::{CapacityModel, FileRecord};
use std::collections::BTreeMap;

#[test]
fn quickstart_store_retrieve_on_small_cluster() {
    // Same shape as the example: a small pool of modest contributors.
    let mut rng = DetRng::new(2026);
    let cluster = ClusterConfig {
        nodes: 64,
        capacity: CapacityModel::Uniform {
            lo: ByteSize::mb(64),
            hi: ByteSize::mb(256),
        },
        track_objects: true,
    }
    .build(&mut rng);
    assert_eq!(cluster.node_count(), 64);

    let mut storage = PeerStripe::new(
        cluster,
        PeerStripeConfig::default().with_coding(CodingPolicy::xor_2_3()),
    );

    // Store real bytes (1 MB keeps the test fast; the example uses 4 MB).
    let image: Vec<u8> = (0..1024 * 1024u32)
        .map(|i| ((i.wrapping_mul(2654435761)) >> 24) as u8)
        .collect();
    let outcome = storage.store_data("mri-scan-0007", &image);
    assert!(outcome.is_stored());

    let manifest = storage
        .manifest("mri-scan-0007")
        .expect("manifest recorded");
    assert!(!manifest.chunks.is_empty());
    assert!(!manifest.cat_nodes.is_empty());

    // Range read touches only the chunks covering the range.
    let slice = storage
        .retrieve_range_data("mri-scan-0007", 500_000, 64)
        .expect("range read");
    assert_eq!(slice, &image[500_000..500_064]);

    // Fail a node holding a block: the file stays available, the lost blocks
    // are regenerated, and the payload still reads back bit-for-bit.
    let victim = manifest.chunks[0].blocks[0].node;
    let takeover = storage.backend_mut().fail_node(victim).expect("takeover");
    assert!(storage.is_file_available("mri-scan-0007"));
    storage.handle_node_failure(victim, &takeover);
    let restored = storage.retrieve_data("mri-scan-0007").expect("full read");
    assert_eq!(restored, image);

    // Metadata-only path: a file far larger than any single contributor.
    let big = FileRecord::new("climate-ensemble.tar", ByteSize::gb(2));
    assert!(storage.store_file(&big).is_stored());
    assert!(storage.is_file_available("climate-ensemble.tar"));
    let chunks = storage
        .manifest("climate-ensemble.tar")
        .unwrap()
        .chunks
        .len();
    assert!(
        chunks > 1,
        "a 2 GB file must stripe over multiple chunks, got {chunks}"
    );
}

/// The `repro` erasure-coding drivers keep producing their reports: `table2`
/// must carry all four codec rows (including the optimal Reed-Solomon row)
/// and `rs-sweep` must report full minimal-subset recovery.  Exercises the
/// same dispatch the `repro` binary runs.
#[test]
fn repro_table2_and_rs_sweep_at_small_scale() {
    let table2 = run_experiment("table2", Scale::Small, 42).expect("table2 is a known experiment");
    for code in ["Null", "XOR", "Online", "ReedSolomon"] {
        assert!(
            table2.contains(code),
            "Table 2 lost its {code} row:\n{table2}"
        );
    }
    assert!(
        table2.contains("Min-decode"),
        "minimal-subset column missing"
    );

    let sweep =
        run_experiment("rs-sweep", Scale::Small, 42).expect("rs-sweep is a known experiment");
    assert!(sweep.contains("ReedSolomon"), "sweep report:\n{sweep}");
    assert!(
        sweep.contains("100%"),
        "RS must recover from every minimal subset:\n{sweep}"
    );
}

/// The continuous-churn repair sweep keeps producing its report through the
/// `repro` dispatch: every swept policy appears, and the headline eager-vs-lazy
/// comparison lines are rendered.  This is the same code path
/// `repro repair-sweep --scale small` (run in CI as part of `repro all`) takes.
#[test]
fn repro_repair_sweep_at_small_scale() {
    let report = run_experiment("repair-sweep", Scale::Small, 42)
        .expect("repair-sweep is a known experiment");
    assert!(report.contains("Repair sweep"), "report:\n{report}");
    for needle in ["eager", "lazy(k=0)", "lazy(k=2)", "vs eager @ timeout"] {
        assert!(report.contains(needle), "missing '{needle}':\n{report}");
    }
    assert!(
        report.contains("Repair/useful"),
        "maintenance-bill column missing:\n{report}"
    );
}

/// The grouped-churn placement sweep keeps producing its report through the
/// `repro` dispatch — the same code path `repro placement-sweep --scale small`
/// (run in CI as part of `repro all`) takes — and keeps demonstrating its
/// headline: domain-aware placement beats oblivious placement on files lost
/// under correlated whole-domain outages at equal repair bandwidth.
#[test]
fn repro_placement_sweep_at_small_scale() {
    use peerstripe::experiments::placement_sweep::{run_placement_sweep, PlacementSweepConfig};
    use peerstripe::experiments::report::render_placement_sweep;

    let sweep = run_placement_sweep(&PlacementSweepConfig::at_scale(Scale::Small, 42));
    assert!(
        sweep.domain_spread_beats_oblivious(),
        "domain-spread must beat overlay-random on durability: {:#?}",
        sweep.rows
    );
    // The detector axis: outage-aware detection must at least halve the
    // repair bill versus the per-node baseline — on the synthetic grouped
    // topology *and* the trace-derived from_sessions one — without losing
    // any additional files.  This is the ROADMAP outage-aware item's
    // acceptance bar.
    assert!(
        sweep.outage_aware_beats_per_node(),
        "outage-aware detection must halve repair bytes at equal durability: {:#?}",
        sweep.detector_rows
    );
    let report = render_placement_sweep(&sweep);
    for needle in [
        "Placement sweep",
        "overlay-random",
        "domain-spread",
        "capacity-weighted",
        "domain-spread vs overlay-random @ group",
        "total over matched configurations",
        "Cap viol.",
        "Detector sweep",
        "per-node",
        "outage-aware(θ=0.50)",
        "sessions(",
        "vs per-node @",
        "Wasted%",
    ] {
        assert!(report.contains(needle), "missing '{needle}':\n{report}");
    }
    // The dispatcher path agrees with the direct call.
    let dispatched = run_experiment("placement-sweep", Scale::Small, 42)
        .expect("placement-sweep is a known experiment");
    assert!(dispatched.contains("Placement sweep"));
}

/// A `repro <experiment> --scale small --seed 42` capture under
/// `tests/golden/`, minus the binary's header (its first two lines): what
/// `run_experiment` returns for the same experiment.
fn golden_body(file: &str) -> String {
    let path = format!("{}/tests/golden/{file}", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(path).expect("golden capture present");
    golden.lines().skip(2).map(|l| format!("{l}\n")).collect()
}

/// The per-node detection path is byte-identical to the pre-refactor engine:
/// the golden file was captured from `repro placement-sweep --scale small
/// --seed 42` *before* detection became pluggable, and the placement-strategy
/// table (which runs entirely under per-node detection) must still render
/// byte for byte.  The refactor adds the detector axis strictly below it.
#[test]
fn placement_sweep_per_node_output_matches_pre_refactor_golden() {
    // The rendered placement-sweep section exactly as the seed-42 small run
    // produced it pre-refactor.
    let body = golden_body("placement_sweep_small_seed42.txt");
    assert!(!body.is_empty(), "golden file must carry the table");
    let report = run_experiment("placement-sweep", Scale::Small, 42)
        .expect("placement-sweep is a known experiment");
    assert!(
        report.starts_with(&body),
        "per-node placement-sweep output diverged from the pre-refactor \
         golden capture.\n--- golden ---\n{body}\n--- current ---\n{report}"
    );
}

/// Figure 10, Table 3 and Table 4 are pinned whole: the golden files are
/// `repro fig10|table3|table4 --scale small --seed 42` as printed (two header
/// lines, then the experiment's section), so a change to the block
/// bookkeeping or the comparison systems under any of them cannot move a
/// digit unnoticed.  Figure 7 and Table 1 have goldens too, but take seconds
/// in a release build; CI diffs those against the release `repro`.
#[test]
fn pinned_outputs_match_their_golden_captures() {
    for experiment in ["fig10", "table3", "table4"] {
        let body = golden_body(&format!("{experiment}_small_seed42.txt"));
        let report = run_experiment(experiment, Scale::Small, 42).expect("known experiment");
        assert_eq!(
            report, body,
            "{experiment} diverged from its golden capture"
        );
    }
}

/// Smoke for `examples/outage_aware_detection.rs`: the per-node vs
/// outage-aware comparison the example walks through must keep demonstrating
/// the saving — same logic, smaller cluster.
#[test]
fn outage_aware_detection_example_logic() {
    use peerstripe::placement::Topology;
    use peerstripe::repair::{
        BandwidthBudget, ChurnProcess, DetectionKind, DetectorConfig, GroupedChurn,
        MaintenanceEngine, OutageAwareConfig, RepairConfig, RepairPolicy, SessionModel,
    };
    use peerstripe::sim::SimTime;

    let run = |detection: DetectionKind| {
        let mut rng = DetRng::new(2026);
        let cluster = ClusterConfig {
            nodes: 60,
            capacity: CapacityModel::Fixed(ByteSize::gb(4)),
            track_objects: true,
        }
        .build(&mut rng);
        let mut storage = PeerStripe::new(
            cluster,
            PeerStripeConfig::default().with_coding(CodingPolicy::online_default()),
        );
        for i in 0..30 {
            assert!(storage
                .store_file(&FileRecord::new(format!("archive-{i}"), ByteSize::mb(200)))
                .is_stored());
        }
        let manifests = storage.manifests().clone();
        let topology = Topology::uniform_groups(60, 10);
        let churn = ChurnProcess {
            sessions: SessionModel::Synthetic {
                mean_session_secs: 24.0 * 3_600.0,
                mean_downtime_secs: 2.0 * 3_600.0,
            },
            permanent_fraction: 0.0,
            grouped: Some(GroupedChurn::new(topology, 24.0, 12.0)),
        };
        let config = RepairConfig {
            policy: RepairPolicy::Eager,
            detector: DetectorConfig::default_desktop_grid().with_timeout(4.0 * 3_600.0),
            detection,
            bandwidth: BandwidthBudget::symmetric(ByteSize::mb(4)),
            sample_period_secs: 3_600.0,
        };
        let mut engine =
            MaintenanceEngine::new(storage.into_cluster(), &manifests, churn, config, 2026);
        engine.run_for(SimTime::from_secs(72 * 3_600));
        engine.report()
    };
    let per_node = run(DetectionKind::PerNodeTimeout);
    let aware = run(DetectionKind::OutageAware(
        OutageAwareConfig::default_desktop_grid(),
    ));
    assert!(per_node.false_declarations > 0, "{per_node:?}");
    assert!(aware.declarations_held > 0, "{aware:?}");
    assert!(
        aware.repair_bytes.as_u64() * 2 <= per_node.repair_bytes.as_u64(),
        "outage awareness must halve the repair bill: {} vs {}",
        aware.repair_bytes,
        per_node.repair_bytes
    );
    assert!(aware.files_lost <= per_node.files_lost);
}

/// The networked path's tier-1 coverage, the cycle `repro ring` runs: store
/// a file through the gateway to eight daemons, take a block holder away,
/// and verify the degraded read and the repair path — the same
/// client/placement/erasure stack as the simulator, with rid-joined
/// telemetry on both ends.
///
/// The cycle runs over the in-memory wire always, twice (a run replays byte
/// for byte), and over real `peerstripe-node` processes too when the binary
/// is built (CI builds it first).  Each run renders the work of each phase,
/// and no timings: the gateway's RPCs by op and outcome, each daemon's
/// objects and bytes as a scrape finds them, and the recovery report.  Every
/// rendering must equal `tests/golden/ring_cycle_counts.txt`; a failure
/// prints the rendering to re-pin from.
#[test]
fn network_ring_store_kill_recover() {
    use peerstripe::net::{node_binary, GatewayConfig, LocalRing, MemWire};

    let golden = include_str!("golden/ring_cycle_counts.txt");
    let pinned = |counts: String, ring: &str| {
        assert!(counts == golden, "{ring} did other work:\n{counts}");
    };
    let capacity = ByteSize::mb(64);
    let over_wire = || {
        let (wire, gateway) = MemWire::ring_of(RING_NODES, capacity);
        ring_cycle(gateway, |victim| wire.stop(victim))
    };
    let first = over_wire();
    assert_eq!(
        over_wire(),
        first,
        "a second run over the wire did other work"
    );
    pinned(first, "the in-memory wire");
    if let Some(bin) = node_binary() {
        let mut ring = LocalRing::spawn(&bin, RING_NODES, capacity).expect("spawn daemons");
        let gateway = ring.gateway(GatewayConfig::default());
        let counts = ring_cycle(gateway, |victim| ring.kill(victim).expect("kill daemon"));
        pinned(counts, "the ring of daemon processes");
    }
}

const RING_NODES: usize = 8;

/// One store → fetch → stop → degraded fetch → repair → fetch cycle over
/// `gateway`, `stop` taking away the first daemon that holds a block; the
/// work of each phase, rendered.
fn ring_cycle<T: Transport>(gateway: RingGateway<T>, stop: impl FnOnce(usize)) -> String {
    let mut storage = PeerStripe::new(
        gateway,
        PeerStripeConfig {
            coding: CodingPolicy::ReedSolomon { data: 5, parity: 3 },
            ..PeerStripeConfig::default()
        },
    );
    let mut rng = DetRng::new(42);
    let data: Vec<u8> = (0..128 * 1024).map(|_| rng.next_u64() as u8).collect();
    let file = "telemetry.parquet";
    let (mut counts, mut logged) = (String::new(), 0);
    let mut phase = |storage: &PeerStripe<RingGateway<T>>, name: &str| {
        phase_counts(&mut counts, &mut logged, storage.backend(), name);
    };

    assert!(storage.store_data(file, &data).is_stored());
    phase(&storage, "store");
    let manifest = storage.manifest(file).expect("manifest");
    let victim = manifest
        .all_blocks()
        .map(|b| b.node)
        .min()
        .expect("a holder");

    assert_eq!(storage.retrieve_data(file).as_deref(), Some(&data[..]));
    phase(&storage, "fetch");
    stop(victim);
    assert_eq!(
        storage.retrieve_data(file).as_deref(),
        Some(&data[..]),
        "degraded read with node {victim} gone"
    );
    phase(&storage, "degraded fetch");
    let takeover = storage.backend_mut().mark_failed(victim).expect("a member");
    let report = storage.handle_node_failure(victim, &takeover);
    assert_eq!(report.chunks_lost, 0);
    assert!(report.blocks_regenerated > 0);
    phase(&storage, "repair");
    assert_eq!(storage.retrieve_data(file).as_deref(), Some(&data[..]));
    assert!(storage.is_file_available(file));
    phase(&storage, "fetch");
    counts + &format!("{report:?}\n")
}

/// Append one phase's work to `counts`: the gateway's RPCs since its first
/// `*logged` op-log entries, by op and outcome, then each daemon's objects
/// and bytes, or `down` if its scrape fails.
fn phase_counts<T: Transport>(
    counts: &mut String,
    logged: &mut usize,
    gateway: &RingGateway<T>,
    name: &str,
) {
    let log = gateway.op_log();
    let mut rpcs: BTreeMap<(&str, &str), u64> = BTreeMap::new();
    for e in log.iter().skip(*logged) {
        *rpcs.entry((&e.op, &e.outcome)).or_default() += 1;
    }
    *logged = log.len();
    counts.push_str(&format!("{name}\n"));
    for ((op, outcome), n) in rpcs {
        counts.push_str(&format!("  rpc {op:<12} {outcome:<3} {n:>2}\n"));
    }
    for node in 0..RING_NODES {
        counts.push_str(&match gateway.get_stats(node) {
            Ok(s) => format!(
                "  node-{node} {} objects {} bytes\n",
                s.objects,
                s.used.as_u64()
            ),
            Err(_) => format!("  node-{node} down\n"),
        });
    }
}
