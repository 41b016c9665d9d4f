//! Smoke test mirroring `examples/quickstart.rs`: the store → retrieve →
//! fail → recover walkthrough must keep succeeding on a small cluster, so the
//! shipped example cannot silently rot. (`cargo build --examples` keeps the
//! other examples compiling; this exercises the quickstart *logic*.)
#![expect(clippy::expect_used, reason = "test helpers fail by panicking")]

use peerstripe::core::{ClusterConfig, CodingPolicy, PeerStripe, PeerStripeConfig, StorageSystem};
use peerstripe::experiments::cli::{header, run_experiment, DRIVERS, TOOLS};
use peerstripe::experiments::coding::{run_table2, CodingConfig};
use peerstripe::experiments::Scale;
use peerstripe::sim::{ByteSize, DetRng};
use peerstripe::trace::{CapacityModel, FileRecord};

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
    // The columns that do not time anything are pinned: each row's encoded
    // size, its overhead over the chunk, and its minimal-subset decodes
    // (successes, attempts).
    let rows = run_table2(&CodingConfig::at_scale(Scale::Small, 42)).rows;
    let pinned: Vec<_> = rows
        .iter()
        .map(|r| {
            let subsets = (r.min_subset_successes, r.min_subset_attempts);
            (
                r.name,
                r.encoded_size.as_u64(),
                r.size_overhead_pct(),
                subsets,
            )
        })
        .collect();
    assert_eq!(
        pinned,
        [
            ("Null", 262_144, 0.0, (2, 2)),
            ("XOR", 393_216, 50.0, (2, 2)),
            ("Online", 274_432, 4.6875, (2, 2)),
            ("ReedSolomon", 270_480, 3.179931640625, (2, 2)),
        ]
    );

    let sweep =
        run_experiment("rs-sweep", Scale::Small, 42).expect("rs-sweep is a known experiment");
    assert!(sweep.contains("ReedSolomon"), "sweep report:\n{sweep}");
    assert!(
        sweep.contains("100%"),
        "RS must recover from every minimal subset:\n{sweep}"
    );
}

/// The grouped-churn placement sweep keeps demonstrating its headline:
/// domain-aware placement beats oblivious placement on files lost under
/// correlated whole-domain outages at equal repair bandwidth.  Its rendering
/// must also equal the golden capture that
/// [`pinned_outputs_match_their_golden_captures`] compares the driver's own
/// run with: a second run in one process renders the same bytes.
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
    let name = "placement-sweep";
    let printed = header(name, Scale::Small, 42) + &render_placement_sweep(&sweep) + "\n";
    assert!(printed == golden(name), "a second run rendered:\n{printed}");
}

/// `tests/golden/<name>_small_seed42.txt`: what `repro <name> --scale small
/// --seed 42` prints.
fn golden(name: &str) -> String {
    let path = format!(
        "{}/tests/golden/{name}_small_seed42.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(path).expect("golden capture present")
}

/// Every untimed section `repro` prints is pinned whole by its golden
/// capture, so no change to a driver or a renderer can move a digit
/// unnoticed.  Each driver runs once for all of its sections (the store
/// comparison renders Figures 7–9 and Table 1 from one run).  A failure
/// prints the section as it now renders; re-pin with
/// `repro <name> --scale small --seed 42 > tests/golden/<name>_small_seed42.txt`,
/// and only for a change that means to move it.
#[test]
fn pinned_outputs_match_their_golden_captures() {
    for driver in DRIVERS.iter().filter(|driver| !driver.timed) {
        let rendered = (driver.run)(Scale::Small, 42);
        for (&(name, _), text) in driver.sections.iter().zip(&rendered.sections) {
            let printed = header(name, Scale::Small, 42) + text;
            assert!(
                printed == golden(name),
                "{name} diverged from its golden capture; it now prints:\n{printed}"
            );
        }
    }
}

/// README's paper → code mapping is [`DRIVERS`] rendered, a row per section
/// in table order, so the README cannot name an experiment the table lacks
/// or map one to another driver.
#[test]
fn readme_mapping_is_the_driver_table() {
    let mut table =
        String::from("| Paper artefact | Driver | `repro` sub-command |\n|---|---|---|\n");
    for driver in DRIVERS {
        for (name, artefact) in driver.sections {
            table += &format!("| {artefact} | `{}` | `{name}` |\n", driver.path);
        }
    }
    let readme = include_str!("../README.md");
    assert!(
        readme.contains(&format!("## Paper → code mapping\n\n{table}\n")),
        "README's mapping table must read:\n{table}"
    );
}

/// `repro --help` lists every form of the command one under the other:
/// each `repro` starts in the column of the first, after `usage: `.  The
/// experiments come first, then every tool of [`TOOLS`] once, in table
/// order.
#[test]
fn repro_help_aligns_every_form_of_the_command() {
    let help = peerstripe::experiments::cli::usage();
    let forms: Vec<(usize, &str)> = help
        .lines()
        .filter(|line| line.starts_with("usage: ") || line.trim_start().starts_with("repro "))
        .filter_map(|line| {
            let column = line.find("repro ")?;
            let command = line[column..].split(' ').nth(1)?;
            Some((column, command))
        })
        .collect();
    let commands: Vec<&str> = forms.iter().map(|&(_, command)| command).collect();
    let tools = TOOLS.iter().map(|tool| tool.name);
    let expected: Vec<&str> = std::iter::once("<experiment...|all>")
        .chain(tools)
        .collect();
    assert_eq!(commands, expected, "{help}");
    assert!(
        forms.iter().all(|&(column, _)| column == "usage: ".len()),
        "{forms:?}\n{help}"
    );
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

/// The networked path's tier-1 coverage: `repro ring`'s own cycle at small
/// scale, seed 42 — store a file through the gateway to eight daemons, take
/// the lowest-numbered block holder away, and verify the degraded read and
/// the repair path, with rid-joined telemetry on both ends.
///
/// The cycle runs over the in-memory wire always, twice (a run replays byte
/// for byte), and over real `peerstripe-node` processes too when the binary
/// is built (CI builds it first).  Every run's per-phase work, which has no
/// timings, must equal `tests/golden/ring_cycle_counts.txt`; a failure
/// prints the rendering to re-pin from.
#[test]
fn network_ring_store_kill_recover() {
    use peerstripe::experiments::ring_cmd::{
        render_phases, run_cycle, run_ring, RingCmdConfig, NODE_CAPACITY,
    };
    use peerstripe::net::{node_binary, MemWire};

    let golden = include_str!("golden/ring_cycle_counts.txt");
    let config = RingCmdConfig::at_scale(Scale::Small, 42);
    let over_wire = || {
        let (wire, gateway) = MemWire::ring_of(config.nodes, NODE_CAPACITY);
        run_cycle(gateway, |victim| wire.stop(victim), &config).expect("the cycle over the wire")
    };
    let first = over_wire();
    let counts = render_phases(&first);
    assert_eq!(
        render_phases(&over_wire()),
        counts,
        "a second run over the wire did other work"
    );
    assert!(
        counts == golden,
        "the in-memory wire did other work:\n{counts}"
    );
    check_ring_report(&first);
    if node_binary().is_some() {
        let report = run_ring(&config).expect("the cycle over daemon processes");
        let counts = render_phases(&report);
        assert!(
            counts == golden,
            "the daemon processes did other work:\n{counts}"
        );
        check_ring_report(&report);
    }
}

/// What a ring report must show whatever the transport: the file recovered
/// with every RPC attributed, exactly the victim stale, per-op rows on both
/// sides of the wire, and a JSON and text rendering that carry them.
fn check_ring_report(report: &peerstripe::experiments::ring_cmd::RingReport) {
    use peerstripe::experiments::ring_cmd::{render_ring_json, render_ring_text, OpStat};

    assert!(report.recovered, "every read returned the file");
    assert_eq!(report.chunks_lost, 0);
    assert!(report.blocks_regenerated > 0);
    // Every successful RPC joins a node op-log entry by request id, and the
    // victim's RPCs are logged with an error outcome, not as silent gaps:
    // the degraded read's failed RPCs all went to the victim.
    assert_eq!(report.unattributed_rpcs, 0);
    let degraded = &report.phases[2];
    assert!(degraded
        .rpcs
        .iter()
        .any(|((_, outcome), _)| outcome != "ok"));
    assert_eq!(degraded.failed_on, [Some(report.victim)]);

    // Cluster health: every daemon answered before the kill; afterwards
    // exactly the victim is stale, holding its pre-kill op log.
    assert_eq!(report.reached_before_kill, report.nodes);
    assert_eq!(report.node_health.len(), report.nodes);
    assert!(report.unhealthy_nodes().is_empty());
    for row in &report.node_health {
        let h = &row.health;
        assert!(!h.unreachable, "{}", h.name);
        assert_eq!(h.stale, h.node == report.victim, "{}", h.name);
        assert_eq!(h.scrapes, if h.stale { 1 } else { 2 }, "{}", h.name);
        let stats = row.stats.as_ref().expect("every node was scraped");
        if h.stale {
            assert!(!stats.op_log.is_empty(), "the victim's pre-kill op log");
        }
    }

    // Per-op rows on both sides of the wire saw the stores; quantiles come
    // from the shared bucket edges.
    let stored = |ops: &[OpStat]| ops.iter().any(|r| r.op == "store_block" && r.calls > 0);
    assert!(stored(&report.gateway_ops));
    assert!(report.node_health.iter().any(|n| stored(&n.ops)));
    let node_ops = report.node_health.iter().flat_map(|n| &n.ops);
    for row in report.gateway_ops.iter().chain(node_ops) {
        assert!(row.p50_ms <= row.p99_ms, "{row:?}");
    }

    let json = render_ring_json(report);
    for key in [
        "gateway_rpc_latency_ms",
        "node_requests_total",
        "\"stale\":true",
    ] {
        assert!(json.contains(key), "{json}");
    }

    // Both tables are aligned: every row starts its columns where the
    // header does.
    let text = render_ring_text(report);
    let lines: Vec<&str> = text.lines().collect();
    let mut tables = 0;
    for (i, line) in lines.iter().enumerate() {
        if !line.starts_with("---") {
            continue;
        }
        tables += 1;
        let header = column_starts(lines[i - 1]);
        let rows: Vec<&&str> = lines[i + 1..]
            .iter()
            .take_while(|l| !l.is_empty())
            .collect();
        assert!(!rows.is_empty(), "{text}");
        for row in rows {
            assert_eq!(column_starts(row), header, "{row}\n{text}");
        }
    }
    assert_eq!(tables, 2, "{text}");
}

/// Where each column of a rendered table line starts: after a run of two or
/// more spaces (a cell may hold a single space, `51.21 KB`).
fn column_starts(line: &str) -> Vec<usize> {
    let b = line.as_bytes();
    (0..b.len())
        .filter(|&i| b[i] != b' ' && (i == 0 || (i >= 2 && b[i - 1] == b' ' && b[i - 2] == b' ')))
        .collect()
}
