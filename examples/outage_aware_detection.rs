//! Outage-aware failure detection: why a lab outage should not trigger a
//! regeneration wave.
//!
//! A desktop grid's labs power down overnight.  A per-node failure detector
//! with an aggressive permanence timeout declares every member of a downed
//! lab dead independently, regenerates all their blocks — and throws that
//! work away when the lab comes back in the morning.  This example drives the
//! same deployment through the same 72 h of grouped churn twice: once under
//! the classic per-node timeout and once under the outage-aware policy, which
//! holds declarations while ≥θ of a lab is absent and cancels them wholesale
//! when the lab returns.
//!
//! Run with `cargo run --example outage_aware_detection`.

use peerstripe::core::{ClusterConfig, CodingPolicy, PeerStripe, PeerStripeConfig, StorageSystem};
use peerstripe::placement::Topology;
use peerstripe::repair::{
    BandwidthBudget, ChurnProcess, DetectionKind, DetectorConfig, GroupedChurn, MaintenanceEngine,
    MaintenanceReport, OutageAwareConfig, RepairConfig, RepairPolicy, SessionModel,
};
use peerstripe::sim::{ByteSize, DetRng, SimTime};
use peerstripe::trace::{CapacityModel, FileRecord};

/// Deploy 30 files over 60 nodes (6 labs of 10) and run 72 h of churn in
/// which labs suffer ~12 h outages against a 4 h permanence timeout.
fn run(detection: DetectionKind) -> MaintenanceReport {
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
        // Each lab suffers an outage every ~24 h, lasting ~12 h.
        grouped: Some(GroupedChurn::new(topology, 24.0, 12.0)),
    };
    let config = RepairConfig {
        policy: RepairPolicy::Eager,
        // 4 h permanence timeout: every 12 h outage outlives it.
        detector: DetectorConfig::default_desktop_grid().with_timeout(4.0 * 3_600.0),
        detection,
        bandwidth: BandwidthBudget::symmetric(ByteSize::mb(4)),
        sample_period_secs: 3_600.0,
    };
    let mut engine =
        MaintenanceEngine::new(storage.into_cluster(), &manifests, churn, config, 2026);
    engine.run_for(SimTime::from_secs(72 * 3_600));
    engine.report()
}

fn main() {
    println!("pool: 60 nodes in 6 labs of 10; ~12 h lab outages vs a 4 h permanence timeout\n");
    let mut reports = Vec::new();
    for detection in [
        DetectionKind::PerNodeTimeout,
        DetectionKind::OutageAware(OutageAwareConfig::default_desktop_grid()),
    ] {
        let report = run(detection);
        println!("{}:", report.detector);
        println!(
            "  repair traffic: {} ({:.2} per useful byte), {:.0}% of it wasted",
            report.repair_bytes,
            report.repair_per_useful_byte,
            100.0 * report.wasted_repair_fraction()
        );
        println!(
            "  declarations: {} false, {} held as outages, {} holds cancelled by returns",
            report.false_declarations, report.declarations_held, report.held_cancelled
        );
        println!(
            "  durability: {} of {} files lost, availability {:.1}% mean\n",
            report.files_lost, report.files_total, report.availability_mean_pct
        );
        reports.push(report);
    }
    let (per_node, aware) = (&reports[0], &reports[1]);
    let ratio = per_node.repair_bytes.as_u64() as f64 / aware.repair_bytes.as_u64().max(1) as f64;
    println!(
        "outage-aware detection spends {ratio:.1}x less repair traffic on the same churn, \
         losing {} vs {} files",
        aware.files_lost, per_node.files_lost
    );
}
